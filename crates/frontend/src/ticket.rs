//! Per-op completion handles.
//!
//! A [`Ticket`] is the caller's half of a submitted [`EngineOp`]: it
//! blocks (or polls) until the owning shard worker resolves the op to
//! its [`OpOutcome`]. A write resolves `Done` after the batch `sync`
//! when the front-end runs in group-commit mode, carrying the covering
//! [`Lsn`] per the `tb_common::engine` LSN/ack contract; a gathered
//! multi-part write acks the max across its parts. The worker holds the
//! matching [`Completer`]; dropping an uncompleted completer fails the
//! ticket, so a caller can never hang on an op the front-end lost (e.g.
//! during shutdown).
//!
//! [`EngineOp`]: tb_common::EngineOp

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_common::{Error, Lsn, OpOutcome, Result};

struct Shared {
    /// `Some` once resolved; the instant is the completion time, kept
    /// for open-loop latency measurement.
    outcome: Mutex<Option<(Result<OpOutcome>, Instant)>>,
    cv: Condvar,
}

/// Caller-side handle for one submitted op.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    /// One queued op, resolved by its [`Completer`].
    Single(Arc<Shared>),
    /// A scattered cross-shard `MultiGet`: each part is a per-shard
    /// sub-ticket answering the listed positions of the key-ordered
    /// response; the gather assembles them on demand.
    Gather {
        parts: Vec<(Vec<usize>, Ticket)>,
        len: usize,
    },
    /// A scattered cross-shard write (`MultiPut` split by shard):
    /// resolves [`OpOutcome::Done`] once every part has; the first part
    /// error (in part order) fails the whole ticket. Parts commit
    /// independently — cross-shard write atomicity is out of scope.
    GatherAll { parts: Vec<Ticket> },
}

/// Worker-side handle; resolves the ticket exactly once.
pub(crate) struct Completer {
    shared: Arc<Shared>,
}

/// Builds a linked ticket/completer pair.
pub(crate) fn ticket() -> (Ticket, Completer) {
    let shared = Arc::new(Shared {
        outcome: Mutex::new(None),
        cv: Condvar::new(),
    });
    (
        Ticket {
            inner: TicketInner::Single(shared.clone()),
        },
        Completer { shared },
    )
}

/// Builds a gather ticket over per-shard sub-tickets: `parts[i]` is
/// `(response positions, sub-ticket)` and `len` is the full response
/// arity. The gather resolves to [`OpOutcome::Values`] in the original
/// key order once every part has.
pub(crate) fn gather(parts: Vec<(Vec<usize>, Ticket)>, len: usize) -> Ticket {
    Ticket {
        inner: TicketInner::Gather { parts, len },
    }
}

/// Builds a write gather: resolves `Done` after every part acked.
pub(crate) fn gather_all(parts: Vec<Ticket>) -> Ticket {
    Ticket {
        inner: TicketInner::GatherAll { parts },
    }
}

/// Assembles a settled gather's parts into one key-ordered `Values`
/// outcome. The first part error fails the whole gather.
fn assemble(parts: &[(Vec<usize>, Ticket)], len: usize) -> Result<OpOutcome> {
    let mut out = vec![None; len];
    for (slots, part) in parts {
        for (slot, v) in slots.iter().zip(part.wait()?.into_values()?) {
            out[*slot] = v;
        }
    }
    Ok(OpOutcome::Values(out))
}

impl Ticket {
    /// Blocks until the op resolves. A gather resolves only once
    /// every part has settled — an early part error must not overtake
    /// slices still being applied.
    pub fn wait(&self) -> Result<OpOutcome> {
        match &self.inner {
            TicketInner::Single(shared) => {
                let mut outcome = shared.outcome.lock();
                while outcome.is_none() {
                    shared.cv.wait(&mut outcome);
                }
                outcome.as_ref().expect("resolved").0.clone()
            }
            _ => {
                for part in self.parts() {
                    let _ = part.wait();
                }
                self.settled()
            }
        }
    }

    /// Blocks at most `timeout`; `None` when still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<OpOutcome>> {
        let deadline = Instant::now() + timeout;
        match &self.inner {
            TicketInner::Single(shared) => {
                let mut outcome = shared.outcome.lock();
                while outcome.is_none() {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    shared.cv.wait_for(&mut outcome, deadline - now);
                }
                Some(outcome.as_ref().expect("resolved").0.clone())
            }
            _ => {
                for part in self.parts() {
                    let remaining = deadline.checked_duration_since(Instant::now())?;
                    // Only "settled vs timed out" matters here; part
                    // errors surface from `settled` below.
                    let _ = part.wait_timeout(remaining)?;
                }
                Some(self.settled())
            }
        }
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<Result<OpOutcome>> {
        match &self.inner {
            TicketInner::Single(shared) => shared.outcome.lock().as_ref().map(|(r, _)| r.clone()),
            _ => self.is_done().then(|| self.settled()),
        }
    }

    /// A gather's sub-tickets, in part order (empty for a single).
    fn parts(&self) -> Vec<&Ticket> {
        match &self.inner {
            TicketInner::Single(_) => Vec::new(),
            TicketInner::Gather { parts, .. } => parts.iter().map(|(_, t)| t).collect(),
            TicketInner::GatherAll { parts } => parts.iter().collect(),
        }
    }

    /// The outcome of a gather whose parts have all resolved: the first
    /// part error in part order, else the assembled outcome.
    fn settled(&self) -> Result<OpOutcome> {
        match &self.inner {
            TicketInner::Single(_) => self.wait(),
            TicketInner::Gather { parts, len } => assemble(parts, *len),
            TicketInner::GatherAll { parts } => {
                let mut lsn = Lsn::NONE;
                for part in parts {
                    lsn = lsn.max(part.wait()?.into_done()?);
                }
                Ok(OpOutcome::Done(lsn))
            }
        }
    }

    /// True once the op has resolved.
    pub fn is_done(&self) -> bool {
        match &self.inner {
            TicketInner::Single(shared) => shared.outcome.lock().is_some(),
            _ => self.parts().iter().all(|t| t.is_done()),
        }
    }

    /// When the op resolved (open-loop latency accounting);
    /// `None` while pending. A gather resolves when its last part does.
    pub fn completed_at(&self) -> Option<Instant> {
        match &self.inner {
            TicketInner::Single(shared) => shared.outcome.lock().as_ref().map(|(_, t)| *t),
            _ => {
                let mut latest = None;
                for part in self.parts() {
                    let at = part.completed_at()?;
                    latest = Some(latest.map_or(at, |l: Instant| l.max(at)));
                }
                latest
            }
        }
    }
}

impl Completer {
    /// Resolves the ticket and wakes every waiter.
    pub fn complete(self, result: Result<OpOutcome>) {
        self.resolve(result);
    }

    fn resolve(&self, result: Result<OpOutcome>) {
        let mut outcome = self.shared.outcome.lock();
        if outcome.is_none() {
            *outcome = Some((result, Instant::now()));
            drop(outcome);
            self.shared.cv.notify_all();
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        // A completer dropped without resolving (worker panicked, queue
        // discarded at shutdown) must not strand its caller.
        self.resolve(Err(Error::Unavailable(
            "request dropped by front-end".into(),
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::Value;

    #[test]
    fn wait_sees_completion_from_another_thread() {
        let (t, c) = ticket();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            c.complete(Ok(OpOutcome::Done(Lsn(7))));
        });
        assert_eq!(t.wait().unwrap(), OpOutcome::Done(Lsn(7)));
        assert!(t.is_done());
        assert!(t.completed_at().is_some());
        h.join().unwrap();
    }

    #[test]
    fn try_get_polls() {
        let (t, c) = ticket();
        assert!(t.try_get().is_none());
        c.complete(Ok(OpOutcome::Value(None)));
        assert_eq!(t.try_get().unwrap().unwrap(), OpOutcome::Value(None));
    }

    #[test]
    fn dropped_completer_fails_ticket() {
        let (t, c) = ticket();
        drop(c);
        assert!(matches!(t.wait(), Err(Error::Unavailable(_))));
    }

    #[test]
    fn wait_timeout_expires_then_resolves() {
        let (t, c) = ticket();
        assert!(t.wait_timeout(Duration::from_millis(2)).is_none());
        c.complete(Ok(OpOutcome::Done(Lsn::NONE)));
        assert!(t.wait_timeout(Duration::from_millis(2)).is_some());
    }

    #[test]
    fn gather_assembles_parts_in_key_order() {
        let (t1, c1) = ticket();
        let (t2, c2) = ticket();
        let g = gather(vec![(vec![0, 2], t1), (vec![1], t2)], 3);
        assert!(!g.is_done());
        assert!(g.try_get().is_none());
        c1.complete(Ok(OpOutcome::Values(vec![
            Some(Value::from("a")),
            Some(Value::from("c")),
        ])));
        // One part still pending: the gather is too.
        assert!(g.wait_timeout(Duration::from_millis(1)).is_none());
        c2.complete(Ok(OpOutcome::Values(vec![None])));
        assert_eq!(
            g.wait().unwrap(),
            OpOutcome::Values(vec![Some(Value::from("a")), None, Some(Value::from("c"))])
        );
        assert!(g.is_done());
        assert!(g.completed_at().is_some());
        assert!(g.try_get().is_some());
    }

    #[test]
    fn gather_part_failure_fails_the_gather() {
        let (t1, c1) = ticket();
        let (t2, c2) = ticket();
        let g = gather(vec![(vec![0], t1), (vec![1], t2)], 2);
        c1.complete(Ok(OpOutcome::Values(vec![None])));
        c2.complete(Err(Error::backpressure("shard full")));
        assert!(matches!(g.wait(), Err(Error::Backpressure { .. })));
    }

    #[test]
    fn gather_all_acks_the_max_part_lsn() {
        let (t1, c1) = ticket();
        let (t2, c2) = ticket();
        let g = gather_all(vec![t1, t2]);
        c1.complete(Ok(OpOutcome::Done(Lsn(9))));
        c2.complete(Ok(OpOutcome::Done(Lsn(3))));
        // The covering LSN of a multi-part write is the max part LSN.
        assert_eq!(g.wait().unwrap(), OpOutcome::Done(Lsn(9)));
        assert_eq!(
            g.wait_timeout(Duration::from_millis(1)).unwrap().unwrap(),
            OpOutcome::Done(Lsn(9))
        );
    }

    #[test]
    fn gather_error_waits_for_every_part_to_settle() {
        // One part fails at once, the other completes late: neither kind
        // of gather may report the error before the late part lands.
        for all in [false, true] {
            let (t1, c1) = ticket();
            let (t2, c2) = ticket();
            let g = if all {
                gather_all(vec![t1, t2])
            } else {
                gather(vec![(vec![0], t1), (vec![1], t2)], 2)
            };
            c1.complete(Err(Error::backpressure("shard full")));
            assert!(g.try_get().is_none(), "a part is still pending");
            assert!(
                g.wait_timeout(Duration::from_millis(5)).is_none(),
                "gather (all={all}) timed out with a part pending, not with its error"
            );
            let late_landed = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let landed = late_landed.clone();
            // The delay only widens the window a premature return would
            // show in; a correct `wait` passes under any schedule.
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                landed.store(true, std::sync::atomic::Ordering::SeqCst);
                c2.complete(Ok(if all {
                    OpOutcome::Done(Lsn(4))
                } else {
                    OpOutcome::Values(vec![None])
                }));
            });
            assert!(matches!(g.wait(), Err(Error::Backpressure { .. })));
            assert!(
                late_landed.load(std::sync::atomic::Ordering::SeqCst),
                "gather (all={all}) returned before its late part settled"
            );
            assert!(matches!(
                g.wait_timeout(Duration::from_millis(1)),
                Some(Err(Error::Backpressure { .. }))
            ));
            h.join().unwrap();
        }
    }

    #[test]
    fn first_completion_wins() {
        let (t, c) = ticket();
        c.complete(Err(Error::CasMismatch));
        // Drop-resolution must not overwrite the explicit outcome.
        assert_eq!(t.wait(), Err(Error::CasMismatch));
    }
}
