//! Reply oracle: every Get and Scan reply is checked against the values
//! the trace wrote to that key and against the writes already
//! acknowledged when the read was sent.
//!
//! A key may hold its loaded (or run-phase inserted) value, or the
//! single update value the workload generator derives for it
//! (`value_for(idx ^ 0xdead_beef)`). With two connections replaying one
//! shared trace, a key's insert and update may be in flight at once and
//! land in either order, so both values are legal until the order is
//! known. Once an update was acknowledged before a read was sent, and
//! the key's insert was acknowledged before that update was sent, the
//! original value is stale: reading it is a lost update. `None` is
//! legal only for a key first inserted in the run phase whose insert
//! (or update) was not yet acknowledged when the read was sent; any
//! other `None` is a lost insert. Scans must be key-ordered, inside
//! `[start, end)`, at most `limit` rows long, and must return every key
//! of their window that is known to exist (loaded keys are consecutive
//! ordinals that are never deleted).
//!
//! Times are nanoseconds on one monotonic clock: a read's send time is
//! taken before its burst is sent and a write's acknowledgement time
//! after its reply arrived, so "acknowledged before sent" is never a
//! guess. Once the clients wrap around the trace, inserts rewrite
//! original values after their updates and the stale-value check stops.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tb_common::{EngineOp, Key, OpOutcome, Result, Value};
use tb_workload::Op;

/// Keys are `user` followed by a 12-digit zero-padded ordinal.
const KEY_PREFIX: &[u8] = b"user";
const KEY_DIGITS: usize = 12;

/// The workload's key ordinal, or `None` for a key it never generates.
pub fn ordinal(key: &Key) -> Option<u64> {
    let bytes = key.as_slice();
    let digits = bytes.strip_prefix(KEY_PREFIX)?;
    if digits.len() != KEY_DIGITS || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    Some(
        digits
            .iter()
            .fold(0u64, |n, d| n * 10 + u64::from(d - b'0')),
    )
}

/// Outcome of checking one reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Check {
    /// The reply is one the trace allows.
    Ok,
    /// The op failed or was refused (an `Err` reply): counted, not wrong.
    Failed,
    /// The reply contradicts the trace.
    Wrong(String),
}

/// Legal values per key ordinal, learned from the load and run traces.
pub struct Oracle {
    /// Ordinals below this were loaded before the run phase.
    loaded: u64,
    /// Loaded or inserted value, by ordinal.
    original: Vec<Option<Value>>,
    /// The single update value, by ordinal, when the trace updates it.
    updated: Vec<Option<Value>>,
    /// When each ordinal's first run-phase insert was acknowledged, and
    /// when its first update was sent and acknowledged: time + 1, so 0
    /// means "not yet".
    insert_acked: Vec<AtomicU64>,
    update_sent: Vec<AtomicU64>,
    update_acked: Vec<AtomicU64>,
    /// Set once a client has replayed past the end of the run trace.
    wrapped: AtomicBool,
}

impl Oracle {
    /// An oracle for a store whose ordinals `0..loaded` are loaded
    /// before the run phase.
    pub fn new(loaded: u64) -> Self {
        Self {
            loaded,
            original: Vec::new(),
            updated: Vec::new(),
            insert_acked: Vec::new(),
            update_sent: Vec::new(),
            update_acked: Vec::new(),
            wrapped: AtomicBool::new(false),
        }
    }

    fn slot(table: &mut Vec<Option<Value>>, ord: u64) -> &mut Option<Value> {
        let i = ord as usize;
        if table.len() <= i {
            table.resize(i + 1, None);
        }
        &mut table[i]
    }

    /// Records what one trace op writes.
    pub fn learn(&mut self, op: &Op) {
        let (key, value, table) = match op {
            Op::Insert { key, value } => (key, value, &mut self.original),
            Op::Update { key, value } => (key, value, &mut self.updated),
            Op::Read { .. } | Op::Scan { .. } => return,
            other => panic!("the benchmark's workloads never generate {other:?}"),
        };
        let ord = ordinal(key).unwrap_or_else(|| panic!("unexpected key {key:?}"));
        let slot = Self::slot(table, ord);
        assert!(
            slot.as_ref().is_none_or(|v| v == value),
            "the trace writes two different values of one kind to {key:?}"
        );
        *slot = Some(value.clone());
        let n = self.original.len().max(self.updated.len());
        for times in [
            &mut self.insert_acked,
            &mut self.update_sent,
            &mut self.update_acked,
        ] {
            times.resize_with(n, AtomicU64::default);
        }
    }

    /// Records that the write `op`, sent at `sent` and acknowledged at
    /// `acked`, landed. Returns its ordinal and whether it wrote the
    /// key's update value (else its loaded/inserted value).
    pub fn acked(&self, op: &EngineOp, sent: u64, acked: u64) -> Option<(u64, bool)> {
        let EngineOp::Put(key, value) = op else {
            return None;
        };
        let ord = ordinal(key)?;
        let i = ord as usize;
        let first = |times: &Vec<AtomicU64>, t: u64| {
            let _ = times[i].compare_exchange(0, t + 1, Ordering::SeqCst, Ordering::SeqCst);
        };
        let update = self.is_update_value(ord, value);
        if update {
            // Sent-then-acked pairs must come from the same write: only
            // the first writer to claim the send slot records both.
            if self.update_sent[i]
                .compare_exchange(0, sent + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                first(&self.update_acked, acked);
            }
        } else {
            first(&self.insert_acked, acked);
        }
        Some((ord, update))
    }

    /// Marks that the clients replay the run trace a second time.
    pub fn set_wrapped(&self) {
        self.wrapped.store(true, Ordering::SeqCst);
    }

    /// Whether the write recorded in `times[i]` was acknowledged (or
    /// sent) strictly before `t`.
    fn before(times: &[AtomicU64], i: usize, t: u64) -> bool {
        let at = times[i].load(Ordering::SeqCst);
        at != 0 && at - 1 < t
    }

    /// Whether ordinal `ord` must exist for a read sent at `sent`.
    fn must_exist(&self, ord: u64, sent: u64) -> bool {
        let i = ord as usize;
        ord < self.loaded
            || (i < self.insert_acked.len()
                && (Self::before(&self.insert_acked, i, sent)
                    || Self::before(&self.update_acked, i, sent)))
    }

    fn check_value(
        &self,
        key: &Key,
        got: Option<&Value>,
        sent: u64,
    ) -> std::result::Result<(), String> {
        let ord = ordinal(key).ok_or_else(|| format!("reply names unknown key {key:?}"))?;
        let i = ord as usize;
        let original = self.original.get(i).and_then(Option::as_ref);
        let Some(original) = original else {
            return Err(format!("reply names key {key:?} the trace never writes"));
        };
        let updated = self.updated.get(i).and_then(Option::as_ref);
        match got {
            None if self.must_exist(ord, sent) => {
                if ord < self.loaded {
                    Err(format!("loaded key {key:?} read as absent"))
                } else {
                    Err(format!(
                        "key {key:?} read as absent after its write was acknowledged"
                    ))
                }
            }
            None => Ok(()),
            Some(v) if v == original => {
                // The insert landed before the update was sent, and the
                // update was acknowledged before this read was sent.
                let ordered = match self.update_sent[i].load(Ordering::SeqCst) {
                    0 => false,
                    s => ord < self.loaded || Self::before(&self.insert_acked, i, s - 1),
                };
                if ordered
                    && Self::before(&self.update_acked, i, sent)
                    && !self.wrapped.load(Ordering::SeqCst)
                {
                    Err(format!(
                        "key {key:?} read as its original value after its update was acknowledged"
                    ))
                } else {
                    Ok(())
                }
            }
            Some(v) if updated == Some(v) => Ok(()),
            Some(v) => Err(format!(
                "key {key:?} read as {v:?}, which the trace never wrote"
            )),
        }
    }

    fn check_scan(
        &self,
        start: &Key,
        end: Option<&Key>,
        limit: usize,
        rows: &[(Key, Value)],
        sent: u64,
    ) -> std::result::Result<(), String> {
        if rows.len() > limit {
            return Err(format!(
                "scan from {start:?} returned {} rows, limit {limit}",
                rows.len()
            ));
        }
        for (i, (key, value)) in rows.iter().enumerate() {
            if key < start || end.is_some_and(|e| key >= e) {
                return Err(format!("scan row {key:?} outside [{start:?}, {end:?})"));
            }
            if i > 0 && rows[i - 1].0 >= *key {
                return Err(format!("scan rows out of order at {key:?}"));
            }
            self.check_value(key, Some(value), sent)?;
        }
        // Every key of the window known to exist when the scan was sent
        // must come back, up to the limit.
        let (Some(first), Some(stop)) = (ordinal(start), end.and_then(ordinal)) else {
            return Ok(());
        };
        let stop = stop.min(self.original.len() as u64);
        let mut next = 0;
        for ord in first..stop {
            if next == limit {
                break;
            }
            if rows.get(next).and_then(|(k, _)| ordinal(k)) == Some(ord) {
                next += 1;
            } else if self.must_exist(ord, sent) {
                return Err(format!(
                    "scan from {start:?} misses existing key #{ord} (got {} rows)",
                    rows.len()
                ));
            }
        }
        Ok(())
    }

    /// Whether `value` is the update value of ordinal `ord`.
    fn is_update_value(&self, ord: u64, value: &Value) -> bool {
        self.updated.get(ord as usize).and_then(Option::as_ref) == Some(value)
    }

    /// Checks the reply to `op`, whose burst was sent at `sent`.
    pub fn check(&self, op: &EngineOp, reply: &Result<OpOutcome>, sent: u64) -> Check {
        let outcome = match reply {
            Err(_) => return Check::Failed,
            Ok(outcome) => outcome,
        };
        let verdict = match (op, outcome) {
            (EngineOp::Get(key), OpOutcome::Value(v)) => self.check_value(key, v.as_ref(), sent),
            (EngineOp::Put(..) | EngineOp::MultiPut(_), OpOutcome::Done(_)) => Ok(()),
            (EngineOp::Scan { start, end, limit }, OpOutcome::Range(rows)) => {
                self.check_scan(start, end.as_ref(), *limit, rows, sent)
            }
            (op, outcome) => Err(format!("{op:?} answered with {outcome:?}")),
        };
        match verdict {
            Ok(()) => Check::Ok,
            Err(why) => Check::Wrong(why),
        }
    }
}

fn key(ord: u64) -> Key {
    Key::from(format!("user{ord:012}"))
}

/// Plants wrong replies and shows the oracle rejects each one (and
/// accepts the matching right replies). Runs before every benchmark
/// run, so an oracle that can no longer fail stops the benchmark.
pub fn self_test() -> std::result::Result<(), String> {
    let v = |s: &str| Value::from(s);
    // Ordinals 0..4 are loaded; 4 and 5 are run-phase inserts.
    let mut oracle = Oracle::new(4);
    for ord in 0..6 {
        oracle.learn(&Op::Insert {
            key: key(ord),
            value: v(&format!("orig{ord}")),
        });
    }
    for ord in [1, 5] {
        oracle.learn(&Op::Update {
            key: key(ord),
            value: v(&format!("upd{ord}")),
        });
    }
    let put = |ord, val: &str| EngineOp::Put(key(ord), v(val));
    // #4 is inserted (acked at 5); loaded #1 is updated (sent 6, acked
    // 7); #5's update (sent 7) races its insert (acked 8), so either
    // value may be current afterwards.
    let acks = [
        (put(4, "orig4"), 1, 5),
        (put(1, "upd1"), 6, 7),
        (put(5, "upd5"), 7, 9),
        (put(5, "orig5"), 2, 8),
    ];
    for (op, sent, acked) in &acks {
        oracle.acked(op, *sent, *acked);
    }
    let get = |ord| EngineOp::Get(key(ord));
    let got = |s: Option<&str>| Ok(OpOutcome::Value(s.map(v)));
    let scan = |from, to, limit| EngineOp::Scan {
        start: key(from),
        end: Some(key(to)),
        limit,
    };
    let rows = |ords: &[u64]| {
        Ok(OpOutcome::Range(
            ords.iter()
                .map(|&o| {
                    let val = if o == 1 {
                        "upd1".into()
                    } else {
                        format!("orig{o}")
                    };
                    (key(o), v(&val))
                })
                .collect(),
        ))
    };
    let cases: Vec<(&str, EngineOp, Result<OpOutcome>, u64, bool)> = vec![
        ("loaded value", get(0), got(Some("orig0")), 10, true),
        ("update value", get(1), got(Some("upd1")), 10, true),
        (
            "original before the update's ack",
            get(1),
            got(Some("orig1")),
            6,
            true,
        ),
        ("run insert not acked yet", get(4), got(None), 3, true),
        (
            "run insert after its ack",
            get(4),
            got(Some("orig4")),
            10,
            true,
        ),
        (
            "either order of a racing insert and update",
            get(5),
            got(Some("orig5")),
            10,
            true,
        ),
        ("full scan", scan(0, 3, 3), rows(&[0, 1, 2]), 10, true),
        (
            "scan before run inserts' acks",
            scan(2, 6, 4),
            rows(&[2, 3]),
            3,
            true,
        ),
        (
            "scan after run inserts' acks",
            scan(2, 6, 4),
            rows(&[2, 3, 4, 5]),
            10,
            true,
        ),
        (
            "write ack",
            put(2, "x"),
            Ok(OpOutcome::Done(tb_common::Lsn(7))),
            10,
            true,
        ),
        ("wrong value", get(0), got(Some("orig1")), 10, false),
        ("other key's update", get(0), got(Some("upd1")), 10, false),
        ("loaded key absent", get(2), got(None), 10, false),
        ("lost insert", get(4), got(None), 10, false),
        ("lost update", get(1), got(Some("orig1")), 10, false),
        ("key absent after its update", get(5), got(None), 10, false),
        ("unknown key", get(9), got(None), 10, false),
        (
            "wrong variant",
            get(0),
            Ok(OpOutcome::Done(tb_common::Lsn(1))),
            10,
            false,
        ),
        (
            "row outside range",
            scan(0, 2, 3),
            rows(&[0, 1, 2]),
            10,
            false,
        ),
        (
            "rows out of order",
            scan(0, 3, 3),
            rows(&[1, 0, 2]),
            10,
            false,
        ),
        ("over limit", scan(0, 4, 2), rows(&[0, 1, 2]), 10, false),
        (
            "missing loaded row",
            scan(0, 3, 3),
            rows(&[0, 2]),
            10,
            false,
        ),
        (
            "missing acked insert",
            scan(2, 6, 4),
            rows(&[2, 3, 5]),
            10,
            false,
        ),
        (
            "stale row after its update",
            scan(1, 2, 1),
            Ok(OpOutcome::Range(vec![(key(1), v("orig1"))])),
            10,
            false,
        ),
        (
            "row with a value never written",
            scan(0, 2, 2),
            Ok(OpOutcome::Range(vec![
                (key(0), v("orig0")),
                (key(1), v("bogus")),
            ])),
            10,
            false,
        ),
    ];
    for (name, op, reply, sent, legal) in cases {
        match (oracle.check(&op, &reply, sent), legal) {
            (Check::Ok, true) | (Check::Wrong(_), false) => {}
            (verdict, _) => {
                return Err(format!("oracle self-test case '{name}' gave {verdict:?}"));
            }
        }
    }
    if oracle.check(
        &get(0),
        &Err(tb_common::Error::Unavailable("refused".into())),
        10,
    ) != Check::Failed
    {
        return Err("oracle self-test: an error reply must count as failed".into());
    }
    // A second pass over the trace re-inserts original values after
    // their updates: the stale-value check must stand down.
    oracle.set_wrapped();
    if oracle.check(&get(1), &got(Some("orig1")), 10) != Check::Ok {
        return Err("oracle self-test: a wrapped trace may rewrite original values".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_wrong_replies_are_caught() {
        self_test().unwrap();
    }

    #[test]
    fn ordinals_round_trip() {
        assert_eq!(ordinal(&key(123_456)), Some(123_456));
        assert_eq!(ordinal(&Key::from("user12")), None);
        assert_eq!(ordinal(&Key::from("other0000000001")), None);
    }
}
