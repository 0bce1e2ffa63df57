//! Elastic threading (paper §4.4, Figure 6).
//!
//! A TierBase data node normally runs one event-loop thread per shard —
//! single-threaded execution is the most CPU-efficient mode (no locking,
//! no cross-core traffic), which is why it is the default. Containers,
//! however, are provisioned for *peak* CPU, so idle cores usually exist
//! next to a hot shard. Elastic threading watches how much work is
//! queued and, while it stays above a boost watermark, adds threads
//! within the container's core budget; when the burst subsides the extra
//! threads retire and the node returns to single-thread efficiency. No
//! external scaling, no extra cost.
//!
//! The policy lives in one place, [`Watermark::step`]. Two levers drive
//! it:
//!
//! * [`ElasticGate`] — the `TierBase` thread modes (Fig 7/9): callers
//!   run in place once they hold a permit, and the controller moves the
//!   permit count with the number of blocked callers.
//! * `tb-frontend`'s shard controller — per-shard drain workers, moved
//!   with each shard's queue depth.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Threading mode a gate is pinned to, or elastic switching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadMode {
    /// One event-loop thread, never boosted (TierBase-s).
    Single,
    /// A fixed pool of N threads (TierBase-m).
    Multi(usize),
    /// Start single, boost up to N under load (TierBase-e).
    Elastic(usize),
}

/// Watermarks and pacing for elastic switching.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Load (queued work) that triggers a boost.
    pub boost_depth: usize,
    /// Load at or below which a sample counts as calm.
    pub shrink_depth: usize,
    /// Controller sampling interval.
    pub sample_interval: Duration,
    /// Consecutive calm samples required before shrinking.
    pub shrink_patience: u32,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            boost_depth: 64,
            shrink_depth: 8,
            sample_interval: Duration::from_millis(2),
            shrink_patience: 5,
        }
    }
}

impl ElasticConfig {
    /// Watermarks for an [`ElasticGate`], whose load is the number of
    /// callers blocked on a permit: two or more waiting means the
    /// permits are saturated (boost), none waiting is calm.
    pub fn for_gate() -> Self {
        Self {
            boost_depth: 2,
            shrink_depth: 0,
            ..Self::default()
        }
    }
}

/// The §4.4 watermark policy for one lever: boost by one per hot
/// sample up to `max`, shrink by one after `shrink_patience`
/// consecutive calm samples, and restart the calm count on any other
/// sample. Holds only that calm count; the caller owns the target and
/// acts on changes to it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Watermark {
    calm: u32,
}

impl Watermark {
    /// The next target given one `load` sample. Never returns less than
    /// 1, and never boosts past `max`.
    pub fn step(
        &mut self,
        config: &ElasticConfig,
        load: usize,
        target: usize,
        max: usize,
    ) -> usize {
        if load >= config.boost_depth && target < max {
            self.calm = 0;
            target + 1
        } else if load <= config.shrink_depth && target > 1 {
            self.calm += 1;
            if self.calm < config.shrink_patience {
                return target;
            }
            self.calm = 0;
            target - 1
        } else {
            self.calm = 0;
            target
        }
    }
}

/// Gate counters.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    pub processed: AtomicU64,
    pub boosts: AtomicU64,
    pub shrinks: AtomicU64,
}

/// A concurrency gate modeling the container's CPU allocation without
/// queue hops: callers execute *in place* once they hold one of the
/// gate's permits. `Single` = 1 permit (the event loop), `Multi(n)` =
/// n permits (fixed threads), `Elastic(n)` = 1..n permits adjusted by a
/// watermark controller that watches how many callers are blocked.
pub struct ElasticGate {
    state: Mutex<GateState>,
    cv: parking_lot::Condvar,
    max_permits: usize,
    shutdown: AtomicBool,
    controller: Mutex<Option<JoinHandle<()>>>,
    pub stats: RuntimeStats,
}

struct GateState {
    /// Permits callers may hold concurrently (the boost lever).
    target: usize,
    /// Permits currently held.
    in_use: usize,
    /// Callers blocked waiting for a permit (the load signal).
    waiting: usize,
}

/// A held permit; dropping it (also during a panic unwind) hands the
/// permit back and wakes one waiter.
struct Permit<'g>(&'g ElasticGate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.state.lock().in_use -= 1;
        self.0.cv.notify_one();
    }
}

impl ElasticGate {
    fn with_permits(target: usize, max: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(GateState {
                target,
                in_use: 0,
                waiting: 0,
            }),
            cv: parking_lot::Condvar::new(),
            max_permits: max.max(1),
            shutdown: AtomicBool::new(false),
            controller: Mutex::new(None),
            stats: RuntimeStats::default(),
        })
    }

    /// A gate with a fixed permit count (Single = 1, Multi(n) = n).
    pub fn fixed(permits: usize) -> Arc<Self> {
        Self::with_permits(permits.max(1), permits)
    }

    /// An elastic gate: starts at one permit, boosts toward `max` while
    /// callers queue up, shrinks back when the burst subsides.
    pub fn elastic(max: usize, config: ElasticConfig) -> Arc<Self> {
        let gate = Self::with_permits(1, max);
        gate.spawn_controller(config);
        gate
    }

    /// Builds the gate matching a [`ThreadMode`].
    pub fn for_mode(mode: ThreadMode, config: ElasticConfig) -> Arc<Self> {
        match mode {
            ThreadMode::Single => Self::fixed(1),
            ThreadMode::Multi(n) => Self::fixed(n),
            ThreadMode::Elastic(n) => Self::elastic(n, config),
        }
    }

    /// Runs `f` while holding a permit. A panic in `f` still releases
    /// the permit.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let _permit = {
            let mut s = self.state.lock();
            while s.in_use >= s.target {
                s.waiting += 1;
                self.cv.wait(&mut s);
                s.waiting -= 1;
            }
            s.in_use += 1;
            Permit(self)
        };
        let out = f();
        self.stats.processed.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Permits callers may currently hold.
    pub fn current_permits(&self) -> usize {
        self.state.lock().target
    }

    /// Stops the controller thread (fixed gates: no-op). Dropping the
    /// last handle to the gate stops it too.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(c) = self.controller.lock().take() {
            let _ = c.join();
        }
    }

    /// The controller holds the gate weakly, so it never keeps a gate
    /// alive that every caller has dropped.
    fn spawn_controller(self: &Arc<Self>, config: ElasticConfig) {
        let weak = Arc::downgrade(self);
        let handle = std::thread::spawn(move || {
            let mut watermark = Watermark::default();
            loop {
                std::thread::sleep(config.sample_interval);
                let Some(gate) = weak.upgrade() else { return };
                if gate.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let mut s = gate.state.lock();
                let next = watermark.step(&config, s.waiting, s.target, gate.max_permits);
                if next > s.target {
                    s.target = next;
                    drop(s);
                    gate.stats.boosts.fetch_add(1, Ordering::Relaxed);
                    gate.cv.notify_all();
                } else if next < s.target {
                    s.target = next;
                    gate.stats.shrinks.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        *self.controller.lock() = Some(handle);
    }
}

impl Drop for ElasticGate {
    /// Joins the controller, which exits at its next sample now that the
    /// gate is gone — unless the controller itself dropped the last
    /// handle, in which case it is already on its way out.
    fn drop(&mut self) {
        if let Some(c) = self.controller.get_mut().take() {
            if c.thread().id() != std::thread::current().id() {
                let _ = c.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn spin_us(us: u64) {
        let deadline = Instant::now() + Duration::from_micros(us);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn watermark_step_boosts_caps_and_shrinks_only_after_patience() {
        let config = ElasticConfig {
            boost_depth: 10,
            shrink_depth: 2,
            sample_interval: Duration::ZERO,
            shrink_patience: 3,
        };
        let mut w = Watermark::default();
        // One boost per hot sample, capped at max.
        assert_eq!(w.step(&config, 10, 1, 3), 2);
        assert_eq!(w.step(&config, 50, 2, 3), 3);
        assert_eq!(w.step(&config, 50, 3, 3), 3);
        // Calm samples shrink only after `shrink_patience` in a row.
        assert_eq!(w.step(&config, 2, 3, 3), 3);
        assert_eq!(w.step(&config, 0, 3, 3), 3);
        assert_eq!(w.step(&config, 0, 3, 3), 2);
        // The count restarted with the shrink: three more calm samples.
        assert_eq!(w.step(&config, 0, 2, 3), 2);
        assert_eq!(w.step(&config, 0, 2, 3), 2);
        // A mid-band sample resets the calm count...
        assert_eq!(w.step(&config, 5, 2, 3), 2);
        assert_eq!(w.step(&config, 0, 2, 3), 2);
        assert_eq!(w.step(&config, 0, 2, 3), 2);
        assert_eq!(w.step(&config, 0, 2, 3), 1);
        // ...and so does a hot sample, even one that cannot boost.
        let mut w = Watermark::default();
        assert_eq!(w.step(&config, 0, 3, 3), 3);
        assert_eq!(w.step(&config, 0, 3, 3), 3);
        assert_eq!(w.step(&config, 99, 3, 3), 3);
        assert_eq!(w.step(&config, 0, 3, 3), 3);
        assert_eq!(w.step(&config, 0, 3, 3), 3);
        assert_eq!(w.step(&config, 0, 3, 3), 2);
        // The target never drops below 1, however long the calm.
        let mut w = Watermark::default();
        for _ in 0..20 {
            assert_eq!(w.step(&config, 0, 1, 3), 1);
        }
        let impatient = ElasticConfig {
            shrink_patience: 0,
            ..config
        };
        assert_eq!(w.step(&impatient, 0, 1, 3), 1);
        assert_eq!(w.step(&impatient, 0, 2, 3), 1);
        // The gate's watermarks: two blocked callers boost, none is calm.
        let gate = ElasticConfig::for_gate();
        let mut w = Watermark::default();
        assert_eq!(w.step(&gate, 1, 1, 4), 1, "one waiter is not a boost");
        assert_eq!(w.step(&gate, 2, 1, 4), 2, "two waiters boost");
        for _ in 1..gate.shrink_patience {
            assert_eq!(w.step(&gate, 0, 2, 4), 2);
        }
        assert_eq!(w.step(&gate, 0, 2, 4), 1);
    }

    #[test]
    fn fixed_gate_limits_concurrency() {
        let gate = ElasticGate::fixed(2);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let gate = gate.clone();
                let peak = peak.clone();
                let cur = cur.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        gate.run(|| {
                            let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            spin_us(50);
                            cur.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(gate.stats.processed.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn single_gate_serializes() {
        let gate = ElasticGate::fixed(1);
        // Four threads of 200µs work: serialized floor ≈ 4×50×200µs.
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let gate = gate.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        gate.run(|| spin_us(200));
                    }
                });
            }
        });
        assert!(
            t0.elapsed() >= Duration::from_millis(35),
            "single-permit gate failed to serialize: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn panicking_caller_releases_its_permit() {
        let gate = ElasticGate::fixed(1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gate.run(|| panic!("engine call panicked"))
        }));
        assert!(panicked.is_err());
        // A leaked permit would block this caller forever; run it on a
        // helper thread so the test fails by timeout instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        let g = gate.clone();
        std::thread::spawn(move || {
            let _ = tx.send(g.run(|| 7));
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(7),
            "the panicked caller's permit was never released"
        );
    }

    #[test]
    fn dropped_elastic_gate_is_freed() {
        let gate = ElasticGate::elastic(4, ElasticConfig::for_gate());
        let weak = Arc::downgrade(&gate);
        drop(gate);
        let deadline = Instant::now() + Duration::from_secs(5);
        while weak.upgrade().is_some() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            weak.upgrade().is_none(),
            "the controller keeps the gate alive"
        );
    }

    #[test]
    fn elastic_gate_boosts_and_shrinks() {
        let config = ElasticConfig {
            boost_depth: 2,
            shrink_depth: 0,
            sample_interval: Duration::from_millis(1),
            shrink_patience: 5,
        };
        let gate = ElasticGate::elastic(4, config);
        assert_eq!(gate.current_permits(), 1);
        // Load: 8 threads of CPU work → waiters pile up → boost.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let gate = gate.clone();
                s.spawn(move || {
                    for _ in 0..120 {
                        gate.run(|| spin_us(300));
                    }
                });
            }
        });
        assert!(
            gate.stats.boosts.load(Ordering::Relaxed) > 0,
            "gate never boosted"
        );
        // Calm: permits shrink back to 1.
        let deadline = Instant::now() + Duration::from_secs(5);
        while gate.current_permits() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(gate.current_permits(), 1, "gate never shrank");
        gate.shutdown();
    }

    #[test]
    fn for_mode_builds_the_right_gate() {
        assert_eq!(
            ElasticGate::for_mode(ThreadMode::Single, ElasticConfig::default()).current_permits(),
            1
        );
        assert_eq!(
            ElasticGate::for_mode(ThreadMode::Multi(3), ElasticConfig::default()).current_permits(),
            3
        );
        let e = ElasticGate::for_mode(ThreadMode::Elastic(4), ElasticConfig::default());
        assert_eq!(e.current_permits(), 1);
        e.shutdown();
    }
}
