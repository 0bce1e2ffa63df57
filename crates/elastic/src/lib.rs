//! Elastic threading (paper §4.4, Figure 6).
//!
//! A TierBase data node normally runs one event-loop thread per shard —
//! single-threaded execution is the most CPU-efficient mode (no locking,
//! no cross-core traffic), which is why it is the default. Containers,
//! however, are provisioned for *peak* CPU, so idle cores usually exist
//! next to a hot shard. The elastic runtime watches its own request
//! queue and, when depth stays above a boost watermark, wakes additional
//! RPC threads within the container's core budget; when the burst
//! subsides the extra threads park again and the node returns to
//! single-thread efficiency. No external scaling, no extra cost.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Threading mode a runtime is pinned to, or elastic switching.
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
    /// Queue depth that triggers a boost.
    pub boost_depth: usize,
    /// Queue depth below which boosted threads retire.
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

/// Runtime counters.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    pub processed: AtomicU64,
    pub boosts: AtomicU64,
    pub shrinks: AtomicU64,
}

/// A work queue with elastic worker threads.
pub struct ElasticRuntime {
    tx: Sender<Task>,
    rx: Receiver<Task>,
    /// Worker threads currently allowed to run (the target).
    target_threads: AtomicUsize,
    /// Worker threads currently alive.
    live_threads: AtomicUsize,
    max_threads: usize,
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
    controller: Mutex<Option<JoinHandle<()>>>,
    pub stats: RuntimeStats,
}

impl ElasticRuntime {
    /// Builds a runtime in the given mode. Elastic mode also starts the
    /// watermark controller.
    pub fn new(mode: ThreadMode, config: ElasticConfig) -> Arc<Self> {
        let (tx, rx) = bounded::<Task>(1 << 16);
        let (initial, max) = match mode {
            ThreadMode::Single => (1, 1),
            ThreadMode::Multi(n) => (n.max(1), n.max(1)),
            ThreadMode::Elastic(n) => (1, n.max(1)),
        };
        let rt = Arc::new(Self {
            tx,
            rx,
            target_threads: AtomicUsize::new(initial),
            live_threads: AtomicUsize::new(0),
            max_threads: max,
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
            controller: Mutex::new(None),
            stats: RuntimeStats::default(),
        });
        for _ in 0..initial {
            rt.spawn_worker();
        }
        if matches!(mode, ThreadMode::Elastic(_)) {
            rt.spawn_controller(config);
        }
        rt
    }

    /// Convenience constructors mirroring the paper's labels.
    pub fn single() -> Arc<Self> {
        Self::new(ThreadMode::Single, ElasticConfig::default())
    }

    pub fn multi(n: usize) -> Arc<Self> {
        Self::new(ThreadMode::Multi(n), ElasticConfig::default())
    }

    pub fn elastic(max: usize) -> Arc<Self> {
        Self::new(ThreadMode::Elastic(max), ElasticConfig::default())
    }

    /// Enqueues a task for execution.
    pub fn execute(&self, f: impl FnOnce() + Send + 'static) {
        // Bounded channel: under extreme overload this blocks the
        // producer, which is the correct backpressure for a data node.
        let _ = self.tx.send(Box::new(f));
    }

    /// Runs a task to completion on the pool, returning its result.
    pub fn run<T: Send + 'static>(&self, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = bounded(1);
        self.execute(move || {
            let _ = tx.send(f());
        });
        rx.recv().expect("worker dropped result")
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.rx.len()
    }

    /// Worker threads currently alive.
    pub fn current_threads(&self) -> usize {
        self.live_threads.load(Ordering::Relaxed)
    }

    /// Stops all workers after the queue drains.
    pub fn shutdown(&self) {
        // Wait for queued work, then stop.
        while !self.rx.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(c) = self.controller.lock().take() {
            let _ = c.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    fn spawn_worker(self: &Arc<Self>) {
        let rt = self.clone();
        rt.live_threads.fetch_add(1, Ordering::SeqCst);
        let rt2 = rt.clone();
        let handle = std::thread::spawn(move || rt2.worker_loop());
        self.handles.lock().push(handle);
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Retire when above target (elastic shrink). The first
            // worker (the event loop) never retires because target >= 1.
            let live = self.live_threads.load(Ordering::SeqCst);
            if live > self.target_threads.load(Ordering::SeqCst)
                && self
                    .live_threads
                    .compare_exchange(live, live - 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return;
            }
            match self.rx.recv_timeout(Duration::from_millis(5)) {
                Ok(task) => {
                    task();
                    self.stats.processed.fetch_add(1, Ordering::Relaxed);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.live_threads.fetch_sub(1, Ordering::SeqCst);
    }

    fn spawn_controller(self: &Arc<Self>, config: ElasticConfig) {
        let rt = self.clone();
        let handle = std::thread::spawn(move || {
            let mut calm_samples = 0u32;
            while !rt.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(config.sample_interval);
                let depth = rt.queue_depth();
                let target = rt.target_threads.load(Ordering::SeqCst);
                if depth >= config.boost_depth && target < rt.max_threads {
                    // Boost: add a thread per hot sample until max.
                    rt.target_threads.store(target + 1, Ordering::SeqCst);
                    rt.spawn_worker();
                    rt.stats.boosts.fetch_add(1, Ordering::Relaxed);
                    calm_samples = 0;
                } else if depth <= config.shrink_depth && target > 1 {
                    calm_samples += 1;
                    if calm_samples >= config.shrink_patience {
                        rt.target_threads.store(target - 1, Ordering::SeqCst);
                        rt.stats.shrinks.fetch_add(1, Ordering::Relaxed);
                        calm_samples = 0;
                    }
                } else {
                    calm_samples = 0;
                }
            }
        });
        *self.controller.lock() = Some(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_us(us: u64) {
        let deadline = std::time::Instant::now() + Duration::from_micros(us);
        while std::time::Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn single_mode_processes_everything_in_order_per_thread() {
        let rt = ElasticRuntime::single();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = counter.clone();
            rt.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(rt.stats.processed.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn run_returns_result() {
        let rt = ElasticRuntime::single();
        let out = rt.run(|| 21 * 2);
        assert_eq!(out, 42);
        rt.shutdown();
    }

    #[test]
    fn multi_mode_starts_n_threads() {
        let rt = ElasticRuntime::multi(4);
        assert_eq!(rt.current_threads(), 4);
        rt.shutdown();
        assert_eq!(rt.current_threads(), 0);
    }

    #[test]
    fn elastic_starts_single() {
        let rt = ElasticRuntime::elastic(4);
        assert_eq!(rt.current_threads(), 1);
        rt.shutdown();
    }

    #[test]
    fn elastic_boosts_under_load_and_shrinks_after() {
        let config = ElasticConfig {
            boost_depth: 16,
            shrink_depth: 2,
            sample_interval: Duration::from_millis(1),
            shrink_patience: 3,
        };
        let rt = ElasticRuntime::new(ThreadMode::Elastic(4), config);
        // Flood with slow tasks to hold queue depth high.
        for _ in 0..3000 {
            rt.execute(|| spin_us(100));
        }
        // Wait for the controller to react and the queue to drain.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mut peak = 1;
        while rt.queue_depth() > 0 && std::time::Instant::now() < deadline {
            peak = peak.max(rt.current_threads());
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(peak > 1, "runtime never boosted (peak {peak})");
        assert!(rt.stats.boosts.load(Ordering::Relaxed) > 0);
        // Calm period → shrink back toward 1.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while rt.current_threads() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rt.current_threads(), 1, "runtime never shrank back");
        assert!(rt.stats.shrinks.load(Ordering::Relaxed) > 0);
        rt.shutdown();
    }

    #[test]
    fn multi_mode_outruns_single_on_parallel_work() {
        // 400 tasks of ~200µs of CPU each: single ≈ 80ms serial floor,
        // multi(4) should finish in well under half that.
        let run = |rt: Arc<ElasticRuntime>| {
            let t0 = std::time::Instant::now();
            let done = Arc::new(AtomicU64::new(0));
            for _ in 0..400 {
                let d = done.clone();
                rt.execute(move || {
                    spin_us(200);
                    d.fetch_add(1, Ordering::Relaxed);
                });
            }
            while done.load(Ordering::Relaxed) < 400 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let dt = t0.elapsed();
            rt.shutdown();
            dt
        };
        let single = run(ElasticRuntime::single());
        let multi = run(ElasticRuntime::multi(4));
        assert!(
            multi < single,
            "multi ({multi:?}) should beat single ({single:?})"
        );
    }

    #[test]
    fn shutdown_drains_queue_first() {
        let rt = ElasticRuntime::single();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            let c = counter.clone();
            rt.execute(move || {
                spin_us(50);
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }
}

// ---------------------------------------------------------------------
// ElasticGate: permit-limited direct execution
// ---------------------------------------------------------------------

/// A concurrency gate modeling the container's CPU allocation without
/// queue hops: callers execute *in place* once they hold one of the
/// gate's permits. `Single` = 1 permit (the event loop), `Multi(n)` =
/// n permits (fixed threads), `Elastic(n)` = 1..n permits adjusted by a
/// watermark controller that watches how many callers are blocked — the
/// same §4.4 policy as [`ElasticRuntime`], at direct-call cost.
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

impl ElasticGate {
    /// A gate with a fixed permit count (Single = 1, Multi(n) = n).
    pub fn fixed(permits: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(GateState {
                target: permits.max(1),
                in_use: 0,
                waiting: 0,
            }),
            cv: parking_lot::Condvar::new(),
            max_permits: permits.max(1),
            shutdown: AtomicBool::new(false),
            controller: Mutex::new(None),
            stats: RuntimeStats::default(),
        })
    }

    /// An elastic gate: starts at one permit, boosts toward `max` while
    /// callers queue up, shrinks back when the burst subsides.
    pub fn elastic(max: usize, config: ElasticConfig) -> Arc<Self> {
        let gate = Arc::new(Self {
            state: Mutex::new(GateState {
                target: 1,
                in_use: 0,
                waiting: 0,
            }),
            cv: parking_lot::Condvar::new(),
            max_permits: max.max(1),
            shutdown: AtomicBool::new(false),
            controller: Mutex::new(None),
            stats: RuntimeStats::default(),
        });
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

    /// Runs `f` while holding a permit.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        {
            let mut s = self.state.lock();
            while s.in_use >= s.target {
                s.waiting += 1;
                self.cv.wait(&mut s);
                s.waiting -= 1;
            }
            s.in_use += 1;
        }
        let out = f();
        {
            let mut s = self.state.lock();
            s.in_use -= 1;
        }
        self.cv.notify_one();
        self.stats.processed.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Permits callers may currently hold.
    pub fn current_permits(&self) -> usize {
        self.state.lock().target
    }

    /// Callers blocked right now (the controller's load signal).
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    /// Stops the controller thread (fixed gates: no-op).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(c) = self.controller.lock().take() {
            let _ = c.join();
        }
    }

    fn spawn_controller(self: &Arc<Self>, config: ElasticConfig) {
        let gate = self.clone();
        let handle = std::thread::spawn(move || {
            let mut calm = 0u32;
            while !gate.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(config.sample_interval);
                let mut s = gate.state.lock();
                // Waiting callers = saturated permits = boost signal.
                if s.waiting >= 2 && s.target < gate.max_permits {
                    s.target += 1;
                    gate.stats.boosts.fetch_add(1, Ordering::Relaxed);
                    calm = 0;
                    drop(s);
                    gate.cv.notify_all();
                } else if s.waiting == 0 && s.target > 1 {
                    calm += 1;
                    if calm >= config.shrink_patience {
                        s.target -= 1;
                        gate.stats.shrinks.fetch_add(1, Ordering::Relaxed);
                        calm = 0;
                    }
                } else {
                    calm = 0;
                }
            }
        });
        *self.controller.lock() = Some(handle);
    }
}

impl Drop for ElasticGate {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(c) = self.controller.get_mut().take() {
            let _ = c.join();
        }
    }
}

#[cfg(test)]
mod gate_tests {
    use super::*;
    use std::time::Instant;

    fn spin_us(us: u64) {
        let deadline = Instant::now() + Duration::from_micros(us);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
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
    fn elastic_gate_boosts_and_shrinks() {
        let config = ElasticConfig {
            boost_depth: 0, // unused by the gate
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
