//! The pipelined request front-end.
//!
//! One [`Frontend`] sits between many client threads and a single
//! [`KvEngine`]. [`EngineOp`]s hash to a shard (the cluster routing hash,
//! [`slot_for_key`]), enter that shard's bounded submission queue, and
//! are drained in batches by the shard's worker, which:
//!
//! * lowers the whole drained batch into **one**
//!   [`KvEngine::apply_batch`] submission (coalescing consecutive
//!   writes into a single `MultiPut` op), so an engine with a native
//!   submission/completion path — `tb-lsm` — resolves the batch's
//!   reads in one overlapped storage pass instead of serializing them
//!   behind per-op block IO (TierBase §4.1.2 batches the remote tier
//!   the same way). With `LsmConfig::read_pool_threads > 0` that pass
//!   additionally fans the batch's deduped block fetches out over the
//!   engine's shard-local read pool — one pool per engine, so every
//!   worker draining a shard (elastically boosted siblings included)
//!   shares it rather than spawning fetch threads of its own; the pool
//!   counters surface through [`Frontend::stats_snapshot`]. And
//! * group-commits: one `sync()` per dirty batch instead of one per
//!   write, acknowledging the writes only after the batch is durable.
//!
//! Backpressure is the queue bound: blocking `submit` stalls producers
//! when a shard saturates, `try_submit` sheds load with
//! [`Error::Backpressure`]. Under sustained depth the elastic
//! controller (§4.4 watermark policy, configured by
//! [`ElasticConfig`]) boosts extra drain workers for the hot shard and
//! retires them when the burst subsides.

use crate::queue::{PushRefused, SubmitQueue};
use crate::stats::{FrontendStats, FrontendStatsSnapshot};
use crate::ticket::{gather, gather_all, ticket, Completer, Ticket};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tb_common::{
    slot_for_key, BatchReadStats, EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value,
};
use tb_elastic::{ElasticConfig, Watermark};

/// How long an idle worker parks between queue polls.
const DRAIN_WAIT: Duration = Duration::from_millis(5);

fn is_put_like(op: &EngineOp) -> bool {
    matches!(op, EngineOp::Put(..) | EngineOp::MultiPut(..))
}

/// Front-end tuning.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Submission queues / event loops.
    pub shards: usize,
    /// Bound of each shard queue (the backpressure watermark).
    pub queue_capacity: usize,
    /// Most requests a worker takes per drain.
    pub max_batch: usize,
    /// `true`: one `sync()` per dirty batch, writes acknowledged after
    /// it; `false`: every write is applied and synced individually (the
    /// per-op-durability baseline the bench compares against).
    pub group_commit: bool,
    /// Workers a hot shard may boost to (1 = boosting disabled).
    pub max_workers_per_shard: usize,
    /// Boost/shrink watermarks for the elastic controller.
    pub elastic: ElasticConfig,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            max_batch: 64,
            group_commit: true,
            max_workers_per_shard: 1,
            elastic: ElasticConfig::default(),
        }
    }
}

impl FrontendConfig {
    /// Config with `n` shards, otherwise defaults.
    pub fn with_shards(n: usize) -> Self {
        Self {
            shards: n.max(1),
            ..Self::default()
        }
    }
}

/// Routing decision for one submitted op.
enum Route {
    /// Lands whole on one shard's queue.
    Shard(usize),
    /// A `MultiGet` spanning shards: split into per-shard sub-batches,
    /// gathered in key order by the returned ticket.
    Scatter,
}

/// One queued op: the op, its ticket's completer, and the telemetry
/// submit stamp (`None` when telemetry is disabled) — the
/// stamp yields the queue-wait histogram at drain and the end-to-end
/// latency histogram at completion.
type Queued = (EngineOp, Completer, Option<Instant>);

struct ShardState {
    queue: SubmitQueue<Queued>,
    /// Workers this shard should run (elastic boost lever).
    target_workers: AtomicUsize,
    /// Workers currently draining this shard.
    live_workers: AtomicUsize,
}

struct Inner {
    engine: Arc<dyn KvEngine>,
    shards: Vec<ShardState>,
    config: FrontendConfig,
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
    stats: FrontendStats,
}

/// Pipelined, sharded serving layer over one [`KvEngine`].
pub struct Frontend {
    inner: Arc<Inner>,
    controller: Mutex<Option<JoinHandle<()>>>,
    down: AtomicBool,
    /// Keeps this front-end's counters and per-shard depth gauges
    /// contributing to [`tb_obs::global`] snapshots; drops with it.
    _obs: tb_obs::SourceGuard,
}

impl Frontend {
    /// Starts the shard workers (and, when boosting is enabled, the
    /// elastic controller) over `engine`.
    pub fn start(engine: Arc<dyn KvEngine>, mut config: FrontendConfig) -> Self {
        config.shards = config.shards.max(1);
        config.max_workers_per_shard = config.max_workers_per_shard.max(1);
        let inner = Arc::new(Inner {
            engine,
            shards: (0..config.shards)
                .map(|_| ShardState {
                    queue: SubmitQueue::new(config.queue_capacity),
                    target_workers: AtomicUsize::new(1),
                    live_workers: AtomicUsize::new(0),
                })
                .collect(),
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
            stats: FrontendStats::default(),
        });
        for shard in 0..config.shards {
            spawn_worker(&inner, shard);
        }
        let controller = (config.max_workers_per_shard > 1).then(|| {
            let inner = inner.clone();
            std::thread::spawn(move || controller_loop(inner))
        });
        let obs = {
            let inner = inner.clone();
            tb_obs::global().register_source(move |b| {
                let s = &inner.stats;
                let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
                b.counter("frontend_submitted", c(&s.submitted));
                b.counter("frontend_completed", c(&s.completed));
                b.counter("frontend_batches", c(&s.batches));
                b.counter("frontend_group_syncs", c(&s.group_syncs));
                b.counter("frontend_per_op_syncs", c(&s.per_op_syncs));
                b.counter("frontend_coalesced_puts", c(&s.coalesced_puts));
                b.counter(
                    "frontend_backpressure_rejections",
                    c(&s.backpressure_rejections),
                );
                b.counter("frontend_boosts", c(&s.boosts));
                b.counter("frontend_shrinks", c(&s.shrinks));
                b.counter("frontend_worker_panics", c(&s.worker_panics));
                for (i, shard) in inner.shards.iter().enumerate() {
                    b.gauge(
                        &format!("frontend_shard{i}_queue_depth"),
                        shard.queue.len() as i64,
                    );
                    b.gauge(
                        &format!("frontend_shard{i}_live_workers"),
                        shard.live_workers.load(Ordering::SeqCst) as i64,
                    );
                }
            })
        };
        Self {
            inner,
            controller: Mutex::new(controller),
            down: AtomicBool::new(false),
            _obs: obs,
        }
    }

    /// Operational counters.
    pub fn stats(&self) -> &FrontendStats {
        &self.inner.stats
    }

    /// Snapshot of the front-end counters *plus* the wrapped engine's
    /// batched-read counters (block fetches, dedup hits, memtable hits
    /// — zeros for engines without a native batch path).
    pub fn stats_snapshot(&self) -> FrontendStatsSnapshot {
        let s = &self.inner.stats;
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FrontendStatsSnapshot {
            submitted: c(&s.submitted),
            completed: c(&s.completed),
            batches: c(&s.batches),
            group_syncs: c(&s.group_syncs),
            per_op_syncs: c(&s.per_op_syncs),
            coalesced_puts: c(&s.coalesced_puts),
            backpressure_rejections: c(&s.backpressure_rejections),
            boosts: c(&s.boosts),
            shrinks: c(&s.shrinks),
            worker_panics: c(&s.worker_panics),
            shard_queue_depths: self.inner.shards.iter().map(|s| s.queue.len()).collect(),
            shard_live_workers: self
                .inner
                .shards
                .iter()
                .map(|s| s.live_workers.load(Ordering::SeqCst))
                .collect(),
            engine_batch: self.inner.engine.batch_read_stats(),
        }
    }

    /// Shard a key routes to.
    pub fn shard_of(&self, key: &Key) -> usize {
        slot_for_key(key.as_slice()) as usize % self.inner.shards.len()
    }

    /// Queue depth of one shard.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.inner.shards[shard].queue.len()
    }

    /// Ops queued across all shards.
    pub fn total_queue_depth(&self) -> usize {
        self.inner.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Workers currently draining one shard.
    pub fn live_workers(&self, shard: usize) -> usize {
        self.inner.shards[shard].live_workers.load(Ordering::SeqCst)
    }

    /// Submits an op, blocking while the target shard queue is full —
    /// backpressure propagates to the producer. A `MultiGet` whose keys
    /// span shards is scattered into per-shard sub-batches and its
    /// ticket gathers the results in key order. A spanning `MultiPut`
    /// resolves to [`Error::InvalidArgument`]: each shard's slice would
    /// commit independently (cross-shard write atomicity is out of
    /// scope; use [`KvEngine::multi_put`], which splits by shard
    /// explicitly).
    pub fn submit(&self, op: EngineOp) -> Ticket {
        match self.route(&op) {
            Ok(Route::Shard(shard)) => self.submit_to(shard, op),
            Ok(Route::Scatter) => {
                let EngineOp::MultiGet(keys) = op else {
                    unreachable!("only MultiGet scatters")
                };
                let len = keys.len();
                let parts = self
                    .scatter_get(keys)
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (idx, _))| !idx.is_empty())
                    .map(|(s, (idx, keys))| (idx, self.submit_to(s, EngineOp::MultiGet(keys))))
                    .collect();
                gather(parts, len)
            }
            Err(e) => {
                let (t, c) = ticket();
                c.complete(Err(e));
                t
            }
        }
    }

    /// Non-blocking submit; a full shard queue sheds the op with
    /// [`Error::Backpressure`]. A spanning `MultiGet` scatters like in
    /// [`Frontend::submit`]; if any sub-batch is shed the whole request
    /// reports backpressure (already-queued sub-reads drain harmlessly).
    pub fn try_submit(&self, op: EngineOp) -> Result<Ticket> {
        if self.down.load(Ordering::SeqCst) {
            return Err(Error::Unavailable("front-end shut down".into()));
        }
        match self.route(&op)? {
            Route::Shard(shard) => self.try_submit_to(shard, op),
            Route::Scatter => {
                let EngineOp::MultiGet(keys) = op else {
                    unreachable!("only MultiGet scatters")
                };
                let len = keys.len();
                let mut parts = Vec::new();
                for (s, (idx, keys)) in self.scatter_get(keys).into_iter().enumerate() {
                    if idx.is_empty() {
                        continue;
                    }
                    parts.push((idx, self.try_submit_to(s, EngineOp::MultiGet(keys))?));
                }
                Ok(gather(parts, len))
            }
        }
    }

    fn try_submit_to(&self, shard: usize, op: EngineOp) -> Result<Ticket> {
        let (t, c) = ticket();
        match self.inner.shards[shard]
            .queue
            .try_push((op, c, tb_obs::start()))
        {
            Ok(()) => {
                FrontendStats::bump(&self.inner.stats.submitted, 1);
                Ok(t)
            }
            Err((PushRefused::Full, (_, c, _))) => {
                FrontendStats::bump(&self.inner.stats.backpressure_rejections, 1);
                // The queue was at capacity when it refused us; report that
                // depth as the retry-after hint so callers (and the wire
                // protocol's RETRY reply) can scale their backoff.
                let depth = self.inner.shards[shard].queue.len() as u32;
                let err = Error::backpressure_at_depth(
                    format!(
                        "shard {shard} queue full ({} requests)",
                        self.inner.config.queue_capacity
                    ),
                    depth.max(self.inner.config.queue_capacity as u32),
                );
                // Resolve the orphan ticket so nothing can wait on it.
                c.complete(Err(err.clone()));
                Err(err)
            }
            Err((PushRefused::Closed, (_, c, _))) => {
                c.complete(Err(Error::Unavailable("front-end shut down".into())));
                Err(Error::Unavailable("front-end shut down".into()))
            }
        }
    }

    /// The shard that owns `op`. Worker-visible multi-key ops are
    /// single-shard: a spanning `MultiGet` scatters, a spanning
    /// `MultiPut` is refused.
    fn route(&self, op: &EngineOp) -> Result<Route> {
        let shard = match op {
            EngineOp::MultiGet(keys) => {
                // Reads have no write-ordering to protect: scatter them.
                let shard = self.single_shard_of(keys.iter());
                return Ok(shard.map_or(Route::Scatter, Route::Shard));
            }
            EngineOp::MultiPut(pairs) => self.single_shard_of(pairs.iter().map(|(k, _)| k))?,
            EngineOp::Get(k) | EngineOp::Put(k, _) | EngineOp::Delete(k) => self.shard_of(k),
            EngineOp::Cas { key, .. } => self.shard_of(key),
            // All shards front the same engine, so any queue serves the
            // full key range: sharding partitions the *queues*, not the
            // data.
            EngineOp::Scan { start, .. } => self.shard_of(start),
        };
        Ok(Route::Shard(shard))
    }

    /// Splits keys into per-shard `(response positions, keys)` buckets.
    fn scatter_get(&self, keys: Vec<Key>) -> Vec<(Vec<usize>, Vec<Key>)> {
        let mut per: Vec<(Vec<usize>, Vec<Key>)> =
            vec![(Vec::new(), Vec::new()); self.inner.shards.len()];
        for (i, key) in keys.into_iter().enumerate() {
            let s = self.shard_of(&key);
            per[s].0.push(i);
            per[s].1.push(key);
        }
        per
    }

    /// Common shard of a multi-key op, or `InvalidArgument` when
    /// the keys span shards.
    fn single_shard_of<'a>(&self, keys: impl Iterator<Item = &'a Key>) -> Result<usize> {
        let mut shard = None;
        for key in keys {
            let s = self.shard_of(key);
            match shard {
                None => shard = Some(s),
                Some(previous) if previous != s => {
                    return Err(Error::InvalidArgument(
                        "multi-key write spans shards; use Frontend::multi_put".into(),
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(shard.unwrap_or(0))
    }

    fn submit_to(&self, shard: usize, op: EngineOp) -> Ticket {
        let (t, c) = ticket();
        // Fail fast once shutdown started: producers must stop feeding
        // the queues or the shutdown drain could spin forever.
        if self.down.load(Ordering::SeqCst) {
            c.complete(Err(Error::Unavailable("front-end shut down".into())));
            return t;
        }
        match self.inner.shards[shard]
            .queue
            .push((op, c, tb_obs::start()))
        {
            Ok(()) => FrontendStats::bump(&self.inner.stats.submitted, 1),
            Err((_, c, _)) => c.complete(Err(Error::Unavailable("front-end shut down".into()))),
        }
        t
    }

    /// Waits until every op queued *before* the call has been
    /// processed (a barrier per shard). Bounded even under sustained
    /// concurrent submission: it waits only on batches drained up to
    /// its own marker, never on later traffic.
    pub fn barrier(&self) {
        let tickets: Vec<Ticket> = (0..self.inner.shards.len())
            .map(|s| self.submit_to(s, EngineOp::MultiGet(Vec::new())))
            .collect();
        let mut targets = Vec::with_capacity(tickets.len());
        for (s, t) in tickets.into_iter().enumerate() {
            let _ = t.wait();
            // The queue is FIFO, so everything enqueued before this
            // marker was drained in a batch numbered no later than the
            // count observed at marker resolution. With boosted
            // workers some of those batches may still be mid-flight in
            // a sibling; wait for exactly them.
            targets.push((s, self.inner.shards[s].queue.drains_started()));
        }
        for (s, target) in targets {
            while self.inner.shards[s].queue.drains_finished() < target {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    /// Splits a multi-key write by shard and pipelines one `MultiPut`
    /// per shard; the ticket resolves `Done` once every slice acked
    /// (first error wins). Slices commit independently — cross-shard
    /// write atomicity stays out of scope.
    fn scatter_put(&self, pairs: Vec<(Key, Value)>) -> Ticket {
        let mut per: Vec<Vec<(Key, Value)>> = vec![Vec::new(); self.inner.shards.len()];
        for (k, v) in pairs {
            let s = self.shard_of(&k);
            per[s].push((k, v));
        }
        let parts: Vec<Ticket> = per
            .into_iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(s, p)| self.submit_to(s, EngineOp::MultiPut(p)))
            .collect();
        if parts.is_empty() {
            // Empty write: resolved on the spot, covering nothing.
            let (t, c) = ticket();
            c.complete(Ok(OpOutcome::Done(Lsn::NONE)));
            return t;
        }
        gather_all(parts)
    }

    /// Drains the queues, stops workers and controller, joins threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Let queued work finish before stopping the drain loops.
        while self.total_queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.inner.shards {
            shard.queue.close();
        }
        if let Some(c) = self.controller.lock().take() {
            let _ = c.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut self.inner.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_worker(inner: &Arc<Inner>, shard: usize) {
    inner.shards[shard]
        .live_workers
        .fetch_add(1, Ordering::SeqCst);
    let inner2 = inner.clone();
    let handle = std::thread::spawn(move || worker_loop(inner2, shard));
    let mut handles = inner.handles.lock();
    // Reap retired boost workers so a long-running front-end under
    // oscillating load doesn't accumulate handles without bound.
    handles.retain(|h| !h.is_finished());
    handles.push(handle);
}

fn worker_loop(inner: Arc<Inner>, shard_idx: usize) {
    let shard = &inner.shards[shard_idx];
    loop {
        // Boosted workers retire once the controller lowers the target;
        // the CAS keeps at least `target >= 1` workers alive.
        let live = shard.live_workers.load(Ordering::SeqCst);
        if live > shard.target_workers.load(Ordering::SeqCst)
            && shard
                .live_workers
                .compare_exchange(live, live - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            return;
        }
        let batch = shard.queue.drain(inner.config.max_batch, DRAIN_WAIT);
        if batch.is_empty() {
            if inner.shutdown.load(Ordering::SeqCst) && shard.queue.len() == 0 {
                break;
            }
            continue;
        }
        // Queue wait: submit stamp → drain. The stamp stays with the
        // op so completion can record the full end-to-end latency.
        if tb_obs::enabled() {
            let waits = tb_obs::histo!("frontend_queue_wait_ns");
            for (_, _, stamp) in &batch {
                waits.record_since(*stamp);
            }
        }
        // Contain engine panics: the batch's unresolved completers are
        // dropped by the unwind (their tickets resolve Unavailable, no
        // caller hangs) and the worker lives on to serve the shard —
        // a poisoned engine call must not wedge the whole front-end.
        let batch_len = batch.len() as u64;
        let settled = AtomicU64::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_batch(&inner, batch, &settled);
        }));
        shard.queue.drain_done();
        if outcome.is_err() {
            // The unwind resolved the rest of the batch by dropping its
            // completers; count them so `submitted == completed` holds
            // once every ticket has resolved. Reconciled before the
            // panic counter so observers that saw the panic also see
            // consistent accounting.
            let abandoned = batch_len.saturating_sub(settled.load(Ordering::SeqCst));
            FrontendStats::bump(&inner.stats.completed, abandoned);
            FrontendStats::bump(&inner.stats.worker_panics, 1);
        }
    }
    shard.live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// A completer still awaiting its result, paired with the op's
/// telemetry submit stamp (for the end-to-end latency histogram).
type Pending = (Completer, Option<Instant>);

/// Resolves one op: the completed-counter bump happens *before* the
/// waiter wakes, so a caller that has awaited all of its tickets
/// observes `submitted == completed`. `settled` is the per-batch count
/// the worker uses to reconcile a panic-abandoned batch.
fn finish(stats: &FrontendStats, settled: &AtomicU64, pending: Pending, result: Result<OpOutcome>) {
    let (completer, stamp) = pending;
    settled.fetch_add(1, Ordering::SeqCst);
    FrontendStats::bump(&stats.completed, 1);
    tb_obs::histo!("frontend_e2e_ns").record_since(stamp);
    completer.complete(result);
}

/// How the completion of one lowered [`EngineOp`] settles back into
/// tickets.
enum OpAcks {
    /// A write op (one queued op, or a coalesced put-like run): every
    /// completer acks together — deferred to the group sync on success.
    Write(Vec<Pending>),
    /// A read, answered with the engine's outcome as is.
    Read(Pending),
}

fn process_batch(inner: &Inner, batch: Vec<Queued>, settled: &AtomicU64) {
    FrontendStats::bump(&inner.stats.batches, 1);
    if !inner.config.group_commit {
        return process_batch_per_op(inner, batch, settled);
    }
    let stats = &inner.stats;

    // --- lower the drained batch into one engine submission ----------
    // Adjacent put-likes coalesce into a single MultiPut op (one WAL/
    // memtable pass, acked together at the group sync); every other op
    // passes through. `acks[i]` settles `ops[i]`.
    let mut ops: Vec<EngineOp> = Vec::with_capacity(batch.len());
    let mut acks: Vec<OpAcks> = Vec::with_capacity(batch.len());
    let mut iter = batch.into_iter().peekable();
    while let Some((op, c, stamp)) = iter.next() {
        let done = (c, stamp);
        if !is_put_like(&op) {
            acks.push(match op {
                EngineOp::Delete(_) | EngineOp::Cas { .. } => OpAcks::Write(vec![done]),
                _ => OpAcks::Read(done),
            });
            ops.push(op);
            continue;
        }
        let mut pairs: Vec<(Key, Value)> = Vec::new();
        let mut writers: Vec<Pending> = vec![done];
        let absorb = |op: EngineOp, pairs: &mut Vec<(Key, Value)>| match op {
            EngineOp::Put(k, v) => pairs.push((k, v)),
            EngineOp::MultiPut(ps) => pairs.extend(ps),
            _ => unreachable!("absorb only sees put-like ops"),
        };
        absorb(op, &mut pairs);
        while iter.peek().is_some_and(|(op, _, _)| is_put_like(op)) {
            let (op, c, stamp) = iter.next().expect("peeked");
            absorb(op, &mut pairs);
            writers.push((c, stamp));
        }
        if writers.len() > 1 {
            FrontendStats::bump(&stats.coalesced_puts, writers.len() as u64);
        }
        ops.push(EngineOp::MultiPut(pairs));
        acks.push(OpAcks::Write(writers));
    }

    // --- one storage pass for the whole batch -------------------------
    // An engine with a native submission/completion path (tb-lsm)
    // resolves every read here with its block IO deduped across the
    // batch; the default trait implementation degrades to the old
    // per-op loop.
    let outcomes = inner.engine.apply_batch(ops);

    // --- completion: settle each op's tickets in submission order -----
    let mut unsynced: Vec<(Pending, Lsn)> = Vec::new();
    for (ack, outcome) in acks.into_iter().zip(outcomes) {
        match ack {
            // Write acks defer to the batch's single sync below, each
            // carrying the LSN the engine assigned to its op (coalesced
            // writers share the covering MultiPut LSN).
            OpAcks::Write(writers) => match outcome.and_then(OpOutcome::into_done) {
                Ok(lsn) => unsynced.extend(writers.into_iter().map(|w| (w, lsn))),
                Err(e) => {
                    for w in writers {
                        finish(stats, settled, w, Err(e.clone()));
                    }
                }
            },
            OpAcks::Read(done) => finish(stats, settled, done, outcome),
        }
    }

    if !unsynced.is_empty() {
        // The group commit: one durability point for the whole batch.
        let t0 = tb_obs::start();
        let sync_result = inner.engine.sync();
        tb_obs::histo!("frontend_group_sync_ns").record_since(t0);
        FrontendStats::bump(&stats.group_syncs, 1);
        for (ack, lsn) in unsynced {
            let result = sync_result.clone().map(|_| OpOutcome::Done(lsn));
            finish(stats, settled, ack, result);
        }
    }
}

/// The group-commit-disabled baseline (the per-op-durability cost the
/// bench compares against): each op is its own one-op engine batch,
/// and each acknowledged write its own sync.
fn process_batch_per_op(inner: &Inner, batch: Vec<Queued>, settled: &AtomicU64) {
    for (op, c, stamp) in batch {
        let result = match OpOutcome::of_one(inner.engine.apply_batch(vec![op])) {
            Ok(OpOutcome::Done(lsn)) => {
                FrontendStats::bump(&inner.stats.per_op_syncs, 1);
                inner.engine.sync().map(|_| OpOutcome::Done(lsn))
            }
            other => other,
        };
        finish(&inner.stats, settled, (c, stamp), result);
    }
}

fn controller_loop(inner: Arc<Inner>) {
    let config = &inner.config.elastic;
    let max = inner.config.max_workers_per_shard;
    let mut watermarks = vec![Watermark::default(); inner.shards.len()];
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(config.sample_interval);
        for (i, (shard, watermark)) in inner.shards.iter().zip(&mut watermarks).enumerate() {
            let target = shard.target_workers.load(Ordering::SeqCst);
            let next = watermark.step(config, shard.queue.len(), target, max);
            shard.target_workers.store(next, Ordering::SeqCst);
            if next > target {
                spawn_worker(&inner, i);
                FrontendStats::bump(&inner.stats.boosts, 1);
            } else if next < target {
                FrontendStats::bump(&inner.stats.shrinks, 1);
            }
        }
    }
}

/// The front-end is itself a [`KvEngine`]: synchronous callers (the
/// replay harness, cluster nodes) drive the pipelined path through the
/// plain engine interface. `multi_get`, `multi_put` and `scan` keep
/// the trait defaults, which submit one op through
/// [`Frontend::apply_batch`](KvEngine::apply_batch) to the same
/// `submit`/`scatter_put` path.
///
/// # Cross-shard `multi_put`: independent commit, not a transaction
///
/// A multi-key write splits by shard and pipelines one `MultiPut` per
/// shard. Each per-shard slice commits on its own; there is no
/// cross-shard atomicity and no rollback. When one shard fails
/// mid-batch the documented (and regression-tested) partial state is:
///
/// * every pair routed to a *healthy* shard is applied and durable per
///   that shard's sync policy;
/// * the pairs of the *failing* shard follow the engine's error
///   contract for that slice (indeterminate on error — see the LSN/ack
///   contract in `tb_common::engine`);
/// * the call reports the first shard error. Callers needing per-pair
///   attribution submit per-shard batches themselves.
///
/// The tb-server wire protocol inherits exactly these semantics for its
/// `MULTIPUT` frame and never converts a partial failure into an
/// all-or-nothing ack: each op in a pipelined burst gets its own
/// positional outcome reply.
impl KvEngine for Frontend {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.submit(EngineOp::Get(key.clone())).wait()?.into_value()
    }

    /// Pipelined write, awaited (durable in group-commit mode).
    fn put(&self, key: Key, value: Value) -> Result<()> {
        self.submit(EngineOp::Put(key, value))
            .wait()?
            .into_done()
            .map(|_| ())
    }

    fn delete(&self, key: &Key) -> Result<()> {
        self.submit(EngineOp::Delete(key.clone()))
            .wait()?
            .into_done()
            .map(|_| ())
    }

    /// One queued `Cas` op, resolved by the engine's own `cas` — the
    /// trait default would be a racy get-then-put across two batches.
    fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        let op = EngineOp::Cas {
            key,
            expected: expected.cloned(),
            new,
        };
        self.submit(op).wait()?.into_done().map(|_| ())
    }

    /// Batch submission with the trait's submission-order semantics.
    ///
    /// With one worker per shard (boosting disabled), every op is
    /// submitted before any is awaited: ops on different shards
    /// overlap, ops sharing a worker batch share its single storage
    /// pass and group commit, and per-shard FIFO *execution* preserves
    /// order for same-key ops (which route to one shard). With elastic
    /// boosting enabled, sibling workers can execute one shard's
    /// batches concurrently — FIFO dequeue no longer implies FIFO
    /// execution — so each op is awaited before the next is submitted:
    /// correctness over overlap. Scans barrier the batch either way
    /// (see below).
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let submit = |op: EngineOp| -> Ticket {
            match op {
                // A multi-key write splits by shard — the engine batch
                // contract accepts arbitrary key sets.
                EngineOp::MultiPut(pairs) => self.scatter_put(pairs),
                op => self.submit(op),
            }
        };
        if self.inner.config.max_workers_per_shard > 1 {
            return ops.into_iter().map(|op| submit(op).wait()).collect();
        }
        // A scan is a cross-shard read: unlike MultiGet/MultiPut it
        // cannot scatter along per-shard FIFO order (every shard owns
        // part of any range), so submission-order semantics make it a
        // batch barrier — every earlier op completes before the scan
        // is submitted, and the scan completes before later ops are.
        // Scan-free batches keep the fully pipelined path.
        let mut results: Vec<Option<Result<OpOutcome>>> = Vec::new();
        let mut pending: Vec<(usize, Ticket)> = Vec::new();
        for op in ops {
            let i = results.len();
            results.push(None);
            if matches!(op, EngineOp::Scan { .. }) {
                for (j, t) in pending.drain(..) {
                    results[j] = Some(t.wait());
                }
                results[i] = Some(submit(op).wait());
            } else {
                pending.push((i, submit(op)));
            }
        }
        for (j, t) in pending {
            results[j] = Some(t.wait());
        }
        results
            .into_iter()
            .map(|r| r.expect("every op completed"))
            .collect()
    }

    fn batch_read_stats(&self) -> BatchReadStats {
        self.inner.engine.batch_read_stats()
    }

    fn applied_lsn(&self) -> Lsn {
        self.inner.engine.applied_lsn()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.engine.resident_bytes()
    }

    fn label(&self) -> String {
        format!("frontend<{}>", self.inner.engine.label())
    }

    fn sync(&self) -> Result<()> {
        // Everything already queued lands (and, per batch, group-
        // commits) before the barrier returns; then flush the engine.
        self.barrier();
        self.inner.engine.sync()
    }
}
