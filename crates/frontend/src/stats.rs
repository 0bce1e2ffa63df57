//! Front-end operational counters.

use std::sync::atomic::{AtomicU64, Ordering};
use tb_common::BatchReadStats;

/// Counters exposed by a running front-end. All relaxed: these are
/// diagnostics, not synchronization.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Requests accepted into a shard queue.
    pub submitted: AtomicU64,
    /// Requests resolved (successfully or not) — including requests a
    /// panicked batch abandoned, which resolve `Unavailable` and are
    /// reconciled by the worker so this converges to `submitted`.
    pub completed: AtomicU64,
    /// Batches drained by shard workers.
    pub batches: AtomicU64,
    /// `sync()` calls issued once per dirty batch (group commit).
    pub group_syncs: AtomicU64,
    /// `sync()` calls issued per write op (group commit disabled).
    pub per_op_syncs: AtomicU64,
    /// Put operations that rode a coalesced `multi_put` with company.
    pub coalesced_puts: AtomicU64,
    /// `try_submit` rejections due to a full shard queue.
    pub backpressure_rejections: AtomicU64,
    /// Boost decisions by the elastic controller.
    pub boosts: AtomicU64,
    /// Shrink decisions by the elastic controller.
    pub shrinks: AtomicU64,
    /// Batches abandoned because an engine call panicked (their
    /// requests resolved `Unavailable`; the worker survived).
    pub worker_panics: AtomicU64,
}

impl FrontendStats {
    pub(crate) fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// Point-in-time copy of [`FrontendStats`] plus the per-shard gauges
/// and engine counters, taken by `Frontend::stats_snapshot`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendStatsSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub batches: u64,
    pub group_syncs: u64,
    pub per_op_syncs: u64,
    pub coalesced_puts: u64,
    pub backpressure_rejections: u64,
    pub boosts: u64,
    pub shrinks: u64,
    pub worker_panics: u64,
    /// Submission-queue depth of each shard at snapshot time.
    pub shard_queue_depths: Vec<usize>,
    /// Workers draining each shard at snapshot time (> 1 = elastically
    /// boosted).
    pub shard_live_workers: Vec<usize>,
    /// The wrapped engine's batched-read counters (block fetches,
    /// dedup hits, memtable hits).
    pub engine_batch: BatchReadStats,
}

impl FrontendStatsSnapshot {
    /// Mean ops per drained batch — the pipelining depth actually
    /// achieved under the observed load.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}
