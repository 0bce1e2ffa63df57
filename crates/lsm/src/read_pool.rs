//! A shard-local pool of block-fetch workers for the batched read path.
//!
//! [`crate::db::LsmDb::apply_batch`]'s completion pass produces a
//! sort-deduped `(table, block)` fetch list. With a pool configured
//! (`LsmConfig::read_pool_threads > 0`) the pass submits that list here
//! as **one chain** instead of fetching it inline:
//!
//! * adjacent blocks of the same table coalesce into *runs*, each read
//!   with a single positional syscall ([`SstReader::read_blocks`]) —
//!   the buffered stand-in for an io_uring SQE chain, and the reason
//!   the pooled pass wins even on one core;
//! * pool workers **and the submitting thread** claim runs from the
//!   chain's shared cursor, so blocks complete out of order, IO
//!   overlaps across runs, and a busy pool can never stall a batch
//!   (the submitter alone drains the chain if it must);
//! * results land in the chain's slot arena in **submission order** —
//!   `results[i]` answers `jobs[i]` no matter which thread fetched it.
//!
//! One pool serves one engine (= one data-node shard), so every
//! front-end worker draining batches onto that engine — including
//! elastically boosted siblings — shares the same fetch threads
//! instead of spawning its own.
//!
//! Fault injection stays out of this module on purpose: the
//! `batch.block_read` fault pass runs on the submitting thread, in
//! sorted fetch order, *before* the chain is built — so the Nth hit of
//! the site fails the Nth fetch whether the pool is enabled or not
//! (positional determinism, relied on by the torture matrix).

use crate::sstable::SstReader;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tb_common::{Error, Result};

/// Cap on blocks per coalesced run: bounds single-read latency and
/// gives the pool enough runs to overlap even for one big table scan.
const MAX_RUN_BLOCKS: usize = 32;

/// One fetch request: block `block` of `table`. `corrupt` is the
/// pre-computed `sst.block_decode` fault decision for this fetch (made
/// on the submitting thread, in sorted fetch order, like every fault
/// gate) — a marked block decodes to a per-slot `Error::Corruption` on
/// whichever thread claims it, keeping pooled and inline paths
/// positionally identical.
pub struct FetchJob {
    pub table: Arc<SstReader>,
    pub block: usize,
    pub corrupt: bool,
}

/// A maximal run of same-table, adjacent blocks — one unit of work.
struct Run {
    table: Arc<SstReader>,
    first_block: usize,
    count: usize,
    /// `slots[slot_base..slot_base + count]` receive this run's blocks.
    slot_base: usize,
    /// Per-block corruption marks, aligned with the run's blocks.
    corrupt: Vec<bool>,
}

/// Shared state of one submitted chain.
struct Chain {
    runs: Vec<Run>,
    /// Next unclaimed run (claimed with `fetch_add`, may overshoot).
    cursor: AtomicUsize,
    state: Mutex<ChainState>,
    done: Condvar,
}

struct ChainState {
    /// `slots[i]` answers job `i`, in submission order.
    slots: Vec<Option<Result<Vec<u8>>>>,
    runs_left: usize,
}

impl Chain {
    /// Claims and executes runs until the cursor is exhausted.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(run) = self.runs.get(i) else { return };
            // Frame decode (CRC verify + decompression) happens here,
            // on the claiming thread; a bad frame fails only its own
            // slot, a span IO error fails the whole run.
            let blocks = run
                .table
                .read_blocks_marked(run.first_block, run.count, &run.corrupt);
            let mut state = self.state.lock();
            for (j, block) in blocks.into_iter().enumerate() {
                state.slots[run.slot_base + j] = Some(block);
            }
            state.runs_left -= 1;
            if state.runs_left == 0 {
                self.done.notify_all();
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Chain>>>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Block fetches currently submitted and not yet completed.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight` over the pool's life.
    depth_hwm: AtomicU64,
}

/// The pool: `threads` fetch workers over a FIFO of chains.
pub struct ReadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ReadPool {
    /// Spawns `threads` workers (at least one — a zero-thread pool is
    /// spelled "no pool" at the config layer).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            depth_hwm: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("tb-read-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn read-pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// High-water mark of block fetches outstanding at once.
    pub fn queue_depth_high_water(&self) -> u64 {
        self.shared.depth_hwm.load(Ordering::Relaxed)
    }

    /// Block fetches outstanding right now (submitted, not completed).
    /// The hwm alone can't show a drained pool; an advisor needs both.
    pub fn queue_depth(&self) -> u64 {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// A cloneable depth probe that outlives borrows of the pool —
    /// what a metrics snapshot source captures.
    pub fn depth_handle(&self) -> DepthHandle {
        DepthHandle {
            shared: self.shared.clone(),
        }
    }
}

/// Reads a pool's current and high-water fetch depth without borrowing
/// the pool. Keeps the shared state alive but not the worker threads.
#[derive(Clone)]
pub struct DepthHandle {
    shared: Arc<PoolShared>,
}

impl DepthHandle {
    /// Fetches outstanding right now.
    pub fn current(&self) -> u64 {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// High-water mark over the pool's life.
    pub fn high_water(&self) -> u64 {
        self.shared.depth_hwm.load(Ordering::Relaxed)
    }
}

impl ReadPool {
    /// Submits `jobs` as one chain and blocks until every slot is
    /// filled; `results[i]` answers `jobs[i]`. Adjacent same-table
    /// blocks coalesce into single span reads; completion order is
    /// arbitrary, result order is submission order. The calling thread
    /// participates in the fetching, so this makes progress even when
    /// every pool worker is busy with other chains.
    pub fn fetch_chain(&self, jobs: &[FetchJob]) -> Vec<Result<Vec<u8>>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let n = jobs.len() as u64;
        let depth = self.shared.in_flight.fetch_add(n, Ordering::Relaxed) + n;
        self.shared.depth_hwm.fetch_max(depth, Ordering::Relaxed);

        let chain = Arc::new(build_chain(jobs));
        // A single-run chain has nothing to overlap: the submitter does
        // the one (coalesced) read itself, skipping queue and wakeups.
        let shared_runs = chain.runs.len().saturating_sub(1).min(self.threads);
        if shared_runs > 0 {
            {
                let mut queue = self.shared.queue.lock();
                queue.push_back(chain.clone());
            }
            // Wake only as many workers as there are runs to steal.
            for _ in 0..shared_runs {
                self.shared.work.notify_one();
            }
        }

        // Help: claim runs alongside the workers, then wait out any run
        // still mid-flight in a worker.
        chain.drain();
        let mut state = chain.state.lock();
        while state.runs_left > 0 {
            chain.done.wait(&mut state);
        }
        self.shared.in_flight.fetch_sub(n, Ordering::Relaxed);
        state
            .slots
            .iter_mut()
            .map(|slot| {
                slot.take()
                    .unwrap_or_else(|| Err(Error::Internal("read-pool slot never filled".into())))
            })
            .collect()
    }
}

impl Drop for ReadPool {
    fn drop(&mut self) {
        // Set the flag *under the queue lock*: a worker that observed
        // `shutdown == false` does so while holding this lock, so by
        // the time we acquire it that worker is parked in `wait` and
        // the notification below reaches it — no lost-wakeup window
        // between its check and its sleep.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Groups the ordered job list into maximal coalescible runs.
fn build_chain(jobs: &[FetchJob]) -> Chain {
    let mut runs: Vec<Run> = Vec::new();
    for (slot, job) in jobs.iter().enumerate() {
        let extends = runs.last().is_some_and(|run| {
            Arc::ptr_eq(&run.table, &job.table)
                && run.first_block + run.count == job.block
                && run.count < MAX_RUN_BLOCKS
        });
        if extends {
            let run = runs.last_mut().expect("just matched");
            run.count += 1;
            run.corrupt.push(job.corrupt);
        } else {
            runs.push(Run {
                table: job.table.clone(),
                first_block: job.block,
                count: 1,
                slot_base: slot,
                corrupt: vec![job.corrupt],
            });
        }
    }
    let runs_left = runs.len();
    Chain {
        runs,
        cursor: AtomicUsize::new(0),
        state: Mutex::new(ChainState {
            slots: (0..jobs.len()).map(|_| None).collect(),
            runs_left,
        }),
        done: Condvar::new(),
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let chain = {
            let mut queue = shared.queue.lock();
            loop {
                // Drop exhausted chains (their submitter finishes them).
                while queue
                    .front()
                    .is_some_and(|c| c.cursor.load(Ordering::Relaxed) >= c.runs.len())
                {
                    queue.pop_front();
                }
                if let Some(front) = queue.front() {
                    break front.clone();
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.work.wait(&mut queue);
            }
        };
        chain.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Entry;
    use crate::sstable::{write_sstable, SstConfig};
    use tb_common::{Key, Value};

    fn table(dir: &tb_common::TestDir, id: u64, n: usize) -> Arc<SstReader> {
        let path = dir.create().join(format!("{id:010}.sst"));
        let entries = (0..n).map(|i| {
            (
                Key::from(format!("k{i:05}")),
                Entry::Put(Value::from(format!("v{i}-{}", "y".repeat(40)))),
            )
        });
        let meta = write_sstable(
            id,
            &path,
            entries,
            &SstConfig {
                block_size: 256,
                ..SstConfig::default()
            },
        )
        .unwrap();
        Arc::new(SstReader::open(meta).unwrap())
    }

    #[test]
    fn chain_results_align_with_submission_order() {
        let dir = tb_common::test_dir("tb-readpool-align");
        let t1 = table(&dir, 1, 400);
        let t2 = table(&dir, 2, 400);
        let pool = ReadPool::new(2);
        // Mixed tables, gaps, and adjacent runs, in sorted fetch order.
        let jobs: Vec<FetchJob> = [
            (0usize, &t1),
            (1, &t1),
            (2, &t1),
            (7, &t1),
            (0, &t2),
            (3, &t2),
        ]
        .iter()
        .map(|(block, t)| FetchJob {
            table: (*t).clone(),
            block: *block,
            corrupt: false,
        })
        .collect();
        let results = pool.fetch_chain(&jobs);
        assert_eq!(results.len(), jobs.len());
        for (job, result) in jobs.iter().zip(&results) {
            let direct = job.table.read_block(job.block).unwrap();
            assert_eq!(
                result.as_ref().expect("fetch succeeded").as_slice(),
                direct.as_slice(),
                "pooled block {} of table {} diverged from a direct read",
                job.block,
                job.table.meta.id
            );
        }
        assert!(pool.queue_depth_high_water() >= jobs.len() as u64);
    }

    #[test]
    fn many_concurrent_chains_stay_isolated() {
        let dir = tb_common::test_dir("tb-readpool-conc");
        let t = table(&dir, 1, 600);
        let pool = Arc::new(ReadPool::new(2));
        let blocks = t.block_count();
        std::thread::scope(|s| {
            for offset in 0..6 {
                let pool = pool.clone();
                let t = t.clone();
                s.spawn(move || {
                    for round in 0..20 {
                        let jobs: Vec<FetchJob> = (0..blocks)
                            .skip((offset + round) % 3)
                            .step_by(2)
                            .map(|block| FetchJob {
                                table: t.clone(),
                                block,
                                corrupt: false,
                            })
                            .collect();
                        let results = pool.fetch_chain(&jobs);
                        for (job, r) in jobs.iter().zip(&results) {
                            let direct = t.read_block(job.block).unwrap();
                            assert_eq!(r.as_ref().unwrap().as_slice(), direct.as_slice());
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn empty_chain_is_a_noop() {
        let pool = ReadPool::new(1);
        assert!(pool.fetch_chain(&[]).is_empty());
        assert_eq!(pool.queue_depth_high_water(), 0);
    }
}
