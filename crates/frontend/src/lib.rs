//! `tb-frontend` — the pipelined, sharded request front-end.
//!
//! Every engine in the workspace is a synchronous [`KvEngine`]; this
//! crate turns one into a *servable system*: the paper's data-node
//! serving model of one event loop per shard (§4.4) with batched
//! storage round-trips (§4.1.2). The front-end speaks the engine's own
//! op vocabulary: client threads submit [`EngineOp`]s to per-shard
//! bounded queues (routed by the cluster hash, `slot_for_key`), shard
//! workers drain batches, coalesce adjacent writes into one `MultiPut`,
//! lower each batch onto one `apply_batch` call of the wrapped engine,
//! and group-commit one `sync()` per dirty batch — the only two calls
//! it makes on the engine's data path. Completion flows back through
//! per-op [`Ticket`]s resolving to the engine's [`OpOutcome`]s; a full
//! shard queue is backpressure (blocking `submit`, or
//! `Error::Backpressure` from `try_submit`). The elastic watermark
//! policy from `tb-elastic` boosts extra drain workers onto hot shards
//! and retires them when bursts subside.
//!
//! [`EngineOp`]: tb_common::EngineOp
//! [`OpOutcome`]: tb_common::OpOutcome
//!
//! ```
//! use std::sync::Arc;
//! use tb_common::{EngineOp, Key, KvEngine, Value};
//! use tb_frontend::{Frontend, FrontendConfig};
//! # let engine: Arc<dyn KvEngine> = tb_common::testutil::MapEngine::shared();
//! let fe = Frontend::start(engine, FrontendConfig::default());
//! // Pipelined: submit many ops, await their tickets later.
//! let tickets: Vec<_> = (0..100)
//!     .map(|i| fe.submit(EngineOp::Put(Key::from(format!("k{i}")), Value::from("v"))))
//!     .collect();
//! for t in tickets {
//!     t.wait().unwrap();
//! }
//! assert_eq!(fe.get(&Key::from("k7")).unwrap(), Some(Value::from("v")));
//! fe.shutdown();
//! ```

mod frontend;
mod queue;
mod stats;
mod ticket;

pub use frontend::{Frontend, FrontendConfig};
pub use stats::{FrontendStats, FrontendStatsSnapshot};
pub use ticket::Ticket;

// Re-exported so front-end users can tune boosting without a direct
// tb-elastic dependency.
pub use tb_elastic::ElasticConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use tb_common::{EngineOp, Error, Key, KvEngine, OpOutcome, Result, Value};

    /// Map engine that counts engine-level calls, can inject
    /// per-operation latency (to saturate queues deterministically),
    /// and can panic on a chosen key (to test panic containment).
    #[derive(Default)]
    struct ProbeEngine {
        map: Mutex<BTreeMap<Key, Value>>,
        puts: AtomicU64,
        multi_puts: AtomicU64,
        apply_batches: AtomicU64,
        syncs: AtomicU64,
        op_delay: Option<Duration>,
        panic_on: Option<Key>,
    }

    impl ProbeEngine {
        fn shared() -> Arc<Self> {
            Arc::new(Self::default())
        }

        fn slow(delay: Duration) -> Arc<Self> {
            Arc::new(Self {
                op_delay: Some(delay),
                ..Self::default()
            })
        }

        fn stall(&self) {
            if let Some(d) = self.op_delay {
                std::thread::sleep(d);
            }
        }
    }

    impl KvEngine for ProbeEngine {
        fn get(&self, key: &Key) -> Result<Option<Value>> {
            self.stall();
            Ok(self.map.lock().get(key).cloned())
        }
        fn put(&self, key: Key, value: Value) -> Result<()> {
            self.stall();
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.map.lock().insert(key, value);
            Ok(())
        }
        fn delete(&self, key: &Key) -> Result<()> {
            self.map.lock().remove(key);
            Ok(())
        }
        // Native scan: the trait's default lowers onto `apply_batch`,
        // whose default lowers back — an engine must break the cycle.
        fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
            self.stall();
            Ok(self
                .map
                .lock()
                .range::<Key, _>((
                    std::ops::Bound::Included(start),
                    end.map_or(std::ops::Bound::Unbounded, std::ops::Bound::Excluded),
                ))
                .take(limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }
        fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
            self.stall();
            if let Some(poison) = &self.panic_on {
                if pairs.iter().any(|(k, _)| k == poison) {
                    panic!("probe engine poisoned by {poison:?}");
                }
            }
            self.multi_puts.fetch_add(1, Ordering::Relaxed);
            let mut m = self.map.lock();
            for (k, v) in pairs {
                self.puts.fetch_add(1, Ordering::Relaxed);
                m.insert(k, v);
            }
            Ok(())
        }
        fn apply_batch(&self, ops: Vec<tb_common::EngineOp>) -> Vec<Result<tb_common::OpOutcome>> {
            use tb_common::{EngineOp, Lsn, OpOutcome};
            self.apply_batches.fetch_add(1, Ordering::Relaxed);
            // Same lowering as the trait default; counted so tests can
            // assert one engine submission per drained batch.
            ops.into_iter()
                .map(|op| match op {
                    EngineOp::Get(key) => self.get(&key).map(OpOutcome::Value),
                    EngineOp::Put(key, value) => {
                        self.put(key, value).map(|_| OpOutcome::Done(Lsn::NONE))
                    }
                    EngineOp::Delete(key) => self.delete(&key).map(|_| OpOutcome::Done(Lsn::NONE)),
                    EngineOp::Cas { key, expected, new } => self
                        .cas(key, expected.as_ref(), new)
                        .map(|_| OpOutcome::Done(Lsn::NONE)),
                    // Inline get loop, not `self.multi_get`: the trait
                    // default of the un-overridden `multi_get` routes
                    // back through `apply_batch` and would recurse.
                    EngineOp::MultiGet(keys) => keys
                        .iter()
                        .map(|k| self.get(k))
                        .collect::<Result<Vec<_>>>()
                        .map(OpOutcome::Values),
                    EngineOp::MultiPut(pairs) => {
                        self.multi_put(pairs).map(|_| OpOutcome::Done(Lsn::NONE))
                    }
                    EngineOp::Scan { start, end, limit } => {
                        self.scan(&start, end.as_ref(), limit).map(OpOutcome::Range)
                    }
                })
                .collect()
        }
        fn sync(&self) -> Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn resident_bytes(&self) -> u64 {
            self.map
                .lock()
                .iter()
                .map(|(k, v)| (k.len() + v.len()) as u64)
                .sum()
        }
        fn label(&self) -> String {
            "probe".into()
        }
    }

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i:05}"))
    }

    fn v(i: usize) -> Value {
        Value::from(format!("val-{i}"))
    }

    #[test]
    fn pipelined_roundtrip_all_request_kinds() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::default());
        for i in 0..200 {
            fe.put(k(i), v(i)).unwrap();
        }
        for i in 0..200 {
            assert_eq!(fe.get(&k(i)).unwrap(), Some(v(i)));
        }
        fe.delete(&k(0)).unwrap();
        assert_eq!(fe.get(&k(0)).unwrap(), None);
        // CAS through the pipeline.
        fe.cas(k(1), Some(&v(1)), Value::from("swapped")).unwrap();
        assert_eq!(fe.get(&k(1)).unwrap(), Some(Value::from("swapped")));
        assert_eq!(
            fe.cas(k(1), Some(&v(999)), Value::from("nope")),
            Err(Error::CasMismatch)
        );
        fe.shutdown();
    }

    #[test]
    fn scan_rides_the_pipelined_batch_path() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(1));
        // Pipelined: interleave writes and scans on one shard so the
        // scan is one op inside a drained batch, ordered after the
        // writes submitted before it.
        let mut tickets = Vec::new();
        for i in 0..50 {
            tickets.push((None, fe.submit(EngineOp::Put(k(i), v(i)))));
        }
        tickets.push((
            Some(50),
            fe.submit(EngineOp::Scan {
                start: k(0),
                end: Some(k(50)),
                limit: usize::MAX,
            }),
        ));
        tickets.push((None, fe.submit(EngineOp::Delete(k(10)))));
        tickets.push((
            Some(49),
            fe.submit(EngineOp::Scan {
                start: k(0),
                end: None,
                limit: usize::MAX,
            }),
        ));
        for (expect, t) in tickets {
            match (expect, t.wait().unwrap()) {
                (Some(n), OpOutcome::Range(rows)) => {
                    assert_eq!(rows.len(), n, "scan saw the writes submitted before it");
                    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "rows key-ordered");
                }
                (None, OpOutcome::Done(_)) => {}
                (e, r) => panic!("unexpected outcome {e:?} {r:?}"),
            }
        }
        // Convenience wrapper + limit truncation.
        let got = fe.scan(&k(20), Some(&k(30)), 3).unwrap();
        assert_eq!(
            got,
            vec![(k(20), v(20)), (k(21), v(21)), (k(22), v(22))],
            "limit truncates in key order"
        );
        // Scans lowered into batches, not per-op engine calls.
        assert!(engine.apply_batches.load(Ordering::Relaxed) > 0);
        fe.shutdown();
    }

    #[test]
    fn multi_ops_split_by_shard_and_reassemble_in_order() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(4));
        let pairs: Vec<(Key, Value)> = (0..64).map(|i| (k(i), v(i))).collect();
        fe.multi_put(pairs).unwrap();
        // Interleave hits and misses to check positional alignment.
        let keys: Vec<Key> = (0..128).map(k).collect();
        let got = fe.multi_get(&keys).unwrap();
        assert_eq!(got.len(), 128);
        for (i, item) in got.iter().enumerate() {
            if i < 64 {
                assert_eq!(item.as_ref(), Some(&v(i)), "key {i} should hit");
            } else {
                assert!(item.is_none(), "key {i} should miss");
            }
        }
        fe.shutdown();
    }

    #[test]
    fn group_commit_syncs_once_per_batch_not_per_write() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                ..FrontendConfig::default()
            },
        );
        // Pipelined burst: tickets awaited only at the end, so the
        // single shard worker sees deep batches.
        let tickets: Vec<Ticket> = (0..1000)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let syncs = engine.syncs.load(Ordering::Relaxed);
        let puts = engine.puts.load(Ordering::Relaxed);
        assert_eq!(puts, 1000);
        assert!(
            syncs < 1000 / 2,
            "group commit must amortize syncs: {syncs} syncs for {puts} puts"
        );
        assert!(syncs > 0, "dirty batches must sync");
        assert_eq!(fe.stats_snapshot().group_syncs, syncs);
        fe.shutdown();
    }

    #[test]
    fn per_op_mode_syncs_every_write() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                group_commit: false,
                ..FrontendConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..100)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(engine.syncs.load(Ordering::Relaxed), 100);
        assert_eq!(fe.stats_snapshot().per_op_syncs, 100);
        fe.shutdown();
    }

    #[test]
    fn adjacent_writes_coalesce_into_multi_put() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                ..FrontendConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..500)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let calls = engine.multi_puts.load(Ordering::Relaxed);
        assert_eq!(engine.puts.load(Ordering::Relaxed), 500);
        assert!(
            calls < 500 / 2,
            "coalescing must batch engine round-trips: {calls} multi_puts for 500 puts"
        );
        assert!(fe.stats_snapshot().coalesced_puts > 0);
        fe.shutdown();
    }

    #[test]
    fn reads_are_not_reordered_past_writes_on_one_shard() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(1));
        let key = Key::from("rw-order");
        let mut tickets = Vec::new();
        for round in 0..50 {
            tickets.push((
                None,
                fe.submit(EngineOp::Put(key.clone(), Value::from(format!("{round}")))),
            ));
            tickets.push((Some(round), fe.submit(EngineOp::Get(key.clone()))));
        }
        for (expect, t) in tickets {
            match (expect, t.wait().unwrap()) {
                (Some(round), OpOutcome::Value(got)) => {
                    assert_eq!(got, Some(Value::from(format!("{round}"))));
                }
                (None, OpOutcome::Done(_)) => {}
                (e, r) => panic!("unexpected outcome {e:?} {r:?}"),
            }
        }
        fe.shutdown();
    }

    #[test]
    fn try_submit_sheds_load_when_shard_saturates() {
        let engine = ProbeEngine::slow(Duration::from_millis(20));
        let fe = Frontend::start(
            engine,
            FrontendConfig {
                shards: 1,
                queue_capacity: 8,
                max_batch: 4,
                ..FrontendConfig::default()
            },
        );
        // Fill the queue faster than the slow engine drains it.
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for i in 0..64 {
            match fe.try_submit(EngineOp::Put(k(i), v(i))) {
                Ok(t) => accepted.push(t),
                Err(e @ Error::Backpressure { .. }) => {
                    // The shed carries a retry-after hint: the refusing
                    // queue's depth, at least the configured capacity.
                    assert!(
                        e.queue_depth() >= Some(8),
                        "backpressure must carry the queue depth, got {e:?}"
                    );
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(rejected > 0, "saturated shard must shed load");
        assert_eq!(fe.stats_snapshot().backpressure_rejections, rejected);
        for t in accepted {
            t.wait().unwrap();
        }
        fe.shutdown();
    }

    #[test]
    fn elastic_controller_boosts_hot_shard_and_shrinks_after() {
        let engine = ProbeEngine::slow(Duration::from_micros(300));
        let fe = Frontend::start(
            engine,
            FrontendConfig {
                shards: 1,
                queue_capacity: 4096,
                max_batch: 1, // force per-request drains so depth persists
                max_workers_per_shard: 4,
                elastic: ElasticConfig {
                    boost_depth: 16,
                    shrink_depth: 2,
                    sample_interval: Duration::from_millis(1),
                    shrink_patience: 3,
                },
                ..FrontendConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..2000).map(|i| fe.submit(EngineOp::Get(k(i)))).collect();
        let mut peak = 1;
        while fe.total_queue_depth() > 0 {
            peak = peak.max(fe.live_workers(0));
            std::thread::sleep(Duration::from_millis(1));
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(peak > 1, "hot shard never boosted (peak {peak})");
        assert!(fe.stats_snapshot().boosts > 0);
        // Calm period: boosted workers retire.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while fe.live_workers(0) > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(fe.live_workers(0), 1, "boosted workers never retired");
        assert!(fe.stats_snapshot().shrinks > 0);
        fe.shutdown();
    }

    #[test]
    fn multi_shard_batches_rejected_on_raw_submit() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(4));
        // Find two keys on different shards.
        let a = k(0);
        let b = (1..)
            .map(k)
            .find(|key| fe.shard_of(key) != fe.shard_of(&a))
            .expect("some key lands on another shard");
        let spanning = EngineOp::MultiPut(vec![(a.clone(), v(0)), (b.clone(), v(1))]);
        assert!(matches!(
            fe.submit(spanning.clone()).wait(),
            Err(Error::InvalidArgument(_))
        ));
        assert!(matches!(
            fe.try_submit(spanning),
            Err(Error::InvalidArgument(_))
        ));
        // Single-shard batches and the splitting helpers still work.
        fe.submit(EngineOp::MultiPut(vec![(a.clone(), v(0))]))
            .wait()
            .unwrap();
        fe.multi_put(vec![(a.clone(), v(2)), (b.clone(), v(3))])
            .unwrap();
        assert_eq!(fe.get(&b).unwrap(), Some(v(3)));
        fe.shutdown();
    }

    #[test]
    fn cross_shard_multi_get_scatters_and_gathers_in_key_order() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(4));
        let pairs: Vec<(Key, Value)> = (0..64).map(|i| (k(i), v(i))).collect();
        fe.multi_put(pairs).unwrap();
        // A raw submit of a shard-spanning MultiGet: scattered per
        // shard, gathered positionally (hits interleaved with misses).
        let keys: Vec<Key> = (0..128).map(k).collect();
        let shards: std::collections::HashSet<usize> =
            keys.iter().map(|key| fe.shard_of(key)).collect();
        assert!(shards.len() > 1, "test needs a spanning key set");
        let ticket = fe.submit(EngineOp::MultiGet(keys.clone()));
        match ticket.wait().unwrap() {
            OpOutcome::Values(values) => {
                assert_eq!(values.len(), 128);
                for (i, item) in values.iter().enumerate() {
                    if i < 64 {
                        assert_eq!(item.as_ref(), Some(&v(i)), "key {i} should hit");
                    } else {
                        assert!(item.is_none(), "key {i} should miss");
                    }
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        // try_submit scatters too.
        let ticket = fe.try_submit(EngineOp::MultiGet(keys)).unwrap();
        assert!(matches!(ticket.wait().unwrap(), OpOutcome::Values(_)));
        fe.shutdown();
    }

    #[test]
    fn drained_batch_lowers_to_one_engine_submission() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(1));
        // Pipelined burst of mixed reads and writes: tickets awaited at
        // the end so the single shard worker drains deep batches.
        let tickets: Vec<Ticket> = (0..600)
            .map(|i| {
                if i % 3 == 0 {
                    fe.submit(EngineOp::Get(k(i)))
                } else {
                    fe.submit(EngineOp::Put(k(i), v(i)))
                }
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let submissions = engine.apply_batches.load(Ordering::Relaxed);
        let batches = fe.stats_snapshot().batches;
        assert_eq!(
            submissions, batches,
            "each drained batch must make exactly one apply_batch call"
        );
        assert!(
            submissions < 600 / 2,
            "pipelined burst should amortize engine submissions: {submissions}"
        );
        fe.shutdown();
    }

    #[test]
    fn frontend_apply_batch_pipelines_and_preserves_order() {
        use tb_common::{EngineOp, Lsn, OpOutcome};
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(2));
        let key = Key::from("batch-order");
        let outcomes = KvEngine::apply_batch(
            &fe,
            vec![
                EngineOp::Get(key.clone()),
                EngineOp::Put(key.clone(), Value::from("1")),
                EngineOp::Get(key.clone()),
                EngineOp::Cas {
                    key: key.clone(),
                    expected: Some(Value::from("1")),
                    new: Value::from("2"),
                },
                EngineOp::Cas {
                    key: key.clone(),
                    expected: Some(Value::from("1")),
                    new: Value::from("3"),
                },
                EngineOp::MultiGet(vec![key.clone(), Key::from("missing")]),
                EngineOp::Delete(key.clone()),
                EngineOp::Get(key.clone()),
            ],
        );
        assert_eq!(outcomes[0], Ok(OpOutcome::Value(None)));
        assert_eq!(outcomes[1], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(outcomes[2], Ok(OpOutcome::Value(Some(Value::from("1")))));
        assert_eq!(outcomes[3], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(outcomes[4], Err(Error::CasMismatch));
        assert_eq!(
            outcomes[5],
            Ok(OpOutcome::Values(vec![Some(Value::from("2")), None]))
        );
        assert_eq!(outcomes[6], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(outcomes[7], Ok(OpOutcome::Value(None)));
        fe.shutdown();
    }

    #[test]
    fn stats_snapshot_surfaces_lsm_batch_counters() {
        let dir = tb_common::test_dir("tb-fe-bstats");
        let db = Arc::new(
            tb_lsm::LsmDb::open(tb_lsm::LsmConfig::small_for_tests(dir.path())).expect("open lsm"),
        );
        let fe = Frontend::start(db, FrontendConfig::with_shards(2));
        for i in 0..300 {
            fe.put(k(i), v(i)).unwrap();
        }
        KvEngine::sync(&fe).unwrap(); // flushes nothing, but barriers
        let keys: Vec<Key> = (0..300).map(k).collect();
        let _ = fe.multi_get(&keys).unwrap();
        let snap = fe.stats_snapshot();
        let batch = snap.engine_batch;
        assert!(
            batch.blocks_read + batch.memtable_hits > 0,
            "batched lookups left no trace in the engine counters: {batch:?}"
        );
        fe.shutdown();
    }

    #[test]
    fn engine_panic_fails_batch_but_frontend_survives() {
        let poison = Key::from("poison-pill");
        let engine = Arc::new(ProbeEngine {
            panic_on: Some(poison.clone()),
            ..ProbeEngine::default()
        });
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(1));
        // The poisoned batch fails (completers dropped by the unwind
        // resolve the tickets), the worker survives.
        let t = fe.submit(EngineOp::Put(poison, v(0)));
        assert!(matches!(t.wait(), Err(Error::Unavailable(_))));
        // Same shard keeps serving afterwards: no hang, no wedge.
        for i in 0..100 {
            fe.put(k(i), v(i)).unwrap();
        }
        assert_eq!(fe.get(&k(42)).unwrap(), Some(v(42)));
        assert_eq!(fe.stats_snapshot().worker_panics, 1);
        fe.shutdown();
    }

    #[test]
    fn barrier_is_bounded_under_sustained_submission() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(engine, FrontendConfig::with_shards(2)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let producer_fe = fe.clone();
            let producer_stop = stop.clone();
            s.spawn(move || {
                let mut i = 0usize;
                while !producer_stop.load(Ordering::Relaxed) {
                    let _ = producer_fe.submit(EngineOp::Put(k(i), v(i)));
                    i += 1;
                }
            });
            std::thread::sleep(Duration::from_millis(20));
            // The barrier waits on batches drained up to its marker,
            // not on the producer's endless later traffic.
            let t0 = std::time::Instant::now();
            fe.barrier();
            let elapsed = t0.elapsed();
            stop.store(true, Ordering::Relaxed);
            assert!(
                elapsed < Duration::from_secs(2),
                "barrier livelocked under sustained load ({elapsed:?})"
            );
        });
        fe.shutdown();
    }

    #[test]
    fn sync_barrier_holds_under_boosted_workers() {
        let engine = ProbeEngine::slow(Duration::from_micros(200));
        let fe = Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                max_batch: 8,
                max_workers_per_shard: 4,
                elastic: ElasticConfig {
                    boost_depth: 8,
                    shrink_depth: 1,
                    sample_interval: Duration::from_millis(1),
                    shrink_patience: 3,
                },
                ..FrontendConfig::default()
            },
        );
        // Deep pipelined burst, then sync: with several workers
        // draining the one shard, the barrier must not return while a
        // sibling still holds an earlier-drained batch.
        let tickets: Vec<Ticket> = (0..500)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        KvEngine::sync(&fe).unwrap();
        assert_eq!(
            engine.puts.load(Ordering::Relaxed),
            500,
            "sync returned before previously submitted writes were applied"
        );
        for t in tickets {
            t.wait().unwrap();
        }
        fe.shutdown();
    }

    #[test]
    fn frontend_is_a_kv_engine() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::default());
        let dyn_engine: &dyn KvEngine = &fe;
        dyn_engine.put(Key::from("a"), Value::from("1")).unwrap();
        assert_eq!(
            dyn_engine.get(&Key::from("a")).unwrap(),
            Some(Value::from("1"))
        );
        assert_eq!(dyn_engine.label(), "frontend<probe>");
        assert!(dyn_engine.resident_bytes() > 0);
        dyn_engine.sync().unwrap();
        fe.shutdown();
    }

    #[test]
    fn shutdown_completes_queued_work_and_is_idempotent() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
        let tickets: Vec<Ticket> = (0..300)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        fe.shutdown();
        fe.shutdown();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(engine.puts.load(Ordering::Relaxed), 300);
        // Post-shutdown submissions fail fast instead of hanging.
        assert!(matches!(
            fe.submit(EngineOp::Get(k(0))).wait(),
            Err(Error::Unavailable(_))
        ));
        assert!(matches!(
            fe.try_submit(EngineOp::Get(k(0))),
            Err(Error::Unavailable(_))
        ));
    }

    #[test]
    fn concurrent_producers_land_all_writes() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(engine, FrontendConfig::with_shards(4)));
        std::thread::scope(|s| {
            for t in 0..8 {
                let fe = fe.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        fe.put(Key::from(format!("t{t}-{i}")), v(i)).unwrap();
                    }
                });
            }
        });
        for t in 0..8 {
            for i in 0..250 {
                assert_eq!(fe.get(&Key::from(format!("t{t}-{i}"))).unwrap(), Some(v(i)));
            }
        }
        let snap = fe.stats_snapshot();
        assert_eq!(snap.submitted, snap.completed);
        fe.shutdown();
    }

    #[test]
    fn group_commit_acks_after_durability_on_real_lsm() {
        let dir = tb_common::test_dir("tb-fe-lsm");
        let db = Arc::new(
            tb_lsm::LsmDb::open(tb_lsm::LsmConfig::small_for_tests(dir.path())).expect("open lsm"),
        );
        let fe = Frontend::start(db, FrontendConfig::with_shards(2));
        let tickets: Vec<Ticket> = (0..500)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        fe.shutdown();
        // Acked writes must be durable: reopen and read everything back.
        let db =
            tb_lsm::LsmDb::open(tb_lsm::LsmConfig::small_for_tests(dir.path())).expect("reopen");
        for i in 0..500 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i)), "key {i} lost");
        }
    }

    #[test]
    fn boosted_workers_share_the_engine_read_pool() {
        // One pooled LSM engine behind a boosting front-end: every
        // worker draining this shard — boosted siblings included —
        // lowers its batches onto the same `apply_batch` path and so
        // shares the engine's one read pool; the pool counters surface
        // through the front-end's stats snapshot.
        let dir = tb_common::test_dir("tb-fe-pool");
        let mut config = tb_lsm::LsmConfig::small_for_tests(dir.path());
        config.read_pool_threads = 2;
        let db = Arc::new(tb_lsm::LsmDb::open(config).expect("open lsm"));
        for i in 0..400 {
            db.put(k(i), v(i)).unwrap();
        }
        db.flush().unwrap();
        let fe = Arc::new(Frontend::start(
            db,
            FrontendConfig {
                shards: 2,
                max_batch: 32,
                max_workers_per_shard: 3,
                elastic: ElasticConfig {
                    boost_depth: 8,
                    shrink_depth: 1,
                    sample_interval: Duration::from_millis(1),
                    shrink_patience: 3,
                },
                ..FrontendConfig::default()
            },
        ));
        // Concurrent batched readers pile depth onto the shards so the
        // controller boosts, while every drained batch's staged reads
        // flow through the shared pool.
        std::thread::scope(|s| {
            for t in 0..4 {
                let fe = fe.clone();
                s.spawn(move || {
                    for round in 0..30 {
                        let keys: Vec<Key> =
                            (0..400).skip((t + round) % 7).step_by(3).map(k).collect();
                        let got = fe.multi_get(&keys).unwrap();
                        for (key, item) in keys.iter().zip(got) {
                            assert!(item.is_some(), "missing {key:?}");
                        }
                    }
                });
            }
        });
        let batch = fe.stats_snapshot().engine_batch;
        assert!(
            batch.parallel_fetches > 0,
            "no staged read ever reached the shared pool: {batch:?}"
        );
        assert_eq!(
            batch.parallel_fetches, batch.blocks_read,
            "with a pool configured every staged fetch is pooled"
        );
        assert!(
            batch.read_pool_queue_depth > 0,
            "queue-depth high-water mark never moved: {batch:?}"
        );
        fe.shutdown();
    }
}
