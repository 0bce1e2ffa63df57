//! Frontend pipeline: group-commit vs per-op `sync()` over the LSM
//! engine under open-loop concurrent replay.
//!
//! Shape to reproduce: with durability paid per operation every write
//! eats an fsync, capping throughput near the storage sync rate; the
//! front-end's group commit amortizes one fsync across a drained batch
//! (TierBase §4.1.2's batched remote-tier round-trips), multiplying
//! write throughput and cutting p99. The boosted row adds the §4.4
//! elastic drain workers on top.

use std::sync::Arc;
use tb_bench::{bench_dir, budget, drive_pipelined, print_table, BenchReport};
use tb_common::KvEngine;
use tb_frontend::{ElasticConfig, Frontend, FrontendConfig};
use tb_lsm::{LsmConfig, LsmDb};
use tb_workload::{Trace, Workload, WorkloadSpec};

fn main() {
    let records = budget(5_000);
    let ops = budget(20_000);

    let mut report = BenchReport::new("frontend_pipeline");
    let mut rows = Vec::new();
    for (label, group_commit, boost) in [
        ("per-op-sync", false, 1usize),
        ("group-commit", true, 1),
        ("group-commit+boost", true, 4),
    ] {
        let dir = bench_dir(&format!("fe-pipe-{label}"));
        let db: Arc<dyn KvEngine> = Arc::new(LsmDb::open(LsmConfig::new(&dir)).expect("open lsm"));
        let fe = Frontend::start(
            db,
            FrontendConfig {
                shards: 4,
                queue_capacity: 4096,
                max_batch: 128,
                group_commit,
                max_workers_per_shard: boost,
                elastic: ElasticConfig::default(),
            },
        );

        let mut w = Workload::new(WorkloadSpec::ycsb_a(records, ops));
        let load = Trace::new(w.load_ops());
        let run = w.run_trace();
        // Load phase through the pipeline too, untimed.
        let _ = drive_pipelined(&fe, &load, 4);

        let r = drive_pipelined(&fe, &run, 8);
        report.add_pipeline(label, &r);
        let snap = fe.stats_snapshot();
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", r.qps / 1000.0),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            format!("{}", snap.group_syncs + snap.per_op_syncs),
            format!("{:.1}", snap.mean_batch()),
            format!("{}", snap.boosts),
            format!("{}", r.errors),
        ]);
        fe.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    print_table(
        "Frontend pipeline: per-op sync vs group commit (LSM engine, YCSB-A, open-loop)",
        &[
            "mode",
            "kqps",
            "p50_us",
            "p99_us",
            "syncs",
            "ops/batch",
            "boosts",
            "errors",
        ],
        &rows,
    );
    report.write().expect("write bench report");
}
