//! The benchmark's workloads: YCSB-style specs, their pre-generated
//! traces, and the 32-op bursts the clients replay.

use crate::oracle::Oracle;
use tb_common::EngineOp;
use tb_workload::{Op, Trace, Workload, WorkloadSpec};

/// Records loaded before every run.
pub const RECORDS: u64 = 200_000;
/// Ops per pipelined burst (one `ServerClient::apply_batch` call).
pub const BURST: usize = 32;
/// Records per `MultiPut` op while loading, and `MultiPut` ops per load
/// burst: each burst carries 2048 records, which the frontend splits by
/// shard and group-commits together.
pub const LOAD_PAIRS: usize = 256;
pub const LOAD_OPS: usize = 8;

/// One named workload of the benchmark.
pub struct Def {
    pub name: &'static str,
    /// Run-phase ops generated up front: several times what a 10 s
    /// window consumes on the reference VM (at most 200k ops), so a much
    /// faster build still replays fresh ops. Past the end the clients
    /// wrap around (inserts then rewrite the values they first wrote).
    pub run_ops: u64,
    spec: fn(u64, u64) -> WorkloadSpec,
}

pub const ALL: [Def; 3] = [
    Def {
        name: "ycsb-b",
        run_ops: 800_000,
        spec: WorkloadSpec::ycsb_b,
    },
    Def {
        name: "reconcile",
        run_ops: 1_000_000,
        spec: WorkloadSpec::case2_reconciliation,
    },
    Def {
        name: "ycsb-e",
        run_ops: 100_000,
        spec: WorkloadSpec::ycsb_e,
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    ALL.iter().find(|d| d.name == name)
}

impl Def {
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            ..(self.spec)(RECORDS, self.run_ops)
        }
    }
}

/// Everything a run replays, generated before any timing starts.
pub struct Prepared {
    pub spec: WorkloadSpec,
    /// The load phase: bursts of `LOAD_OPS` multi-puts.
    pub load: Vec<Vec<EngineOp>>,
    /// The run phase in `BURST`-op bursts.
    pub bursts: Vec<Vec<EngineOp>>,
    pub oracle: Oracle,
    /// Key + value bytes per loaded/inserted ordinal, and per updated
    /// ordinal (for the live-data size behind `space_amp`).
    pub original_bytes: Vec<u32>,
    pub update_bytes: Vec<u32>,
}

impl Prepared {
    /// Key + value bytes of an acknowledged write: `(ordinal, wrote
    /// the update value)`.
    pub fn put_bytes(&self, (ord, update): (u32, bool)) -> u64 {
        let table = if update {
            &self.update_bytes
        } else {
            &self.original_bytes
        };
        u64::from(table[ord as usize])
    }
}

fn engine_op(op: &Op) -> EngineOp {
    match op {
        Op::Read { key } => EngineOp::Get(key.clone()),
        Op::Update { key, value } | Op::Insert { key, value } => {
            EngineOp::Put(key.clone(), value.clone())
        }
        Op::Scan { start, end, limit } => EngineOp::Scan {
            start: start.clone(),
            end: Some(end.clone()),
            limit: *limit as usize,
        },
        other => panic!("the benchmark's workloads never generate {other:?}"),
    }
}

/// Generates the load phase and, with `with_run`, the run trace (a
/// set-up alone needs only the load).
pub fn prepare(def: &Def, seed: u64, with_run: bool) -> Prepared {
    let spec = def.spec(seed);
    let mut workload = Workload::new(spec.clone());
    let load = Trace::new(workload.load_ops());
    let run = if with_run {
        workload.run_trace()
    } else {
        Trace::new(Vec::new())
    };
    let mut oracle = Oracle::new(spec.record_count);
    let mut original_bytes = Vec::new();
    let mut update_bytes = Vec::new();
    for op in load.ops().iter().chain(run.ops()) {
        oracle.learn(op);
        let table = match op {
            Op::Insert { .. } => &mut original_bytes,
            Op::Update { .. } => &mut update_bytes,
            _ => continue,
        };
        let ord = crate::oracle::ordinal(op.key()).expect("generated key") as usize;
        if table.len() <= ord {
            table.resize(ord + 1, 0);
        }
        table[ord] = (op.key().len() + op.value_len()) as u32;
    }
    let multi_put = |ops: &[Op]| {
        EngineOp::MultiPut(
            ops.iter()
                .map(|op| match engine_op(op) {
                    EngineOp::Put(k, v) => (k, v),
                    other => panic!("the load phase only inserts, got {other:?}"),
                })
                .collect(),
        )
    };
    let load_ops: Vec<EngineOp> = load.ops().chunks(LOAD_PAIRS).map(multi_put).collect();
    Prepared {
        load: load_ops
            .chunks(LOAD_OPS)
            .map(<[EngineOp]>::to_vec)
            .collect(),
        bursts: run
            .ops()
            .chunks(BURST)
            .map(|c| c.iter().map(engine_op).collect())
            .collect(),
        spec,
        oracle,
        original_bytes,
        update_bytes,
    }
}
