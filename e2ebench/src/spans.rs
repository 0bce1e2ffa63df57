//! Span recording for the traced run, from outside the program:
//! [`Traced`] is a `KvEngine` decorator that forwards every trait
//! method to the layer it wraps and, while tracing is on, records one
//! span per call. The benchmark wraps the `Frontend` handed to
//! `Server::bind_unix` and the `LsmDb` handed to `Frontend::start`.
//!
//! Spans stay in memory and are written out when the run ends. While
//! tracing is off a decorated call costs one relaxed load (plus the
//! LSM call counters, which are always kept).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tb_common::{BatchReadStats, EngineOp, Key, KvEngine, Lsn, OpOutcome, Result, Value};

/// Burst id of spans whose ops do not identify one burst.
pub const NO_BURST: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    pub thread: u32,
    pub burst: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Ops the LSM decorator saw, counted whether or not tracing is on.
#[derive(Default)]
pub struct LsmCalls {
    /// Point lookups submitted (`Get` ops plus `MultiGet` keys).
    pub lookups: AtomicU64,
    pub scans: AtomicU64,
    pub syncs: AtomicU64,
}

pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Burst id by the hash of a burst's keys (see [`burst_hash`]).
    burst_ids: HashMap<u64, u32>,
    pub lsm_calls: LsmCalls,
}

/// Identifies a burst by its ops: FNV-1a over every key (scan start
/// and end included). Ambiguous hashes are dropped from the id map.
pub fn burst_hash(ops: &[EngineOp]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for op in ops {
        match op {
            EngineOp::Get(k) | EngineOp::Put(k, _) | EngineOp::Delete(k) => eat(k.as_slice()),
            EngineOp::Cas { key, .. } => eat(key.as_slice()),
            EngineOp::MultiGet(keys) => keys.iter().for_each(|k| eat(k.as_slice())),
            EngineOp::MultiPut(pairs) => pairs.iter().for_each(|(k, _)| eat(k.as_slice())),
            EngineOp::Scan { start, end, .. } => {
                eat(start.as_slice());
                eat(end.as_ref().map_or(&[][..], Key::as_slice));
            }
        }
    }
    h
}

thread_local! {
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Small per-process id of the calling thread.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

impl Recorder {
    pub fn new(bursts: &[Vec<EngineOp>]) -> Self {
        let mut burst_ids = HashMap::with_capacity(bursts.len());
        let mut ambiguous = Vec::new();
        for (i, burst) in bursts.iter().enumerate() {
            if burst_ids.insert(burst_hash(burst), i as u32).is_some() {
                ambiguous.push(burst_hash(burst));
            }
        }
        for h in ambiguous {
            burst_ids.remove(&h);
        }
        Self {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            burst_ids,
            lsm_calls: LsmCalls::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer").push(span);
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer"))
    }

    fn burst_of(&self, ops: &[EngineOp]) -> u32 {
        self.burst_ids
            .get(&burst_hash(ops))
            .copied()
            .unwrap_or(NO_BURST)
    }
}

/// Which layer a [`Traced`] decorator wraps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Frontend,
    Lsm,
}

impl Layer {
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Layer::Frontend => ("frontend.apply_batch", "frontend.sync", "frontend.call"),
            Layer::Lsm => ("lsm.apply_batch", "lsm.sync", "lsm.call"),
        }
    }
}

/// The tracing decorator (see the module docs).
pub struct Traced {
    layer: Layer,
    inner: Arc<dyn KvEngine>,
    rec: Arc<Recorder>,
}

impl Traced {
    pub fn new(layer: Layer, inner: Arc<dyn KvEngine>, rec: Arc<Recorder>) -> Self {
        Self { layer, inner, rec }
    }

    fn span<T>(&self, name: &'static str, burst: u32, f: impl FnOnce() -> T) -> T {
        if !self.rec.is_on() {
            return f();
        }
        let start = self.rec.now();
        let out = f();
        let end = self.rec.now();
        self.rec.record(Span {
            name,
            start,
            end,
            thread: thread_id(),
            burst,
        });
        out
    }

    /// Point methods: the serving path lowers everything onto
    /// `apply_batch`, but any engine work must still count as covered.
    fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        self.span(self.layer.names().2, NO_BURST, f)
    }
}

impl KvEngine for Traced {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.call(|| self.inner.get(key))
    }

    fn put(&self, key: Key, value: Value) -> Result<()> {
        self.call(|| self.inner.put(key, value))
    }

    fn delete(&self, key: &Key) -> Result<()> {
        self.call(|| self.inner.delete(key))
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn sync(&self) -> Result<()> {
        if self.layer == Layer::Lsm {
            self.rec.lsm_calls.syncs.fetch_add(1, Ordering::Relaxed);
        }
        self.span(self.layer.names().1, NO_BURST, || self.inner.sync())
    }

    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        self.call(|| self.inner.multi_get(keys))
    }

    fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
        self.call(|| self.inner.multi_put(pairs))
    }

    fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        self.call(|| self.inner.scan(start, end, limit))
    }

    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        // The server hands the frontend one whole burst; its keys name
        // it. An LSM batch mixes whatever the shard drained.
        let burst = match self.layer {
            Layer::Frontend if self.rec.is_on() => self.rec.burst_of(&ops),
            _ => NO_BURST,
        };
        if self.layer == Layer::Lsm {
            let calls = &self.rec.lsm_calls;
            let (mut lookups, mut scans) = (0, 0);
            for op in &ops {
                match op {
                    EngineOp::Get(_) => lookups += 1,
                    EngineOp::MultiGet(keys) => lookups += keys.len() as u64,
                    EngineOp::Scan { .. } => scans += 1,
                    _ => {}
                }
            }
            calls.lookups.fetch_add(lookups, Ordering::Relaxed);
            calls.scans.fetch_add(scans, Ordering::Relaxed);
        }
        self.span(self.layer.names().0, burst, || self.inner.apply_batch(ops))
    }

    fn batch_read_stats(&self) -> BatchReadStats {
        self.inner.batch_read_stats()
    }

    fn applied_lsn(&self) -> Lsn {
        self.inner.applied_lsn()
    }

    fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        self.call(|| self.inner.cas(key, expected, new))
    }
}

/// Total length of `[from, to)` covered by `union`, a sorted list of
/// disjoint intervals.
pub fn covered(union: &[(u64, u64)], from: u64, to: u64) -> u64 {
    let first = union.partition_point(|&(_, end)| end <= from);
    union[first..]
        .iter()
        .take_while(|&&(start, _)| start < to)
        .map(|&(start, end)| end.min(to) - start.max(from))
        .sum()
}

/// Sorted, merged union of intervals.
pub fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (start, end) in intervals {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_of_merged_intervals() {
        let u = union(vec![(10, 20), (15, 30), (40, 50), (0, 5)]);
        assert_eq!(u, vec![(0, 5), (10, 30), (40, 50)]);
        assert_eq!(covered(&u, 0, 100), 5 + 20 + 10);
        assert_eq!(covered(&u, 12, 45), 18 + 5);
        assert_eq!(covered(&u, 31, 39), 0);
    }

    #[test]
    fn bursts_are_named_by_their_keys() {
        let burst = |k: &str| vec![EngineOp::Get(Key::from(k)), EngineOp::Get(Key::from("x"))];
        let rec = Recorder::new(&[burst("a"), burst("b"), burst("a")]);
        // "a" occurs twice: ambiguous, so unnamed.
        assert_eq!(rec.burst_of(&burst("a")), NO_BURST);
        assert_eq!(rec.burst_of(&burst("b")), 1);
    }
}
