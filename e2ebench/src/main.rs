//! End-to-end socket benchmark for TierBase.
//!
//! Replays one YCSB-style workload through a real `tb-server` Unix
//! socket → `Frontend` → `LsmDb`, checks every reply against the trace,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ycsb-b --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root: data directories, the socket and
//! the span dump live under `.bench_out/` there. See `DESIGN.md` for
//! the workloads, the fixed stack and what each metric should move.

mod oracle;
mod spans;
mod stack;
mod workloads;

use oracle::Check;
use spans::{Recorder, Span, NO_BURST};
use stack::Stack;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tb_common::KvEngine;
use workloads::{Def, Prepared};

/// Set-ups per run; `setup_s` is their median. All but the last run in
/// child processes, so the measured process holds exactly one stack.
const SETUPS: usize = 3;
/// Length of each tracing-on / tracing-off slice in the traced run.
const SLICE: Duration = Duration::from_millis(250);
/// `USER_HZ`, the unit of `/proc` CPU times (100 on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;
/// How often the window samples the process's resident memory; every
/// `DISK_SAMPLE_EVERY`-th sample also sizes the data directory.
const SAMPLE: Duration = Duration::from_millis(50);
const DISK_SAMPLE_EVERY: u64 = 10;
/// Where data directories, sockets and span dumps go (relative to the
/// working directory, which is the repository root).
const OUT_DIR: &str = ".bench_out";

struct Args {
    def: &'static Def,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process that only times one set-up in this
    /// directory.
    setup_only: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let def = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|d| d.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let num = |flag| -> Result<f64, String> {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        def,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        setup_only: get("--setup-only").ok().map(PathBuf::from),
    })
}

/// One burst as a client saw it.
#[derive(Clone, Copy)]
struct BurstRec {
    id: u32,
    start: u64,
    end: u64,
    ops: u32,
    failed: u32,
    /// Started while tracing was on.
    traced: bool,
}

#[derive(Default)]
struct ClientLog {
    bursts: Vec<BurstRec>,
    /// The first few wrong replies, and how many there were.
    wrong: Vec<String>,
    wrong_count: u64,
    /// Ordinal of every acknowledged write, and whether it wrote the
    /// key's update value (else its loaded/inserted value).
    acked_puts: Vec<(u32, bool)>,
}

fn drive(
    client: &tb_server::ServerClient,
    p: &Prepared,
    rec: &Recorder,
    cursor: &AtomicU64,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let n = p.bursts.len() as u64;
    while !stop.load(Ordering::Relaxed) {
        let next = cursor.fetch_add(1, Ordering::SeqCst);
        if next >= n {
            p.oracle.set_wrapped();
        }
        let id = (next % n) as u32;
        let burst = &p.bursts[id as usize];
        let traced = rec.is_on();
        let start = rec.now();
        let replies = client.apply_batch(burst.clone());
        let end = rec.now();
        if replies.len() != burst.len() {
            log.wrong_count += 1;
            log.wrong.push(format!(
                "{} replies to a {}-op burst",
                replies.len(),
                burst.len()
            ));
        }
        let mut failed = 0;
        for (op, reply) in burst.iter().zip(&replies) {
            match p.oracle.check(op, reply, start) {
                Check::Ok => {
                    if let Some((ord, update)) = p.oracle.acked(op, start, end) {
                        log.acked_puts.push((ord as u32, update));
                    }
                }
                Check::Failed => failed += 1,
                Check::Wrong(why) => {
                    log.wrong_count += 1;
                    if log.wrong.len() < 5 {
                        log.wrong.push(why);
                    }
                }
            }
        }
        log.bursts.push(BurstRec {
            id,
            start,
            end,
            ops: burst.len() as u32,
            failed,
            traced,
        });
    }
    log
}

/// Counter values read at the start and end of the measured window.
#[derive(Clone, Copy, Default)]
struct Counters {
    server_bursts: u64,
    server_ops: u64,
    fe_completed: u64,
    fe_group_syncs: u64,
    lsm_batches: u64,
    lsm_flushes: u64,
    lsm_compactions: u64,
    blocks_read: u64,
    dedup_hits: u64,
    memtable_hits: u64,
    blocks_decoded: u64,
    lookups: u64,
    scans: u64,
    syncs: u64,
}

fn counters(stack: &Stack, rec: &Recorder) -> Counters {
    let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let server = stack.server.stats();
    let fe = stack.frontend.stats_snapshot();
    let lsm = &stack.lsm.stats;
    Counters {
        server_bursts: server.bursts,
        server_ops: server.ops,
        fe_completed: fe.completed,
        fe_group_syncs: fe.group_syncs,
        lsm_batches: c(&lsm.batches),
        lsm_flushes: c(&lsm.flushes),
        lsm_compactions: c(&lsm.compactions),
        blocks_read: c(&lsm.batch_blocks_read),
        dedup_hits: c(&lsm.batch_block_dedup_hits),
        memtable_hits: c(&lsm.batch_memtable_hits),
        blocks_decoded: c(&lsm.decode.blocks_decoded),
        lookups: c(&rec.lsm_calls.lookups),
        scans: c(&rec.lsm_calls.scans),
        syncs: c(&rec.lsm_calls.syncs),
    }
}

/// In-program histograms the traced run reads (reset at window start).
const HISTOGRAMS: [&str; 7] = [
    "frontend_queue_wait_ns",
    "lsm_batch_submit_ns",
    "lsm_batch_fetch_ns",
    "lsm_batch_merge_ns",
    "lsm_block_decompress_ns",
    "lsm_flush_ns",
    "lsm_compaction_ns",
];

fn histo_mean_ns(name: &str) -> f64 {
    tb_obs::global().histogram(name).snapshot().mean
}

struct Window {
    logs: Vec<ClientLog>,
    start: u64,
    /// Nanoseconds spent with tracing on / off (traced run only).
    on_ns: u64,
    off_ns: u64,
    before: Counters,
    after: Counters,
    wrapped: bool,
    /// Highest `VmRSS` sampled during the window, MB.
    peak_rss: f64,
    /// The process's `VmHWM` when the window closed, MB: the set-up's
    /// peak, floored by the peak of trace generation.
    vm_hwm: f64,
    /// Mean bytes of the data directory over the window's samples.
    disk_bytes: f64,
    /// Process CPU ticks used during the window.
    cpu_ticks: u64,
    /// Share of all CPU time the hypervisor stole during the window.
    steal_share: f64,
}

impl Window {
    fn bursts(&self) -> impl Iterator<Item = &BurstRec> {
        self.logs.iter().flat_map(|l| &l.bursts)
    }

    fn acked_puts(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.logs.iter().flat_map(|l| l.acked_puts.iter().copied())
    }
}

fn measure(stack: &Stack, p: &Prepared, rec: &Recorder, seconds: f64, trace: bool) -> Window {
    let cursor = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    if trace {
        for name in HISTOGRAMS {
            tb_obs::global().histogram(name).histogram().reset();
        }
    }
    let before = counters(stack, rec);
    let cpu0 = process_cpu_ticks();
    let steal0 = cpu_steal_ticks();
    let start = rec.now();
    let (mut on_ns, mut off_ns) = (0, 0);
    let mut peak_rss = 0.0f64;
    let mut disk_samples = Vec::new();
    let logs = std::thread::scope(|s| {
        let workers: Vec<_> = stack
            .clients
            .iter()
            .map(|client| s.spawn(|| drive(client, p, rec, &cursor, &stop)))
            .collect();
        let window = (seconds * 1e9) as u64;
        // The traced run alternates tracing on and off so both halves
        // see the same phases of the run; their rates give the tracing
        // overhead. Memory and disk use are sampled throughout.
        let mut last = start;
        let mut on = false;
        let mut tick = 0u64;
        while last - start < window {
            let left = Duration::from_nanos(window - (last - start));
            std::thread::sleep(SAMPLE.min(left));
            peak_rss = peak_rss.max(status_mb("VmRSS"));
            if tick.is_multiple_of(DISK_SAMPLE_EVERY) {
                disk_samples.push(stack.disk_bytes());
            }
            tick += 1;
            let now = rec.now();
            if trace && (now - last >= SLICE.as_nanos() as u64 || now - start >= window) {
                *(if on { &mut on_ns } else { &mut off_ns }) += now - last;
                last = now;
                on = !on;
                rec.set_on(on);
            } else if !trace {
                last = now;
            }
        }
        rec.set_on(false);
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let steal1 = cpu_steal_ticks();
    Window {
        cpu_ticks: process_cpu_ticks() - cpu0,
        steal_share: ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64),
        logs,
        start,
        on_ns,
        off_ns,
        before,
        after: counters(stack, rec),
        wrapped: cursor.load(Ordering::Relaxed) > p.bursts.len() as u64,
        peak_rss,
        vm_hwm: status_mb("VmHWM"),
        disk_bytes: disk_samples.iter().sum::<u64>() as f64 / disk_samples.len().max(1) as f64,
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A metric value: floats keep every digit, counts stay exact integers.
enum Num {
    F(f64),
    I(u64),
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Num,
}

fn f(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: Num::F(if value.is_finite() { value } else { 0.0 }),
    }
}

fn int(name: &'static str, unit: &'static str, value: u64) -> Metric {
    Metric {
        name,
        unit,
        value: Num::I(value),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = match m.value {
                Num::F(v) => format!("{v:?}"),
                Num::I(v) => v.to_string(),
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// CPU time this process has used (all threads, user + system), in
/// clock ticks. Time the hypervisor steals is not charged to it.
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// `(steal, total)` clock ticks of all CPUs, from `/proc/stat`.
fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics of a traced window (see `DESIGN.md`).
fn layer_metrics(stack: &Stack, w: &Window, spans: &[Span], user_bytes: u64) -> Vec<Metric> {
    let d = |pick: fn(&Counters) -> u64| pick(&w.after) - pick(&w.before);
    let bursts = d(|c| c.server_bursts);
    let engine_calls = d(|c| c.lsm_batches);
    let lookups = d(|c| c.lookups);
    let scans = d(|c| c.scans);
    let sync_calls = d(|c| c.syncs);

    // Latency budget over the bursts sent while tracing was on: each is
    // joined to its frontend span by burst id (and time containment).
    let mut fe_spans: std::collections::HashMap<u32, Vec<&Span>> = Default::default();
    let mut lsm_intervals = Vec::new();
    let (mut lsm_batch, mut lsm_sync) = (Vec::new(), Vec::new());
    for s in spans {
        match s.name {
            "frontend.apply_batch" if s.burst != NO_BURST => {
                fe_spans.entry(s.burst).or_default().push(s)
            }
            "lsm.apply_batch" => lsm_batch.push(s.dur()),
            "lsm.sync" => lsm_sync.push(s.dur()),
            _ => {}
        }
        if s.name.starts_with("lsm.") {
            lsm_intervals.push((s.start, s.end));
        }
    }
    let lsm_union = spans::union(lsm_intervals);
    let traced: Vec<&BurstRec> = w.bursts().filter(|b| b.traced).collect();
    let (mut rtt, mut server_self, mut fe_self, mut lsm_cov) = (0u64, 0u64, 0u64, 0u64);
    for b in &traced {
        rtt += b.end - b.start;
        let fe = fe_spans
            .get(&b.id)
            .and_then(|list| list.iter().find(|s| s.start >= b.start && s.end <= b.end));
        if let Some(fe) = fe {
            let cov = spans::covered(&lsm_union, fe.start, fe.end);
            server_self += (b.end - b.start) - fe.dur();
            fe_self += fe.dur() - cov;
            lsm_cov += cov;
        }
    }
    let per_burst_us = |ns: u64| ratio(ns as f64, traced.len() as f64) / 1e3;
    let mean_us = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64) / 1e3;
    lsm_batch.sort_unstable();
    let apply_p99 = if lsm_batch.is_empty() {
        0
    } else {
        percentile(&lsm_batch, 0.99)
    };

    // Longest stretch with no burst completing on any connection.
    let mut ends: Vec<u64> = w.bursts().map(|b| b.end).collect();
    ends.sort_unstable();
    let max_gap = ends
        .iter()
        .scan(w.start, |prev, &e| {
            let gap = e - *prev;
            *prev = e;
            Some(gap)
        })
        .max()
        .unwrap_or(0);

    let ops = |on: bool| -> u64 {
        w.bursts()
            .filter(|b| b.traced == on)
            .map(|b| u64::from(b.ops))
            .sum()
    };
    let overhead = ratio(
        ratio(ops(false) as f64, w.off_ns as f64),
        ratio(ops(true) as f64, w.on_ns as f64),
    );

    let lsm = &stack.lsm.stats;
    let written = lsm.compressed_bytes_written.load(Ordering::Relaxed) as f64;
    let raw = lsm.uncompressed_bytes_written.load(Ordering::Relaxed) as f64;
    let blocks_read = d(|c| c.blocks_read);
    let dedup = d(|c| c.dedup_hits);
    let sync_us = mean_us(&lsm_sync);

    vec![
        f("server.self_us", "us", per_burst_us(server_self)),
        f(
            "server.ops_per_burst",
            "ops",
            ratio(d(|c| c.server_ops) as f64, bursts as f64),
        ),
        int("server.bursts", "count", bursts),
        f("frontend.self_us", "us", per_burst_us(fe_self)),
        f(
            "frontend.engine_calls_per_burst",
            "calls",
            ratio(engine_calls as f64, bursts as f64),
        ),
        f(
            "frontend.ops_per_engine_call",
            "ops",
            ratio(d(|c| c.fe_completed) as f64, engine_calls as f64),
        ),
        f(
            "frontend.syncs_per_burst",
            "calls",
            ratio(d(|c| c.fe_group_syncs) as f64, bursts as f64),
        ),
        f(
            "frontend.queue_wait_us",
            "us",
            histo_mean_ns("frontend_queue_wait_ns") / 1e3,
        ),
        int("frontend.engine_calls", "count", engine_calls),
        int("frontend.group_syncs", "count", d(|c| c.fe_group_syncs)),
        f("lsm.apply_batch_us", "us", mean_us(&lsm_batch)),
        f("lsm.apply_batch_p99_us", "us", apply_p99 as f64 / 1e3),
        f(
            "lsm.submit_us",
            "us",
            histo_mean_ns("lsm_batch_submit_ns") / 1e3,
        ),
        f(
            "lsm.fetch_us",
            "us",
            histo_mean_ns("lsm_batch_fetch_ns") / 1e3,
        ),
        f(
            "lsm.merge_us",
            "us",
            histo_mean_ns("lsm_batch_merge_ns") / 1e3,
        ),
        f(
            "lsm.block_decode_us",
            "us",
            histo_mean_ns("lsm_block_decompress_ns") / 1e3,
        ),
        int("lsm.blocks_decoded", "count", d(|c| c.blocks_decoded)),
        int("lsm.lookups", "count", lookups),
        int("lsm.scans", "count", scans),
        f(
            "lsm.blocks_per_lookup",
            "blocks",
            ratio(blocks_read as f64, (lookups + scans) as f64),
        ),
        f(
            "lsm.dedup_ratio",
            "ratio",
            ratio(dedup as f64, (blocks_read + dedup) as f64),
        ),
        f(
            "lsm.memtable_hit_ratio",
            "ratio",
            ratio(d(|c| c.memtable_hits) as f64, lookups as f64),
        ),
        f("lsm.sync_us", "us", sync_us),
        int("lsm.sync_calls", "count", sync_calls),
        f("lsm.sync_busy_s", "s", sync_us * sync_calls as f64 / 1e6),
        int("lsm.flushes", "count", d(|c| c.lsm_flushes)),
        f("lsm.flush_ms", "ms", histo_mean_ns("lsm_flush_ns") / 1e6),
        int("lsm.compactions", "count", d(|c| c.lsm_compactions)),
        f(
            "lsm.compaction_ms",
            "ms",
            histo_mean_ns("lsm_compaction_ns") / 1e6,
        ),
        f(
            "lsm.sst_write_amp",
            "ratio",
            ratio(written, user_bytes as f64),
        ),
        f("lsm.compression_ratio", "ratio", ratio(raw, written)),
        f("client.max_gap_ms", "ms", max_gap as f64 / 1e6),
        f("budget.rtt_us", "us", per_burst_us(rtt)),
        f("budget.lsm_covered_us", "us", per_burst_us(lsm_cov)),
        f(
            "budget.unattributed_us",
            "us",
            per_burst_us(rtt - server_self - fe_self - lsm_cov),
        ),
        int("budget.traced_bursts", "count", traced.len() as u64),
        f("trace.overhead", "ratio", overhead),
    ]
}

fn write_spans(path: &Path, w: &Window, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("name\tstart_ns\tend_ns\tthread\tburst\n");
    let row = |out: &mut String, name: &str, start, end, thread: String, burst: u32| {
        let burst = if burst == NO_BURST {
            "-".to_string()
        } else {
            burst.to_string()
        };
        let _ = writeln!(out, "{name}\t{start}\t{end}\t{thread}\t{burst}");
    };
    for (c, log) in w.logs.iter().enumerate() {
        for b in log.bursts.iter().filter(|b| b.traced) {
            row(
                &mut out,
                "client.burst",
                b.start,
                b.end,
                format!("client{c}"),
                b.id,
            );
        }
    }
    for s in spans {
        row(
            &mut out,
            s.name,
            s.start,
            s.end,
            s.thread.to_string(),
            s.burst,
        );
    }
    std::fs::write(path, out)
}

/// Machine and build fingerprint printed with every result.
fn fingerprint(args: &Args, p: &Prepared, data_dir: &Path) -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let s = &p.spec;
    let lsm = stack::lsm_config(data_dir);
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"fingerprint\": {{\"git_sha\": {}, \"source_digest\": {}, \"nproc\": {nproc}, \
         \"cpu_model\": {}, \"kernel\": {}, \"data_fs\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"params\": {{\"records\": {}, \"run_trace_ops\": {}, \
         \"read\": {}, \"update\": {}, \"insert\": {}, \"scan\": {}, \"max_scan_length\": {}, \
         \"distribution\": {}, \"dataset\": {}, \"clients\": {}, \"burst_ops\": {}, \
         \"setups\": {SETUPS}}}, \"stack\": {{\"codec\": \"dict\", \"memtable_bytes\": {}, \
         \"l0_compaction_trigger\": {}, \"read_pool_threads\": {}, \"wal_sync\": {}, \
         \"frontend_shards\": {}, \"group_commit\": true, \"max_workers_per_shard\": 1, \
         \"server\": \"unix socket, in process\"}}}}}}",
        json_str(&git_sha),
        json_str(&source_digest()),
        json_str(&cpu),
        json_str(read("/proc/sys/kernel/osrelease").trim()),
        json_str(&fs_type(data_dir)),
        json_str(args.def.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        s.record_count,
        s.operation_count,
        s.read_proportion,
        s.update_proportion,
        s.insert_proportion,
        s.scan_proportion,
        s.max_scan_length,
        json_str(&format!("{:?}", s.distribution)),
        json_str(&format!("{:?}", s.dataset)),
        stack::CLIENTS,
        workloads::BURST,
        lsm.memtable_bytes,
        lsm.l0_compaction_trigger,
        lsm.read_pool_threads,
        json_str(&format!("{:?}", lsm.wal_sync)),
        stack::SHARDS,
    );
    j
}

/// FNV-1a digest of the sources the benchmark builds (the run directory
/// need not be a git checkout).
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "e2ebench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "e2ebench/Cargo.toml"].map(PathBuf::from));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Filesystem type of the mount holding `dir` (from /proc/mounts).
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Times one set-up in a child process (`--setup-only`) and waits for
/// it. A stack torn down in the measured process would leave heap
/// behind that shows in `peak_rss_mb`.
fn setup_in_child(dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .arg("--setup-only")
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .trim()
        .parse()
        .map_err(|e| format!("set-up child printed {stdout:?}: {e}"))
}

/// The `--setup-only` child: one untraced set-up, its time on stdout.
fn setup_only(args: &Args, dir: &Path) -> Result<(), String> {
    let p = workloads::prepare(args.def, args.seed, false);
    let (stack, secs) = stack::setup(dir.to_path_buf(), &p, None).map_err(|e| e.to_string())?;
    stack.close();
    println!("{secs:?}");
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    oracle::self_test()?;
    let p = workloads::prepare(args.def, args.seed, true);
    let rec = Arc::new(Recorder::new(&p.bursts));
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = (|| {
        let mut setup_times = (1..SETUPS)
            .map(|k| setup_in_child(&run_dir.join(format!("setup{k}"))))
            .collect::<Result<Vec<f64>, String>>()?;
        let (stack, secs) = stack::setup(run_dir.join("measured"), &p, args.trace.then_some(&rec))
            .map_err(|e| format!("set-up: {e}"))?;
        setup_times.push(secs);
        let user_load_bytes: u64 = p.original_bytes[..p.spec.record_count as usize]
            .iter()
            .map(|&b| u64::from(b))
            .sum();
        let w = measure(&stack, &p, &rec, args.seconds, args.trace);
        let attempted: u64 = w.bursts().map(|b| u64::from(b.ops)).sum();
        let failed: u64 = w.bursts().map(|b| u64::from(b.failed)).sum();
        let wrong: u64 = w.logs.iter().map(|l| l.wrong_count).sum();
        for why in w.logs.iter().flat_map(|l| &l.wrong) {
            println!("WRONG REPLY: {why}");
        }
        // Printed by name but not gated (see DESIGN.md).
        let mut reported = Vec::new();
        let metrics = if args.trace {
            let spans = rec.take_spans();
            let path = PathBuf::from(OUT_DIR)
                .join(format!("spans-{}-seed{}.tsv", args.def.name, args.seed));
            write_spans(&path, &w, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans written to {}", path.display());
            let written: u64 = w.acked_puts().map(|put| p.put_bytes(put)).sum();
            layer_metrics(&stack, &w, &spans, user_load_bytes + written)
        } else {
            // Throughput counts the ops acknowledged inside the window; a
            // burst still in flight when it closes (say, behind a
            // compaction) adds its latency sample but no throughput.
            let window_end = w.start + (args.seconds * 1e9) as u64;
            let acked_in_window: u64 = w
                .bursts()
                .filter(|b| b.end <= window_end)
                .map(|b| u64::from(b.ops - b.failed))
                .sum();
            let mut rtts: Vec<u64> = w.bursts().map(|b| b.end - b.start).collect();
            rtts.sort_unstable();
            // The WAL grows and resets with every flush, so the data
            // directory is averaged over the window, against the mean
            // of the live data at its start and end.
            let live = (user_load_bytes + live_bytes(&p, &w)) as f64 / 2.0;
            // The speed figures move with the CPU time the host takes
            // from the VM, far beyond any bound a gate may have; they are
            // printed with that share, not gated (see DESIGN.md).
            reported = vec![
                f("ops_per_s", "1/s", acked_in_window as f64 / args.seconds),
                f("p50_us", "us", percentile(&rtts, 0.50) as f64 / 1e3),
                f("p99_us", "us", percentile(&rtts, 0.99) as f64 / 1e3),
                int("bursts", "count", rtts.len() as u64),
                f(
                    "error_rate",
                    "ratio",
                    ratio(failed as f64, attempted as f64),
                ),
                f(
                    "cpu_us_per_op",
                    "us",
                    ratio(
                        w.cpu_ticks as f64 * 1e6 / CLOCK_TICKS_PER_S,
                        attempted as f64,
                    ),
                ),
                f("vm_hwm_mb", "MB", w.vm_hwm),
            ];
            vec![
                f("space_amp", "ratio", ratio(w.disk_bytes, live)),
                f("setup_s", "s", median(&mut setup_times)),
                f("peak_rss_mb", "MB", w.peak_rss),
            ]
        };
        stack.close();
        println!("{} (seed {}):", args.def.name, args.seed);
        for (m, note) in metrics
            .iter()
            .map(|m| (m, ""))
            .chain(reported.iter().map(|m| (m, "  (reported, not gated)")))
        {
            let value = match m.value {
                Num::F(v) => format!("{v:.4}"),
                Num::I(v) => v.to_string(),
            };
            println!("  {:<32} {value:>16} {}{note}", m.name, m.unit);
        }
        println!(
            "  window: CPU time stolen by the hypervisor {:.1}%{}",
            w.steal_share * 100.0,
            if w.wrapped {
                ", run trace wrapped around"
            } else {
                ""
            }
        );
        println!("{}", fingerprint(args, &p, &run_dir));
        // No op of these workloads may fail, so a failed op is as wrong
        // as a wrong reply.
        let correct = wrong == 0 && failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            metrics_json(&metrics)
        );
        Ok(correct)
    })();
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

/// Live key + value bytes at the end of the window: every loaded key,
/// plus run-phase inserts, at the size of the newest value written.
fn live_bytes(p: &Prepared, w: &Window) -> u64 {
    // 0 = absent, 1 = loaded/inserted value, 2 = update value.
    let mut state = vec![0u8; p.original_bytes.len()];
    state[..p.spec.record_count as usize].fill(1);
    for (ord, update) in w.acked_puts() {
        let s = &mut state[ord as usize];
        *s = (*s).max(if update { 2 } else { 1 });
    }
    state
        .iter()
        .enumerate()
        .map(|(ord, s)| match s {
            0 => 0,
            s => p.put_bytes((ord as u32, *s == 2)),
        })
        .sum()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tb-e2ebench --workload <ycsb-b|reconcile|ycsb-e> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.setup_only {
        if let Err(e) = setup_only(&args, dir) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
