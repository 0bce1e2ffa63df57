//! Named fault points for crash/error injection in IO paths.
//!
//! Storage code threads calls to [`hit`] (plain sites) and [`write_all`]
//! (write sites, which can additionally tear the buffer) through every
//! place a crash or IO error could strike: WAL appends, SSTable and
//! manifest writes, fsyncs, renames. A torture harness arms one
//! injection at a time — *site X, Nth hit, fail like this* — runs a
//! workload, and verifies the durability contract after reopening.
//!
//! Fault semantics:
//!
//! * [`FaultMode::Error`]: the Nth hit returns [`Error::FaultInjected`]
//!   once, then the injection disarms — models a transient IO error the
//!   process survives.
//! * [`FaultMode::Crash`]: the Nth hit panics with a [`CrashPoint`]
//!   payload *before* the site's IO runs. From then on **every** fault
//!   point in the process returns an error, freezing the on-disk image
//!   at the crash instant — the in-process stand-in for `kill -9`. The
//!   harness catches the panic, drops the store, and reopens from disk.
//! * [`FaultMode::Torn`]: like `Crash`, but at a write site the first
//!   `keep` bytes of the buffer are written (and flushed) before the
//!   panic — a torn write, the hardest case for recovery code.
//!
//! Cost when disabled: a single relaxed atomic load per site. Nothing
//! else runs until [`arm`] or [`set_counting`] activates the registry,
//! so production paths pay one predictable-branch load — unmeasurable
//! next to the file IO each site guards.

use crate::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// How an armed fault point misbehaves when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Return [`Error::FaultInjected`] once, then disarm.
    Error,
    /// Panic with [`CrashPoint`] before the site's IO; all later hits
    /// error out (the disk image is frozen at the crash).
    Crash,
    /// Write the first `keep` bytes of the instrumented buffer, flush,
    /// then crash. At a non-write site this degrades to [`Crash`].
    Torn {
        /// Bytes of the buffer that make it to the file.
        keep: usize,
    },
}

/// Panic payload of an injected crash; harnesses downcast to tell an
/// injected kill from a genuine bug.
#[derive(Debug, Clone, Copy)]
pub struct CrashPoint {
    /// The fault site that fired.
    pub site: &'static str,
}

struct Injection {
    site: &'static str,
    /// 1-based hit number that fires.
    hit: u64,
    mode: FaultMode,
    /// Hits of `site` observed since arming.
    seen: u64,
    /// `Some`: only hits from this thread count (lets a unit test in a
    /// parallel test binary inject without tripping its neighbors).
    thread: Option<std::thread::ThreadId>,
}

#[derive(Default)]
struct Registry {
    injection: Option<Injection>,
    /// Per-site hit counters (kept while counting or armed).
    hits: HashMap<&'static str, u64>,
    counting: bool,
    /// Set once a crash fired; every later hit errors out.
    crashed: Option<&'static str>,
    /// `Some`: the crash came from a scoped injection and freezes only
    /// that thread's hits.
    crash_thread: Option<std::thread::ThreadId>,
    /// True once the armed injection fired (any mode).
    fired: bool,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn recompute_active(r: &Registry) {
    ACTIVE.store(
        r.counting || r.injection.is_some() || r.crashed.is_some(),
        Ordering::Relaxed,
    );
}

enum Checked {
    Run,
    Torn { keep: usize },
}

fn check(site: &'static str) -> Result<Checked> {
    let mut r = registry().lock();
    if r.counting || r.injection.is_some() {
        *r.hits.entry(site).or_insert(0) += 1;
    }
    let this_thread = |scope: Option<std::thread::ThreadId>| {
        scope.is_none_or(|t| t == std::thread::current().id())
    };
    if let Some(at) = r.crashed.filter(|_| this_thread(r.crash_thread)) {
        return Err(Error::FaultInjected(format!(
            "{site}: process already crashed at {at}"
        )));
    }
    let fire = match r.injection.as_mut() {
        Some(inj) if inj.site == site && this_thread(inj.thread) => {
            inj.seen += 1;
            (inj.seen == inj.hit).then_some(inj.mode)
        }
        _ => None,
    };
    if matches!(fire, Some(FaultMode::Crash | FaultMode::Torn { .. })) {
        r.crash_thread = r.injection.as_ref().and_then(|inj| inj.thread);
    }
    match fire {
        None => Ok(Checked::Run),
        Some(FaultMode::Error) => {
            r.fired = true;
            r.injection = None;
            recompute_active(&r);
            Err(Error::FaultInjected(format!("{site}: injected IO error")))
        }
        Some(FaultMode::Crash) => {
            r.fired = true;
            r.crashed = Some(site);
            drop(r);
            crash(site)
        }
        Some(FaultMode::Torn { keep }) => {
            r.fired = true;
            r.crashed = Some(site);
            Ok(Checked::Torn { keep })
        }
    }
}

/// Panics with a [`CrashPoint`] payload — the simulated kill.
fn crash(site: &'static str) -> ! {
    std::panic::panic_any(CrashPoint { site })
}

/// A plain fault point. No-op unless the registry is active.
#[inline]
pub fn hit(site: &'static str) -> Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    match check(site)? {
        Checked::Run => Ok(()),
        // A torn fault armed on a non-write site degrades to a crash.
        Checked::Torn { .. } => crash(site),
    }
}

/// A write-site fault point: writes `buf` through `w`, or — when a torn
/// fault fires — writes a prefix, flushes it, and crashes.
#[inline]
pub fn write_all<W: Write>(site: &'static str, w: &mut W, buf: &[u8]) -> Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return w.write_all(buf).map_err(Into::into);
    }
    match check(site)? {
        Checked::Run => w.write_all(buf).map_err(Into::into),
        Checked::Torn { keep } => {
            let keep = keep.min(buf.len());
            let _ = w.write_all(&buf[..keep]);
            let _ = w.flush();
            crash(site)
        }
    }
}

/// Arms one injection: the `hit`-th (1-based) hit of `site` fires `mode`,
/// from any thread. Replaces any previous injection and clears
/// crash/fired state.
pub fn arm(site: &'static str, hit: u64, mode: FaultMode) {
    arm_inner(site, hit, mode, None)
}

/// Like [`arm`], but the fault only fires on the calling thread — other
/// threads' hits neither fire nor advance the counter, and a crash it
/// fires freezes only this thread's hits. For injections inside
/// parallel test binaries.
pub fn arm_scoped(site: &'static str, hit: u64, mode: FaultMode) {
    arm_inner(site, hit, mode, Some(std::thread::current().id()))
}

fn arm_inner(site: &'static str, hit: u64, mode: FaultMode, thread: Option<std::thread::ThreadId>) {
    let mut r = registry().lock();
    r.injection = Some(Injection {
        site,
        hit: hit.max(1),
        mode,
        seen: 0,
        thread,
    });
    r.crashed = None;
    r.fired = false;
    recompute_active(&r);
}

/// Clears the injection, crash state, and hit counters.
pub fn reset() {
    let mut r = registry().lock();
    *r = Registry::default();
    recompute_active(&r);
}

/// Enables per-site hit counting without any injection (coverage probes).
pub fn set_counting(on: bool) {
    let mut r = registry().lock();
    r.counting = on;
    if on {
        r.hits.clear();
    }
    recompute_active(&r);
}

/// Hits recorded for `site` since counting/arming started.
pub fn hit_count(site: &str) -> u64 {
    registry().lock().hits.get(site).copied().unwrap_or(0)
}

/// All recorded `(site, hits)` pairs, sorted by site name.
pub fn hit_counts() -> Vec<(&'static str, u64)> {
    let r = registry().lock();
    let mut out: Vec<_> = r.hits.iter().map(|(s, c)| (*s, *c)).collect();
    out.sort_unstable();
    out
}

/// Site of the simulated crash, if one fired.
pub fn crash_fired() -> Option<&'static str> {
    registry().lock().crashed
}

/// True once the armed injection has fired (any mode).
pub fn fault_fired() -> bool {
    registry().lock().fired
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests in this module serialize on
    // their own mutex so they cannot interleave armed state.
    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
    }

    #[test]
    fn disabled_sites_are_transparent() {
        let _g = serial();
        reset();
        hit("t.plain").unwrap();
        let mut sink = Vec::new();
        write_all("t.write", &mut sink, b"payload").unwrap();
        assert_eq!(sink, b"payload");
        assert_eq!(hit_count("t.plain"), 0, "no counting unless enabled");
    }

    #[test]
    fn error_mode_fires_once_on_nth_hit() {
        let _g = serial();
        reset();
        arm("t.err", 3, FaultMode::Error);
        hit("t.err").unwrap();
        hit("t.err").unwrap();
        let e = hit("t.err").unwrap_err();
        assert!(matches!(e, Error::FaultInjected(_)), "{e}");
        assert!(fault_fired());
        // One-shot: later hits run clean.
        hit("t.err").unwrap();
        reset();
    }

    #[test]
    fn crash_mode_panics_then_freezes_every_site() {
        let _g = serial();
        reset();
        arm("t.crash", 1, FaultMode::Crash);
        let r = std::panic::catch_unwind(|| hit("t.crash"));
        let payload = r.expect_err("must panic");
        let point = payload
            .downcast_ref::<CrashPoint>()
            .expect("CrashPoint payload");
        assert_eq!(point.site, "t.crash");
        assert_eq!(crash_fired(), Some("t.crash"));
        // Post-crash: every site errors, freezing the disk image.
        assert!(hit("t.other").is_err());
        let mut sink = Vec::new();
        assert!(write_all("t.write", &mut sink, b"x").is_err());
        assert!(sink.is_empty());
        reset();
        hit("t.other").unwrap();
    }

    #[test]
    fn torn_mode_writes_prefix_then_crashes() {
        let _g = serial();
        reset();
        arm("t.torn", 1, FaultMode::Torn { keep: 4 });
        let mut sink = Vec::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_all("t.torn", &mut sink, b"abcdefgh")
        }));
        assert!(r.is_err(), "torn write must crash");
        assert_eq!(sink, b"abcd", "prefix flushed before the crash");
        reset();
    }

    #[test]
    fn counting_tracks_sites_without_injection() {
        let _g = serial();
        reset();
        set_counting(true);
        hit("t.a").unwrap();
        hit("t.a").unwrap();
        hit("t.b").unwrap();
        assert_eq!(hit_count("t.a"), 2);
        assert_eq!(hit_count("t.b"), 1);
        assert_eq!(hit_count("t.absent"), 0);
        let counts = hit_counts();
        assert!(counts.contains(&("t.a", 2)));
        reset();
        assert_eq!(hit_count("t.a"), 0);
    }

    #[test]
    fn scoped_injection_ignores_other_threads() {
        let _g = serial();
        reset();
        arm_scoped("t.scoped", 1, FaultMode::Error);
        std::thread::spawn(|| {
            for _ in 0..5 {
                hit("t.scoped").unwrap();
            }
        })
        .join()
        .unwrap();
        assert!(!fault_fired(), "other threads must not trip a scoped fault");
        assert!(hit("t.scoped").is_err(), "the arming thread still fires");
        reset();
    }

    #[test]
    fn scoped_crash_freezes_only_the_arming_thread() {
        let _g = serial();
        reset();
        arm_scoped("t.scoped_crash", 1, FaultMode::Crash);
        let caught = std::panic::catch_unwind(|| hit("t.scoped_crash"));
        assert!(caught.is_err(), "the arming thread crashes");
        std::thread::spawn(|| hit("t.bystander").unwrap())
            .join()
            .unwrap();
        assert!(
            hit("t.bystander").is_err(),
            "the crashed thread stays frozen"
        );
        reset();
    }

    #[test]
    fn wrong_site_never_fires() {
        let _g = serial();
        reset();
        arm("t.target", 1, FaultMode::Error);
        for _ in 0..10 {
            hit("t.bystander").unwrap();
        }
        assert!(!fault_fired());
        reset();
    }
}
