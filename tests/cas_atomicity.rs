//! Compare-and-set atomicity across the workspace's engines.
//!
//! The default `KvEngine::cas` is documented as *unsynchronized
//! read-then-write*: between its internal `get` and `put`, a
//! concurrent writer can slip in and be silently overwritten (a lost
//! update) even though both CAS calls report success. The first test
//! demonstrates that hazard on an engine that keeps the default; the
//! rest verify the lock-holding engines' atomic overrides close it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tierbase::baselines::{DragonflyLike, MemcachedLike, RedisLike};
use tierbase::frontend::{Frontend, FrontendConfig};
use tierbase::lsm::{DisaggregatedStore, LsmConfig, LsmDb, NetworkModel};
use tierbase::prelude::*;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-cas-{name}"))
}

fn parse_counter(v: &Value) -> u64 {
    std::str::from_utf8(v.as_slice())
        .expect("counter is utf8")
        .parse()
        .expect("counter is a number")
}

/// `threads` workers each perform `per_thread` *successful* CAS
/// increments (retrying on `CasMismatch`); returns the final counter.
/// With an atomic `cas`, every success is a real increment, so the
/// counter must equal `threads * per_thread`.
fn hammer_counter(engine: &dyn KvEngine, threads: usize, per_thread: usize) -> u64 {
    let key = Key::from("cas-counter");
    engine.put(key.clone(), Value::from("0")).unwrap();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..per_thread {
                    loop {
                        let cur = engine.get(&Key::from("cas-counter")).unwrap().unwrap();
                        let next = Value::from((parse_counter(&cur) + 1).to_string());
                        match engine.cas(Key::from("cas-counter"), Some(&cur), next) {
                            Ok(()) => break,
                            Err(Error::CasMismatch) => continue,
                            Err(e) => panic!("unexpected cas error: {e}"),
                        }
                    }
                }
            });
        }
    });
    parse_counter(&engine.get(&key).unwrap().unwrap())
}

/// A map engine that *keeps* the racy default `cas` and widens the
/// read→write window, making the lost-update interleaving essentially
/// certain under contention.
struct SleepyMap {
    map: std::sync::Mutex<std::collections::BTreeMap<Key, Value>>,
    gets: AtomicU64,
}

impl SleepyMap {
    fn new() -> Self {
        Self {
            map: std::sync::Mutex::new(Default::default()),
            gets: AtomicU64::new(0),
        }
    }
}

impl KvEngine for SleepyMap {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let v = self.map.lock().unwrap().get(key).cloned();
        // Widen the default cas's get→put window.
        std::thread::sleep(std::time::Duration::from_micros(300));
        Ok(v)
    }
    fn put(&self, key: Key, value: Value) -> Result<()> {
        self.map.lock().unwrap().insert(key, value);
        Ok(())
    }
    fn delete(&self, key: &Key) -> Result<()> {
        self.map.lock().unwrap().remove(key);
        Ok(())
    }
    fn resident_bytes(&self) -> u64 {
        0
    }
    fn label(&self) -> String {
        "sleepy-map".into()
    }
}

#[test]
fn default_cas_loses_updates_under_contention() {
    let engine = SleepyMap::new();
    let threads = 4;
    let per_thread = 25;
    let expected = (threads * per_thread) as u64;
    let got = hammer_counter(&engine, threads, per_thread);
    // Every thread reported `per_thread` successful increments, yet
    // increments vanished: the unsynchronized default overwrote
    // concurrent successes. This is the hazard the overrides fix.
    assert!(
        got < expected,
        "expected lost updates from the racy default cas, got {got}/{expected} \
         (astronomically unlikely with {threads} threads and a 300us window)"
    );
}

#[test]
fn redis_like_cas_is_atomic() {
    let engine = RedisLike::new();
    assert_eq!(hammer_counter(&engine, 4, 50), 200);
}

#[test]
fn memcached_like_cas_is_atomic() {
    // Capacity far above the working set: the counter never evicts.
    let engine = MemcachedLike::new(64 << 20, 4);
    assert_eq!(hammer_counter(&engine, 4, 50), 200);
}

#[test]
fn dragonfly_like_cas_is_atomic() {
    let engine = DragonflyLike::new(2);
    assert_eq!(hammer_counter(&engine, 4, 50), 200);
}

#[test]
fn lsm_db_cas_is_atomic() {
    let dir = tmpdir("lsm");
    let engine = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
    assert_eq!(hammer_counter(&engine, 4, 50), 200);
}

#[test]
fn disaggregated_store_cas_is_atomic() {
    // The simulated round-trip is the widest read→write window in the
    // workspace: a CAS that lowered to a remote get plus a remote put
    // would lose increments here. One round-trip to the db's atomic
    // CAS does not.
    let dir = tmpdir("disagg");
    let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
    let engine = DisaggregatedStore::new(db, NetworkModel::datacenter());
    assert_eq!(hammer_counter(&engine, 4, 50), 200);
}

#[test]
fn frontend_pipelined_cas_is_atomic() {
    // CAS submitted through the pipeline resolves against the LSM's
    // atomic override, so boosted (multi-worker) shards stay safe.
    let dir = tmpdir("frontend");
    let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
    let fe = Frontend::start(db, FrontendConfig::with_shards(2));
    assert_eq!(hammer_counter(&fe, 4, 50), 200);
    fe.shutdown();
}
