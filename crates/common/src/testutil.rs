//! Shared test helpers: temp directories and an in-memory engine.
//!
//! Every crate in the workspace used to roll its own pid-keyed temp-dir
//! scheme (`tb-foo-{pid}`), which collides when two tests in one binary
//! pick the same name and leaks the directory when a test panics before
//! its trailing `remove_dir_all`. [`test_dir`] fixes both: the path is
//! unique per *call* (pid + a process-wide counter), and the returned
//! [`TestDir`] guard removes the directory on drop — including the
//! unwind of a failing assertion.

use crate::{Key, KvEngine, Result, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// RAII temporary directory for tests and benches.
///
/// The directory itself is *not* created eagerly — most consumers
/// (`LsmConfig`, `TierBaseConfig`, ...) `create_dir_all` their data dir
/// themselves, and several tests assert on a fresh, absent path. Drop
/// removes whatever ended up on disk.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// The directory path. `&Path` converts into everything the
    /// workspace's config builders take (`impl Into<PathBuf>`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Convenience: a path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }

    /// Creates the directory (some tests want it present before any
    /// store opens, e.g. to plant files) and returns the path.
    pub fn create(&self) -> &Path {
        let _ = std::fs::create_dir_all(&self.path);
        &self.path
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A fresh, collision-free temp directory: `{tmp}/{tag}-{pid}-{seq}`.
/// Unique per call even when two tests share a tag, and cleaned up when
/// the guard drops (keep the guard alive across any reopen cycles).
pub fn test_dir(tag: &str) -> TestDir {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("{tag}-{}-{seq}", std::process::id()));
    // A stale run (previous pid reuse, crashed process) may have left
    // the path behind; tests expect a fresh tree.
    let _ = std::fs::remove_dir_all(&path);
    TestDir { path }
}

/// In-memory [`KvEngine`] test double: an ordered map behind a mutex.
/// It scans natively, so the trait's `scan` and `apply_batch` defaults
/// never lower onto each other, and its `resident_bytes` is the size of
/// the keys and values it holds.
#[derive(Debug, Default)]
pub struct MapEngine(Mutex<BTreeMap<Key, Value>>);

impl MapEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh engine as the trait object cluster nodes and front-ends
    /// take.
    pub fn shared() -> Arc<dyn KvEngine> {
        Arc::new(Self::new())
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<Key, Value>> {
        // A test that panicked mid-call leaves a consistent map behind.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl KvEngine for MapEngine {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        Ok(self.map().get(key).cloned())
    }

    fn put(&self, key: Key, value: Value) -> Result<()> {
        self.map().insert(key, value);
        Ok(())
    }

    fn delete(&self, key: &Key) -> Result<()> {
        self.map().remove(key);
        Ok(())
    }

    fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        let upper = end.map_or(std::ops::Bound::Unbounded, std::ops::Bound::Excluded);
        Ok(self
            .map()
            .range::<Key, _>((std::ops::Bound::Included(start), upper))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn resident_bytes(&self) -> u64 {
        self.map()
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }

    fn label(&self) -> String {
        "map".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_per_call_and_cleaned_on_drop() {
        let a = test_dir("tb-testutil");
        let b = test_dir("tb-testutil");
        assert_ne!(a.path(), b.path(), "same tag must still be unique");
        let file = a.join("probe.txt");
        std::fs::create_dir_all(a.path()).unwrap();
        std::fs::write(&file, b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "dropping the guard must remove the dir");
        drop(b);
    }

    #[test]
    fn cleaned_on_panic_unwind() {
        let kept = {
            let dir = test_dir("tb-testutil-panic");
            let path = dir.create().to_path_buf();
            std::fs::write(dir.join("probe"), b"x").unwrap();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _moved = dir;
                panic!("boom");
            }));
            assert!(result.is_err());
            path
        };
        assert!(!kept.exists(), "unwind must still clean the dir");
    }
}
