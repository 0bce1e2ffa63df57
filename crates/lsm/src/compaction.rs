//! Streaming merge for leveled compaction.
//!
//! Inputs are sorted runs ordered **newest first** — each L0 table is a
//! run of its own, a deeper level is one run of key-ordered,
//! non-overlapping tables. A [`RunCursor`] reads its run one data block
//! at a time, and [`MergeIter`] merges the cursors k ways: the first
//! (newest) occurrence of a key wins. Tombstones survive the merge
//! unless the output lands in the bottom level (nothing older can exist
//! below it), where they are dropped for good.
//!
//! [`merge_into_tables`] writes the merged stream as a sequence of
//! tables, cutting a new one whenever the current build holds
//! `split_bytes` of uncompressed blocks. Memory therefore grows with the
//! number of inputs times the block size, plus one output build — never
//! with the size of the levels being merged. The outputs share one
//! codec training, so a trained codec costs one training per
//! compaction however many tables it writes.

use crate::memtable::Entry;
use crate::sstable::{decode_entry, SstBuildStats, SstConfig, SstMeta, SstReader, TableBuilder};
use std::path::PathBuf;
use std::sync::Arc;
use tb_common::{Key, Result};

/// Sequential reader of one sorted run, holding one decoded block.
pub struct RunCursor {
    tables: Vec<Arc<SstReader>>,
    table: usize,
    next_block: usize,
    block: Vec<u8>,
    pos: usize,
}

impl RunCursor {
    /// A cursor over `tables`, which must be in key order and not
    /// overlap (one L0 table, or one deeper level).
    pub fn new(tables: Vec<Arc<SstReader>>) -> Self {
        Self {
            tables,
            table: 0,
            next_block: 0,
            block: Vec::new(),
            pos: 0,
        }
    }

    /// The run's next entry, reading the next block when the current
    /// one is used up.
    pub fn next_entry(&mut self) -> Result<Option<(Key, Entry)>> {
        while self.pos >= self.block.len() {
            let Some(table) = self.tables.get(self.table) else {
                self.block = Vec::new();
                return Ok(None);
            };
            if self.next_block == table.block_count() {
                self.table += 1;
                self.next_block = 0;
                continue;
            }
            self.block = table.read_block(self.next_block)?;
            self.next_block += 1;
            self.pos = 0;
        }
        let (key, entry, next) = decode_entry(&self.block, self.pos)?;
        self.pos = next;
        Ok(Some((key, entry)))
    }

    /// Bytes of the decoded block held.
    pub fn held_bytes(&self) -> usize {
        self.block.len()
    }
}

/// K-way merge of sorted runs given newest first: yields each key once,
/// with its newest entry, in key order.
pub struct MergeIter {
    runs: Vec<RunCursor>,
    heads: Vec<Option<(Key, Entry)>>,
    drop_tombstones: bool,
}

impl MergeIter {
    pub fn new(mut runs: Vec<RunCursor>, drop_tombstones: bool) -> Result<Self> {
        let heads = runs
            .iter_mut()
            .map(RunCursor::next_entry)
            .collect::<Result<_>>()?;
        Ok(Self {
            runs,
            heads,
            drop_tombstones,
        })
    }

    pub fn next_entry(&mut self) -> Result<Option<(Key, Entry)>> {
        loop {
            // Smallest head key; on a tie the earlier (newer) run wins.
            let mut min: Option<usize> = None;
            for (i, head) in self.heads.iter().enumerate() {
                if let Some((key, _)) = head {
                    if min.is_none_or(|m| key < &self.heads[m].as_ref().expect("head").0) {
                        min = Some(i);
                    }
                }
            }
            let Some(m) = min else {
                return Ok(None);
            };
            let (key, entry) = self.heads[m].take().expect("min head");
            self.heads[m] = self.runs[m].next_entry()?;
            // Older runs holding the same key are shadowed. (Runs before
            // `m` cannot: their heads are all greater.)
            for i in m + 1..self.runs.len() {
                if self.heads[i].as_ref().is_some_and(|(k, _)| *k == key) {
                    self.heads[i] = self.runs[i].next_entry()?;
                }
            }
            if self.drop_tombstones && entry == Entry::Tombstone {
                continue;
            }
            return Ok(Some((key, entry)));
        }
    }

    /// Bytes of decoded input blocks held across all cursors.
    pub fn held_bytes(&self) -> usize {
        self.runs.iter().map(RunCursor::held_bytes).sum()
    }
}

/// What [`merge_into_tables`] produced.
pub struct MergeOutput {
    /// Output tables in key order, each fsynced and renamed into place.
    pub tables: Vec<(SstMeta, SstBuildStats)>,
    /// High-water mark of decoded input blocks plus the current
    /// output's buffered blocks.
    pub peak_bytes: usize,
}

/// Merges `runs` (newest first) into tables of about `split_bytes` of
/// uncompressed blocks each; `next_table` names each output. On error,
/// outputs already written are removed.
pub fn merge_into_tables(
    runs: Vec<RunCursor>,
    drop_tombstones: bool,
    split_bytes: usize,
    config: &SstConfig,
    mut next_table: impl FnMut() -> (u64, PathBuf),
) -> Result<MergeOutput> {
    let mut out = MergeOutput {
        tables: Vec::new(),
        peak_bytes: 0,
    };
    let written = (|| -> Result<()> {
        let mut merge = MergeIter::new(runs, drop_tombstones)?;
        let mut builder: Option<TableBuilder> = None;
        // The first output trains the codec on the merge's first values;
        // the rest reuse it, so training costs one per compaction.
        let mut trained = None;
        while let Some((key, entry)) = merge.next_entry()? {
            let b = builder.get_or_insert_with(|| {
                let (id, path) = next_table();
                TableBuilder::new(id, &path, config)
            });
            b.add(key, &entry)?;
            let buffered = b.buffered_bytes();
            out.peak_bytes = out.peak_bytes.max(merge.held_bytes() + buffered);
            if buffered >= split_bytes {
                let full = builder.take().expect("builder");
                out.tables.push(full.finish_sharing(&mut trained)?);
            }
        }
        if let Some(b) = builder {
            out.tables.push(b.finish_sharing(&mut trained)?);
        }
        Ok(())
    })();
    match written {
        Ok(()) => Ok(out),
        Err(e) => {
            for (meta, _) in &out.tables {
                let _ = std::fs::remove_file(&meta.path);
            }
            Err(e)
        }
    }
}

/// Size of one level in bytes given per-table file sizes.
pub fn level_bytes(file_sizes: &[u64]) -> u64 {
    file_sizes.iter().sum()
}

/// Max bytes allowed in level `n` (1-based beyond L0) with the classic
/// 10× fanout.
pub fn level_limit(level: usize, base_bytes: u64) -> u64 {
    base_bytes * 10u64.pow(level.saturating_sub(1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::write_sstable;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use tb_common::Value;

    fn put(k: &str, v: &str) -> (Key, Entry) {
        (Key::from(k), Entry::Put(Value::from(v)))
    }

    fn del(k: &str) -> (Key, Entry) {
        (Key::from(k), Entry::Tombstone)
    }

    /// Test fixture: writes each run as one table (small blocks, so
    /// cursors cross many block boundaries) and merges them.
    struct Fixture {
        dir: tb_common::TestDir,
        next_id: u64,
    }

    fn cfg() -> SstConfig {
        SstConfig {
            block_size: 64,
            ..SstConfig::default()
        }
    }

    impl Fixture {
        fn new(name: &str) -> Self {
            let dir = tb_common::test_dir(&format!("tb-merge-{name}"));
            dir.create();
            Self { dir, next_id: 1 }
        }

        fn path(&mut self) -> (u64, PathBuf) {
            let id = self.next_id;
            self.next_id += 1;
            (id, self.dir.path().join(format!("{id:010}.sst")))
        }

        fn table(&mut self, entries: Vec<(Key, Entry)>) -> Arc<SstReader> {
            let (id, path) = self.path();
            let meta = write_sstable(id, &path, entries.into_iter(), &cfg()).unwrap();
            Arc::new(SstReader::open(meta).unwrap())
        }

        /// Merges `runs` (newest first; each a list of tables' entries)
        /// split at `split` bytes; returns the outputs.
        fn merge(
            &mut self,
            runs: Vec<Vec<Vec<(Key, Entry)>>>,
            drop: bool,
            split: usize,
        ) -> Vec<Arc<SstReader>> {
            let cursors = runs
                .into_iter()
                .map(|tables| {
                    RunCursor::new(
                        tables
                            .into_iter()
                            .filter(|t| !t.is_empty())
                            .map(|t| self.table(t))
                            .collect(),
                    )
                })
                .collect();
            let mut ids = self.next_id + 1000;
            let dir = self.dir.path().to_path_buf();
            let out = merge_into_tables(cursors, drop, split, &cfg(), || {
                ids += 1;
                (ids, dir.join(format!("{ids:010}.sst")))
            })
            .unwrap();
            out.tables
                .into_iter()
                .map(|(meta, _)| Arc::new(SstReader::open(meta).unwrap()))
                .collect()
        }
    }

    fn read_all(tables: &[Arc<SstReader>]) -> Vec<(Key, Entry)> {
        let mut cursor = RunCursor::new(tables.to_vec());
        let mut out = Vec::new();
        while let Some(e) = cursor.next_entry().unwrap() {
            out.push(e);
        }
        out
    }

    fn merged(runs: Vec<Vec<(Key, Entry)>>, drop: bool) -> Vec<(Key, Entry)> {
        let mut f = Fixture::new("unit");
        let outs = f.merge(
            runs.into_iter().map(|r| vec![r]).collect(),
            drop,
            usize::MAX,
        );
        read_all(&outs)
    }

    #[test]
    fn newest_version_wins() {
        let newest = vec![put("a", "new")];
        let oldest = vec![put("a", "old"), put("b", "keep")];
        let out = merged(vec![newest, oldest], false);
        assert_eq!(out, vec![put("a", "new"), put("b", "keep")]);
    }

    #[test]
    fn tombstone_shadows_older_put() {
        let newest = vec![del("a")];
        let oldest = vec![put("a", "old")];
        let kept = merged(vec![newest.clone(), oldest.clone()], false);
        assert_eq!(kept, vec![del("a")]);
        let dropped = merged(vec![newest, oldest, vec![put("b", "x")]], true);
        assert_eq!(dropped, vec![put("b", "x")]);
    }

    #[test]
    fn older_tombstone_does_not_hide_newer_put() {
        let newest = vec![put("a", "resurrected")];
        let oldest = vec![del("a")];
        let out = merged(vec![newest, oldest], true);
        assert_eq!(out, vec![put("a", "resurrected")]);
    }

    #[test]
    fn output_is_sorted() {
        let r1 = vec![put("m", "1"), put("z", "1")];
        let r2 = vec![put("a", "2"), put("q", "2")];
        let out = merged(vec![r1, r2], false);
        let keys: Vec<&Key> = out.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn three_way_merge_respects_order() {
        let l0_new = vec![put("k", "v3")];
        let l0_old = vec![put("k", "v2")];
        let l1 = vec![put("k", "v1")];
        let out = merged(vec![l0_new, l0_old, l1], false);
        assert_eq!(out, vec![put("k", "v3")]);
    }

    #[test]
    fn outputs_split_at_the_size_and_tile_the_key_space() {
        let mut f = Fixture::new("split");
        let entries: Vec<(Key, Entry)> = (0..400)
            .map(|i| put(&format!("key{i:05}"), &format!("value-{i}-padding")))
            .collect();
        let outs = f.merge(vec![vec![entries.clone()]], false, 1024);
        assert!(outs.len() > 5, "expected many outputs, got {}", outs.len());
        for pair in outs.windows(2) {
            assert!(pair[0].meta.max_key < pair[1].meta.min_key);
        }
        assert_eq!(read_all(&outs), entries);
    }

    #[test]
    fn level_limits_fan_out() {
        assert_eq!(level_limit(1, 1000), 1000);
        assert_eq!(level_limit(2, 1000), 10_000);
        assert_eq!(level_limit(3, 1000), 100_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The streaming merge equals a `BTreeMap` model: runs are
        /// applied oldest to newest (so the newest entry wins), and
        /// tombstones vanish only when merging into the bottom. Runs
        /// span several tables, and outputs split at a small size.
        #[test]
        fn prop_merge_matches_btreemap_model(
            raw_runs in proptest::collection::vec(
                proptest::collection::vec((0u16..300, proptest::option::of(0u32..1000)), 0..80),
                1..5,
            ),
            tables_per_run in 1usize..4,
            drop in any::<bool>(),
            split in 200usize..2000,
        ) {
            let entry = |v: &Option<u32>| match v {
                Some(v) => Entry::Put(Value::from(format!("v{v}"))),
                None => Entry::Tombstone,
            };
            let key = |k: u16| Key::from(format!("k{k:05}"));
            // A run holds each key once.
            let runs: Vec<BTreeMap<u16, Option<u32>>> = raw_runs
                .into_iter()
                .map(|r| r.into_iter().collect())
                .collect();
            let mut model: BTreeMap<Key, Entry> = BTreeMap::new();
            for run in runs.iter().rev() {
                for (k, v) in run {
                    model.insert(key(*k), entry(v));
                }
            }
            let expect: Vec<(Key, Entry)> = model
                .into_iter()
                .filter(|(_, e)| !(drop && *e == Entry::Tombstone))
                .collect();
            // Each run cut into `tables_per_run` key-ordered tables.
            let split_runs: Vec<Vec<Vec<(Key, Entry)>>> = runs
                .iter()
                .map(|run| {
                    let entries: Vec<(Key, Entry)> =
                        run.iter().map(|(k, v)| (key(*k), entry(v))).collect();
                    let per = entries.len().div_ceil(tables_per_run).max(1);
                    entries.chunks(per).map(|c| c.to_vec()).collect()
                })
                .collect();
            let mut f = Fixture::new("prop");
            let outs = f.merge(split_runs, drop, split);
            for pair in outs.windows(2) {
                prop_assert!(pair[0].meta.max_key < pair[1].meta.min_key);
            }
            prop_assert_eq!(read_all(&outs), expect);
        }
    }
}
