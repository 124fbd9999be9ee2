//! The partitioned LSM keyspace: MVCC version chains behind the WAL.
//!
//! [`Keyspace`] is the materialised table a site serves reads from. The
//! layout follows the classic memtable-plus-sorted-runs idiom (fjall-style):
//!
//! * items hash into a fixed set of **partitions**;
//! * each partition holds a **memtable** of version chains plus a stack of
//!   immutable sorted **runs**;
//! * a memtable that reaches its entry threshold is **flushed** into a new
//!   run; when a partition accumulates `run_threshold` runs they are
//!   **size-tiered compacted** into one, dropping versions no live snapshot
//!   can see.
//!
//! Every write is stamped with a monotone [`SeqNo`], so an entry's history
//! is a version chain: a polyvalue install is just another version whose
//! entry carries its condition, and the collapse that resolves it is the
//! next version up the chain — no special casing anywhere in the storage
//! layer. A [`SnapshotTracker`] pins the oldest sequence number any live
//! read-only transaction may still visit; compaction garbage-collects
//! versions strictly below every pin (keeping, per item, the newest version
//! at or below the horizon, which is exactly what any pinned snapshot
//! resolves to).
//!
//! **Durability split.** The WAL is the commit log and the sole recovery
//! authority: the keyspace is derived state, held in memory and rebuilt by
//! WAL replay on every recovery.

use pv_core::{Entry, ItemId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A monotone sequence number stamped on every version written to the
/// keyspace. Snapshot reads are "the newest version at or below this".
pub type SeqNo = u64;

/// One version in an item's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The write's position in the site's total version order.
    pub seq: SeqNo,
    /// The entry installed by that write (possibly a polyvalue).
    pub entry: Entry<Value>,
}

/// Tuning knobs of a [`Keyspace`].
///
/// Thresholds are counted in **entries**, not bytes: entry counts are a
/// pure function of the write sequence, so flush and compaction points are
/// byte-stable across same-seed runs regardless of value encoding width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyspaceConfig {
    /// Number of hash partitions items spread over.
    pub partitions: usize,
    /// Versions a partition's memtable holds before flushing into a run.
    pub memtable_max_entries: usize,
    /// Runs a partition accumulates before they are compacted into one.
    pub run_threshold: usize,
}

impl Default for KeyspaceConfig {
    fn default() -> Self {
        KeyspaceConfig {
            partitions: 4,
            memtable_max_entries: 512,
            run_threshold: 4,
        }
    }
}

/// Refcounted pins on snapshot sequence numbers.
///
/// Acquiring a snapshot pins the current [`SeqNo`]; compaction may only
/// drop versions invisible to the oldest pin. Releasing the last reference
/// on the oldest pin advances the GC horizon.
#[derive(Debug, Clone, Default)]
pub struct SnapshotTracker {
    pins: BTreeMap<SeqNo, usize>,
}

impl SnapshotTracker {
    /// Pins `seq` (reentrant: the same seq may be pinned many times).
    pub fn acquire(&mut self, seq: SeqNo) {
        *self.pins.entry(seq).or_insert(0) += 1;
    }

    /// Releases one reference on `seq`. Releasing a seq that was never
    /// acquired is a no-op (recovery may drop pins wholesale).
    pub fn release(&mut self, seq: SeqNo) {
        if let Some(n) = self.pins.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                self.pins.remove(&seq);
            }
        }
    }

    /// The oldest pinned sequence number, if any snapshot is live.
    pub fn oldest(&self) -> Option<SeqNo> {
        self.pins.keys().next().copied()
    }

    /// Number of distinct pinned sequence numbers.
    pub fn pinned(&self) -> usize {
        self.pins.len()
    }

    /// Drops every pin (volatile state lost in a crash).
    pub fn clear(&mut self) {
        self.pins.clear();
    }
}

/// An immutable sorted run: versions ordered by `(item, seq)`.
#[derive(Debug, Clone)]
struct Run {
    versions: Vec<(ItemId, Version)>,
}

impl Run {
    /// The newest version of `item` with `seq <= snap`, if any.
    fn get_at(&self, item: ItemId, snap: SeqNo) -> Option<&Version> {
        let start = self.versions.partition_point(|(i, _)| *i < item);
        let end = self.versions[start..].partition_point(|(i, _)| *i == item) + start;
        self.versions[start..end]
            .iter()
            .rev()
            .map(|(_, v)| v)
            .find(|v| v.seq <= snap)
    }
}

/// One hash partition: a mutable memtable of version chains plus a stack of
/// immutable sorted runs (newest last).
#[derive(Debug, Clone, Default)]
struct Partition {
    memtable: BTreeMap<ItemId, Vec<Version>>,
    memtable_versions: usize,
    runs: Vec<Run>,
}

impl Partition {
    fn get_at(&self, item: ItemId, snap: SeqNo) -> Option<&Version> {
        if let Some(chain) = self.memtable.get(&item) {
            if let Some(v) = chain.iter().rev().find(|v| v.seq <= snap) {
                return Some(v);
            }
        }
        self.runs.iter().rev().find_map(|r| r.get_at(item, snap))
    }
}

/// Monotone counters and gauges of keyspace activity, surfaced as the
/// engine's `store.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyspaceStats {
    /// Memtable flushes performed (each produced one run).
    pub flushes: u64,
    /// Size-tiered compactions performed.
    pub compactions: u64,
    /// Versions dropped by compaction GC (invisible to every pin).
    pub gc_dropped: u64,
}

/// The partitioned LSM keyspace. See the module docs for the layout and
/// durability contract.
#[derive(Debug, Clone)]
pub struct Keyspace {
    cfg: KeyspaceConfig,
    parts: Vec<Partition>,
    /// The sequence number of the most recent write (0 = nothing written).
    seq: SeqNo,
    tracker: SnapshotTracker,
    /// Index of every item ever written (iteration order + O(log n) count).
    items: BTreeSet<ItemId>,
    /// Items whose *latest* version is a polyvalue — the paper's `P(t)`.
    poly_items: BTreeSet<ItemId>,
    /// Counts every flush and compaction: the LSM's crash-coordinate
    /// counter, sampled by the crashpoint harness alongside the WAL's
    /// append counter.
    op_seq: u64,
    stats: KeyspaceStats,
}

impl Default for Keyspace {
    fn default() -> Self {
        Keyspace::new(KeyspaceConfig::default())
    }
}

impl Keyspace {
    /// An empty keyspace with the given tuning.
    pub fn new(cfg: KeyspaceConfig) -> Self {
        let partitions = cfg.partitions.max(1);
        Keyspace {
            cfg: KeyspaceConfig { partitions, ..cfg },
            parts: vec![Partition::default(); partitions],
            seq: 0,
            tracker: SnapshotTracker::default(),
            items: BTreeSet::new(),
            poly_items: BTreeSet::new(),
            op_seq: 0,
            stats: KeyspaceStats::default(),
        }
    }

    /// Replaces the tuning knobs (only meaningful before writes arrive;
    /// the partition count is fixed at construction and is not changed).
    pub fn set_thresholds(&mut self, memtable_max_entries: usize, run_threshold: usize) {
        self.cfg.memtable_max_entries = memtable_max_entries.max(1);
        self.cfg.run_threshold = run_threshold.max(2);
    }

    /// The active tuning.
    pub fn config(&self) -> KeyspaceConfig {
        self.cfg
    }

    fn part_of(&self, item: ItemId) -> usize {
        (item.0 % self.parts.len() as u64) as usize
    }

    /// Installs `entry` as the next version of `item`, returning its
    /// [`SeqNo`]. May flush the item's partition and trigger compaction.
    pub fn put(&mut self, item: ItemId, entry: Entry<Value>) -> SeqNo {
        self.seq += 1;
        let seq = self.seq;
        if entry.is_poly() {
            self.poly_items.insert(item);
        } else {
            self.poly_items.remove(&item);
        }
        self.items.insert(item);
        let p = self.part_of(item);
        let part = &mut self.parts[p];
        part.memtable.entry(item).or_default().push(Version { seq, entry });
        part.memtable_versions += 1;
        if part.memtable_versions >= self.cfg.memtable_max_entries {
            self.flush_partition(p);
        }
        seq
    }

    /// Flushes partition `p`'s memtable into a new run, then compacts the
    /// partition if it crossed the run threshold.
    fn flush_partition(&mut self, p: usize) {
        let part = &mut self.parts[p];
        if part.memtable.is_empty() {
            return;
        }
        let mut versions = Vec::with_capacity(part.memtable_versions);
        for (item, chain) in std::mem::take(&mut part.memtable) {
            for v in chain {
                versions.push((item, v));
            }
        }
        part.memtable_versions = 0;
        let run = Run { versions };
        self.op_seq += 1;
        self.stats.flushes += 1;
        self.parts[p].runs.push(run);
        if self.parts[p].runs.len() >= self.cfg.run_threshold {
            self.compact_partition(p);
        }
    }

    /// Size-tiered compaction: merges every run of partition `p` into one,
    /// dropping versions invisible to the oldest pinned snapshot. The GC
    /// horizon is `min(oldest pin, current seq)`; per item, every version
    /// above the horizon survives plus the newest at-or-below it (that one
    /// is what the oldest pin resolves the item to).
    fn compact_partition(&mut self, p: usize) {
        let horizon = self.tracker.oldest().unwrap_or(self.seq).min(self.seq);
        let part = &mut self.parts[p];
        let mut chains: BTreeMap<ItemId, Vec<Version>> = BTreeMap::new();
        for run in part.runs.drain(..) {
            for (item, v) in run.versions {
                chains.entry(item).or_default().push(v);
            }
        }
        let mut versions = Vec::new();
        let mut dropped = 0u64;
        for (item, mut chain) in chains {
            chain.sort_by_key(|v| v.seq);
            let keep_from = chain
                .iter()
                .rposition(|v| v.seq <= horizon)
                .unwrap_or(0);
            dropped += keep_from as u64;
            for v in chain.into_iter().skip(keep_from) {
                versions.push((item, v));
            }
        }
        let run = Run { versions };
        self.op_seq += 1;
        self.stats.compactions += 1;
        self.stats.gc_dropped += dropped;
        self.parts[p].runs = vec![run];
    }

    /// The newest entry of `item`.
    pub fn latest(&self, item: ItemId) -> Option<&Entry<Value>> {
        self.get_at(item, self.seq)
    }

    /// The newest entry of `item` visible at snapshot `snap`.
    pub fn get_at(&self, item: ItemId, snap: SeqNo) -> Option<&Entry<Value>> {
        self.parts[self.part_of(item)]
            .get_at(item, snap)
            .map(|v| &v.entry)
    }

    /// The sequence number of the most recent write.
    pub fn current_seq(&self) -> SeqNo {
        self.seq
    }

    /// Pins the current sequence number for a read-only transaction and
    /// returns it; pair with [`Keyspace::snapshot_release`].
    pub fn snapshot_acquire(&mut self) -> SeqNo {
        let seq = self.seq;
        self.tracker.acquire(seq);
        seq
    }

    /// Releases one pin on `seq`.
    pub fn snapshot_release(&mut self, seq: SeqNo) {
        self.tracker.release(seq);
    }

    /// The snapshot pin tracker.
    pub fn tracker(&self) -> &SnapshotTracker {
        &self.tracker
    }

    /// Number of distinct items ever written.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no item was ever written.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `item` has any version.
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.contains(&item)
    }

    /// Number of items whose latest version is a polyvalue.
    pub fn poly_count(&self) -> usize {
        self.poly_items.len()
    }

    /// Iterates `(item, latest entry)` in item order.
    pub fn iter_latest(&self) -> impl Iterator<Item = (ItemId, &Entry<Value>)> + '_ {
        self.items.iter().filter_map(move |&item| {
            self.latest(item).map(|e| (item, e))
        })
    }

    /// Total versions held across memtables and runs.
    pub fn version_count(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.memtable_versions + p.runs.iter().map(|r| r.versions.len()).sum::<usize>())
            .sum()
    }

    /// Total runs across all partitions.
    pub fn run_count(&self) -> usize {
        self.parts.iter().map(|p| p.runs.len()).sum()
    }

    /// How many writes the oldest live snapshot lags the present by.
    pub fn snapshot_age(&self) -> u64 {
        self.tracker.oldest().map_or(0, |s| self.seq - s)
    }

    /// The flush/compaction operation counter (LSM crash coordinate).
    pub fn op_seq(&self) -> u64 {
        self.op_seq
    }

    /// Activity counters.
    pub fn stats(&self) -> KeyspaceStats {
        self.stats
    }

    /// Clears every version, chain index, and pin (crash of volatile
    /// state; the WAL replay that follows rebuilds the keyspace).
    pub fn clear(&mut self) {
        for part in &mut self.parts {
            part.memtable.clear();
            part.memtable_versions = 0;
            part.runs.clear();
        }
        self.seq = 0;
        self.items.clear();
        self.poly_items.clear();
        self.tracker.clear();
        // op_seq / stats deliberately survive: op_seq is a lifetime crash
        // coordinate (like the WAL's append counter).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::TxnId;

    fn simple(v: i64) -> Entry<Value> {
        Entry::Simple(Value::Int(v))
    }

    fn poly(a: i64, b: i64, t: u64) -> Entry<Value> {
        Entry::in_doubt(simple(a), simple(b), TxnId(t))
    }

    fn tiny() -> Keyspace {
        Keyspace::new(KeyspaceConfig {
            partitions: 2,
            memtable_max_entries: 4,
            run_threshold: 3,
        })
    }

    #[test]
    fn put_then_latest_round_trips() {
        let mut ks = Keyspace::default();
        let s1 = ks.put(ItemId(1), simple(10));
        let s2 = ks.put(ItemId(1), simple(20));
        assert!(s2 > s1);
        assert_eq!(ks.latest(ItemId(1)), Some(&simple(20)));
        assert_eq!(ks.latest(ItemId(2)), None);
        assert_eq!(ks.len(), 1);
        assert!(ks.contains(ItemId(1)));
    }

    #[test]
    fn snapshot_reads_see_point_in_time_view() {
        let mut ks = tiny();
        ks.put(ItemId(1), simple(10));
        let snap = ks.snapshot_acquire();
        // Writes after the snapshot are invisible to it, across flushes.
        for i in 0..20 {
            ks.put(ItemId(1), simple(100 + i));
        }
        assert_eq!(ks.get_at(ItemId(1), snap), Some(&simple(10)));
        assert_eq!(ks.latest(ItemId(1)), Some(&simple(119)));
        ks.snapshot_release(snap);
    }

    #[test]
    fn flush_and_compaction_fire_at_thresholds() {
        let mut ks = tiny();
        // Partition 1 (odd item): 4 versions per flush, 3 runs compact.
        for i in 0..12 {
            ks.put(ItemId(1), simple(i));
        }
        let st = ks.stats();
        assert_eq!(st.flushes, 3);
        assert_eq!(st.compactions, 1);
        assert!(st.gc_dropped > 0);
        assert_eq!(ks.latest(ItemId(1)), Some(&simple(11)));
        // After GC with no pins, only the newest version survives the
        // compacted run.
        assert_eq!(ks.run_count(), 1);
    }

    #[test]
    fn compaction_preserves_pinned_versions() {
        let mut ks = tiny();
        ks.put(ItemId(1), simple(1));
        ks.put(ItemId(1), simple(2));
        let snap = ks.snapshot_acquire();
        for i in 3..30 {
            ks.put(ItemId(1), simple(i));
        }
        assert!(ks.stats().compactions >= 1);
        assert_eq!(ks.get_at(ItemId(1), snap), Some(&simple(2)));
        ks.snapshot_release(snap);
        // With the pin gone, further compactions may GC it.
        for i in 30..60 {
            ks.put(ItemId(1), simple(i));
        }
        assert_eq!(ks.latest(ItemId(1)), Some(&simple(59)));
    }

    #[test]
    fn polyvalue_versions_ride_the_chain() {
        let mut ks = tiny();
        ks.put(ItemId(1), simple(100));
        let snap = ks.snapshot_acquire();
        ks.put(ItemId(1), poly(90, 100, 7));
        assert_eq!(ks.poly_count(), 1);
        // The snapshot predates the install and still sees the simple value.
        assert_eq!(ks.get_at(ItemId(1), snap), Some(&simple(100)));
        // Collapse supersedes the polyvalue as the next version.
        ks.put(ItemId(1), simple(90));
        assert_eq!(ks.poly_count(), 0);
        assert_eq!(ks.latest(ItemId(1)), Some(&simple(90)));
        ks.snapshot_release(snap);
    }

    #[test]
    fn iter_latest_is_item_ordered_and_current() {
        let mut ks = tiny();
        ks.put(ItemId(3), simple(3));
        ks.put(ItemId(1), simple(1));
        ks.put(ItemId(2), simple(2));
        ks.put(ItemId(1), simple(10));
        let got: Vec<(u64, i64)> = ks
            .iter_latest()
            .map(|(i, e)| match e {
                Entry::Simple(Value::Int(n)) => (i.0, *n),
                other => panic!("unexpected entry {other:?}"),
            })
            .collect();
        assert_eq!(got, vec![(1, 10), (2, 2), (3, 3)]);
    }

    #[test]
    fn clear_resets_data_but_keeps_crash_coordinates() {
        let mut ks = tiny();
        for i in 0..12 {
            ks.put(ItemId(1), simple(i));
        }
        let ops = ks.op_seq();
        assert!(ops > 0);
        ks.clear();
        assert!(ks.is_empty());
        assert_eq!(ks.current_seq(), 0);
        assert_eq!(ks.version_count(), 0);
        assert_eq!(ks.op_seq(), ops);
    }

    #[test]
    fn snapshot_tracker_refcounts() {
        let mut t = SnapshotTracker::default();
        assert_eq!(t.oldest(), None);
        t.acquire(5);
        t.acquire(5);
        t.acquire(9);
        assert_eq!(t.oldest(), Some(5));
        t.release(5);
        assert_eq!(t.oldest(), Some(5));
        t.release(5);
        assert_eq!(t.oldest(), Some(9));
        t.release(9);
        assert_eq!(t.oldest(), None);
        // Releasing an unknown pin is a no-op.
        t.release(42);
    }
}
