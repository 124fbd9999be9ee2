//! The partitioned LSM keyspace: MVCC version chains behind the WAL.
//!
//! [`Keyspace`] is the materialised table a site serves reads from. Each
//! item's **newest version** lives in one hash map, the only place it is
//! stored: the protocol's reads, writes and existence checks are one probe.
//! Everything older is **history**, kept for snapshot reads in the classic
//! memtable-plus-sorted-runs idiom (fjall-style):
//!
//! * items hash into a fixed set of **partitions**;
//! * a write that supersedes an item's newest version moves the superseded
//!   version into its partition's **memtable**; an item's first write
//!   enters none;
//! * a memtable that reaches its entry threshold is **flushed** into an
//!   immutable run sorted by `(item, seq)`; when a partition accumulates
//!   `run_threshold` runs they are **size-tiered compacted** into one,
//!   dropping history no live snapshot can see.
//!
//! Every write is stamped with a monotone [`SeqNo`], so an entry's history
//! is a version chain: a polyvalue install is just another version whose
//! entry carries its condition, and the collapse that resolves it is the
//! next version up the chain — no special casing anywhere in the storage
//! layer. A [`SnapshotTracker`] pins the oldest sequence number any live
//! read-only transaction may still visit; compaction garbage-collects
//! history strictly below every pin. Per item it keeps the versions above
//! the horizon plus the newest at or below it — exactly what any pinned
//! snapshot resolves to — and keeps none once the newest version itself is
//! at or below the horizon. With no pin live, a compacted keyspace holds one
//! version per item.
//!
//! **Durability split.** The WAL is the commit log and the sole recovery
//! authority: the keyspace is derived state, held in memory and rebuilt by
//! WAL replay on every recovery.

use pv_core::{DetState, Entry, ItemId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// Superseded versions a partition's memtable holds before flushing
    /// into a run.
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

/// One hash partition's history: a memtable of superseded versions in the
/// order they were superseded (so each item's are in `seq` order) plus a
/// stack of immutable sorted runs (newest last). For any one item, every
/// memtable version is newer than every run version, and a newer run's
/// versions are newer than an older run's.
#[derive(Debug, Clone, Default)]
struct Partition {
    memtable: Vec<(ItemId, Version)>,
    runs: Vec<Run>,
}

impl Partition {
    /// The newest history version of `item` with `seq <= snap`, if any.
    fn get_at(&self, item: ItemId, snap: SeqNo) -> Option<&Version> {
        self.memtable
            .iter()
            .rev()
            .find(|(i, v)| *i == item && v.seq <= snap)
            .map(|(_, v)| v)
            .or_else(|| self.runs.iter().rev().find_map(|r| r.get_at(item, snap)))
    }

    fn version_count(&self) -> usize {
        self.memtable.len() + self.runs.iter().map(|r| r.versions.len()).sum::<usize>()
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
    /// History versions dropped by compaction GC (invisible to every pin).
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
    /// Each item's newest version, held nowhere else; its keys are every
    /// item ever written.
    latest: HashMap<ItemId, Version, DetState>,
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
            latest: HashMap::default(),
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

    /// Makes room for at least `additional` more items.
    pub fn reserve(&mut self, additional: usize) {
        self.latest.reserve(additional);
    }

    fn part_of(&self, item: ItemId) -> usize {
        (item.0 % self.parts.len() as u64) as usize
    }

    /// Installs `entry` as the next version of `item`, returning its
    /// [`SeqNo`]. The version it supersedes, if any, enters the item's
    /// partition memtable, which may flush and trigger compaction.
    pub fn put(&mut self, item: ItemId, entry: Entry<Value>) -> SeqNo {
        self.seq += 1;
        let seq = self.seq;
        if entry.is_poly() {
            self.poly_items.insert(item);
        } else {
            self.poly_items.remove(&item);
        }
        let Some(superseded) = self.latest.insert(item, Version { seq, entry }) else {
            return seq;
        };
        let p = self.part_of(item);
        let part = &mut self.parts[p];
        part.memtable.push((item, superseded));
        if part.memtable.len() >= self.cfg.memtable_max_entries {
            self.flush_partition(p);
            if self.parts[p].runs.len() >= self.cfg.run_threshold {
                self.compact_partition(p);
            }
        }
        seq
    }

    /// Flushes partition `p`'s memtable into a new run.
    fn flush_partition(&mut self, p: usize) {
        let mut versions = std::mem::take(&mut self.parts[p].memtable);
        // Stable: each item's versions keep their (ascending) seq order.
        versions.sort_by_key(|(item, _)| *item);
        self.parts[p].runs.push(Run { versions });
        self.op_seq += 1;
        self.stats.flushes += 1;
    }

    /// Size-tiered compaction: merges every run of partition `p` into one,
    /// dropping history invisible to the oldest pinned snapshot. The GC
    /// horizon is `min(oldest pin, current seq)`. Per item, every version
    /// above the horizon survives plus the newest at-or-below it (what the
    /// oldest pin resolves the item to) — unless the item's newest version
    /// is itself at or below the horizon, when every pin resolves to that
    /// and none of the history survives.
    fn compact_partition(&mut self, p: usize) {
        let horizon = self.tracker.oldest().unwrap_or(self.seq).min(self.seq);
        // Runs are oldest first, so a stable sort of their concatenation
        // orders every item's versions by seq.
        let mut merged: Vec<(ItemId, Version)> = self.parts[p]
            .runs
            .drain(..)
            .flat_map(|r| r.versions)
            .collect();
        merged.sort_by_key(|(item, _)| *item);
        let before = merged.len();
        let mut versions = Vec::with_capacity(before);
        // Newest first: `covered` is the item whose newest at-or-below-
        // horizon version has been seen, so older ones are invisible.
        let mut covered = None;
        for (item, v) in merged.into_iter().rev() {
            if v.seq > horizon {
                versions.push((item, v));
            } else if covered != Some(item) {
                covered = Some(item);
                let newest = self.latest.get(&item).expect("history belongs to a written item");
                if newest.seq > horizon {
                    versions.push((item, v));
                }
            }
        }
        versions.reverse();
        self.op_seq += 1;
        self.stats.compactions += 1;
        self.stats.gc_dropped += (before - versions.len()) as u64;
        if !versions.is_empty() {
            self.parts[p].runs.push(Run { versions });
        }
    }

    /// Flushes every partition's memtable and compacts its runs into at
    /// most one, regardless of thresholds. With no pin live this leaves
    /// one version per item.
    pub fn compact_all(&mut self) {
        for p in 0..self.parts.len() {
            if !self.parts[p].memtable.is_empty() {
                self.flush_partition(p);
            }
            if !self.parts[p].runs.is_empty() {
                self.compact_partition(p);
            }
        }
    }

    /// The newest entry of `item`.
    pub fn latest(&self, item: ItemId) -> Option<&Entry<Value>> {
        self.latest.get(&item).map(|v| &v.entry)
    }

    /// The newest entry of `item` visible at snapshot `snap`.
    pub fn get_at(&self, item: ItemId, snap: SeqNo) -> Option<&Entry<Value>> {
        let newest = self.latest.get(&item)?;
        if newest.seq <= snap {
            return Some(&newest.entry);
        }
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
        self.latest.len()
    }

    /// Whether no item was ever written.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }

    /// Whether `item` has any version.
    pub fn contains(&self, item: ItemId) -> bool {
        self.latest.contains_key(&item)
    }

    /// Number of items whose latest version is a polyvalue.
    pub fn poly_count(&self) -> usize {
        self.poly_items.len()
    }

    /// Iterates `(item, latest entry)` in item order.
    pub fn iter_latest(&self) -> impl Iterator<Item = (ItemId, &Entry<Value>)> + '_ {
        let mut items: Vec<(ItemId, &Entry<Value>)> =
            self.latest.iter().map(|(&i, v)| (i, &v.entry)).collect();
        items.sort_unstable_by_key(|(i, _)| *i);
        items.into_iter()
    }

    /// Total versions held: one newest per item plus the history in
    /// memtables and runs.
    pub fn version_count(&self) -> usize {
        let history: usize = self.parts.iter().map(Partition::version_count).sum();
        self.latest.len() + history
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
            part.runs.clear();
        }
        self.seq = 0;
        self.latest.clear();
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
        // Partition 1 (odd item). The first write enters only the newest-
        // version map; each of the next 12 supersedes one version into the
        // memtable: 4 per flush, and the third run triggers compaction.
        for i in 0..13 {
            ks.put(ItemId(1), simple(i));
        }
        let st = ks.stats();
        assert_eq!(st.flushes, 3);
        assert_eq!(st.compactions, 1);
        // No pin is live, so the compaction dropped the whole history.
        assert_eq!(st.gc_dropped, 12);
        assert_eq!(ks.run_count(), 0);
        assert_eq!(ks.version_count(), 1);
        assert_eq!(ks.latest(ItemId(1)), Some(&simple(12)));
    }

    #[test]
    fn seeding_performs_no_flush() {
        let mut ks = tiny();
        for i in 0..100 {
            ks.put(ItemId(i), simple(i as i64));
        }
        assert_eq!(ks.stats().flushes, 0);
        assert_eq!(ks.op_seq(), 0);
        assert_eq!(ks.len(), 100);
        assert_eq!(ks.version_count(), ks.len());
    }

    #[test]
    fn superseded_version_stays_visible_to_its_pin() {
        let mut ks = tiny();
        let item = ItemId(1);
        ks.put(item, simple(1));
        let s1 = ks.snapshot_acquire();
        ks.put(item, simple(2));
        ks.compact_all();
        // v2 is only in the newest-version map; superseding it must move it
        // into history where the pin taken between v2 and v3 finds it.
        let s2 = ks.snapshot_acquire();
        ks.put(item, simple(3));
        assert_eq!(ks.get_at(item, s2), Some(&simple(2)));
        assert_eq!(ks.get_at(item, s1), Some(&simple(1)));
        ks.compact_all();
        assert_eq!(ks.get_at(item, s2), Some(&simple(2)));
        assert_eq!(ks.get_at(item, s1), Some(&simple(1)));
        assert_eq!(ks.latest(item), Some(&simple(3)));
        ks.snapshot_release(s1);
        ks.snapshot_release(s2);
        ks.compact_all();
        assert_eq!(ks.version_count(), 1);
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
