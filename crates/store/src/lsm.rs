//! The keyspace: each item's newest version, behind the WAL.
//!
//! [`Keyspace`] is the materialised table a site serves reads from. Each
//! item's **newest version** lives in one hash map, the only place it is
//! stored: the protocol's reads, writes and existence checks are one probe.
//! Every write is stamped with a monotone [`SeqNo`]. A polyvalue install is
//! just another version whose entry carries its condition, and the collapse
//! that resolves it is the next one: what a site knows about an in-doubt item
//! lives inside the item's one current value, so no version history is
//! needed to represent it.
//!
//! **Snapshot pins.** A [`SnapshotTracker`] pins sequence numbers for
//! read-only transactions held open across writes. A write keeps the version
//! it supersedes only while a live pin can still see it (the newest pin is at
//! or above its `seq`), and that history is dropped when the last pin is
//! released. With no pin live the keyspace holds exactly one version per
//! item; a site's own snapshot read pins nothing (see
//! [`crate::SiteStore::snapshot_read`]).
//!
//! **Durability split.** The WAL is the commit log and the sole recovery
//! authority: the keyspace is derived state, held in memory and rebuilt by
//! WAL replay on every recovery.

use pv_core::{DetState, Entry, ItemId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A monotone sequence number stamped on every version written to the
/// keyspace. Snapshot reads are "the newest version at or below this".
pub type SeqNo = u64;

/// One version of an item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The write's position in the site's total version order.
    pub seq: SeqNo,
    /// The entry installed by that write (possibly a polyvalue).
    pub entry: Entry<Value>,
}

/// No effect; kept for the frozen benchmark; deleted with its last caller by ROADMAP item 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// Non-exhaustive so `default()` stays the way to build it: clippy flags
// `default()` on a plain unit struct, and the frozen caller uses it.
#[non_exhaustive]
pub struct KeyspaceConfig;

/// Refcounted pins on snapshot sequence numbers.
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

    /// The newest pinned sequence number, if any snapshot is live.
    fn newest(&self) -> Option<SeqNo> {
        self.pins.keys().next_back().copied()
    }

    /// Drops every pin (volatile state lost in a crash).
    pub fn clear(&mut self) {
        self.pins.clear();
    }
}

/// The keyspace. See the module docs for the layout and durability
/// contract.
#[derive(Debug, Clone, Default)]
pub struct Keyspace {
    /// The sequence number of the most recent write (0 = nothing written).
    seq: SeqNo,
    tracker: SnapshotTracker,
    /// Each item's newest version; its keys are every item ever written.
    latest: HashMap<ItemId, Version, DetState>,
    /// Superseded versions a live pin can still see, in the order they were
    /// superseded (so each item's are in `seq` order). Empty while no pin is
    /// live.
    history: Vec<(ItemId, Version)>,
    /// Items whose *latest* version is a polyvalue — the paper's `P(t)`.
    poly_items: BTreeSet<ItemId>,
}

impl Keyspace {
    /// An empty keyspace, the same as [`Keyspace::default`]: the config has
    /// no effect.
    pub fn new(_cfg: KeyspaceConfig) -> Self {
        Keyspace::default()
    }

    /// No effect; kept for the frozen benchmark; deleted with its last caller by ROADMAP item 1.
    pub fn set_thresholds(&mut self, _: usize, _: usize) {}

    /// Makes room for at least `additional` more items.
    pub fn reserve(&mut self, additional: usize) {
        self.latest.reserve(additional);
    }

    /// Installs `entry` as the next version of `item`, returning its
    /// [`SeqNo`]. The version it supersedes is kept only if a live pin can
    /// still see it.
    pub fn put(&mut self, item: ItemId, entry: Entry<Value>) -> SeqNo {
        self.seq += 1;
        let seq = self.seq;
        if entry.is_poly() {
            self.poly_items.insert(item);
        } else {
            self.poly_items.remove(&item);
        }
        if let Some(superseded) = self.latest.insert(item, Version { seq, entry }) {
            if self
                .tracker
                .newest()
                .is_some_and(|pin| pin >= superseded.seq)
            {
                self.history.push((item, superseded));
            }
        }
        seq
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
        self.history
            .iter()
            .rev()
            .find(|(i, v)| *i == item && v.seq <= snap)
            .map(|(_, v)| &v.entry)
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

    /// Releases one pin on `seq`; releasing the last pin drops the history.
    pub fn snapshot_release(&mut self, seq: SeqNo) {
        self.tracker.release(seq);
        if self.tracker.newest().is_none() {
            self.history.clear();
        }
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

    /// Total versions held: one newest per item plus the history a live pin
    /// can still see.
    pub fn version_count(&self) -> usize {
        self.latest.len() + self.history.len()
    }

    /// Clears every version and pin (crash of volatile state; the WAL replay
    /// that follows rebuilds the keyspace).
    pub fn clear(&mut self) {
        self.seq = 0;
        self.latest.clear();
        self.history.clear();
        self.poly_items.clear();
        self.tracker.clear();
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
        let mut ks = Keyspace::default();
        ks.put(ItemId(1), simple(10));
        let snap = ks.snapshot_acquire();
        // Writes after the snapshot are invisible to it.
        for i in 0..20 {
            ks.put(ItemId(1), simple(100 + i));
        }
        assert_eq!(ks.get_at(ItemId(1), snap), Some(&simple(10)));
        assert_eq!(ks.latest(ItemId(1)), Some(&simple(119)));
        ks.snapshot_release(snap);
    }

    #[test]
    fn overwrites_leave_one_version_per_item() {
        let mut ks = Keyspace::default();
        // With no pin live nothing can read a superseded version, so none
        // is kept.
        for i in 0..13 {
            ks.put(ItemId(1), simple(i));
        }
        assert_eq!(ks.version_count(), 1);
        for i in 0..40 {
            ks.put(ItemId(i % 8), poly(i as i64 + 1, 0, i));
        }
        assert_eq!(ks.len(), 8);
        assert_eq!(ks.version_count(), ks.len());
        assert_eq!(ks.latest(ItemId(1)), Some(&poly(34, 0, 33)));
    }

    #[test]
    fn history_holds_only_what_a_live_pin_can_see() {
        let mut ks = Keyspace::default();
        ks.put(ItemId(1), simple(0));
        let snap = ks.snapshot_acquire();
        for i in 1..12 {
            ks.put(ItemId(1), simple(i));
        }
        // Only the version the pin resolves to outlives its successor.
        assert_eq!(ks.version_count(), 2);
        assert_eq!(ks.get_at(ItemId(1), snap), Some(&simple(0)));
        ks.snapshot_release(snap);
        assert_eq!(ks.version_count(), 1);
    }

    #[test]
    fn superseded_version_stays_visible_to_its_pin() {
        let mut ks = Keyspace::default();
        let item = ItemId(1);
        ks.put(item, simple(1));
        let s1 = ks.snapshot_acquire();
        ks.put(item, simple(2));
        // v2 is only in the newest-version map; superseding it must move it
        // into history where the pin taken between v2 and v3 finds it.
        let s2 = ks.snapshot_acquire();
        ks.put(item, simple(3));
        assert_eq!(ks.get_at(item, s2), Some(&simple(2)));
        assert_eq!(ks.get_at(item, s1), Some(&simple(1)));
        assert_eq!(ks.latest(item), Some(&simple(3)));
        // History outlives any one pin, and goes with the last.
        ks.snapshot_release(s1);
        assert_eq!(ks.get_at(item, s2), Some(&simple(2)));
        ks.snapshot_release(s2);
        assert_eq!(ks.version_count(), 1);
    }

    #[test]
    fn polyvalue_versions_ride_the_chain() {
        let mut ks = Keyspace::default();
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
        let mut ks = Keyspace::default();
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
    fn clear_resets_data_and_pins() {
        let mut ks = Keyspace::default();
        ks.put(ItemId(1), simple(0));
        ks.snapshot_acquire();
        ks.put(ItemId(1), simple(1));
        assert_eq!(ks.version_count(), 2);
        ks.clear();
        assert!(ks.is_empty());
        assert_eq!(ks.current_seq(), 0);
        assert_eq!(ks.version_count(), 0);
        // The pin went with the crash: nothing keeps history any more.
        ks.put(ItemId(1), simple(2));
        ks.put(ItemId(1), simple(3));
        assert_eq!(ks.version_count(), 1);
    }

    #[test]
    fn snapshot_tracker_refcounts() {
        let mut t = SnapshotTracker::default();
        assert_eq!(t.newest(), None);
        t.acquire(5);
        t.acquire(5);
        t.acquire(9);
        assert_eq!(t.newest(), Some(9));
        t.release(9);
        assert_eq!(t.newest(), Some(5));
        t.release(5);
        assert_eq!(t.newest(), Some(5));
        t.release(5);
        assert_eq!(t.newest(), None);
        // Releasing an unknown pin is a no-op.
        t.release(42);
    }
}
