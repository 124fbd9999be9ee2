//! Per-item lock table with no-wait conflict handling.
//!
//! Sites lock items while a transaction is between its read phase and its
//! outcome (strict two-phase locking). Conflicts are resolved *no-wait*: the
//! requester is refused and the coordinator aborts and the client retries
//! with backoff. Under the polyvalue protocol locks are released as soon as
//! the site installs in-doubt polyvalues — that early release is exactly the
//! availability the paper buys; the blocking baseline keeps them.

use pv_core::{DetState, ItemId, TxnId};
use std::collections::{BTreeSet, HashMap};

/// A hash map keyed with the deterministic hasher.
type DetMap<K, V> = HashMap<K, V, DetState>;

/// The lock state of one item.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LockState {
    /// Shared by a set of readers.
    Read(BTreeSet<TxnId>),
    /// Held exclusively by one writer.
    Write(TxnId),
}

/// A site's lock table.
///
/// No code path iterates either map: every multi-item answer
/// ([`LockTable::release_all`], [`LockTable::conflicts`]) comes from a
/// `BTreeSet` and is sorted, so hash-map order never reaches the engine.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: DetMap<ItemId, LockState>,
    held: DetMap<TxnId, BTreeSet<ItemId>>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Tries to acquire a shared lock; `false` on conflict (no-wait).
    /// Re-acquiring a lock the transaction already holds succeeds.
    pub fn try_read(&mut self, txn: TxnId, item: ItemId) -> bool {
        match self.locks.get_mut(&item) {
            None => {
                self.locks.insert(item, LockState::Read([txn].into()));
            }
            Some(LockState::Read(readers)) => {
                readers.insert(txn);
            }
            Some(LockState::Write(owner)) => {
                if *owner != txn {
                    return false;
                }
            }
        }
        self.held.entry(txn).or_default().insert(item);
        true
    }

    /// Tries to acquire an exclusive lock; `false` on conflict. A
    /// transaction that is the *sole* reader of the item upgrades in place.
    pub fn try_write(&mut self, txn: TxnId, item: ItemId) -> bool {
        match self.locks.get_mut(&item) {
            None => {
                self.locks.insert(item, LockState::Write(txn));
            }
            Some(LockState::Write(owner)) => {
                if *owner != txn {
                    return false;
                }
            }
            Some(state @ LockState::Read(_)) => {
                let LockState::Read(readers) = &*state else {
                    unreachable!()
                };
                if readers.len() == 1 && readers.contains(&txn) {
                    *state = LockState::Write(txn);
                } else {
                    return false;
                }
            }
        }
        self.held.entry(txn).or_default().insert(item);
        true
    }

    /// The transactions that would block `txn` from taking `item` in the
    /// given mode (empty = acquirable), in ascending order. Used by
    /// wound-wait to pick victims.
    pub fn conflicts(&self, txn: TxnId, item: ItemId, exclusive: bool) -> Vec<TxnId> {
        match self.locks.get(&item) {
            None => Vec::new(),
            Some(LockState::Write(owner)) => {
                if *owner == txn {
                    Vec::new()
                } else {
                    vec![*owner]
                }
            }
            Some(LockState::Read(readers)) => {
                if !exclusive {
                    return Vec::new();
                }
                readers.iter().copied().filter(|r| *r != txn).collect()
            }
        }
    }

    /// Releases every lock held by `txn`; returns the items released, in
    /// ascending order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<ItemId> {
        let Some(items) = self.held.remove(&txn) else {
            return Vec::new();
        };
        for &item in &items {
            match self.locks.get_mut(&item) {
                Some(LockState::Write(owner)) if *owner == txn => {
                    self.locks.remove(&item);
                }
                Some(LockState::Read(readers)) => {
                    readers.remove(&txn);
                    if readers.is_empty() {
                        self.locks.remove(&item);
                    }
                }
                _ => {}
            }
        }
        items.into_iter().collect()
    }

    /// Whether `txn` holds any lock.
    pub fn holds_any(&self, txn: TxnId) -> bool {
        self.held.get(&txn).is_some_and(|s| !s.is_empty())
    }

    /// Number of currently locked items.
    pub fn locked_count(&self) -> usize {
        self.locks.len()
    }

    /// Drops every lock (volatile state lost in a crash).
    pub fn clear(&mut self) {
        self.locks.clear();
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    fn i(n: u64) -> ItemId {
        ItemId(n)
    }

    #[test]
    fn shared_reads_coexist() {
        let mut l = LockTable::new();
        assert!(l.try_read(t(1), i(1)));
        assert!(l.try_read(t(2), i(1)));
        assert_eq!(l.locked_count(), 1);
    }

    #[test]
    fn write_excludes_everyone_else() {
        let mut l = LockTable::new();
        assert!(l.try_write(t(1), i(1)));
        assert!(!l.try_write(t(2), i(1)));
        assert!(!l.try_read(t(2), i(1)));
        // The owner can re-enter both ways.
        assert!(l.try_write(t(1), i(1)));
        assert!(l.try_read(t(1), i(1)));
    }

    #[test]
    fn read_blocks_write_from_others() {
        let mut l = LockTable::new();
        assert!(l.try_read(t(1), i(1)));
        assert!(!l.try_write(t(2), i(1)));
    }

    #[test]
    fn sole_reader_upgrades() {
        let mut l = LockTable::new();
        assert!(l.try_read(t(1), i(1)));
        assert!(l.try_write(t(1), i(1)));
        assert!(!l.try_read(t(2), i(1)), "upgraded lock must be exclusive");
    }

    #[test]
    fn shared_readers_cannot_upgrade() {
        let mut l = LockTable::new();
        assert!(l.try_read(t(1), i(1)));
        assert!(l.try_read(t(2), i(1)));
        assert!(!l.try_write(t(1), i(1)));
    }

    #[test]
    fn release_frees_items() {
        let mut l = LockTable::new();
        assert!(l.try_write(t(1), i(1)));
        assert!(l.try_read(t(1), i(2)));
        assert!(l.try_read(t(2), i(2)));
        assert!(l.holds_any(t(1)));
        let released = l.release_all(t(1));
        assert_eq!(released, vec![i(1), i(2)]);
        assert!(!l.holds_any(t(1)));
        // Item 1 is free; item 2 still read-locked by t2.
        assert!(l.try_write(t(3), i(1)));
        assert!(!l.try_write(t(3), i(2)));
        assert!(l.try_read(t(3), i(2)));
    }

    #[test]
    fn release_unknown_txn_is_empty() {
        let mut l = LockTable::new();
        assert!(l.release_all(t(9)).is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let mut l = LockTable::new();
        l.try_write(t(1), i(1));
        l.try_read(t(2), i(2));
        l.clear();
        assert_eq!(l.locked_count(), 0);
        assert!(!l.holds_any(t(1)));
        assert!(l.try_write(t(3), i(1)));
    }

    #[test]
    fn conflicts_lists_blockers() {
        let mut l = LockTable::new();
        assert!(l.conflicts(t(9), i(1), true).is_empty());
        l.try_write(t(1), i(1));
        assert_eq!(l.conflicts(t(9), i(1), false), vec![t(1)]);
        assert!(
            l.conflicts(t(1), i(1), true).is_empty(),
            "owner never self-conflicts"
        );
        l.try_read(t(2), i(2));
        l.try_read(t(3), i(2));
        assert!(
            l.conflicts(t(9), i(2), false).is_empty(),
            "shared read is fine"
        );
        assert_eq!(l.conflicts(t(9), i(2), true), vec![t(2), t(3)]);
        assert_eq!(l.conflicts(t(2), i(2), true), vec![t(3)]);
    }

    #[test]
    fn release_then_reacquire_cycle() {
        let mut l = LockTable::new();
        for round in 0..3 {
            assert!(l.try_write(t(round), i(1)), "round {round}");
            l.release_all(t(round));
        }
        assert_eq!(l.locked_count(), 0);
    }

    #[test]
    fn many_items_release_in_ascending_order() {
        // A transaction that locked many items in descending order still
        // releases them in ascending item order.
        let mut l = LockTable::new();
        let items: Vec<ItemId> = (0..40).rev().map(i).collect();
        for &item in &items {
            assert!(l.try_write(t(1), item));
        }
        assert_eq!(l.locked_count(), 40);
        let released = l.release_all(t(1));
        let expected: Vec<ItemId> = (0..40).map(i).collect();
        assert_eq!(released, expected);
        assert_eq!(l.locked_count(), 0);
    }
}
