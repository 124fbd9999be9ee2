//! # pv-store — per-site durable storage
//!
//! Each site in the distributed system owns a [`SiteStore`]: an item table
//! holding simple values and polyvalues, staged wait-phase transactions, the
//! §3.3 outcome-dependency table, and coordinator decisions — all backed by a
//! write-ahead log in a [`Storage`] backend that survives simulated crashes.
//! The paper assumes sites remember in-doubt transactions across failures;
//! the WAL is that assumption made explicit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod keyspace;
mod site_store;
pub mod storage;
mod wal;

pub use codec::CodecError;
pub use keyspace::{Keyspace, KeyspaceConfig, SeqNo};
pub use site_store::{DepEntry, PaxosState, PendingTxn, SiteStore, SnapshotView, StoreStats};
pub use storage::{
    DiskWal, FaultConfig, FaultyStorage, FsyncPolicy, MemStorage, Storage, StorageError,
    StorageStats,
};
pub use wal::{Record, SiteId, Wal};

/// The rules of the §3.3 outcome-dependency table, checked through the
/// [`SiteStore`] field that holds it.
#[cfg(test)]
mod outcomes {
    mod tests {
        use crate::{DepEntry, SiteStore};
        use pv_core::{Entry, ItemId, TxnId, Value};

        fn simple(v: i64) -> Entry<Value> {
            Entry::Simple(Value::Int(v))
        }

        /// A polyvalue that depends on each transaction in `txns`.
        fn poly_on(txns: &[u64]) -> Entry<Value> {
            txns.iter()
                .zip(1..)
                .fold(simple(0), |old, (&t, v)| Entry::in_doubt(simple(v), old, TxnId(t)))
        }

        #[test]
        fn note_and_take() {
            let mut s = SiteStore::new();
            s.set_entry(ItemId(10), poly_on(&[1]));
            s.set_entry(ItemId(11), poly_on(&[1]));
            s.note_sent(TxnId(1), 3);
            assert!(s.dep_entry(TxnId(1)).is_some());
            assert_eq!(s.tracked_txns(), vec![TxnId(1)]);
            let e = s.apply_decision(TxnId(1), true);
            assert_eq!(e.items.len(), 2);
            assert_eq!(e.sent_to.len(), 1);
            assert!(s.dep_entry(TxnId(1)).is_none());
            assert!(!s.has_tracked_txns());
            assert!(s.apply_decision(TxnId(1), true).is_empty());
        }

        #[test]
        fn duplicate_notes_are_idempotent() {
            let mut s = SiteStore::new();
            s.set_entry(ItemId(10), poly_on(&[1]));
            s.set_entry(ItemId(10), poly_on(&[1]));
            s.note_sent(TxnId(1), 3);
            s.note_sent(TxnId(1), 3);
            let e = s.dep_entry(TxnId(1)).unwrap();
            assert_eq!(e.items.len(), 1);
            assert_eq!(e.sent_to.len(), 1);
        }

        #[test]
        fn clear_item_prunes_everywhere() {
            let mut s = SiteStore::new();
            s.set_entry(ItemId(10), poly_on(&[1, 2]));
            s.set_entry(ItemId(11), poly_on(&[2]));
            s.set_entry(ItemId(10), simple(0));
            // T1's entry became empty and was pruned; T2 keeps item 11.
            assert!(s.dep_entry(TxnId(1)).is_none());
            assert_eq!(s.dep_entry(TxnId(2)).unwrap().items.len(), 1);
            // An entry with a send-list survives clearing its last item.
            s.note_sent(TxnId(3), 7);
            s.set_entry(ItemId(11), poly_on(&[2, 3]));
            s.set_entry(ItemId(11), simple(0));
            assert!(s.dep_entry(TxnId(3)).unwrap().items.is_empty());
            assert!(s.dep_entry(TxnId(2)).is_none(), "T2 lost its last item too");
        }

        #[test]
        fn pending_lists_in_order() {
            let mut s = SiteStore::new();
            s.set_entry(ItemId(1), poly_on(&[5, 2]));
            assert_eq!(s.tracked_txns(), vec![TxnId(2), TxnId(5)]);
        }

        #[test]
        fn dep_entry_is_empty() {
            assert!(DepEntry::default().is_empty());
            let mut e = DepEntry::default();
            e.sent_to.insert(1);
            assert!(!e.is_empty());
        }
    }
}
