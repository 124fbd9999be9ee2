//! `TimedStorage`: the benchmark's span recorder for the WAL layer.
//!
//! It implements the public [`Storage`] trait around any backend
//! (`MemStorage`, `DiskWal`), forwards every call unchanged, and logs the
//! interval of each call to a shared [`StorageLog`], named by what happened:
//! `wal.sync` when the call flushed to stable storage (the backend's `syncs`
//! counter advanced — an explicit `sync`, or an `append` whose fsync policy
//! flushed), `wal.append` for an append that only buffered. An explicit
//! `sync` with nothing to flush does no work and is not logged.

use crate::trace::{Clock, StorageLog, WAL_APPEND, WAL_SYNC};
use pv_store::{Record, Storage, StorageError, StorageStats};

#[derive(Debug)]
pub struct TimedStorage<S> {
    inner: S,
    clock: Clock,
    log: StorageLog,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S, clock: Clock, log: StorageLog) -> Self {
        TimedStorage { inner, clock, log }
    }

    fn timed<T>(&mut self, is_append: bool, call: impl FnOnce(&mut S) -> T) -> T {
        let syncs_before = self.inner.stats().syncs;
        let start = self.clock.now_ns();
        let result = call(&mut self.inner);
        let end = self.clock.now_ns();
        let flushed = self.inner.stats().syncs > syncs_before;
        if flushed || is_append {
            let name = if flushed { WAL_SYNC } else { WAL_APPEND };
            self.log
                .lock()
                .expect("no holder of the storage log panics")
                .push((name, start, end));
        }
        result
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append(&mut self, record: &Record) -> Result<(), StorageError> {
        self.timed(true, |s| s.append(record))
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.timed(false, |s| s.sync())
    }

    fn crash(&mut self) {
        self.inner.crash();
    }

    fn read_image(&mut self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_image()
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(len)
    }

    fn reset(&mut self, records: &[Record]) -> Result<(), StorageError> {
        self.inner.reset(records)
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::{Entry, ItemId, TxnId, Value};
    use pv_store::{FsyncPolicy, MemStorage};
    use std::sync::{Arc, Mutex};

    fn records() -> Vec<Record> {
        vec![
            Record::SetItem {
                item: ItemId(1),
                entry: Entry::Simple(Value::Int(7)),
            },
            Record::PendingPrepare {
                txn: TxnId(9),
                coordinator: 2,
                writes: vec![(ItemId(1), Entry::Simple(Value::Int(8)))],
            },
            Record::Decision {
                txn: TxnId(9),
                completed: true,
            },
        ]
    }

    /// Drives the same call sequence through a bare backend and a wrapped
    /// one; every observable result must be identical.
    #[test]
    fn forwards_every_storage_call_unchanged() {
        let log: StorageLog = Arc::new(Mutex::new(Vec::new()));
        let mut plain = MemStorage::with_policy(FsyncPolicy::PerDecision);
        let mut timed = TimedStorage::new(
            MemStorage::with_policy(FsyncPolicy::PerDecision),
            Clock::start(),
            log.clone(),
        );
        let recs = records();
        for r in &recs[..2] {
            assert_eq!(timed.append(r), plain.append(r));
        }
        assert_eq!(timed.stats(), plain.stats());
        assert_eq!(timed.read_image(), plain.read_image());
        // Un-synced appends are lost by a crash on both, identically.
        timed.crash();
        plain.crash();
        assert_eq!(timed.read_image(), plain.read_image());
        for r in &recs {
            assert_eq!(timed.append(r), plain.append(r));
        }
        assert_eq!(timed.sync(), plain.sync());
        assert_eq!(timed.stats(), plain.stats());
        let image = timed.read_image().unwrap();
        assert_eq!(Ok(image.clone()), plain.read_image());
        assert!(!image.is_empty());
        assert_eq!(
            timed.truncate(image.len() as u64 / 2),
            plain.truncate(image.len() as u64 / 2)
        );
        assert_eq!(timed.read_image(), plain.read_image());
        assert_eq!(timed.reset(&recs[..1]), plain.reset(&recs[..1]));
        assert_eq!(timed.read_image(), plain.read_image());
        assert_eq!(timed.stats(), plain.stats());

        // Five appends were logged in order; under `PerDecision` only the
        // decision record flushed, so the explicit sync after it found
        // nothing to do and was not logged.
        let log = log.lock().unwrap();
        let names: Vec<&str> = log.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            [WAL_APPEND, WAL_APPEND, WAL_APPEND, WAL_APPEND, WAL_SYNC]
        );
        assert!(log.iter().all(|(_, s, e)| s <= e));
        assert!(log.windows(2).all(|w| w[0].2 <= w[1].1));
    }
}
