//! # pv-store — per-site durable storage
//!
//! Each site in the distributed system owns a [`SiteStore`]: an item table
//! holding simple values and polyvalues, staged wait-phase transactions, the
//! §3.3 outcome-dependency table, and coordinator decisions — all backed by a
//! write-ahead log ([`Wal`]) that survives simulated crashes. The paper
//! assumes sites remember in-doubt transactions across failures; the WAL is
//! that assumption made explicit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod lsm;
mod outcomes;
mod site_store;
pub mod storage;
mod wal;

pub use codec::CodecError;
pub use lsm::{Keyspace, KeyspaceConfig, SeqNo, SnapshotTracker, Version};
pub use outcomes::{DepEntry, OutcomeTable};
pub use site_store::{PaxosState, PendingTxn, SiteStore, SnapshotView, StoreStats};
pub use storage::{
    DiskWal, FaultConfig, FaultyStorage, FsyncPolicy, MemStorage, Storage, StorageError,
    StorageStats,
};
pub use wal::{Record, SiteId, Wal};
