//! Write-ahead log records, and [`Wal`], the decoded image recovery applies.

use pv_core::{Entry, ItemId, TxnId, Value};
use std::fmt;

/// Identifies a site (node) without depending on the simulation crate.
pub type SiteId = u32;

/// One durable log record.
///
/// Everything a site must remember across a crash is expressed as a record:
/// installed item values (simple or poly), staged wait-phase transactions,
/// the §3.3 outcome-dependency bookkeeping, and coordinator decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// An item's current entry was installed.
    SetItem {
        /// The item updated.
        item: ItemId,
        /// Its new entry (simple value or polyvalue).
        entry: Entry<Value>,
    },
    /// A transaction entered the wait phase with these staged writes.
    PendingPrepare {
        /// The staged transaction.
        txn: TxnId,
        /// The transaction's coordinator site.
        coordinator: SiteId,
        /// Values computed for the items this site holds.
        writes: Vec<(ItemId, Entry<Value>)>,
    },
    /// A staged transaction was resolved (installed, aborted, or converted to
    /// polyvalues) and needs no further staging.
    PendingResolved {
        /// The resolved transaction.
        txn: TxnId,
    },
    /// A polyvalue depending on `txn` was sent to `site` (§3.3 table).
    DepSent {
        /// The in-doubt transaction.
        txn: TxnId,
        /// The site the dependent polyvalue was sent to.
        site: SiteId,
    },
    /// The outcome of `txn` was learned and its table entry discarded.
    DepForgotten {
        /// The resolved transaction.
        txn: TxnId,
    },
    /// This site, as coordinator of `txn`, durably decided its outcome.
    Decision {
        /// The decided transaction.
        txn: TxnId,
        /// `true` = complete, `false` = abort.
        completed: bool,
    },
    /// The site started a new epoch (after a recovery). Epochs are embedded
    /// in transaction identifiers so a recovered coordinator never reuses an
    /// id from before its crash.
    Epoch {
        /// The new epoch number.
        epoch: u32,
    },
    /// Paxos Commit: this site, as acceptor, accepted `part`'s ballot-0 vote
    /// for `txn`. Durable *before* the acknowledgement is sent — the
    /// quorum-intersection argument needs every acknowledged vote to survive
    /// the acceptor's crash.
    PaxosVote {
        /// The transaction being committed.
        txn: TxnId,
        /// The participant whose vote this is.
        part: SiteId,
        /// The registered participant set the vote carried.
        parts: Vec<SiteId>,
        /// The vote value (`true` = prepared).
        prepared: bool,
    },
    /// Paxos Commit: this site, as acceptor, promised ballot `ballot` for
    /// `txn`'s verdict instance and will reject anything lower. Durable
    /// before the phase-1b reply.
    PaxosPromise {
        /// The transaction.
        txn: TxnId,
        /// The promised ballot.
        ballot: u64,
    },
    /// Paxos Commit: this site, as acceptor, accepted the verdict `completed`
    /// at `ballot` (phase 2). Durable before the phase-2b reply.
    PaxosAccept {
        /// The transaction.
        txn: TxnId,
        /// The ballot the verdict was accepted at.
        ballot: u64,
        /// The accepted verdict.
        completed: bool,
    },
    /// Paxos Commit: the decision for `txn` is durable, so the acceptor
    /// state above is no longer needed and compaction may drop it.
    PaxosForgotten {
        /// The decided transaction.
        txn: TxnId,
    },
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Record::SetItem { item, entry } => write!(f, "set {item} = {entry}"),
            Record::PendingPrepare {
                txn,
                coordinator,
                writes,
            } => {
                write!(
                    f,
                    "prepare {txn} coord=s{coordinator} writes={}",
                    writes.len()
                )
            }
            Record::PendingResolved { txn } => write!(f, "resolved {txn}"),
            Record::DepSent { txn, site } => write!(f, "dep {txn} sent to s{site}"),
            Record::DepForgotten { txn } => write!(f, "dep {txn} forgotten"),
            Record::Decision { txn, completed } => {
                write!(
                    f,
                    "decision {txn} = {}",
                    if *completed { "complete" } else { "abort" }
                )
            }
            Record::Epoch { epoch } => write!(f, "epoch {epoch}"),
            Record::PaxosVote {
                txn,
                part,
                parts,
                prepared,
            } => write!(
                f,
                "paxos vote {txn} part=s{part} parts={} {}",
                parts.len(),
                if *prepared { "prepared" } else { "abort" }
            ),
            Record::PaxosPromise { txn, ballot } => {
                write!(f, "paxos promise {txn} ballot={ballot}")
            }
            Record::PaxosAccept {
                txn,
                ballot,
                completed,
            } => write!(
                f,
                "paxos accept {txn} ballot={ballot} = {}",
                if *completed { "complete" } else { "abort" }
            ),
            Record::PaxosForgotten { txn } => write!(f, "paxos {txn} forgotten"),
        }
    }
}

/// A decoded log image: the records a [`crate::codec`] image holds, in
/// append order.
///
/// The log itself lives in a [`crate::Storage`] backend, the site's *stable
/// storage*; a `Wal` is what recovery decodes from it and applies.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    records: Vec<Record>,
}

impl Wal {
    /// Wraps already-materialised records (codec decode path).
    pub fn from_records(records: Vec<Record>) -> Self {
        Wal { records }
    }

    /// Number of records in the image.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the image holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the records in append order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }
}

impl IntoIterator for Wal {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;

    /// Consumes the image, yielding its records in append order.
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(item: u64, v: i64) -> Record {
        Record::SetItem {
            item: ItemId(item),
            entry: Entry::Simple(Value::Int(v)),
        }
    }

    #[test]
    fn append_and_iterate_in_order() {
        assert!(Wal::default().is_empty());
        let wal = Wal::from_records(vec![set(1, 10), set(2, 20)]);
        assert_eq!(wal.len(), 2);
        assert!(!wal.is_empty());
        let items: Vec<&Record> = wal.iter().collect();
        assert_eq!(items[0], &set(1, 10));
        assert_eq!(items[1], &set(2, 20));
    }

    #[test]
    fn record_display() {
        assert_eq!(set(1, 10).to_string(), "set item1 = 10");
        assert_eq!(
            Record::Decision {
                txn: TxnId(3),
                completed: true
            }
            .to_string(),
            "decision T3 = complete"
        );
        assert_eq!(
            Record::Decision {
                txn: TxnId(3),
                completed: false
            }
            .to_string(),
            "decision T3 = abort"
        );
        assert_eq!(
            Record::PendingPrepare {
                txn: TxnId(1),
                coordinator: 2,
                writes: vec![]
            }
            .to_string(),
            "prepare T1 coord=s2 writes=0"
        );
        assert_eq!(
            Record::PendingResolved { txn: TxnId(1) }.to_string(),
            "resolved T1"
        );
        assert_eq!(
            Record::DepSent {
                txn: TxnId(1),
                site: 9
            }
            .to_string(),
            "dep T1 sent to s9"
        );
        assert_eq!(
            Record::DepForgotten { txn: TxnId(1) }.to_string(),
            "dep T1 forgotten"
        );
        assert_eq!(Record::Epoch { epoch: 3 }.to_string(), "epoch 3");
    }

    #[test]
    fn paxos_record_display() {
        assert_eq!(
            Record::PaxosVote {
                txn: TxnId(5),
                part: 1,
                parts: vec![0, 1],
                prepared: true,
            }
            .to_string(),
            "paxos vote T5 part=s1 parts=2 prepared"
        );
        assert_eq!(
            Record::PaxosVote {
                txn: TxnId(5),
                part: 0,
                parts: vec![0],
                prepared: false,
            }
            .to_string(),
            "paxos vote T5 part=s0 parts=1 abort"
        );
        assert_eq!(
            Record::PaxosPromise {
                txn: TxnId(5),
                ballot: 65538,
            }
            .to_string(),
            "paxos promise T5 ballot=65538"
        );
        assert_eq!(
            Record::PaxosAccept {
                txn: TxnId(5),
                ballot: 65538,
                completed: true,
            }
            .to_string(),
            "paxos accept T5 ballot=65538 = complete"
        );
        assert_eq!(
            Record::PaxosForgotten { txn: TxnId(5) }.to_string(),
            "paxos T5 forgotten"
        );
    }
}
