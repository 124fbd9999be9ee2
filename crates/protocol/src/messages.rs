//! Protocol messages exchanged between sites and clients.

use pv_core::{Entry, ItemId, TransactionSpec, TxnId, Value};
use pv_store::wire_table;
use std::fmt;

/// Whether an item is read or written by a transaction at a site, which
/// determines the lock acquired when the coordinator fetches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read-only access (shared lock).
    Read,
    /// Read/write access (exclusive lock).
    Write,
}

wire_table! {
    enum AccessMode {
        0 => Read,
        1 => Write,
    }
}

/// Why a transaction aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// A lock could not be acquired (no-wait conflict); worth retrying.
    LockConflict,
    /// The coordinator timed out waiting for a site.
    Timeout,
    /// The transaction's expressions failed to evaluate (type error, missing
    /// item, arithmetic fault).
    Eval(String),
    /// The static checks rejected the transaction at submit time (the
    /// `EngineConfig::static_checks` gate); not worth retrying — the spec
    /// itself is wrong. Carries the rendered diagnostics.
    Rejected(String),
}

wire_table! {
    enum AbortReason {
        0 => LockConflict,
        1 => Timeout,
        2 => Eval(error),
        3 => Rejected(report),
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::LockConflict => write!(f, "lock conflict"),
            AbortReason::Timeout => write!(f, "timeout"),
            AbortReason::Eval(e) => write!(f, "evaluation error: {e}"),
            AbortReason::Rejected(report) => write!(f, "rejected by static checks: {report}"),
        }
    }
}

/// The result of a transaction as reported to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnResult {
    /// The transaction completed.
    Committed {
        /// Collated guard decision: `Bool(true)` when every alternative
        /// granted, a polyvalue when the decision itself is uncertain (§3.4).
        granted: Entry<Value>,
        /// Collated named outputs; polyvalued outputs reflect database
        /// uncertainty per §3.4.
        outputs: Vec<(String, Entry<Value>)>,
        /// Whether the transaction executed as a polytransaction.
        was_poly: bool,
    },
    /// The transaction aborted without effect.
    Aborted {
        /// Why it aborted.
        reason: AbortReason,
    },
}

wire_table! {
    enum TxnResult {
        0 => Committed { granted, outputs, was_poly },
        1 => Aborted { reason },
    }
}

impl TxnResult {
    /// Whether this result is a commit.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnResult::Committed { .. })
    }

    /// Whether the commit granted its guard in every alternative.
    pub fn fully_granted(&self) -> bool {
        matches!(
            self,
            TxnResult::Committed {
                granted: Entry::Simple(Value::Bool(true)),
                ..
            }
        )
    }

    /// Whether any output (or the guard) is uncertain.
    pub fn has_uncertain_output(&self) -> bool {
        match self {
            TxnResult::Committed {
                granted, outputs, ..
            } => granted.is_poly() || outputs.iter().any(|(_, e)| e.is_poly()),
            TxnResult::Aborted { .. } => false,
        }
    }

    /// The in-doubt transactions this result's outputs depend on.
    pub fn deps(&self) -> std::collections::BTreeSet<pv_core::TxnId> {
        match self {
            TxnResult::Committed {
                granted, outputs, ..
            } => {
                let mut deps = granted.deps();
                for (_, e) in outputs {
                    deps.extend(e.deps());
                }
                deps
            }
            TxnResult::Aborted { .. } => std::collections::BTreeSet::new(),
        }
    }

    /// Substitutes a learned outcome into every output entry (the §3.4
    /// withhold policy applies this until nothing uncertain remains).
    pub fn reduce(&self, txn: pv_core::TxnId, completed: bool) -> TxnResult {
        match self {
            TxnResult::Committed {
                granted,
                outputs,
                was_poly,
            } => TxnResult::Committed {
                granted: granted.assign_outcome(txn, completed),
                outputs: outputs
                    .iter()
                    .map(|(name, e)| (name.clone(), e.assign_outcome(txn, completed)))
                    .collect(),
                was_poly: *was_poly,
            },
            aborted => aborted.clone(),
        }
    }
}

/// Messages of the distributed commit protocol.
///
/// `Submit`/`Reply` connect clients to coordinators; `ReadReq` through
/// `Decision` are the two-phase protocol of §3.1; `Inquire`/`OutcomeNotify`
/// implement the failure-recovery outcome propagation of §3.3.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → coordinator: run this transaction.
    Submit {
        /// Client-chosen request identifier, echoed in the reply.
        req_id: u64,
        /// The transaction to run.
        spec: TransactionSpec,
    },
    /// Coordinator → client: the transaction's result.
    Reply {
        /// Echo of the request id.
        req_id: u64,
        /// The outcome.
        result: TxnResult,
    },
    /// Coordinator → participant: lock and return these items' entries.
    ReadReq {
        /// The requesting transaction.
        txn: TxnId,
        /// The transaction's start timestamp (microseconds of virtual time),
        /// used by the wound-wait lock policy to order transactions by age.
        ts: u64,
        /// Items this site holds, with the lock mode each needs.
        items: Vec<(ItemId, AccessMode)>,
    },
    /// Participant → coordinator: current entries (locks granted).
    ReadResp {
        /// The transaction.
        txn: TxnId,
        /// The requested entries.
        entries: Vec<(ItemId, Entry<Value>)>,
    },
    /// Participant → coordinator: lock conflict; abort and retry.
    ReadNack {
        /// The transaction.
        txn: TxnId,
    },
    /// Coordinator → participant: stage these computed writes (compute phase
    /// result shipping).
    Prepare {
        /// The transaction.
        txn: TxnId,
        /// Computed new entries for items this site holds.
        writes: Vec<(ItemId, Entry<Value>)>,
    },
    /// Participant → coordinator: writes staged durably; in wait phase.
    Ready {
        /// The transaction.
        txn: TxnId,
    },
    /// Participant → coordinator: cannot stage (unknown lease or conflict).
    PrepareNack {
        /// The transaction.
        txn: TxnId,
    },
    /// Coordinator → participants: the transaction's outcome.
    Decision {
        /// The transaction.
        txn: TxnId,
        /// `true` = complete, `false` = abort.
        completed: bool,
    },
    /// Any site → coordinator of `txn`: what was the outcome?
    Inquire {
        /// The in-doubt transaction.
        txn: TxnId,
    },
    /// Outcome propagation (§3.3): response to `Inquire` and the
    /// site-to-site forwarding along `sent_to` lists.
    OutcomeNotify {
        /// The resolved transaction.
        txn: TxnId,
        /// Its outcome.
        completed: bool,
    },
    /// Paxos Commit, coordinator → participant: stage these writes and cast
    /// your ballot-0 vote with the acceptors. Replaces `Prepare` under
    /// [`CommitProtocol::PaxosCommit`](crate::CommitProtocol::PaxosCommit);
    /// carries the full participant set so every vote registers it with the
    /// acceptors (the registrar role — a takeover leader may only commit
    /// once it knows which participants must all be prepared).
    PcPrepare {
        /// The transaction.
        txn: TxnId,
        /// Computed new entries for items this site holds.
        writes: Vec<(ItemId, Entry<Value>)>,
        /// Every write site of the transaction (sorted).
        parts: Vec<pv_store::SiteId>,
    },
    /// Paxos Commit, participant → every acceptor: the ballot-0 phase-2a
    /// message for this participant's own Paxos instance. Durably staged
    /// before sending; an acceptor that already promised a higher ballot
    /// rejects it silently.
    PcVote {
        /// The transaction.
        txn: TxnId,
        /// The voting participant site.
        part: pv_store::SiteId,
        /// The registered participant set (copied from `PcPrepare`).
        parts: Vec<pv_store::SiteId>,
        /// `true` = prepared, `false` = the participant votes abort.
        prepared: bool,
    },
    /// Paxos Commit, acceptor → coordinator: the acceptor durably accepted
    /// `part`'s ballot-0 vote. The coordinator announces *complete* once
    /// every participant's instance has a majority of acceptances.
    PcVoteAck {
        /// The transaction.
        txn: TxnId,
        /// The participant whose vote was accepted.
        part: pv_store::SiteId,
        /// The accepting acceptor site.
        acceptor: pv_store::SiteId,
        /// The accepted vote value.
        prepared: bool,
    },
    /// Paxos Commit, takeover leader → every acceptor: phase 1a at `ballot`.
    /// Sent when a participant's wait phase (or the coordinator's ready
    /// window) times out; the ballot is a fixed function of the leader's
    /// site and storage epoch, so retries are idempotent.
    PcPhase1a {
        /// The stalled transaction.
        txn: TxnId,
        /// The leader's ballot (> 0).
        ballot: u64,
    },
    /// Paxos Commit, acceptor → leader: phase 1b — a durable promise not to
    /// accept anything below `ballot`, reporting everything this acceptor
    /// has accepted so far for the transaction.
    PcPhase1b {
        /// The transaction.
        txn: TxnId,
        /// Echo of the promised ballot.
        ballot: u64,
        /// The reporting acceptor site.
        acceptor: pv_store::SiteId,
        /// Ballot-0 votes this acceptor accepted, as `(participant, prepared)`.
        votes: Vec<(pv_store::SiteId, bool)>,
        /// The registered participant set, if any vote carried it.
        parts: Vec<pv_store::SiteId>,
        /// The highest-ballot verdict this acceptor accepted in phase 2, as
        /// `(ballot, completed)`.
        accepted: Option<(u64, bool)>,
    },
    /// Paxos Commit, takeover leader → every acceptor: phase 2a — accept
    /// this verdict at `ballot`.
    PcPhase2a {
        /// The transaction.
        txn: TxnId,
        /// The leader's ballot.
        ballot: u64,
        /// The proposed verdict (`true` = complete).
        completed: bool,
    },
    /// Paxos Commit, acceptor → leader: phase 2b — the verdict was durably
    /// accepted at `ballot`. A majority of these chooses the verdict.
    PcPhase2b {
        /// The transaction.
        txn: TxnId,
        /// Echo of the accepted ballot.
        ballot: u64,
        /// The accepting acceptor site.
        acceptor: pv_store::SiteId,
        /// Echo of the accepted verdict.
        completed: bool,
    },
    /// Client → site: coordination-free read-only transaction. The site
    /// acquires a snapshot sequence number from its MVCC keyspace and reads
    /// every requested item (all of its items when the list is empty) at
    /// that single point in time — no lock table, no staging, no 2PC.
    SnapshotRead {
        /// Client-chosen request identifier, echoed in the reply.
        req_id: u64,
        /// The items to read; empty = scan every item the site holds.
        items: Vec<ItemId>,
    },
    /// Site → client: the snapshot read's consistent point-in-time view.
    SnapshotReadReply {
        /// Echo of the request id.
        req_id: u64,
        /// The snapshot sequence number the view was taken at.
        snapshot: u64,
        /// The entries visible at that snapshot, in item order.
        entries: Vec<(ItemId, Entry<Value>)>,
    },
}

// The wire format of the protocol: each line is a variant's tag byte and its
// fields in byte order. `pv-net` frames these bytes; it adds none of its own.
wire_table! {
    enum Msg {
        0 => Submit { req_id, spec },
        1 => Reply { req_id, result },
        2 => ReadReq { txn, ts, items },
        3 => ReadResp { txn, entries },
        4 => ReadNack { txn },
        5 => Prepare { txn, writes },
        6 => Ready { txn },
        7 => PrepareNack { txn },
        8 => Decision { txn, completed },
        9 => Inquire { txn },
        10 => OutcomeNotify { txn, completed },
        11 => PcPrepare { txn, writes, parts },
        12 => PcVote { txn, part, parts, prepared },
        13 => PcVoteAck { txn, part, acceptor, prepared },
        14 => PcPhase1a { txn, ballot },
        15 => PcPhase1b { txn, ballot, acceptor, votes, parts, accepted },
        16 => PcPhase2a { txn, ballot, completed },
        17 => PcPhase2b { txn, ballot, acceptor, completed },
        18 => SnapshotRead { req_id, items },
        19 => SnapshotReadReply { req_id, snapshot, entries },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::TxnId;

    #[test]
    fn result_predicates() {
        let committed = TxnResult::Committed {
            granted: Entry::Simple(Value::Bool(true)),
            outputs: vec![],
            was_poly: false,
        };
        assert!(committed.is_committed());
        assert!(committed.fully_granted());
        assert!(!committed.has_uncertain_output());

        let denied = TxnResult::Committed {
            granted: Entry::Simple(Value::Bool(false)),
            outputs: vec![],
            was_poly: false,
        };
        assert!(denied.is_committed());
        assert!(!denied.fully_granted());

        let aborted = TxnResult::Aborted {
            reason: AbortReason::Timeout,
        };
        assert!(!aborted.is_committed());
        assert!(!aborted.fully_granted());
        assert!(!aborted.has_uncertain_output());
    }

    #[test]
    fn uncertain_output_detection() {
        let poly = Entry::in_doubt(
            Entry::Simple(Value::Int(1)),
            Entry::Simple(Value::Int(2)),
            TxnId(1),
        );
        let r = TxnResult::Committed {
            granted: Entry::Simple(Value::Bool(true)),
            outputs: vec![("x".into(), poly)],
            was_poly: true,
        };
        assert!(r.has_uncertain_output());
    }

    #[test]
    fn abort_reason_display() {
        assert_eq!(AbortReason::LockConflict.to_string(), "lock conflict");
        assert_eq!(AbortReason::Timeout.to_string(), "timeout");
        assert!(AbortReason::Eval("bad".into()).to_string().contains("bad"));
        let rejected = AbortReason::Rejected("error[PV001] at guard: int vs bool".into());
        assert!(rejected.to_string().contains("PV001"));
    }
}
