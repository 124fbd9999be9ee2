//! Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"):
//! the non-blocking fourth protocol variant.
//!
//! Every site doubles as an *acceptor*. A participant's prepared vote is the
//! ballot-0 phase-2a message of that participant's own Paxos instance,
//! broadcast to all acceptors; each acceptor durably accepts the vote and
//! acknowledges it to the transaction's coordinator, which announces
//! *complete* once **every** participant's instance has a majority of
//! acceptances. Because the vote carries the full participant set, any
//! acceptor holding any vote doubles as the registrar: a takeover leader
//! that sees one vote knows exactly which participants must all be prepared.
//!
//! When a participant's wait phase (or the coordinator's ready window) times
//! out, the site becomes a *takeover leader*: it runs phase 1 at a ballot
//! `((epoch + 1) << 16) | site` — unique per site incarnation, so retries
//! are idempotent and the model checker's state space stays finite — over a
//! single *verdict* instance. A majority of phase-1b replies lets the leader
//! pick safely:
//!
//! * any previously accepted verdict (highest ballot) must be re-proposed;
//! * otherwise, commit iff every registered participant's prepared vote is
//!   visible in the union of the majority's replies — an invisible vote can
//!   never reach majority acceptance once a majority has promised, so
//!   proposing abort is safe; zero visible votes means zero registrars, so
//!   no coordinator can ever have committed, and abort is again safe.
//!
//! Durability discipline: an acceptor logs **and syncs** every vote,
//! promise, and acceptance *before* replying. An acceptor that acknowledged
//! state and then forgot it in a crash would let a ballot-0 commit and a
//! higher-ballot abort each assemble a "majority" the other cannot see.
//! Symmetrically, acceptor state for a transaction is pruned
//! ([`pv_store::SiteStore::pc_forget`]) only after the decision itself is
//! durable at that acceptor, so a post-crash phase-1a is answered by the
//! outcome, never by an empty promise.
//!
//! Unlike the polyvalue protocol this variant never installs polyvalues and
//! never blocks while a majority of acceptors is reachable — exactly the
//! trade-off the four-way shootout in `pv-bench` measures.

use crate::config::CommitProtocol;
use crate::coordinator::CoordPhase;
use crate::machine::{site_node, Emit, SiteMachine};
use crate::messages::{AbortReason, Msg, TxnResult};
use crate::participant::{transition, PartAction, PartEvent, PartPhase};
use crate::timer::TimerKey;
use pv_core::{Entry, ItemId, TxnId, Value};
use pv_simnet::TraceEvent;
use pv_store::{SiteId, SiteStore};
use std::collections::{BTreeMap, BTreeSet};

/// What one acceptor reported in phase 1b.
#[derive(Debug, Clone)]
pub(crate) struct Phase1Info {
    pub(crate) votes: Vec<(SiteId, bool)>,
    pub(crate) parts: Vec<SiteId>,
    pub(crate) accepted: Option<(u64, bool)>,
}

/// A takeover this site is leading for one stalled transaction.
#[derive(Debug, Clone)]
pub(crate) struct Takeover {
    pub(crate) ballot: u64,
    /// Phase-1b replies, by acceptor.
    pub(crate) promises: BTreeMap<SiteId, Phase1Info>,
    /// The verdict proposed in phase 2, once phase 1 completed.
    pub(crate) verdict: Option<bool>,
    /// Phase-2b acceptances, by acceptor.
    pub(crate) accepts: BTreeSet<SiteId>,
}

/// Volatile Paxos Commit leader state: the takeovers this site is driving.
/// Durable acceptor state lives in the store ([`pv_store::PaxosState`]); a
/// crash wipes this and the stalled transaction simply times out again.
#[derive(Debug, Clone, Default)]
pub struct Paxos {
    pub(crate) takeovers: BTreeMap<TxnId, Takeover>,
}

impl SiteMachine {
    /// The acceptor group size and the majority threshold.
    fn quorum(&self) -> (u32, usize) {
        let n = self.directory.sites();
        (n, (n / 2 + 1) as usize)
    }

    /// Routes a Paxos Commit message: remote destinations get a network
    /// send; the local site applies it synchronously by direct call.
    /// Co-located roles — participant-as-acceptor, coordinator-as-acceptor,
    /// takeover-leader-as-acceptor — exchange no messages, exactly the
    /// co-location argument of the Paxos Commit paper. Beyond saving real
    /// message cost, this spares the model checker one delivery choice
    /// point per self-hop, which shrinks the interleaving space
    /// combinatorially.
    pub(crate) fn pc_cast(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        to: SiteId,
        msg: Msg,
    ) {
        if to != self.id {
            em.send(site_node(to), msg);
            return;
        }
        let from = self.id;
        match msg {
            Msg::PcPrepare { txn, writes, parts } => {
                self.on_pc_prepare(em, store, from, txn, writes, parts)
            }
            Msg::PcVote {
                txn,
                part,
                parts,
                prepared,
            } => self.on_pc_vote(em, store, from, txn, part, parts, prepared),
            Msg::PcVoteAck {
                txn,
                part,
                acceptor,
                prepared,
            } => self.on_pc_vote_ack(em, store, txn, part, acceptor, prepared),
            Msg::PcPhase1a { txn, ballot } => self.on_pc_phase1a(em, store, from, txn, ballot),
            Msg::PcPhase1b {
                txn,
                ballot,
                acceptor,
                votes,
                parts,
                accepted,
            } => self.on_pc_phase1b(em, store, txn, ballot, acceptor, votes, parts, accepted),
            Msg::PcPhase2a {
                txn,
                ballot,
                completed,
            } => self.on_pc_phase2a(em, store, from, txn, ballot, completed),
            Msg::PcPhase2b {
                txn,
                ballot,
                acceptor,
                completed,
            } => self.on_pc_phase2b(em, store, txn, ballot, acceptor, completed),
            Msg::Decision { txn, completed } => self.on_decision(em, store, txn, completed),
            Msg::OutcomeNotify { txn, completed } => {
                self.on_outcome_notify(em, store, txn, completed)
            }
            Msg::PrepareNack { txn } => self.finish_abort(em, store, txn, AbortReason::LockConflict),
            _ => debug_assert!(false, "message kind never self-addressed under Paxos Commit"),
        }
    }

    /// Coordinator → participant prepare under Paxos Commit: stage the
    /// writes, then broadcast the ballot-0 vote to every acceptor. Mirrors
    /// `on_prepare` except the readiness signal is the vote itself.
    pub(crate) fn on_pc_prepare(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        writes: Vec<(ItemId, Entry<Value>)>,
        parts: Vec<SiteId>,
    ) {
        let (n, _) = self.quorum();
        let Some(part) = self.participant.parts.get_mut(&txn) else {
            // No live read lease (crash, revocation): refuse. The nacker has
            // not voted and never will — its vote happens only after staging
            // — so the coordinator's abort cannot contradict a takeover.
            self.pc_cast(em, store, from, Msg::PrepareNack { txn });
            return;
        };
        if part.staged && store.pending(txn).is_some() {
            // Duplicate prepare: re-broadcast the identical vote (acceptors
            // fold it idempotently).
            let me = self.id;
            for site in 0..n {
                self.pc_cast(
                    em,
                    store,
                    site,
                    Msg::PcVote {
                        txn,
                        part: me,
                        parts: parts.clone(),
                        prepared: true,
                    },
                );
            }
            return;
        }
        // Figure 1 still governs the participant's phase: idle → compute →
        // wait. The table's send-ready action materialises as the vote
        // broadcast rather than a point-to-point Ready.
        let (phase, action) = transition(part.phase, PartEvent::Begin)
            .expect("Figure 1 defines begin in the idle state");
        debug_assert_eq!(action, PartAction::None);
        let (phase, action) = transition(phase, PartEvent::ComputeDone)
            .expect("Figure 1 defines compute-done in the compute state");
        debug_assert_eq!(phase, PartPhase::Wait);
        debug_assert_eq!(action, PartAction::SendReady);
        part.phase = phase;
        part.staged = true;
        store.stage(txn, from, writes);
        em.trace(TraceEvent::Prepared {
            txn: txn.raw(),
            site: self.id,
        });
        em.arm(self.config.wait_timeout, TimerKey::PartWait(txn));
        let me = self.id;
        for site in 0..n {
            self.pc_cast(
                em,
                store,
                site,
                Msg::PcVote {
                    txn,
                    part: me,
                    parts: parts.clone(),
                    prepared: true,
                },
            );
        }
    }

    /// Acceptor: a participant's ballot-0 vote arrived.
    ///
    /// Recording acceptor state deliberately does *not* arm the inquiry
    /// tick: takeover entry is owned by the `PartWait` / `ReadyWait`
    /// timeouts on the healthy path and by [`SiteMachine::on_recovered`]
    /// after a crash. Arming it here would make "suspect the coordinator"
    /// an enabled transition at every acceptor after every message, which
    /// multiplies the model checker's state space without adding a
    /// liveness path those timers do not already provide.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_pc_vote(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        part: SiteId,
        parts: Vec<SiteId>,
        prepared: bool,
    ) {
        if let Some(completed) = store.decision_of(txn) {
            self.pc_cast(em, store, from, Msg::OutcomeNotify { txn, completed });
            return;
        }
        let known = store.pc_state(txn);
        if known.is_some_and(|st| st.promised > 0) {
            // A takeover is under way at a higher ballot: late ballot-0
            // votes are refused so they can never assemble a majority the
            // leader did not see. The voter learns the outcome through the
            // takeover's Decision broadcast.
            return;
        }
        if known.is_none_or(|st| st.votes.get(&part) != Some(&prepared)) {
            store.pc_record_vote(txn, part, parts, prepared);
        }
        // Durable (possibly already): acknowledge to the coordinator.
        let me = self.id;
        self.pc_cast(
            em,
            store,
            crate::ids::coordinator_of(txn),
            Msg::PcVoteAck {
                txn,
                part,
                acceptor: me,
                prepared,
            },
        );
    }

    /// Coordinator: an acceptor acknowledged a participant's vote.
    pub(crate) fn on_pc_vote_ack(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        part: SiteId,
        acceptor: SiteId,
        prepared: bool,
    ) {
        let (n, majority) = self.quorum();
        let Some(coord) = self.coordinator.coords.get_mut(&txn) else {
            return;
        };
        if coord.phase != CoordPhase::Preparing {
            return;
        }
        if !prepared {
            // An abort vote sinks the transaction outright. (Participants
            // currently refuse via PrepareNack instead, so this is belt and
            // braces for future vote semantics.)
            self.finish_abort(em, store, txn, AbortReason::LockConflict);
            return;
        }
        coord.acks.entry(part).or_default().insert(acceptor);
        let complete = coord
            .write_sites
            .iter()
            .all(|p| coord.acks.get(p).is_some_and(|s| s.len() >= majority));
        if !complete {
            return;
        }
        if store.decision_of(txn).is_some() {
            // A takeover (possibly our own, after a ready timeout) already
            // decided; its Decision broadcast will resolve the client.
            return;
        }
        store.record_decision(txn, true);
        let coord = self.coordinator.coords.remove(&txn).expect("checked above");
        self.note_decided(em, txn, &coord, true);
        self.paxos.takeovers.remove(&txn);
        for site in 0..n {
            self.pc_cast(
                em,
                store,
                site,
                Msg::Decision {
                    txn,
                    completed: true,
                },
            );
        }
        let result = coord.pending_result.expect("set when preparing");
        self.note_commit_metrics(em, &result);
        self.deliver_result(em, coord.client, coord.req_id, result);
    }

    /// Becomes takeover leader for a stalled transaction: phase 1a at this
    /// site's fixed ballot, broadcast to every acceptor. Re-driven by the
    /// inquiry tick until a decision lands.
    pub(crate) fn start_takeover(&mut self, em: &mut Emit<'_>, store: &mut SiteStore, txn: TxnId) {
        if store.decision_of(txn).is_some() || self.paxos.takeovers.contains_key(&txn) {
            return;
        }
        // Round: above both this incarnation's epoch and any round this
        // site's own acceptor already promised — so a takeover started after
        // a dead leader's higher ballot swept through still gets its own
        // acceptor's promise. Fixed per (site incarnation, transaction):
        // at most one ballot is ever minted per takeover entry, keeping the
        // explorer's state space finite (no escalation duels).
        let promised_round = store.pc_state(txn).map_or(0, |st| st.promised >> 16);
        let round = promised_round.max(u64::from(store.epoch())) + 1;
        let ballot = (round << 16) | u64::from(self.id);
        em.inc("pc.takeovers");
        em.trace(TraceEvent::PcTakeover {
            txn: txn.raw(),
            site: self.id,
            ballot,
        });
        self.paxos.takeovers.insert(
            txn,
            Takeover {
                ballot,
                promises: BTreeMap::new(),
                verdict: None,
                accepts: BTreeSet::new(),
            },
        );
        for site in 0..self.directory.sites() {
            self.pc_cast(em, store, site, Msg::PcPhase1a { txn, ballot });
        }
        self.ensure_inquire(em);
    }

    /// Acceptor: a takeover leader's phase 1a.
    pub(crate) fn on_pc_phase1a(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        ballot: u64,
    ) {
        if let Some(completed) = store.decision_of(txn) {
            self.pc_cast(em, store, from, Msg::OutcomeNotify { txn, completed });
            return;
        }
        let promised = store.pc_state(txn).map_or(0, |st| st.promised);
        if ballot < promised {
            return; // stale leader; its inquiry tick will learn the outcome
        }
        if ballot > promised {
            store.pc_promise(txn, ballot);
        }
        let st = store.pc_state(txn);
        let reply = Msg::PcPhase1b {
            txn,
            ballot,
            acceptor: self.id,
            votes: st.map_or_else(Vec::new, |s| {
                s.votes.iter().map(|(&p, &v)| (p, v)).collect()
            }),
            parts: st.map_or_else(Vec::new, |s| s.parts.clone()),
            accepted: st.and_then(|s| s.accepted),
        };
        self.pc_cast(em, store, from, reply);
    }

    /// Leader: an acceptor's phase 1b. On a majority, pick the verdict and
    /// broadcast phase 2a.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_pc_phase1b(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        ballot: u64,
        acceptor: SiteId,
        votes: Vec<(SiteId, bool)>,
        parts: Vec<SiteId>,
        accepted: Option<(u64, bool)>,
    ) {
        let (n, majority) = self.quorum();
        let Some(t) = self.paxos.takeovers.get_mut(&txn) else {
            return;
        };
        if t.ballot != ballot || t.verdict.is_some() {
            return;
        }
        t.promises.insert(
            acceptor,
            Phase1Info {
                votes,
                parts,
                accepted,
            },
        );
        if t.promises.len() < majority {
            return;
        }
        // A previously accepted verdict (highest ballot wins) must be
        // re-proposed; otherwise decide from the union of visible votes.
        let mut best: Option<(u64, bool)> = None;
        for info in t.promises.values() {
            if let Some((b, v)) = info.accepted {
                if best.is_none_or(|(bb, _)| bb <= b) {
                    best = Some((b, v));
                }
            }
        }
        let verdict = match best {
            Some((_, v)) => v,
            None => {
                let mut all_parts: BTreeSet<SiteId> = BTreeSet::new();
                let mut vote_of: BTreeMap<SiteId, bool> = BTreeMap::new();
                for info in t.promises.values() {
                    all_parts.extend(info.parts.iter().copied());
                    for &(p, v) in &info.votes {
                        vote_of.insert(p, v);
                    }
                }
                // Zero visible votes ⇒ zero registrars ⇒ nobody could have
                // committed ⇒ abort is safe (and the only liveness-preserving
                // choice when the coordinator died pre-prepare).
                !all_parts.is_empty() && all_parts.iter().all(|p| vote_of.get(p) == Some(&true))
            }
        };
        t.verdict = Some(verdict);
        for site in 0..n {
            self.pc_cast(
                em,
                store,
                site,
                Msg::PcPhase2a {
                    txn,
                    ballot,
                    completed: verdict,
                },
            );
        }
    }

    /// Acceptor: a takeover leader's phase 2a.
    pub(crate) fn on_pc_phase2a(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        ballot: u64,
        completed: bool,
    ) {
        if let Some(known) = store.decision_of(txn) {
            self.pc_cast(
                em,
                store,
                from,
                Msg::OutcomeNotify {
                    txn,
                    completed: known,
                },
            );
            return;
        }
        let st = store.pc_state(txn);
        if ballot < st.map_or(0, |s| s.promised) {
            return;
        }
        if st.and_then(|s| s.accepted) != Some((ballot, completed)) {
            store.pc_accept(txn, ballot, completed);
        }
        let me = self.id;
        self.pc_cast(
            em,
            store,
            from,
            Msg::PcPhase2b {
                txn,
                ballot,
                acceptor: me,
                completed,
            },
        );
    }

    /// Leader: an acceptor's phase 2b. A majority chooses the verdict; the
    /// leader makes it durable and broadcasts the plain `Decision`.
    pub(crate) fn on_pc_phase2b(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        ballot: u64,
        acceptor: SiteId,
        completed: bool,
    ) {
        let (n, majority) = self.quorum();
        let Some(t) = self.paxos.takeovers.get_mut(&txn) else {
            return;
        };
        if t.ballot != ballot || t.verdict != Some(completed) {
            return;
        }
        t.accepts.insert(acceptor);
        if t.accepts.len() < majority {
            return;
        }
        self.paxos.takeovers.remove(&txn);
        em.inc("pc.takeover.decided");
        if store.decision_of(txn).is_none() {
            store.record_decision(txn, completed);
            em.trace(TraceEvent::Decided {
                txn: txn.raw(),
                completed,
            });
        }
        for site in 0..n {
            self.pc_cast(em, store, site, Msg::Decision { txn, completed });
        }
    }

    /// Every Paxos Commit site durably adopts a learned decision: records it
    /// (so late votes and phase messages are answered by the outcome), prunes
    /// the acceptor state — safe only *after* the decision is durable — drops
    /// any takeover, and resolves this site's own coordinator state if the
    /// decision arrived from a takeover leader. No-op under other protocols.
    pub(crate) fn pc_learn_decision(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        completed: bool,
    ) {
        if !matches!(self.config.protocol, CommitProtocol::PaxosCommit) {
            return;
        }
        let was_unknown = store.decision_of(txn).is_none();
        if was_unknown {
            store.record_decision(txn, completed);
        }
        store.pc_forget(txn);
        if self.paxos.takeovers.remove(&txn).is_some() && was_unknown {
            // This site was contending for the verdict because it was in
            // doubt; learning the outcome closes that uncertainty window.
            em.trace(TraceEvent::OutcomeLearned {
                txn: txn.raw(),
                site: self.id,
                completed,
            });
        }
        if let Some(coord) = self.coordinator.coords.remove(&txn) {
            // A takeover decided a transaction we were still coordinating:
            // adopt its verdict and answer the client.
            self.note_decided(em, txn, &coord, completed);
            if completed {
                if let Some(result) = coord.pending_result {
                    self.note_commit_metrics(em, &result);
                    self.deliver_result(em, coord.client, coord.req_id, result);
                }
            } else {
                em.inc("txn.aborted.timeout");
                em.send(
                    coord.client,
                    Msg::Reply {
                        req_id: coord.req_id,
                        result: TxnResult::Aborted {
                            reason: AbortReason::Timeout,
                        },
                    },
                );
            }
        }
    }

    /// Re-drives stalled takeovers from the inquiry tick: phase 1a to
    /// acceptors that have not promised, or phase 2a to those that have not
    /// accepted. Identical re-sends are idempotent at the acceptors.
    pub(crate) fn redrive_takeovers(&mut self, em: &mut Emit<'_>, store: &mut SiteStore) {
        let n = self.directory.sites();
        // Collect first: a self-addressed re-send is applied inline by
        // `pc_cast` and may mutate the takeover table mid-iteration.
        let mut sends: Vec<(SiteId, Msg)> = Vec::new();
        for (&txn, t) in &self.paxos.takeovers {
            match t.verdict {
                Some(completed) => {
                    for site in (0..n).filter(|s| !t.accepts.contains(s)) {
                        sends.push((
                            site,
                            Msg::PcPhase2a {
                                txn,
                                ballot: t.ballot,
                                completed,
                            },
                        ));
                    }
                }
                None => {
                    for site in (0..n).filter(|s| !t.promises.contains_key(s)) {
                        sends.push((
                            site,
                            Msg::PcPhase1a {
                                txn,
                                ballot: t.ballot,
                            },
                        ));
                    }
                }
            }
        }
        for (site, msg) in sends {
            self.pc_cast(em, store, site, msg);
        }
    }
}
