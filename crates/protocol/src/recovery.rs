//! The §3.3 recovery manager: inquiries, outcome learning, and polyvalue
//! collapse.

use crate::config::CommitProtocol;
use crate::machine::{site_node, Emit, SiteMachine};
use crate::messages::Msg;
use crate::participant::{Part, PartPhase};
use crate::timer::TimerKey;
use pv_core::{ItemId, TxnId};
use pv_simnet::{SimTime, TraceEvent};
use pv_store::SiteStore;
use std::collections::{BTreeMap, BTreeSet};

/// Recovery-role state: the inquiry tick and the polyvalue-lifetime ledger.
#[derive(Debug, Clone, Default)]
pub struct RecoveryManager {
    /// Whether an inquiry tick is currently armed (at most one at a time).
    pub(crate) inquire_armed: bool,
    /// When this site installed polyvalues for an in-doubt transaction
    /// (volatile; feeds the install→collapse lifetime histogram).
    pub(crate) poly_installed_at: BTreeMap<TxnId, SimTime>,
}

impl RecoveryManager {
    /// Transactions whose polyvalues this site installed and has not yet
    /// seen resolve.
    pub fn unresolved(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.poly_installed_at.keys().copied()
    }
}

impl SiteMachine {
    /// Common path for Decision and OutcomeNotify: apply the outcome to the
    /// store, forward along the §3.3 `sent_to` list, and account for any
    /// unilateral relaxed action.
    pub(crate) fn learn_outcome(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        completed: bool,
    ) {
        // Release withheld replies whose uncertainty this outcome resolves.
        if !self.coordinator.withheld.is_empty() {
            let mut still_withheld = Vec::with_capacity(self.coordinator.withheld.len());
            for (client, req_id, result) in std::mem::take(&mut self.coordinator.withheld) {
                let reduced = result.reduce(txn, completed);
                if reduced.has_uncertain_output() {
                    still_withheld.push((client, req_id, reduced));
                } else {
                    em.inc("txn.withheld_released");
                    em.send(
                        client,
                        Msg::Reply {
                            req_id,
                            result: reduced,
                        },
                    );
                }
            }
            self.coordinator.withheld = still_withheld;
        }
        if let Some(action) = self.participant.relaxed_actions.remove(&txn) {
            if action != completed {
                em.inc("relaxed.violations");
            }
        }
        // A formerly in-doubt transaction resolving closes the uncertainty
        // window here: its polyvalues collapse and the lifetime is recorded.
        if let Some(installed_at) = self.recovery.poly_installed_at.remove(&txn) {
            let lifetime = em.now.since(installed_at);
            em.trace(TraceEvent::OutcomeLearned {
                txn: txn.raw(),
                site: self.id,
                completed,
            });
            em.observe("poly.lifetime", lifetime.as_secs_f64());
            em.trace(TraceEvent::PolyvalueCollapsed {
                txn: txn.raw(),
                site: self.id,
                lifetime_us: lifetime.as_micros(),
            });
        }
        let dep = store.apply_decision(txn, completed);
        for site in dep.sent_to {
            if site != self.id {
                em.inc("outcome.forwarded");
                em.trace(TraceEvent::OutcomeForwarded {
                    txn: txn.raw(),
                    site: self.id,
                    to: site,
                });
                em.send(site_node(site), Msg::OutcomeNotify { txn, completed });
            }
        }
        store.maybe_compact();
    }

    pub(crate) fn on_inquire_tick(&mut self, em: &mut Emit<'_>, store: &mut SiteStore) {
        self.recovery.inquire_armed = false;
        let mut targets: BTreeSet<TxnId> = BTreeSet::new();
        targets.extend(store.tracked_txns());
        targets.extend(store.pending_txns());
        targets.extend(self.participant.relaxed_actions.keys().copied());
        for (_, _, result) in &self.coordinator.withheld {
            targets.extend(result.deps());
        }
        if matches!(self.config.protocol, CommitProtocol::PaxosCommit) {
            // Stranded acceptor state (votes or promises whose decision this
            // site never learned — e.g. it was down during the broadcast)
            // cannot rely on the coordinator: a recovered coordinator has no
            // memory and, under Paxos Commit, may not presume abort. Any
            // acceptor can safely force the verdict itself, so take over
            // rather than inquire; stalled takeovers are re-driven.
            for txn in store.pc_txns() {
                if store.decision_of(txn).is_none() {
                    targets.remove(&txn);
                    self.start_takeover(em, store, txn);
                }
            }
            self.redrive_takeovers(em, store);
            if !self.paxos.takeovers.is_empty() {
                self.ensure_inquire(em);
            }
        }
        if targets.is_empty() {
            return;
        }
        for txn in targets {
            em.inc("inquire.sent");
            em.send(
                site_node(crate::ids::coordinator_of(txn)),
                Msg::Inquire { txn },
            );
        }
        self.ensure_inquire(em);
    }

    pub(crate) fn on_inquire(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: pv_store::SiteId,
        txn: TxnId,
    ) {
        let completed = match store.decision_of(txn) {
            Some(o) => o,
            None => {
                if self.coordinator.coords.contains_key(&txn) {
                    return; // still deciding; the asker will retry
                }
                if matches!(self.config.protocol, CommitProtocol::PaxosCommit) {
                    // Presumed abort is unsound here: a takeover may commit
                    // from the acceptors' durable votes without this
                    // (possibly amnesiac) coordinator ever knowing. Stay
                    // silent; the asker's own takeover forces the verdict.
                    return;
                }
                // Presumed abort: no durable completion was recorded.
                store.record_decision(txn, false);
                false
            }
        };
        em.send(site_node(from), Msg::OutcomeNotify { txn, completed });
    }

    pub(crate) fn on_outcome_notify(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        completed: bool,
    ) {
        // A blocked (or still-waiting) participant is released by the news.
        if self.participant.parts.remove(&txn).is_some() {
            self.participant.locks.release_all(txn);
        }
        self.pc_learn_decision(em, store, txn, completed);
        self.learn_outcome(em, store, txn, completed);
        self.drain_read_queue(em, store);
    }

    /// Post-crash recovery: fresh epoch, re-acquired locks for staged
    /// wait-phase transactions, and re-armed timers. The driver must have
    /// crash-recovered the store and called [`SiteMachine::crash`] first.
    pub(crate) fn on_recovered(&mut self, em: &mut Emit<'_>, store: &mut SiteStore) {
        // Fresh epoch so new transaction ids cannot collide with pre-crash
        // ones; fresh counter within the epoch.
        store.bump_epoch();
        self.coordinator.txn_counter = 0;
        // Staged wait-phase transactions survived in the WAL: re-acquire
        // their write locks and resume waiting per Figure 1.
        for txn in store.pending_txns() {
            let writes: Vec<ItemId> = store
                .pending(txn)
                .expect("listed as pending")
                .writes
                .iter()
                .map(|(item, _)| *item)
                .collect();
            for item in writes {
                let ok = self.participant.locks.try_write(txn, item);
                debug_assert!(ok, "locks are free right after recovery");
            }
            let coordinator = store.pending(txn).expect("listed as pending").coordinator;
            self.participant.parts.insert(
                txn,
                Part {
                    staged: true,
                    coordinator,
                    ts: 0,
                    phase: PartPhase::Wait,
                },
            );
            em.arm(self.config.wait_timeout, TimerKey::PartWait(txn));
        }
        // Unilateral relaxed actions from before the crash still await
        // their outcomes (the ledger survives a crash).
        if store.has_tracked_txns()
            || !store.pending_txns().is_empty()
            || !store.pc_txns().is_empty()
            || !self.participant.relaxed_actions.is_empty()
        {
            self.ensure_inquire(em);
        }
    }
}
