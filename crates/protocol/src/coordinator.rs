//! The coordinator role: read phase → evaluate → prepare phase → decision.

use crate::config::{CommitProtocol, UncertainOutputPolicy};
use crate::machine::{site_node, Emit, SiteMachine};
use crate::messages::{AbortReason, Msg, TxnResult};
use crate::timer::TimerKey;
use pv_core::expr::{evaluate, SplitMode};
use pv_core::{Entry, ItemId, TransactionSpec, TxnId, Value};
use pv_simnet::{NodeId, SimTime, TraceEvent};
use pv_store::{SiteId, SiteStore};
use std::collections::{BTreeMap, BTreeSet};

/// The coordinator's phase for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoordPhase {
    Reading,
    Preparing,
}

/// Coordinator-side state for one in-flight transaction (volatile: a
/// coordinator crash aborts the transaction by presumption).
#[derive(Debug, Clone)]
pub(crate) struct Coord {
    pub(crate) client: NodeId,
    pub(crate) req_id: u64,
    pub(crate) spec: TransactionSpec,
    pub(crate) phase: CoordPhase,
    /// The sites asked for reads (only the site set is needed after the
    /// requests go out; keeping the per-site item lists would mean cloning
    /// them once per transaction for no reader).
    pub(crate) read_sites: BTreeSet<SiteId>,
    pub(crate) entries: BTreeMap<ItemId, Entry<Value>>,
    pub(crate) responded: BTreeSet<SiteId>,
    pub(crate) write_sites: BTreeSet<SiteId>,
    pub(crate) readies: BTreeSet<SiteId>,
    /// Paxos Commit only: which acceptors acknowledged each participant's
    /// prepared vote. The transaction completes when every write site's
    /// vote holds a majority of acceptors.
    pub(crate) acks: BTreeMap<SiteId, BTreeSet<SiteId>>,
    pub(crate) pending_result: Option<TxnResult>,
    /// When the client's submit reached this coordinator (phase metrics).
    pub(crate) submitted_at: SimTime,
    /// When the prepare phase began, if it did.
    pub(crate) prepared_at: Option<SimTime>,
}

/// Coordinator-role state: the transactions this site coordinates, the
/// per-epoch id counter, and the §3.4 withheld replies.
#[derive(Debug, Clone, Default)]
pub struct Coordinator {
    pub(crate) coords: BTreeMap<TxnId, Coord>,
    pub(crate) txn_counter: u64,
    /// §3.4 Withhold policy: committed results whose outputs still depend on
    /// in-doubt transactions, waiting for outcomes before replying.
    pub(crate) withheld: Vec<(NodeId, u64, TxnResult)>,
}

impl Coordinator {
    /// Number of transactions currently being coordinated.
    pub fn in_flight(&self) -> usize {
        self.coords.len()
    }
}

impl SiteMachine {
    pub(crate) fn on_submit(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        client: NodeId,
        req_id: u64,
        spec: TransactionSpec,
    ) {
        em.inc("txn.submitted");
        let txn = self.new_txn(store);
        let writes = spec.write_set();
        let mut modes: BTreeMap<ItemId, crate::messages::AccessMode> = BTreeMap::new();
        for item in spec.read_set() {
            modes.insert(item, crate::messages::AccessMode::Read);
        }
        for item in &writes {
            modes.insert(*item, crate::messages::AccessMode::Write);
        }
        // A transaction touching nothing evaluates immediately.
        if modes.is_empty() {
            let empty: BTreeMap<ItemId, Entry<Value>> = BTreeMap::new();
            let result = match evaluate(&spec, &empty, SplitMode::Lazy) {
                Ok(out) => {
                    let outputs = out.collate_outputs().expect("no items, no polyvalues");
                    let granted = out.collate_granted().expect("no items, no polyvalues");
                    em.inc("txn.committed");
                    TxnResult::Committed {
                        granted,
                        outputs,
                        was_poly: false,
                    }
                }
                Err(e) => {
                    em.inc("txn.aborted.eval");
                    TxnResult::Aborted {
                        reason: AbortReason::Eval(e.to_string()),
                    }
                }
            };
            em.send(client, Msg::Reply { req_id, result });
            return;
        }
        // Validate placement before contacting anyone.
        if modes
            .keys()
            .any(|item| self.directory.site_of(*item).is_none())
        {
            em.inc("txn.aborted.eval");
            let result = TxnResult::Aborted {
                reason: AbortReason::Eval("transaction touches an unplaced item".into()),
            };
            em.send(client, Msg::Reply { req_id, result });
            return;
        }
        let groups = self
            .directory
            .group_by_site(modes.iter().map(|(&i, &m)| (i, m)));
        let coord = Coord {
            client,
            req_id,
            spec,
            phase: CoordPhase::Reading,
            read_sites: groups.keys().copied().collect(),
            entries: BTreeMap::new(),
            responded: BTreeSet::new(),
            write_sites: BTreeSet::new(),
            readies: BTreeSet::new(),
            acks: BTreeMap::new(),
            pending_result: None,
            submitted_at: em.now,
            prepared_at: None,
        };
        self.coordinator.coords.insert(txn, coord);
        let ts = em.now.as_micros();
        for (site, items) in groups {
            em.send(site_node(site), Msg::ReadReq { txn, ts, items });
        }
        em.arm(self.config.read_timeout, TimerKey::CoordRead(txn));
    }

    pub(crate) fn on_read_resp(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        entries: Vec<(ItemId, Entry<Value>)>,
    ) {
        let Some(coord) = self.coordinator.coords.get_mut(&txn) else {
            return;
        };
        if coord.phase != CoordPhase::Reading {
            return;
        }
        coord.entries.extend(entries);
        coord.responded.insert(from);
        if coord.responded.len() == coord.read_sites.len() {
            self.evaluate_and_prepare(em, store, txn);
        }
    }

    /// All reads are in: run the (poly)evaluator, then either finish a
    /// write-free transaction or ship computed writes to the write sites.
    pub(crate) fn evaluate_and_prepare(&mut self, em: &mut Emit<'_>, store: &mut SiteStore, txn: TxnId) {
        let Some(coord) = self.coordinator.coords.get_mut(&txn) else {
            return;
        };
        let out = match evaluate(&coord.spec, &coord.entries, SplitMode::Lazy) {
            Ok(out) => out,
            Err(e) => {
                let reason = AbortReason::Eval(e.to_string());
                self.finish_abort(em, store, txn, reason);
                return;
            }
        };
        if out.is_poly() {
            em.inc("txn.polytransactions");
            em.observe("txn.alternatives", out.alts.len() as f64);
            em.trace(TraceEvent::AltSplit {
                txn: txn.raw(),
                alternatives: out.alts.len() as u32,
            });
        }
        let collated = match (
            out.collate_writes(&coord.entries),
            out.collate_outputs(),
            out.collate_granted(),
        ) {
            (Ok(w), Ok(o), Ok(g)) => (w, o, g),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                let reason = AbortReason::Eval(e.to_string());
                self.finish_abort(em, store, txn, reason);
                return;
            }
        };
        let (writes, outputs, granted) = collated;
        let result = TxnResult::Committed {
            granted,
            outputs,
            was_poly: out.is_poly(),
        };
        if writes.is_empty() {
            // Read-only, or denied in every alternative: complete trivially
            // so participants release their read locks.
            store.record_decision(txn, true);
            let coord = self.coordinator.coords.remove(&txn).expect("checked above");
            self.note_decided(em, txn, &coord, true);
            for &site in &coord.read_sites {
                em.send(
                    site_node(site),
                    Msg::Decision {
                        txn,
                        completed: true,
                    },
                );
            }
            self.note_commit_metrics(em, &result);
            self.deliver_result(em, coord.client, coord.req_id, result);
            return;
        }
        // Group the *owned* entries: each write is shipped to exactly one
        // site, so moving them into the per-site groups skips an entry clone
        // per prepared item.
        let groups = self.directory.group_by_site(writes);
        coord.phase = CoordPhase::Preparing;
        coord.write_sites = groups.keys().copied().collect();
        coord.pending_result = Some(result);
        coord.prepared_at = Some(em.now);
        let read_phase = em.now.since(coord.submitted_at).as_secs_f64();
        em.observe("phase.submit_prepared", read_phase);
        // §3.3: record which sites we are sending uncertainty to, so learned
        // outcomes are forwarded to them.
        let mut sent: Vec<(TxnId, SiteId)> = Vec::new();
        for (&site, items) in &groups {
            for (_, entry) in items {
                for dep in entry.deps() {
                    sent.push((dep, site));
                }
            }
        }
        for (dep, site) in sent {
            store.note_sent(dep, site);
            self.ensure_inquire(em);
        }
        if matches!(self.config.protocol, CommitProtocol::PaxosCommit) {
            // Paxos Commit: the prepare carries the full participant set so
            // every vote doubles as a registrar record at the acceptors.
            let parts: Vec<SiteId> = self.coordinator.coords[&txn]
                .write_sites
                .iter()
                .copied()
                .collect();
            for (site, items) in groups {
                self.pc_cast(
                    em,
                    store,
                    site,
                    Msg::PcPrepare {
                        txn,
                        writes: items,
                        parts: parts.clone(),
                    },
                );
            }
        } else {
            for (site, items) in groups {
                em.send(
                    site_node(site),
                    Msg::Prepare {
                        txn,
                        writes: items,
                    },
                );
            }
        }
        em.arm(self.config.ready_timeout, TimerKey::CoordReady(txn));
    }

    pub(crate) fn on_ready(&mut self, em: &mut Emit<'_>, store: &mut SiteStore, from: SiteId, txn: TxnId) {
        let Some(coord) = self.coordinator.coords.get_mut(&txn) else {
            return;
        };
        if coord.phase != CoordPhase::Preparing {
            return;
        }
        coord.readies.insert(from);
        if !coord.readies.is_superset(&coord.write_sites) {
            return;
        }
        // Decide complete, durably, then notify everyone and the client.
        store.record_decision(txn, true);
        let coord = self.coordinator.coords.remove(&txn).expect("checked above");
        self.note_decided(em, txn, &coord, true);
        // Sorted union without building a scratch set per decision.
        for &site in coord.read_sites.union(&coord.write_sites) {
            em.send(
                site_node(site),
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

    /// Sends (or withholds, per §3.4 policy) a committed result to the
    /// client. Withheld results are released by the recovery manager's
    /// `learn_outcome` once every output is certain; they are volatile, so a
    /// coordinator crash surfaces to the client as a response timeout.
    pub(crate) fn deliver_result(
        &mut self,
        em: &mut Emit<'_>,
        client: NodeId,
        req_id: u64,
        result: TxnResult,
    ) {
        if self.config.uncertain_outputs == UncertainOutputPolicy::Withhold
            && result.has_uncertain_output()
        {
            em.inc("txn.withheld");
            self.coordinator.withheld.push((client, req_id, result));
            self.ensure_inquire(em);
            return;
        }
        em.send(client, Msg::Reply { req_id, result });
    }

    /// Records a coordinator decision in the trace and the phase-latency
    /// histograms (submit→decided always; prepared→decided when the prepare
    /// phase was reached).
    pub(crate) fn note_decided(&self, em: &mut Emit<'_>, txn: TxnId, coord: &Coord, completed: bool) {
        em.trace(TraceEvent::Decided {
            txn: txn.raw(),
            completed,
        });
        let total = em.now.since(coord.submitted_at).as_secs_f64();
        em.observe("phase.submit_decided", total);
        if let Some(prepared_at) = coord.prepared_at {
            let vote_phase = em.now.since(prepared_at).as_secs_f64();
            em.observe("phase.prepared_decided", vote_phase);
        }
        em.inc(decided_counter(self.config.protocol, completed));
    }

    pub(crate) fn note_commit_metrics(&self, em: &mut Emit<'_>, result: &TxnResult) {
        em.inc("txn.committed");
        if result.has_uncertain_output() {
            em.inc("txn.uncertain_output");
        }
        if let TxnResult::Committed { granted, .. } = result {
            if granted == &Entry::Simple(Value::Bool(false)) {
                em.inc("txn.denied");
            }
        }
    }

    pub(crate) fn finish_abort(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        reason: AbortReason,
    ) {
        let Some(coord) = self.coordinator.coords.remove(&txn) else {
            return;
        };
        store.record_decision(txn, false);
        self.note_decided(em, txn, &coord, false);
        if matches!(self.config.protocol, CommitProtocol::PaxosCommit) {
            // Acceptors may hold votes for this transaction; the decision
            // must reach all of them so they can prune (and answer any
            // later takeover with the outcome).
            self.paxos.takeovers.remove(&txn);
            for site in 0..self.directory.sites() {
                self.pc_cast(
                    em,
                    store,
                    site,
                    Msg::Decision {
                        txn,
                        completed: false,
                    },
                );
            }
        } else {
            for &site in coord.read_sites.union(&coord.write_sites) {
                em.send(
                    site_node(site),
                    Msg::Decision {
                        txn,
                        completed: false,
                    },
                );
            }
        }
        match &reason {
            AbortReason::LockConflict => em.inc("txn.aborted.lock"),
            AbortReason::Timeout => em.inc("txn.aborted.timeout"),
            AbortReason::Eval(_) => em.inc("txn.aborted.eval"),
            // Static rejections are counted at the submit gate and never
            // reach this mid-protocol abort path.
            AbortReason::Rejected(_) => em.inc("txn.rejected.static"),
        }
        em.send(
            coord.client,
            Msg::Reply {
                req_id: coord.req_id,
                result: TxnResult::Aborted { reason },
            },
        );
    }

    pub(crate) fn on_read_timeout(&mut self, em: &mut Emit<'_>, store: &mut SiteStore, txn: TxnId) {
        if self
            .coordinator
            .coords
            .get(&txn)
            .is_some_and(|c| c.phase == CoordPhase::Reading)
        {
            self.finish_abort(em, store, txn, AbortReason::Timeout);
        }
    }

    pub(crate) fn on_ready_timeout(&mut self, em: &mut Emit<'_>, store: &mut SiteStore, txn: TxnId) {
        if self
            .coordinator
            .coords
            .get(&txn)
            .is_some_and(|c| c.phase == CoordPhase::Preparing)
        {
            if matches!(self.config.protocol, CommitProtocol::PaxosCommit) {
                // Participants may already hold majority-acknowledged votes,
                // so a presumed abort here could contradict a takeover's
                // commit. Run the takeover ourselves instead; its verdict
                // resolves our coordinator state via `pc_learn_decision`.
                self.start_takeover(em, store, txn);
            } else {
                self.finish_abort(em, store, txn, AbortReason::Timeout);
            }
        }
    }
}

/// The decided-transaction counter for `protocol`: `txn.decided.complete`
/// or `txn.decided.abort` with its `protocol` label, spelled as
/// `Metrics::with_label` renders it, so counting a decision allocates
/// nothing.
fn decided_counter(protocol: CommitProtocol, completed: bool) -> &'static str {
    match (protocol, completed) {
        (CommitProtocol::Polyvalue, true) => r#"txn.decided.complete{protocol="polyvalue"}"#,
        (CommitProtocol::Polyvalue, false) => r#"txn.decided.abort{protocol="polyvalue"}"#,
        (CommitProtocol::Blocking2pc, true) => r#"txn.decided.complete{protocol="blocking-2pc"}"#,
        (CommitProtocol::Blocking2pc, false) => r#"txn.decided.abort{protocol="blocking-2pc"}"#,
        (CommitProtocol::Relaxed { .. }, true) => r#"txn.decided.complete{protocol="relaxed"}"#,
        (CommitProtocol::Relaxed { .. }, false) => r#"txn.decided.abort{protocol="relaxed"}"#,
        (CommitProtocol::PaxosCommit, true) => r#"txn.decided.complete{protocol="paxos-commit"}"#,
        (CommitProtocol::PaxosCommit, false) => r#"txn.decided.abort{protocol="paxos-commit"}"#,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_simnet::Metrics;

    #[test]
    fn decided_counters_are_the_labelled_names() {
        let protocols = [
            CommitProtocol::Polyvalue,
            CommitProtocol::Blocking2pc,
            CommitProtocol::Relaxed { complete_prob: 0.5 },
            CommitProtocol::PaxosCommit,
        ];
        for protocol in protocols {
            for (completed, name) in [(true, "txn.decided.complete"), (false, "txn.decided.abort")] {
                assert_eq!(
                    decided_counter(protocol, completed),
                    Metrics::with_label(name, "protocol", protocol.label())
                );
            }
        }
    }
}
