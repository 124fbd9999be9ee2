//! The participant role and the Figure-1 state machine that drives it.
//!
//! The paper's Figure 1 gives each site three states for a transaction —
//! *idle*, *compute*, and *wait* — with the distinguishing polyvalue edge:
//! a wait-phase timeout installs polyvalues and returns to idle instead of
//! blocking. [`transition`] is that figure as a pure function, and it is the
//! code path the protocol actually takes: each transaction's participant
//! record carries its current [`PartPhase`], every phase change goes
//! through the table, and the action the table returns
//! ([`PartAction::SendReady`], [`PartAction::InstallPolyvalues`], …) is
//! what the handlers perform. The `figure1` benchmark binary prints
//! [`render_figure1`] directly from the same table.

use crate::config::{CommitProtocol, LockPolicy};
use crate::locks::LockTable;
use crate::machine::{site_node, Emit, Output, SiteMachine};
use crate::messages::{AccessMode, Msg};
use crate::timer::TimerKey;
use pv_core::{Entry, ItemId, TxnId, Value};
use pv_simnet::TraceEvent;
use pv_store::{SiteId, SiteStore};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// A site's per-transaction protocol state (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartPhase {
    /// No work in progress for the transaction.
    Idle,
    /// Computing the transaction's results (serving reads, staging writes).
    Compute,
    /// Results computed and `ready` sent; awaiting the outcome.
    Wait,
}

/// Events that drive the participant state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartEvent {
    /// The site begins computing for a new transaction.
    Begin,
    /// Results computed promptly; the site reports `ready`.
    ComputeDone,
    /// A failure prevented prompt computation (or an abort arrived while
    /// computing).
    ComputeFailed,
    /// The coordinator's `complete` message arrived.
    Complete,
    /// The coordinator's `abort` message arrived.
    Abort,
    /// Neither `complete` nor `abort` arrived promptly.
    Timeout,
}

/// The action a transition requires of the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartAction {
    /// Nothing beyond the state change.
    None,
    /// Send `ready` to the coordinator.
    SendReady,
    /// Install the computed values (the transaction completed).
    Install,
    /// Discard the computed values (the transaction aborted or failed).
    Discard,
    /// Install in-doubt polyvalues `{⟨new, T⟩, ⟨old, ¬T⟩}` and release locks
    /// — the paper's contribution; baselines replace this action.
    InstallPolyvalues,
}

impl fmt::Display for PartPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PartPhase::Idle => "idle",
            PartPhase::Compute => "compute",
            PartPhase::Wait => "wait",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for PartEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PartEvent::Begin => "begin transaction",
            PartEvent::ComputeDone => "results computed promptly",
            PartEvent::ComputeFailed => "failure during compute / abort",
            PartEvent::Complete => "complete received",
            PartEvent::Abort => "abort received",
            PartEvent::Timeout => "no message promptly",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for PartAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PartAction::None => "-",
            PartAction::SendReady => "send ready",
            PartAction::Install => "install results",
            PartAction::Discard => "discard results",
            PartAction::InstallPolyvalues => "install polyvalues",
        };
        write!(f, "{s}")
    }
}

/// The Figure-1 transition function. Returns `None` for events that are not
/// defined in the given state (the site ignores them).
pub fn transition(phase: PartPhase, event: PartEvent) -> Option<(PartPhase, PartAction)> {
    use PartAction as A;
    use PartEvent as E;
    use PartPhase as P;
    match (phase, event) {
        (P::Idle, E::Begin) => Some((P::Compute, A::None)),
        (P::Compute, E::ComputeDone) => Some((P::Wait, A::SendReady)),
        (P::Compute, E::ComputeFailed) => Some((P::Idle, A::Discard)),
        (P::Compute, E::Abort) => Some((P::Idle, A::Discard)),
        (P::Wait, E::Complete) => Some((P::Idle, A::Install)),
        (P::Wait, E::Abort) => Some((P::Idle, A::Discard)),
        (P::Wait, E::Timeout) => Some((P::Idle, A::InstallPolyvalues)),
        _ => None,
    }
}

/// Every defined transition, for rendering Figure 1.
pub fn all_transitions() -> Vec<(PartPhase, PartEvent, PartPhase, PartAction)> {
    let phases = [PartPhase::Idle, PartPhase::Compute, PartPhase::Wait];
    let events = [
        PartEvent::Begin,
        PartEvent::ComputeDone,
        PartEvent::ComputeFailed,
        PartEvent::Complete,
        PartEvent::Abort,
        PartEvent::Timeout,
    ];
    let mut out = Vec::new();
    for p in phases {
        for e in events {
            if let Some((next, action)) = transition(p, e) {
                out.push((p, e, next, action));
            }
        }
    }
    out
}

/// Renders Figure 1 — the transition table plus a Graphviz DOT digraph —
/// from [`all_transitions`]. The `figure1` benchmark binary prints exactly
/// this string, and `results/figure1.txt` pins it.
pub fn render_figure1() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 1: The Update Protocol States");
    let _ = writeln!(s);
    let _ = writeln!(s, "{:<8} | {:<32} | {:<8} | action", "state", "event", "next");
    let _ = writeln!(s, "{}", "-".repeat(80));
    for (from, event, to, action) in all_transitions() {
        // Pad via strings: Display impls that use `write!` ignore width.
        let _ = writeln!(
            s,
            "{:<8} | {:<32} | {:<8} | {}",
            from.to_string(),
            event.to_string(),
            to.to_string(),
            action
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "digraph figure1 {{");
    let _ = writeln!(s, "  rankdir=LR;");
    for state in ["idle", "compute", "wait"] {
        let _ = writeln!(s, "  {state} [shape=circle];");
    }
    for (from, event, to, action) in all_transitions() {
        let _ = writeln!(s, "  {from} -> {to} [label=\"{event}\\n({action})\"];");
    }
    let _ = writeln!(s, "}}");
    s
}

/// Participant-side volatile state for one transaction.
#[derive(Debug, Clone)]
pub(crate) struct Part {
    pub(crate) staged: bool,
    /// The transaction's coordinator (to notify on wound-wait eviction).
    pub(crate) coordinator: SiteId,
    /// Wound-wait age: the coordinator's clock at submission (0 = oldest,
    /// used for post-recovery staged transactions, which are never wounded
    /// anyway).
    pub(crate) ts: u64,
    /// Where the transaction sits in Figure 1. A part that only serves reads
    /// stays [`PartPhase::Idle`] — the figure describes the update protocol,
    /// and reads are pre-protocol bookkeeping; [`SiteMachine::on_prepare`]
    /// drives idle → compute → wait when real update work starts.
    pub(crate) phase: PartPhase,
}

/// A read request parked by the wound-wait policy until its conflicting
/// holders finish.
#[derive(Debug, Clone)]
pub(crate) struct QueuedRead {
    pub(crate) ts: u64,
    pub(crate) txn: TxnId,
    pub(crate) from: SiteId,
    pub(crate) items: Vec<(ItemId, AccessMode)>,
}

/// How a read request was handled by the lock layer.
enum ServeOutcome {
    Served,
    Refused,
    Queued,
}

/// Participant-role state: the lock table, per-transaction participant
/// records, revocations, unilateral relaxed-mode actions, and the
/// wound-wait queue.
#[derive(Debug, Clone, Default)]
pub struct Participant {
    pub(crate) locks: LockTable,
    pub(crate) parts: BTreeMap<TxnId, Part>,
    pub(crate) revoked: BTreeSet<TxnId>,
    /// Unilateral relaxed actions (`txn` → completed?) awaiting the real
    /// outcome, which `relaxed.violations` compares them with. Kept across
    /// a crash (see [`SiteMachine::crash`]).
    pub(crate) relaxed_actions: BTreeMap<TxnId, bool>,
    /// Wound-wait: read requests parked behind current lock holders.
    pub(crate) read_queue: Vec<QueuedRead>,
}

impl SiteMachine {
    pub(crate) fn on_read_req(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        ts: u64,
        items: Vec<(ItemId, AccessMode)>,
    ) {
        if self.participant.revoked.contains(&txn)
            || items.iter().any(|&(item, _)| !store.contains(item))
        {
            em.send(site_node(from), Msg::ReadNack { txn });
            return;
        }
        match self.try_serve_read(em, store, from, txn, ts, &items) {
            ServeOutcome::Served => {}
            ServeOutcome::Refused => {
                em.inc("lock.conflicts");
                em.send(site_node(from), Msg::ReadNack { txn });
            }
            ServeOutcome::Queued => {
                em.inc("lock.queued");
                self.participant.read_queue.push(QueuedRead {
                    ts,
                    txn,
                    from,
                    items,
                });
                em.arm(self.config.read_lease, TimerKey::QueueExpire(txn));
            }
        }
    }

    /// Attempts to lock and answer a read request, applying the configured
    /// conflict policy. All items are known to exist.
    fn try_serve_read(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        ts: u64,
        items: &[(ItemId, AccessMode)],
    ) -> ServeOutcome {
        let mut holders: BTreeSet<TxnId> = BTreeSet::new();
        for &(item, mode) in items {
            holders.extend(
                self.participant
                    .locks
                    .conflicts(txn, item, mode == AccessMode::Write),
            );
        }
        if !holders.is_empty() {
            match self.config.lock_policy {
                LockPolicy::NoWait => return ServeOutcome::Refused,
                LockPolicy::WoundWait => {
                    // An older requester wounds *all* of its blockers, but
                    // only if every one is younger and not yet in the wait
                    // phase (a staged transaction must never be aborted
                    // unilaterally). Otherwise the requester queues.
                    let can_wound = holders.iter().all(|h| {
                        self.participant
                            .parts
                            .get(h)
                            .is_some_and(|p| !p.staged && (ts, txn) < (p.ts, *h))
                    });
                    if !can_wound {
                        return ServeOutcome::Queued;
                    }
                    for victim in holders {
                        self.wound(em, victim);
                    }
                }
            }
        }
        for &(item, mode) in items {
            let ok = match mode {
                AccessMode::Read => self.participant.locks.try_read(txn, item),
                AccessMode::Write => self.participant.locks.try_write(txn, item),
            };
            debug_assert!(ok, "acquisition after conflict resolution cannot fail");
        }
        let mut entries = Vec::with_capacity(items.len());
        let mut sent: Vec<TxnId> = Vec::new();
        for &(item, _) in items {
            let entry = store.get(item).expect("existence checked");
            sent.extend(entry.deps());
            entries.push((item, entry));
        }
        // §3.3: uncertainty is being shipped to the coordinator.
        for dep in sent {
            store.note_sent(dep, from);
            self.ensure_inquire(em);
        }
        self.participant.parts.insert(
            txn,
            Part {
                staged: false,
                coordinator: from,
                ts,
                phase: PartPhase::Idle,
            },
        );
        em.arm(self.config.read_lease, TimerKey::ReadLease(txn));
        em.send(site_node(from), Msg::ReadResp { txn, entries });
        ServeOutcome::Served
    }

    /// Wound-wait eviction: locally aborts a younger, not-yet-staged lock
    /// holder and tells its coordinator to abort the transaction.
    fn wound(&mut self, em: &mut Emit<'_>, victim: TxnId) {
        let Some(part) = self.participant.parts.remove(&victim) else {
            return;
        };
        debug_assert!(!part.staged, "staged transactions are never wounded");
        self.participant.locks.release_all(victim);
        self.participant.revoked.insert(victim);
        em.inc("lock.wounds");
        em.send(
            site_node(part.coordinator),
            Msg::PrepareNack { txn: victim },
        );
    }

    /// Retries parked read requests, oldest first, after locks were freed.
    pub(crate) fn drain_read_queue(&mut self, em: &mut Emit<'_>, store: &mut SiteStore) {
        if self.participant.read_queue.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.participant.read_queue);
        queue.sort_by_key(|q| (q.ts, q.txn));
        for q in queue {
            if self.participant.revoked.contains(&q.txn) {
                continue; // expired or aborted while parked
            }
            match self.try_serve_read(em, store, q.from, q.txn, q.ts, &q.items) {
                ServeOutcome::Served => {
                    em.inc("lock.queue_served");
                }
                ServeOutcome::Refused => {
                    em.send(site_node(q.from), Msg::ReadNack { txn: q.txn });
                }
                ServeOutcome::Queued => self.participant.read_queue.push(q),
            }
        }
    }

    pub(crate) fn on_prepare(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: SiteId,
        txn: TxnId,
        writes: Vec<(ItemId, Entry<Value>)>,
    ) {
        // A prepare without a live read lease (crash, revocation) is refused:
        // the values the coordinator computed may be stale.
        let Some(part) = self.participant.parts.get_mut(&txn) else {
            em.send(site_node(from), Msg::PrepareNack { txn });
            return;
        };
        // A duplicated Prepare (network-level duplication, or a coordinator
        // retry) must be idempotent: the writes are already staged, so just
        // re-affirm readiness without re-staging or re-tracing.
        if part.staged && store.pending(txn).is_some() {
            em.send(site_node(from), Msg::Ready { txn });
            return;
        }
        // Figure 1: the update protocol begins when staged work arrives.
        // Staging is instantaneous here (the coordinator already computed the
        // values), so begin and compute-done fire back-to-back and the part
        // lands in the wait phase; the table's send-ready action is the Ready
        // below.
        let (phase, action) = transition(part.phase, PartEvent::Begin)
            .expect("Figure 1 defines begin in the idle state");
        debug_assert_eq!(action, PartAction::None);
        let (phase, action) = transition(phase, PartEvent::ComputeDone)
            .expect("Figure 1 defines compute-done in the compute state");
        debug_assert_eq!(phase, PartPhase::Wait);
        part.phase = phase;
        part.staged = true;
        store.stage(txn, from, writes);
        em.trace(TraceEvent::Prepared {
            txn: txn.raw(),
            site: self.id,
        });
        em.arm(self.config.wait_timeout, TimerKey::PartWait(txn));
        match action {
            PartAction::SendReady => em.send(site_node(from), Msg::Ready { txn }),
            other => debug_assert!(false, "compute-done demands send-ready, got {other}"),
        }
    }

    pub(crate) fn on_decision(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        completed: bool,
    ) {
        self.participant.locks.release_all(txn);
        if let Some(part) = self.participant.parts.remove(&txn) {
            // Figure 1: a wait-phase participant leaves on the outcome
            // message — install on complete, discard on abort. The actual
            // install/discard of staged values happens in `learn_outcome`
            // via the store; the table is consulted so the figure and the
            // code cannot drift apart.
            if part.phase == PartPhase::Wait {
                let event = if completed {
                    PartEvent::Complete
                } else {
                    PartEvent::Abort
                };
                let (next, action) =
                    transition(PartPhase::Wait, event).expect("Figure 1 defines both wait exits");
                debug_assert_eq!(next, PartPhase::Idle);
                debug_assert_eq!(
                    action,
                    if completed {
                        PartAction::Install
                    } else {
                        PartAction::Discard
                    }
                );
            }
        }
        // A decided transaction has nothing to wait for: drop any parked
        // read request it still has (e.g. the coordinator aborted on timeout
        // while the request sat in the wound-wait queue).
        self.participant.read_queue.retain(|q| q.txn != txn);
        self.pc_learn_decision(em, store, txn, completed);
        self.learn_outcome(em, store, txn, completed);
        self.drain_read_queue(em, store);
    }

    pub(crate) fn on_wait_timeout(&mut self, em: &mut Emit<'_>, store: &mut SiteStore, txn: TxnId) {
        let Some(part) = self.participant.parts.get(&txn) else {
            return;
        };
        if !part.staged || store.pending(txn).is_none() {
            return;
        }
        em.inc("txn.in_doubt");
        em.trace(TraceEvent::WaitTimedOut {
            txn: txn.raw(),
            site: self.id,
        });
        match self.config.protocol {
            CommitProtocol::Polyvalue => {
                // Figure 1's wait → idle timeout edge: the table demands
                // install-polyvalues, so install in-doubt polyvalues and
                // release everything.
                let (next, action) = transition(part.phase, PartEvent::Timeout)
                    .expect("Figure 1 defines timeout in the wait state");
                debug_assert_eq!(next, PartPhase::Idle);
                debug_assert_eq!(action, PartAction::InstallPolyvalues);
                let installed = store.install_in_doubt(txn);
                em.inc_by("poly.installed_items", installed.len() as u64);
                em.trace(TraceEvent::PolyvalueInstalled {
                    txn: txn.raw(),
                    site: self.id,
                    items: installed.len() as u32,
                });
                self.recovery.poly_installed_at.insert(txn, em.now);
                for item in &installed {
                    if let Some(entry) = store.get(*item) {
                        em.gauge("poly.depth", entry.deps().len() as f64);
                        em.gauge("poly.width", entry.pair_count() as f64);
                    }
                }
                self.participant.locks.release_all(txn);
                self.participant.parts.remove(&txn);
                self.ensure_inquire(em);
                self.drain_read_queue(em, store);
            }
            CommitProtocol::Blocking2pc => {
                // Keep locks and staging; the items stay unavailable until
                // the outcome is learned. (The baseline replaces Figure 1's
                // install-polyvalues edge with blocking.)
                em.inc("blocking.stalls");
                self.ensure_inquire(em);
            }
            CommitProtocol::Relaxed { complete_prob } => {
                // The machine holds no randomness: ask the driver for the
                // biased coin; it answers with `Input::Coin` within the same
                // logical step and `on_coin` finishes the unilateral action.
                em.out.push(Output::NeedCoin { txn, complete_prob });
            }
            CommitProtocol::PaxosCommit => {
                // Non-blocking by consensus instead of polyvalues: keep the
                // locks and staging, and run a takeover over the acceptor
                // majority to force a verdict. The inquiry tick re-drives it
                // until the decision lands.
                self.start_takeover(em, store, txn);
            }
        }
    }

    /// Completes the §2.3 relaxed protocol's unilateral action once the
    /// driver has flipped the coin requested by
    /// [`Output::NeedCoin`](crate::machine::Output::NeedCoin).
    pub(crate) fn on_coin(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
        completed: bool,
    ) {
        // The driver answers synchronously, so the wait-timeout guards still
        // hold; re-check anyway so a misbehaving driver cannot corrupt state.
        let staged = self.participant.parts.get(&txn).is_some_and(|p| p.staged);
        if !staged || store.pending(txn).is_none() {
            return;
        }
        em.inc("relaxed.unilateral");
        store.apply_decision(txn, completed);
        self.participant.relaxed_actions.insert(txn, completed);
        self.participant.locks.release_all(txn);
        self.participant.parts.remove(&txn);
        self.ensure_inquire(em);
        self.drain_read_queue(em, store);
    }

    pub(crate) fn on_read_lease_expired(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        txn: TxnId,
    ) {
        let Some(part) = self.participant.parts.get(&txn) else {
            return;
        };
        if part.staged {
            return; // the wait timer governs staged transactions
        }
        self.participant.locks.release_all(txn);
        self.participant.parts.remove(&txn);
        self.participant.revoked.insert(txn);
        self.drain_read_queue(em, store);
    }

    /// A parked read request waited too long: refuse it.
    pub(crate) fn on_queue_expired(&mut self, em: &mut Emit<'_>, _store: &mut SiteStore, txn: TxnId) {
        let Some(pos) = self
            .participant
            .read_queue
            .iter()
            .position(|q| q.txn == txn)
        else {
            return; // already served or dropped
        };
        let q = self.participant.read_queue.remove(pos);
        self.participant.revoked.insert(txn);
        em.inc("lock.queue_expired");
        em.send(site_node(q.from), Msg::ReadNack { txn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PartAction as A;
    use PartEvent as E;
    use PartPhase as P;

    #[test]
    fn happy_path_idle_compute_wait_idle() {
        let (p, a) = transition(P::Idle, E::Begin).unwrap();
        assert_eq!((p, a), (P::Compute, A::None));
        let (p, a) = transition(p, E::ComputeDone).unwrap();
        assert_eq!((p, a), (P::Wait, A::SendReady));
        let (p, a) = transition(p, E::Complete).unwrap();
        assert_eq!((p, a), (P::Idle, A::Install));
    }

    #[test]
    fn compute_failure_discards() {
        assert_eq!(
            transition(P::Compute, E::ComputeFailed),
            Some((P::Idle, A::Discard))
        );
        assert_eq!(
            transition(P::Compute, E::Abort),
            Some((P::Idle, A::Discard))
        );
    }

    #[test]
    fn wait_abort_discards() {
        assert_eq!(transition(P::Wait, E::Abort), Some((P::Idle, A::Discard)));
    }

    #[test]
    fn wait_timeout_installs_polyvalues() {
        // The edge that distinguishes the polyvalue protocol from blocking
        // 2PC: wait → idle on timeout, installing polyvalues.
        assert_eq!(
            transition(P::Wait, E::Timeout),
            Some((P::Idle, A::InstallPolyvalues))
        );
    }

    #[test]
    fn undefined_events_are_ignored() {
        assert_eq!(transition(P::Idle, E::Complete), None);
        assert_eq!(transition(P::Idle, E::Timeout), None);
        assert_eq!(transition(P::Wait, E::Begin), None);
        assert_eq!(transition(P::Compute, E::Complete), None);
        assert_eq!(transition(P::Compute, E::Timeout), None);
    }

    #[test]
    fn all_transitions_enumerates_the_figure() {
        let all = all_transitions();
        assert_eq!(all.len(), 7);
        // Every wait-state exit returns to idle (no site ever blocks).
        for (from, _, to, _) in &all {
            if *from == P::Wait {
                assert_eq!(*to, P::Idle);
            }
        }
    }

    #[test]
    fn render_covers_table_and_digraph() {
        let text = render_figure1();
        assert!(text.starts_with("Figure 1: The Update Protocol States"));
        assert!(text.contains("install polyvalues"));
        assert!(text.contains("digraph figure1 {"));
        assert!(text.contains("wait -> idle [label=\"no message promptly\\n(install polyvalues)\"];"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn displays_are_human_readable() {
        assert_eq!(P::Idle.to_string(), "idle");
        assert_eq!(P::Compute.to_string(), "compute");
        assert_eq!(P::Wait.to_string(), "wait");
        assert_eq!(E::Timeout.to_string(), "no message promptly");
        assert_eq!(A::InstallPolyvalues.to_string(), "install polyvalues");
        assert_eq!(A::None.to_string(), "-");
        assert_eq!(E::Begin.to_string(), "begin transaction");
        assert_eq!(E::ComputeDone.to_string(), "results computed promptly");
        assert_eq!(
            E::ComputeFailed.to_string(),
            "failure during compute / abort"
        );
        assert_eq!(E::Complete.to_string(), "complete received");
        assert_eq!(E::Abort.to_string(), "abort received");
        assert_eq!(A::SendReady.to_string(), "send ready");
        assert_eq!(A::Install.to_string(), "install results");
        assert_eq!(A::Discard.to_string(), "discard results");
    }
}
