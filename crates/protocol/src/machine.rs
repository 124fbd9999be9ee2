//! The sans-IO site machine: typed inputs in, typed outputs out.
//!
//! [`SiteMachine`] is the whole §3.1 protocol for one site — the coordinator
//! role, the participant role, and the §3.3 recovery manager — as a pure
//! state machine. It holds no clock, no network handle, no RNG, and no timer
//! facility: time arrives as data on every [`SiteMachine::step`] call, and
//! everything the protocol wants done to the outside world comes back as
//! [`Output`] values the driver applies in order. The only impurity is the
//! site's durable [`SiteStore`], which the driver lends to each step —
//! staging, decisions, and outcome tracking must hit the WAL *synchronously*
//! so crash-point coordinates (WAL append sequence numbers) mean the same
//! thing in every runtime.
//!
//! Drivers must:
//!
//! 1. apply outputs **in emission order** (sends and timer arms interleave
//!    with trace/metric records exactly as the protocol produced them — the
//!    simulation's network RNG consumes one draw per send, in order);
//! 2. answer [`Output::NeedCoin`] by feeding [`Input::Coin`] back *within
//!    the same logical step*, before delivering anything else to the
//!    machine;
//! 3. on crash, call [`SiteMachine::crash`] and crash-recover the store; on
//!    recovery, feed [`Input::Recovered`].
//!
//! Because the machine is pure, every runtime — the deterministic simulation
//! (`pv-engine`'s `Cluster`), the socket runtime (`pv-net`), the
//! crash-point harness, and the exhaustive interleaving explorer in
//! [`crate::explore`] — runs the identical protocol code.

use crate::config::EngineConfig;
use crate::coordinator::Coordinator;
use crate::directory::Directory;
use crate::ids::encode_txn;
use crate::messages::Msg;
use crate::participant::Participant;
use crate::paxos::Paxos;
use crate::recovery::RecoveryManager;
use crate::timer::TimerKey;
use pv_core::TxnId;
use pv_simnet::{NodeId, SimDuration, SimTime, TraceEvent};
use pv_store::{SiteId, SiteStore};

/// Maps a site id to its node (cluster convention: sites are nodes
/// `0..sites`, in order; clients use higher ids).
pub fn site_node(site: SiteId) -> NodeId {
    NodeId(site)
}

/// An event fed into the machine by a driver.
#[derive(Debug, Clone)]
pub enum Input {
    /// A message arrived. Protocol messages from peer sites carry the
    /// sender's site as `from.0`; `Submit` carries the client's node id.
    Msg {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: Msg,
    },
    /// A timer armed via [`Output::ArmTimer`] fired.
    Timer(TimerKey),
    /// The site recovered from a crash: rebuild volatile state from the
    /// store and re-arm timers. The driver must have crash-recovered the
    /// store (and called [`SiteMachine::crash`]) first.
    Recovered,
    /// The driver's answer to [`Output::NeedCoin`].
    Coin {
        /// The transaction the coin decides.
        txn: TxnId,
        /// The unilateral decision (`true` = complete).
        completed: bool,
    },
}

/// A metric mutation requested by the machine.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricOp {
    /// Increment a counter by one.
    Inc(&'static str),
    /// Increment a counter by `n`.
    IncBy(&'static str, u64),
    /// Record a histogram observation.
    Observe(&'static str, f64),
    /// Record a gauge sample at the step's time.
    Gauge(&'static str, f64),
}

/// An effect the driver must apply to the outside world, in emission order.
#[derive(Debug, Clone)]
pub enum Output {
    /// Send `msg` to node `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// Arm a timer firing after `delay`, handed back as [`Input::Timer`].
    ArmTimer {
        /// How long until the timer fires.
        delay: SimDuration,
        /// The typed key identifying what the timer is for.
        key: TimerKey,
    },
    /// Record a protocol trace event, attributed to this site at the step's
    /// time.
    Trace(TraceEvent),
    /// Apply a metric mutation.
    Metric(MetricOp),
    /// The §2.3 relaxed protocol needs a biased coin. The driver draws
    /// `true` with probability `complete_prob` from *its* randomness source
    /// and immediately feeds [`Input::Coin`] back — keeping the machine
    /// itself deterministic.
    NeedCoin {
        /// The transaction awaiting a unilateral decision.
        txn: TxnId,
        /// Probability the decision is *complete*.
        complete_prob: f64,
    },
}

/// Emission helper threaded through the role handlers: the step's time plus
/// the output buffer, mirroring the effect surface the actor `Ctx` used to
/// provide.
pub(crate) struct Emit<'a> {
    pub(crate) now: SimTime,
    pub(crate) out: &'a mut Vec<Output>,
}

impl Emit<'_> {
    pub(crate) fn send(&mut self, to: NodeId, msg: Msg) {
        self.out.push(Output::Send { to, msg });
    }

    pub(crate) fn arm(&mut self, delay: SimDuration, key: TimerKey) {
        self.out.push(Output::ArmTimer { delay, key });
    }

    pub(crate) fn trace(&mut self, event: TraceEvent) {
        self.out.push(Output::Trace(event));
    }

    pub(crate) fn inc(&mut self, name: &'static str) {
        self.out.push(Output::Metric(MetricOp::Inc(name)));
    }

    pub(crate) fn inc_by(&mut self, name: &'static str, n: u64) {
        self.out.push(Output::Metric(MetricOp::IncBy(name, n)));
    }

    pub(crate) fn observe(&mut self, name: &'static str, v: f64) {
        self.out.push(Output::Metric(MetricOp::Observe(name, v)));
    }

    pub(crate) fn gauge(&mut self, name: &'static str, v: f64) {
        self.out.push(Output::Metric(MetricOp::Gauge(name, v)));
    }
}

/// One site's protocol state: coordinator role, participant role, and the
/// §3.3 recovery manager. Pure data — clonable, comparable step by step, and
/// model-checkable.
#[derive(Debug, Clone)]
pub struct SiteMachine {
    pub(crate) id: SiteId,
    pub(crate) config: EngineConfig,
    pub(crate) directory: Directory,
    /// Coordinator-role state (transactions this site coordinates).
    pub coordinator: Coordinator,
    /// Participant-role state (transactions coordinated elsewhere).
    pub participant: Participant,
    /// §3.3 recovery state: inquiry tick and polyvalue-lifetime tracking.
    pub recovery: RecoveryManager,
    /// Paxos Commit leader state: takeovers this site drives. Acceptor
    /// state is durable and lives in the store.
    pub paxos: Paxos,
}

impl SiteMachine {
    /// A fresh machine for site `id`.
    pub fn new(id: SiteId, config: EngineConfig, directory: Directory) -> Self {
        SiteMachine {
            id,
            config,
            directory,
            coordinator: Coordinator::default(),
            participant: Participant::default(),
            recovery: RecoveryManager::default(),
            paxos: Paxos::default(),
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The engine configuration the machine runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The item directory the machine routes by.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Whether the machine holds no volatile protocol state (coordinator or
    /// participant); quiescence additionally requires the store to hold no
    /// pending or tracked transactions.
    pub fn is_idle(&self) -> bool {
        self.coordinator.coords.is_empty() && self.participant.parts.is_empty()
    }

    pub(crate) fn new_txn(&mut self, store: &SiteStore) -> TxnId {
        self.coordinator.txn_counter += 1;
        encode_txn(self.id, store.epoch(), self.coordinator.txn_counter)
    }

    /// Advances the machine by one input, appending the effects to `out`.
    /// `now` is the driver's current time; it stamps traces, timestamps, and
    /// phase-latency observations but never *drives* anything — only
    /// [`Input::Timer`] does.
    pub fn step(&mut self, now: SimTime, input: Input, store: &mut SiteStore, out: &mut Vec<Output>) {
        let mut em = Emit { now, out };
        match input {
            Input::Msg { from, msg } => {
                let from_site: SiteId = from.0;
                match msg {
                    Msg::Submit { req_id, spec } => self.on_submit(&mut em, store, from, req_id, spec),
                    Msg::ReadReq { txn, ts, items } => {
                        self.on_read_req(&mut em, store, from_site, txn, ts, items)
                    }
                    Msg::ReadResp { txn, entries } => {
                        self.on_read_resp(&mut em, store, from_site, txn, entries)
                    }
                    Msg::ReadNack { txn } => {
                        self.finish_abort(&mut em, store, txn, crate::messages::AbortReason::LockConflict)
                    }
                    Msg::Prepare { txn, writes } => {
                        self.on_prepare(&mut em, store, from_site, txn, writes)
                    }
                    Msg::Ready { txn } => self.on_ready(&mut em, store, from_site, txn),
                    Msg::PrepareNack { txn } => {
                        self.finish_abort(&mut em, store, txn, crate::messages::AbortReason::LockConflict)
                    }
                    Msg::Decision { txn, completed } => {
                        self.on_decision(&mut em, store, txn, completed)
                    }
                    Msg::Inquire { txn } => self.on_inquire(&mut em, store, from_site, txn),
                    Msg::OutcomeNotify { txn, completed } => {
                        self.on_outcome_notify(&mut em, store, txn, completed)
                    }
                    Msg::PcPrepare { txn, writes, parts } => {
                        self.on_pc_prepare(&mut em, store, from_site, txn, writes, parts)
                    }
                    Msg::PcVote {
                        txn,
                        part,
                        parts,
                        prepared,
                    } => self.on_pc_vote(&mut em, store, from_site, txn, part, parts, prepared),
                    Msg::PcVoteAck {
                        txn,
                        part,
                        acceptor,
                        prepared,
                    } => self.on_pc_vote_ack(&mut em, store, txn, part, acceptor, prepared),
                    Msg::PcPhase1a { txn, ballot } => {
                        self.on_pc_phase1a(&mut em, store, from_site, txn, ballot)
                    }
                    Msg::PcPhase1b {
                        txn,
                        ballot,
                        acceptor,
                        votes,
                        parts,
                        accepted,
                    } => self.on_pc_phase1b(
                        &mut em, store, txn, ballot, acceptor, votes, parts, accepted,
                    ),
                    Msg::PcPhase2a {
                        txn,
                        ballot,
                        completed,
                    } => self.on_pc_phase2a(&mut em, store, from_site, txn, ballot, completed),
                    Msg::PcPhase2b {
                        txn,
                        ballot,
                        acceptor,
                        completed,
                    } => self.on_pc_phase2b(&mut em, store, txn, ballot, acceptor, completed),
                    Msg::SnapshotRead { req_id, items } => {
                        self.on_snapshot_read(&mut em, store, from, req_id, items)
                    }
                    Msg::Reply { .. } | Msg::SnapshotReadReply { .. } => {
                        debug_assert!(false, "sites do not receive replies");
                    }
                }
            }
            Input::Timer(key) => match key {
                TimerKey::CoordRead(txn) => self.on_read_timeout(&mut em, store, txn),
                TimerKey::CoordReady(txn) => self.on_ready_timeout(&mut em, store, txn),
                TimerKey::PartWait(txn) => self.on_wait_timeout(&mut em, store, txn),
                TimerKey::ReadLease(txn) => self.on_read_lease_expired(&mut em, store, txn),
                TimerKey::QueueExpire(txn) => self.on_queue_expired(&mut em, store, txn),
                TimerKey::Inquire => self.on_inquire_tick(&mut em, store),
            },
            Input::Recovered => self.on_recovered(&mut em, store),
            Input::Coin { txn, completed } => self.on_coin(&mut em, store, txn, completed),
        }
    }

    /// Drops all volatile state — the machine-side half of a crash. The
    /// driver is responsible for crash-recovering the store and for the fact
    /// that armed timers die with the node.
    ///
    /// The ledger of unilateral relaxed actions survives: it is the
    /// experiment's record of what this site applied, not site memory, and
    /// the applied values outlive the crash in the store. Clearing it would
    /// leave a break made before the crash uncounted in
    /// `relaxed.violations`.
    pub fn crash(&mut self) {
        self.participant.locks.clear();
        self.coordinator.coords.clear();
        self.participant.parts.clear();
        self.participant.revoked.clear();
        self.recovery.inquire_armed = false;
        self.coordinator.withheld.clear();
        self.participant.read_queue.clear();
        self.recovery.poly_installed_at.clear();
        self.paxos.takeovers.clear();
    }

    pub(crate) fn ensure_inquire(&mut self, em: &mut Emit<'_>) {
        if !self.recovery.inquire_armed {
            self.recovery.inquire_armed = true;
            em.arm(self.config.inquire_interval, TimerKey::Inquire);
        }
    }

    /// Serves a coordination-free read-only transaction: the store reads
    /// every requested item in one call, so the view is the newest entries
    /// at its current sequence number, and the view is returned to the
    /// requester. No lock-table state is touched, nothing is staged, and no
    /// site-to-site protocol message is emitted — the reply to the client is
    /// the only send.
    fn on_snapshot_read(
        &mut self,
        em: &mut Emit<'_>,
        store: &mut SiteStore,
        from: NodeId,
        req_id: u64,
        items: Vec<pv_core::ItemId>,
    ) {
        let (snapshot, entries) = store.snapshot_read(&items);
        em.trace(TraceEvent::SnapshotRead {
            site: self.id,
            snapshot,
            items: entries.len() as u32,
        });
        em.send(
            from,
            Msg::SnapshotReadReply {
                req_id,
                snapshot,
                entries,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::coordinator_of;

    #[test]
    fn txn_ids_are_unique_and_carry_site() {
        let mut m = SiteMachine::new(3, EngineConfig::default(), Directory::Mod(4));
        let store = SiteStore::new();
        let a = m.new_txn(&store);
        let b = m.new_txn(&store);
        assert_ne!(a, b);
        assert_eq!(coordinator_of(a), 3);
        assert_eq!(coordinator_of(b), 3);
    }

    #[test]
    fn fresh_machine_is_idle() {
        let m = SiteMachine::new(0, EngineConfig::default(), Directory::Mod(1));
        assert!(m.is_idle());
        assert_eq!(m.id(), 0);
        assert_eq!(m.config().compact_threshold, 4096);
    }
}
