//! Bounded exhaustive interleaving exploration of the protocol.
//!
//! Because [`SiteMachine`] is pure — events in, effects out, no hidden clock
//! or randomness — a small cluster of machines can be *model-checked*: the
//! [`Explorer`] enumerates every reachable ordering of message deliveries,
//! timer firings, and (optionally) site crash/recover events for a scripted
//! transfer workload, asserting the protocol's safety invariants in every
//! reachable state.
//!
//! ## Semantics
//!
//! The network may delay any message arbitrarily and timers have arbitrary
//! (positive) delays, so from any state each of the following is a legal next
//! step: deliver one in-flight message, fire one armed timer, or (within the
//! crash budget) crash-and-recover one site — losing its volatile state,
//! armed timers, and the in-flight messages addressed to it, then replaying
//! its WAL. Exploring all of these orderings covers every schedule the
//! deterministic simulation, the socket runtime, or the crash-point harness
//! could ever produce for the same workload — and many more.
//!
//! ## Invariants
//!
//! * **I1 agreement** — no two decisions or outcome notifications for the
//!   same transaction ever disagree.
//! * **I2 polyvalues only from wait-timeout** — a site installs in-doubt
//!   polyvalues for a transaction only after its wait phase timed out there
//!   (Figure 1's only install-polyvalues edge).
//! * **I3 collapse only after outcome** — polyvalues for a transaction
//!   collapse at a site only after that site learned the outcome, and only
//!   if they were installed there.
//! * **I4 no install after outcome** — a site never installs polyvalues for
//!   a transaction whose outcome it already learned.
//! * **I5 conservation** — in every *quiescent* state (no messages, no
//!   timers) no polyvalue or staged write survives, and the scripted
//!   transfers conserve the total balance.
//!
//! States are deduplicated by hashing the full logical state (machines,
//! WALs, network, timers), so exploration terminates without a depth bound
//! on configurations whose state space is finite.

use crate::config::EngineConfig;
use crate::directory::Directory;
use crate::machine::{site_node, Input, Output, SiteMachine};
use crate::messages::Msg;
use crate::timer::TimerKey;
use pv_core::{Entry, Expr, ItemId, TransactionSpec, Value};
use pv_simnet::{NodeId, SimTime, TraceEvent};
use pv_store::{SiteId, SiteStore};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// The node id explorer "clients" submit from and receive replies on.
const CLIENT: NodeId = NodeId(1_000_000);

/// Exploration scenario and bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of sites. There are `max(sites, 2)` items, item `i` homed at
    /// site `i % sites` (initial balance [`ExploreConfig::initial`]) — at
    /// least two so single-site scenarios still transfer between distinct
    /// items and conservation stays meaningful.
    pub sites: u32,
    /// Number of scripted transfers. Transfer `k` moves
    /// [`ExploreConfig::amount`] from item `k % items` to item
    /// `(k + 1) % items`, coordinated by site `k % sites`.
    pub txns: u32,
    /// Per-transfer amount.
    pub amount: i64,
    /// Initial balance of every item.
    pub initial: i64,
    /// How many crash/recover events the whole exploration may use per path.
    pub crashes: u32,
    /// Depth bound (actions per path); paths longer than this are truncated
    /// and reported via [`ExploreReport::truncated`].
    pub max_depth: usize,
    /// State bound; exploration stops (truncated) once this many distinct
    /// states were expanded.
    pub max_states: usize,
    /// Engine configuration for every machine. Timeout durations are
    /// irrelevant (the explorer fires timers in every legal order); the
    /// protocol/lock-policy choices matter.
    pub engine: EngineConfig,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            sites: 2,
            txns: 1,
            amount: 10,
            initial: 100,
            crashes: 1,
            max_depth: 256,
            max_states: 1_000_000,
            engine: EngineConfig::default(),
        }
    }
}

impl ExploreConfig {
    /// Item count: one per site, but never fewer than two (a one-item
    /// "transfer" would write the same item twice and mint money).
    fn items(&self) -> u32 {
        self.sites.max(2)
    }

    fn transfer_spec(&self, k: u32) -> TransactionSpec {
        let from = ItemId((k % self.items()) as u64);
        let to = ItemId(((k + 1) % self.items()) as u64);
        let amount = self.amount;
        TransactionSpec::new()
            .guard(Expr::read(from).ge(Expr::int(amount)))
            .update(from, Expr::read(from).sub(Expr::int(amount)))
            .update(to, Expr::read(to).add(Expr::int(amount)))
            .output("granted", Expr::read(from).ge(Expr::int(amount)))
    }
}

/// A violated invariant, with the action path that reached it.
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// Which invariant (I1–I5) was violated.
    pub invariant: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
    /// The action sequence from the initial state to the violation.
    pub path: Vec<String>,
}

/// Summary of one exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Distinct states expanded.
    pub states: u64,
    /// State transitions taken (actions applied).
    pub transitions: u64,
    /// Quiescent states reached (no messages, no timers).
    pub quiescent: u64,
    /// Longest action path explored.
    pub deepest: usize,
    /// Whether any bound ([`ExploreConfig::max_depth`] or
    /// [`ExploreConfig::max_states`]) cut the exploration short. A `false`
    /// here means the reachable state space was fully enumerated.
    pub truncated: bool,
    /// All invariant violations found (deduplicated per state).
    pub violations: Vec<InvariantViolation>,
}

/// A message sitting in the explorer's "network".
#[derive(Debug, Clone)]
struct Envelope {
    from: NodeId,
    to: NodeId,
    msg: Msg,
}

/// Invariant bookkeeping carried along each path.
#[derive(Debug, Clone, Default)]
struct Book {
    /// First claimed outcome per transaction (I1).
    outcomes: BTreeMap<u64, bool>,
    /// Outcomes each site has learned via Decision/OutcomeNotify delivery.
    site_known: BTreeMap<(u32, u64), bool>,
    /// Sites whose wait phase timed out per transaction (I2).
    waited: BTreeSet<(u32, u64)>,
    /// Sites that installed polyvalues per transaction (I3).
    installed: BTreeSet<(u32, u64)>,
}

/// One node of the exploration graph: machines + stores + network + timers.
struct State {
    machines: Vec<SiteMachine>,
    stores: Vec<SiteStore>,
    in_flight: Vec<Envelope>,
    timers: Vec<(SiteId, TimerKey)>,
    crashes_left: u32,
    book: Book,
    depth: usize,
    path: Vec<String>,
}

/// One edge of the exploration graph.
#[derive(Debug, Clone)]
enum Action {
    Deliver(usize),
    Fire(usize),
    CrashRecover(SiteId),
}

impl State {
    fn initial(cfg: &ExploreConfig) -> State {
        let directory = Directory::Mod(cfg.sites);
        let mut machines = Vec::new();
        let mut stores = Vec::new();
        for s in 0..cfg.sites {
            machines.push(SiteMachine::new(s, cfg.engine.clone(), directory.clone()));
            stores.push(SiteStore::new());
        }
        for item in 0..cfg.items() {
            stores[(item % cfg.sites) as usize]
                .seed_item(ItemId(item as u64), Value::Int(cfg.initial));
        }
        let mut in_flight = Vec::new();
        for k in 0..cfg.txns {
            in_flight.push(Envelope {
                from: CLIENT,
                to: site_node(k % cfg.sites),
                msg: Msg::Submit {
                    req_id: k as u64,
                    spec: cfg.transfer_spec(k),
                },
            });
        }
        let mut st = State {
            machines,
            stores,
            in_flight,
            timers: Vec::new(),
            crashes_left: cfg.crashes,
            book: Book::default(),
            depth: 0,
            path: Vec::new(),
        };
        st.canonicalize();
        st
    }

    /// Forks the state for a branch. `SiteStore::clone` snapshots into a
    /// fresh always-durable in-memory backend, which is exactly the
    /// explorer's storage model (crashes here lose no synced state).
    fn fork(&self) -> State {
        State {
            machines: self.machines.clone(),
            stores: self.stores.clone(),
            in_flight: self.in_flight.clone(),
            timers: self.timers.clone(),
            crashes_left: self.crashes_left,
            book: self.book.clone(),
            depth: self.depth,
            path: self.path.clone(),
        }
    }

    /// Sorts the network and timer lists so states differing only by queue
    /// permutation collapse to one canonical form (delivery *choice* is the
    /// explorer's branching, so queue order carries no information), and
    /// folds identical duplicates. Folding is what keeps the state space
    /// finite: an inquiry tick that fires before its previous `Inquire` was
    /// delivered would otherwise pile up an unbounded queue of identical
    /// messages. The protocol is explicitly duplicate-tolerant (idempotent
    /// handlers), and any folded duplicate is regenerated by the next tick,
    /// so no distinct protocol behaviour is lost.
    fn canonicalize(&mut self) {
        self.in_flight
            .sort_by_cached_key(|e| (e.to.0, e.from.0, format!("{:?}", e.msg)));
        self.in_flight
            .dedup_by_key(|e| (e.to.0, e.from.0, format!("{:?}", e.msg)));
        self.timers.sort();
        self.timers.dedup();
    }

    /// Stable hash of the full logical state for the visited set. Machine
    /// and message state is folded in via their `Debug` rendering (streamed
    /// straight into the hasher — no intermediate strings); store state via
    /// [`SiteStore::logical_view`] — the *replayed* tables, not the raw log
    /// bytes, so interleavings that append independent records in different
    /// orders collapse to one state. (Sound because every future transition,
    /// including crash-recovery, depends only on the replay result; under
    /// Paxos Commit, where each acceptor logs a record per vote, promise and
    /// acceptance, hashing raw bytes multiplied the space by the number of
    /// log-order permutations.)
    fn fingerprint(&self) -> u64 {
        struct HashWriter<'a>(&'a mut std::collections::hash_map::DefaultHasher);
        impl std::fmt::Write for HashWriter<'_> {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for m in &self.machines {
            let _ = write!(HashWriter(&mut h), "{m:?}");
        }
        for s in &self.stores {
            let _ = write!(HashWriter(&mut h), "{:?}", s.logical_view());
        }
        for e in &self.in_flight {
            (e.from.0, e.to.0).hash(&mut h);
            let _ = write!(HashWriter(&mut h), "{:?}", e.msg);
        }
        self.timers.hash(&mut h);
        self.crashes_left.hash(&mut h);
        h.finish()
    }

    fn actions(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        for i in 0..self.in_flight.len() {
            acts.push(Action::Deliver(i));
        }
        for i in 0..self.timers.len() {
            acts.push(Action::Fire(i));
        }
        if self.crashes_left > 0 {
            for s in 0..self.machines.len() as u32 {
                acts.push(Action::CrashRecover(s));
            }
        }
        acts
    }

    fn quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.timers.is_empty()
    }

    /// Applies one action, checking invariants on every emitted effect.
    /// Returns the trace events emitted (for callers replaying traces) and
    /// any violations found during this step.
    fn apply(&mut self, action: &Action) -> (Vec<(SiteId, TraceEvent)>, Vec<InvariantViolation>) {
        let mut traces = Vec::new();
        let mut violations = Vec::new();
        match *action {
            Action::Deliver(i) => {
                let env = self.in_flight.remove(i);
                let site = env.to.0;
                self.path.push(format!("deliver {:?} to site {site}", kind(&env.msg)));
                // Learning an outcome is observable at delivery time (I3/I4
                // need "site knew before" to be well-defined).
                if let Msg::Decision { txn, completed } | Msg::OutcomeNotify { txn, completed } =
                    env.msg
                {
                    self.book.site_known.insert((site, txn.raw()), completed);
                }
                let mut out = Vec::new();
                self.machines[site as usize].step(
                    SimTime::ZERO,
                    Input::Msg {
                        from: env.from,
                        msg: env.msg,
                    },
                    &mut self.stores[site as usize],
                    &mut out,
                );
                self.absorb(site, out, &mut traces, &mut violations);
            }
            Action::Fire(i) => {
                let (site, key) = self.timers.remove(i);
                self.path.push(format!("fire {key} at site {site}"));
                let mut out = Vec::new();
                self.machines[site as usize].step(
                    SimTime::ZERO,
                    Input::Timer(key),
                    &mut self.stores[site as usize],
                    &mut out,
                );
                self.absorb(site, out, &mut traces, &mut violations);
            }
            Action::CrashRecover(site) => {
                self.crashes_left -= 1;
                self.path.push(format!("crash+recover site {site}"));
                self.machines[site as usize].crash();
                self.stores[site as usize].crash_and_recover();
                // The node's volatile surroundings die with it.
                self.in_flight.retain(|e| e.to.0 != site);
                self.timers.retain(|(s, _)| *s != site);
                let mut out = Vec::new();
                self.machines[site as usize].step(
                    SimTime::ZERO,
                    Input::Recovered,
                    &mut self.stores[site as usize],
                    &mut out,
                );
                self.absorb(site, out, &mut traces, &mut violations);
            }
        }
        self.depth += 1;
        self.canonicalize();
        (traces, violations)
    }

    /// Folds a step's outputs into the state: sends join the network, timer
    /// arms join the timer list, traces feed the invariant checks, and coin
    /// requests are answered immediately (heads — the §2.3 relaxed protocol
    /// is not the explorer's default subject, but it must not wedge).
    fn absorb(
        &mut self,
        site: SiteId,
        outputs: Vec<Output>,
        traces: &mut Vec<(SiteId, TraceEvent)>,
        violations: &mut Vec<InvariantViolation>,
    ) {
        let mut queue: std::collections::VecDeque<Output> = outputs.into();
        while let Some(output) = queue.pop_front() {
            match output {
                Output::Send { to, msg } => {
                    if let Msg::Decision { txn, completed }
                    | Msg::OutcomeNotify { txn, completed } = &msg
                    {
                        self.claim_outcome(txn.raw(), *completed, violations);
                    }
                    if to.0 < self.machines.len() as u32 {
                        self.in_flight.push(Envelope {
                            from: site_node(site),
                            to,
                            msg,
                        });
                    }
                    // Replies to clients leave the system under exploration.
                }
                Output::ArmTimer { key, .. } => self.timers.push((site, key)),
                Output::Trace(ev) => {
                    self.check_trace(site, &ev, violations);
                    traces.push((site, ev));
                }
                Output::Metric(_) => {}
                Output::NeedCoin { txn, .. } => {
                    let mut out = Vec::new();
                    self.machines[site as usize].step(
                        SimTime::ZERO,
                        Input::Coin {
                            txn,
                            completed: true,
                        },
                        &mut self.stores[site as usize],
                        &mut out,
                    );
                    for o in out.into_iter().rev() {
                        queue.push_front(o);
                    }
                }
            }
        }
    }

    fn claim_outcome(&mut self, txn: u64, completed: bool, violations: &mut Vec<InvariantViolation>) {
        match self.book.outcomes.get(&txn) {
            None => {
                self.book.outcomes.insert(txn, completed);
            }
            Some(&prev) if prev != completed => violations.push(InvariantViolation {
                invariant: "I1",
                detail: format!(
                    "transaction {txn:#x} claimed both completed={prev} and completed={completed}"
                ),
                path: self.path.clone(),
            }),
            Some(_) => {}
        }
    }

    fn check_trace(
        &mut self,
        site: SiteId,
        ev: &TraceEvent,
        violations: &mut Vec<InvariantViolation>,
    ) {
        match *ev {
            TraceEvent::Decided { txn, completed } => {
                self.claim_outcome(txn, completed, violations);
            }
            TraceEvent::WaitTimedOut { txn, site: s } => {
                self.book.waited.insert((s, txn));
                debug_assert_eq!(s, site);
            }
            TraceEvent::PolyvalueInstalled { txn, site: s, .. } => {
                if !self.book.waited.contains(&(s, txn)) {
                    violations.push(InvariantViolation {
                        invariant: "I2",
                        detail: format!(
                            "site {s} installed polyvalues for {txn:#x} without a wait timeout"
                        ),
                        path: self.path.clone(),
                    });
                }
                if self.book.site_known.contains_key(&(s, txn)) {
                    violations.push(InvariantViolation {
                        invariant: "I4",
                        detail: format!(
                            "site {s} installed polyvalues for {txn:#x} after learning its outcome"
                        ),
                        path: self.path.clone(),
                    });
                }
                self.book.installed.insert((s, txn));
            }
            TraceEvent::PolyvalueCollapsed { txn, site: s, .. } => {
                if !self.book.installed.contains(&(s, txn)) {
                    violations.push(InvariantViolation {
                        invariant: "I3",
                        detail: format!(
                            "site {s} collapsed polyvalues for {txn:#x} it never installed"
                        ),
                        path: self.path.clone(),
                    });
                }
                if !self.book.site_known.contains_key(&(s, txn)) {
                    violations.push(InvariantViolation {
                        invariant: "I3",
                        detail: format!(
                            "site {s} collapsed polyvalues for {txn:#x} before learning its outcome"
                        ),
                        path: self.path.clone(),
                    });
                }
            }
            _ => {}
        }
    }

    /// I5, checked when no message or timer remains: nothing may stay
    /// in-doubt, and the transfers must conserve the total balance.
    fn check_quiescent(&self, cfg: &ExploreConfig, violations: &mut Vec<InvariantViolation>) {
        let mut total: i64 = 0;
        for (s, store) in self.stores.iter().enumerate() {
            if store.poly_count() != 0 {
                violations.push(InvariantViolation {
                    invariant: "I5",
                    detail: format!(
                        "site {s} still holds {} polyvalued item(s) at quiescence",
                        store.poly_count()
                    ),
                    path: self.path.clone(),
                });
            }
            if !store.pending_txns().is_empty() {
                violations.push(InvariantViolation {
                    invariant: "I5",
                    detail: format!("site {s} still holds staged writes at quiescence"),
                    path: self.path.clone(),
                });
            }
            for (_, entry) in store.iter_items() {
                if let Entry::Simple(Value::Int(n)) = entry {
                    total += n;
                }
            }
        }
        let expected = cfg.initial * cfg.items() as i64;
        if total != expected {
            violations.push(InvariantViolation {
                invariant: "I5",
                detail: format!("total balance {total} != initial total {expected}"),
                path: self.path.clone(),
            });
        }
    }
}

/// `Msg` discriminant name for path labels (full payloads make paths
/// unreadable).
fn kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::Submit { .. } => "Submit",
        Msg::Reply { .. } => "Reply",
        Msg::ReadReq { .. } => "ReadReq",
        Msg::ReadResp { .. } => "ReadResp",
        Msg::ReadNack { .. } => "ReadNack",
        Msg::Prepare { .. } => "Prepare",
        Msg::Ready { .. } => "Ready",
        Msg::PrepareNack { .. } => "PrepareNack",
        Msg::Decision { .. } => "Decision",
        Msg::Inquire { .. } => "Inquire",
        Msg::OutcomeNotify { .. } => "OutcomeNotify",
        Msg::PcPrepare { .. } => "PcPrepare",
        Msg::PcVote { .. } => "PcVote",
        Msg::PcVoteAck { .. } => "PcVoteAck",
        Msg::PcPhase1a { .. } => "PcPhase1a",
        Msg::PcPhase1b { .. } => "PcPhase1b",
        Msg::PcPhase2a { .. } => "PcPhase2a",
        Msg::PcPhase2b { .. } => "PcPhase2b",
        Msg::SnapshotRead { .. } => "SnapshotRead",
        Msg::SnapshotReadReply { .. } => "SnapshotReadReply",
    }
}

/// Exhaustive interleaving explorer over a scripted transfer workload.
pub struct Explorer {
    cfg: ExploreConfig,
}

impl Explorer {
    /// An explorer for the given scenario.
    pub fn new(cfg: ExploreConfig) -> Self {
        Explorer { cfg }
    }

    /// Enumerates every reachable interleaving (depth-first, deduplicating
    /// states) and returns the aggregate report.
    pub fn run(&self) -> ExploreReport {
        let mut report = ExploreReport::default();
        let mut visited: HashSet<u64> = HashSet::new();
        let initial = State::initial(&self.cfg);
        visited.insert(initial.fingerprint());
        let mut stack: Vec<State> = vec![initial];
        while let Some(state) = stack.pop() {
            report.states += 1;
            report.deepest = report.deepest.max(state.depth);
            if report.states as usize >= self.cfg.max_states {
                report.truncated = true;
                break;
            }
            let quiescent = state.quiescent();
            if quiescent {
                report.quiescent += 1;
                state.check_quiescent(&self.cfg, &mut report.violations);
            }
            if state.depth >= self.cfg.max_depth {
                if !quiescent {
                    report.truncated = true;
                }
                continue;
            }
            let actions = state.actions();
            let last = actions.len().checked_sub(1);
            let mut parent = Some(state);
            for (i, action) in actions.iter().enumerate() {
                // The parent state is not needed after its last action, so
                // the final branch reuses it instead of forking.
                let mut next = if Some(i) == last {
                    parent.take().expect("parent is live until the last action")
                } else {
                    parent.as_ref().expect("parent is live until the last action").fork()
                };
                let (_, violations) = next.apply(action);
                report.transitions += 1;
                report.violations.extend(violations);
                if visited.insert(next.fingerprint()) {
                    stack.push(next);
                }
            }
        }
        report
    }

    /// One random path through the same action space — the proptest-facing
    /// little sibling of [`Explorer::run`]. Returns the trace events emitted
    /// along the path and any invariant violations; the walk never exceeds
    /// `max_steps` actions.
    pub fn random_walk(&self, seed: u64, max_steps: usize) -> WalkResult {
        let mut rng = seed | 1;
        let mut draw = move |bound: usize| {
            // xorshift64* — deterministic, dependency-free.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize % bound.max(1)
        };
        let mut state = State::initial(&self.cfg);
        let mut result = WalkResult::default();
        for _ in 0..max_steps {
            let actions = state.actions();
            if actions.is_empty() {
                break;
            }
            let action = &actions[draw(actions.len())];
            let (traces, violations) = state.apply(action);
            result.steps += 1;
            result.trace.extend(traces);
            result.violations.extend(violations);
        }
        if state.quiescent() {
            state.check_quiescent(&self.cfg, &mut result.violations);
        }
        result
    }
}

/// Outcome of one [`Explorer::random_walk`].
#[derive(Debug, Clone, Default)]
pub struct WalkResult {
    /// Actions actually taken (may be fewer than requested if the system
    /// quiesced).
    pub steps: usize,
    /// Trace events emitted along the path, with the emitting site.
    pub trace: Vec<(SiteId, TraceEvent)>,
    /// Invariant violations found along the path.
    pub violations: Vec<InvariantViolation>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_crash_free_exploration_is_clean() {
        // Debug builds bound the search (the full 2-site/1-txn graph has
        // ~24k logical states, minutes without optimizations); release
        // builds — and the CI `pv-explore` job — enumerate it completely.
        let max_states = if cfg!(debug_assertions) { 4_000 } else { usize::MAX };
        let report = Explorer::new(ExploreConfig {
            sites: 2,
            txns: 1,
            crashes: 0,
            max_states,
            ..ExploreConfig::default()
        })
        .run();
        if !cfg!(debug_assertions) {
            assert!(!report.truncated, "2-site/1-txn must enumerate fully");
        }
        assert!(report.states > 10);
        assert!(report.quiescent > 0, "some path must quiesce");
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    fn paxos_engine() -> EngineConfig {
        EngineConfig {
            protocol: crate::config::CommitProtocol::PaxosCommit,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn paxos_commit_crash_free_exploration_is_clean() {
        // Unlike the polyvalue graph, the Paxos Commit 2-site/1-txn graph is
        // not CI-enumerable: concurrent takeovers with interleaving-dependent
        // ballots push it past 10M logical states. The sweep is therefore a
        // bounded-depth frontier — wide enough to cover the full fast path
        // plus takeover races — and the single-site graph (32 states) is
        // enumerated completely as the exactness anchor.
        let max_states = if cfg!(debug_assertions) { 2_000 } else { 50_000 };
        let report = Explorer::new(ExploreConfig {
            sites: 2,
            txns: 1,
            crashes: 0,
            max_states,
            engine: paxos_engine(),
            ..ExploreConfig::default()
        })
        .run();
        assert!(report.states > 10);
        assert!(report.quiescent > 0, "some path must quiesce");
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );

        let single = Explorer::new(ExploreConfig {
            sites: 1,
            txns: 1,
            crashes: 0,
            max_states: 10_000,
            engine: paxos_engine(),
            ..ExploreConfig::default()
        })
        .run();
        assert!(!single.truncated, "1-site Paxos Commit must enumerate fully");
        assert!(single.quiescent > 0);
        assert!(
            single.violations.is_empty(),
            "violations: {:#?}",
            single.violations
        );
    }

    #[test]
    fn paxos_commit_exploration_with_one_crash_is_clean() {
        // Every site doubles as an acceptor, so the crash budget covers the
        // acceptor-crash schedules the protocol's durability discipline
        // (log+sync before every reply) exists for — including crashing an
        // acceptor between accepting a vote and the decision, then replaying
        // its WAL into a takeover.
        let max_states = if cfg!(debug_assertions) { 1_500 } else { 30_000 };
        let report = Explorer::new(ExploreConfig {
            sites: 2,
            txns: 1,
            crashes: 1,
            max_states,
            engine: paxos_engine(),
            ..ExploreConfig::default()
        })
        .run();
        assert!(report.quiescent > 0, "some path must quiesce");
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );

        // Exactness anchor: the single-site graph (coordinator, registrar
        // and sole acceptor co-located) enumerates completely even with a
        // crash budget — every WAL-replay schedule of the acceptor log is
        // covered, none violates.
        let single = Explorer::new(ExploreConfig {
            sites: 1,
            txns: 1,
            crashes: 1,
            max_states: 10_000,
            engine: paxos_engine(),
            ..ExploreConfig::default()
        })
        .run();
        assert!(!single.truncated, "1-site/1-crash Paxos Commit must enumerate fully");
        assert!(single.quiescent > 0);
        assert!(
            single.violations.is_empty(),
            "violations: {:#?}",
            single.violations
        );
    }

    #[test]
    fn paxos_commit_random_walks_are_clean() {
        let explorer = Explorer::new(ExploreConfig {
            engine: paxos_engine(),
            ..ExploreConfig::default()
        });
        for seed in [7, 42, 1999] {
            let walk = explorer.random_walk(seed, 80);
            assert!(walk.violations.is_empty(), "violations: {:#?}", walk.violations);
        }
    }

    #[test]
    fn random_walks_are_clean_and_reproducible() {
        let explorer = Explorer::new(ExploreConfig::default());
        let a = explorer.random_walk(42, 60);
        let b = explorer.random_walk(42, 60);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.trace, b.trace);
        assert!(a.violations.is_empty(), "violations: {:#?}", a.violations);
    }
}
