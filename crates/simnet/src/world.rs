//! The simulation world: event loop, scheduling, failures.

use crate::actor::{Actor, Ctx, Effect, NodeId};
use crate::metrics::Metrics;
use crate::net::{LinkState, NetConfig};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens when a scheduled event comes due.
#[derive(Debug)]
enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        key: u64,
        gen: u32,
    },
    Crash(NodeId),
    Recover(NodeId),
    LinkDown(NodeId, NodeId),
    LinkUp(NodeId, NodeId),
}

/// A pending event's place in the queue; the event itself waits in
/// `World::slab[slot]`. Ordering is `(at, seq)`, ties broken by push order,
/// which keeps runs fully deterministic: `seq` is unique, so `slot` never
/// decides.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// A deterministic discrete-event simulation of a message-passing system.
///
/// The world owns a set of [`Actor`] nodes, a virtual clock, a network model
/// (latency, loss, partitions), and a failure schedule (crashes and
/// recoveries). Runs are exactly reproducible from the seed.
///
/// # Examples
///
/// ```
/// use pv_simnet::{Actor, Ctx, NetConfig, NodeId, SimTime, World};
///
/// struct Echo;
/// impl Actor for Echo {
///     type Msg = u32;
///     fn on_message(&mut self, ctx: &mut Ctx<u32>, from: NodeId, msg: u32) {
///         if from != NodeId::ENV {
///             return;
///         }
///         ctx.metrics().inc("echoed");
///         ctx.send(ctx.me(), msg + 1);
///     }
/// }
///
/// let mut world = World::new(42, NetConfig::instant());
/// let n = world.add_node(Echo);
/// world.send_from_env(n, 7);
/// world.run_until(SimTime::from_secs(1));
/// assert_eq!(world.metrics().counter("echoed"), 1);
/// ```
pub struct World<A: Actor> {
    now: SimTime,
    seq: u64,
    /// Keys of the pending events, earliest first.
    queue: BinaryHeap<Reverse<Key>>,
    /// The pending events, each in the slot its key names; `None` slots are
    /// listed in `free` and reused before the slab grows.
    slab: Vec<Option<EventKind<A::Msg>>>,
    free: Vec<u32>,
    /// The effect list every callback fills; kept so its allocation is
    /// reused.
    effects: Vec<Effect<A::Msg>>,
    actors: Vec<A>,
    up: Vec<bool>,
    crash_gen: Vec<u32>,
    links: LinkState,
    net: NetConfig,
    rng: SimRng,
    metrics: Metrics,
    trace: Trace,
    started: bool,
}

impl<A: Actor> World<A> {
    /// Creates an empty world with the given seed and network model.
    pub fn new(seed: u64, net: NetConfig) -> Self {
        World {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            effects: Vec::new(),
            actors: Vec::new(),
            up: Vec::new(),
            crash_gen: Vec::new(),
            links: LinkState::default(),
            net,
            rng: SimRng::new(seed),
            metrics: Metrics::new(),
            trace: Trace::disabled(),
            started: false,
        }
    }

    /// Adds a node; returns its identity. If the world has already started,
    /// the actor's `on_start` runs immediately.
    pub fn add_node(&mut self, actor: A) -> NodeId {
        let id = NodeId(self.actors.len() as u32);
        self.actors.push(actor);
        self.up.push(true);
        self.crash_gen.push(0);
        if self.started {
            self.run_callback(id, |actor, ctx| actor.on_start(ctx));
        }
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether `node` is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up[node.0 as usize]
    }

    /// Immutable access to a node's actor (for assertions and scraping).
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node.0 as usize]
    }

    /// Runs a caller-supplied callback on `node`'s actor with a full effect
    /// context and returns its result. Sends, timers, traces, and metrics
    /// the callback emits apply exactly as they would from a delivery, so
    /// drivers can expose actor operations (e.g. direct snapshot reads)
    /// without inventing a message round-trip. Consumes the same per-node
    /// RNG fork a delivery would: two same-seed runs making the same calls
    /// at the same points remain byte-identical.
    pub fn call<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>) -> R) -> R {
        let mut out = None;
        self.run_callback(node, |actor, ctx| out = Some(f(actor, ctx)));
        out.expect("callback ran")
    }

    /// The run's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The run's protocol trace (disabled unless [`World::set_trace`] armed
    /// one before the run).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Installs a trace recorder; pass [`Trace::collecting`] to capture the
    /// run's protocol transitions.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The master random stream (e.g. for workload generation).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Injects a message from the environment, delivered after local delay.
    pub fn send_from_env(&mut self, to: NodeId, msg: A::Msg) {
        let at = self.now + self.net.local_delay;
        self.push(
            at,
            EventKind::Deliver {
                from: NodeId::ENV,
                to,
                msg,
            },
        );
    }

    /// Schedules a crash of `node` at time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.push(at, EventKind::Crash(node));
    }

    /// Schedules a recovery of `node` at time `at`.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.push(at, EventKind::Recover(node));
    }

    /// Schedules a bidirectional link cut between `a` and `b` at time `at`.
    pub fn schedule_partition(&mut self, at: SimTime, a: NodeId, b: NodeId) {
        self.push(at, EventKind::LinkDown(a, b));
    }

    /// Schedules the link between `a` and `b` to heal at time `at`.
    pub fn schedule_heal(&mut self, at: SimTime, a: NodeId, b: NodeId) {
        self.push(at, EventKind::LinkUp(a, b));
    }

    /// Calls `on_start` on every node added so far. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.run_callback(NodeId(i as u32), |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Processes a single event; returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some(Reverse(key)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        let kind = self.slab[key.slot as usize].take().expect("a queued key names a live slot");
        self.free.push(key.slot);
        match kind {
            EventKind::Deliver { from, to, msg } => {
                let to_idx = to.0 as usize;
                if to_idx >= self.actors.len() || !self.up[to_idx] {
                    self.metrics.inc("net.dropped_dest_down");
                } else if from != NodeId::ENV && from != to && !self.links.connected(from, to) {
                    // Partition began while the message was in flight.
                    self.metrics.inc("net.dropped_partition");
                } else {
                    self.metrics.inc("net.delivered");
                    self.run_callback(to, |actor, ctx| actor.on_message(ctx, from, msg));
                }
            }
            EventKind::Timer { node, key, gen } => {
                let idx = node.0 as usize;
                if !self.up[idx] || self.crash_gen[idx] != gen {
                    return true; // timer died with the crash
                }
                self.run_callback(node, |actor, ctx| actor.on_timer(ctx, key));
            }
            EventKind::Crash(node) => {
                let idx = node.0 as usize;
                if self.up[idx] {
                    self.up[idx] = false;
                    self.crash_gen[idx] += 1;
                    self.metrics.inc("node.crashes");
                    self.actors[idx].on_crash();
                }
            }
            EventKind::Recover(node) => {
                let idx = node.0 as usize;
                if !self.up[idx] {
                    self.up[idx] = true;
                    self.metrics.inc("node.recoveries");
                    self.run_callback(node, |actor, ctx| actor.on_recover(ctx));
                }
            }
            EventKind::LinkDown(a, b) => {
                self.links.cut(a, b);
                self.metrics.inc("net.partitions");
            }
            EventKind::LinkUp(a, b) => {
                self.links.heal(a, b);
                self.metrics.inc("net.heals");
            }
        }
        true
    }

    /// Runs until the queue is exhausted or virtual time would pass `t`;
    /// afterwards `now() == max(now, t)` (events at exactly `t` are
    /// processed; a target already in the past is a no-op — the clock never
    /// rewinds).
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > t {
                break;
            }
            self.step();
        }
        self.now = self.now.max(t);
    }

    /// Runs until no events remain (the system is quiescent) or `max_events`
    /// have been processed. Returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.start();
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Number of pending events (for tests).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn push(&mut self, at: SimTime, kind: EventKind<A::Msg>) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.queue.push(Reverse(Key { at, seq, slot }));
    }

    /// Runs one actor callback and applies its effects.
    fn run_callback(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) {
        let idx = node.0 as usize;
        let mut node_rng = self.rng.fork(u64::from(node.0) + 1);
        let mut effects = std::mem::take(&mut self.effects);
        let mut ctx = Ctx {
            now: self.now,
            me: node,
            effects: &mut effects,
            rng: &mut node_rng,
            metrics: &mut self.metrics,
            trace: &mut self.trace,
        };
        f(&mut self.actors[idx], &mut ctx);
        // Refresh the master stream so successive callbacks differ.
        self.rng = self.rng.fork(0x5eed);
        // Effects apply in emission order: the RNG is consumed per message,
        // and each send or timer takes the next `seq`.
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    if node != to && !self.links.connected(node, to) {
                        self.metrics.inc("net.dropped_partition");
                        continue;
                    }
                    if node != to && self.net.drop_prob > 0.0 && self.rng.chance(self.net.drop_prob)
                    {
                        self.metrics.inc("net.dropped_loss");
                        continue;
                    }
                    // Duplication and reordering only ever draw from the RNG
                    // when enabled, so zero-configured runs stay bit-for-bit
                    // identical to runs predating these knobs.
                    let copies = if node != to
                        && self.net.dup_prob > 0.0
                        && self.rng.chance(self.net.dup_prob)
                    {
                        self.metrics.inc("net.duplicated");
                        2
                    } else {
                        1
                    };
                    let mut msg = Some(msg);
                    for k in 0..copies {
                        let mut delay = self.net.sample_delay(node, to, &mut self.rng);
                        if node != to && self.net.reorder_window > crate::time::SimDuration::ZERO {
                            delay = delay
                                + crate::time::SimDuration::from_micros(
                                    self.rng
                                        .below(self.net.reorder_window.as_micros().max(1)),
                                );
                        }
                        // The final copy moves the message; only duplicated
                        // copies pay for a clone.
                        let m = if k + 1 == copies {
                            msg.take().expect("one move per send")
                        } else {
                            msg.clone().expect("copies pending")
                        };
                        self.push(self.now + delay, EventKind::Deliver { from: node, to, msg: m });
                    }
                }
                Effect::SetTimer { key, at } => {
                    let gen = self.crash_gen[idx];
                    self.push(at, EventKind::Timer { node, key, gen });
                }
            }
        }
        self.effects = effects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Test actor: counts messages, echoes pings, exercises timers.
    #[derive(Default)]
    struct Node {
        received: Vec<(NodeId, u32)>,
        timers_fired: Vec<u64>,
        /// Deliveries (by value) and timers (by key), in firing order.
        fired: Vec<(SimTime, u64)>,
        crashed: u32,
        recovered: u32,
        // "Stable" state surviving crashes, vs volatile scratch.
        stable: u32,
        volatile: u32,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        PingTo(NodeId, u32),
        ArmTimer(u64),
        /// Arms timer `key` and sends `Ping(v)` to itself, both due one
        /// microsecond later on an instant network; the timer first when
        /// `timer_first`.
        Both { timer_first: bool, key: u64, v: u32 },
        Bump,
    }

    impl Actor for Node {
        type Msg = Msg;

        fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(v) => {
                    self.received.push((from, v));
                    self.fired.push((ctx.now(), u64::from(v)));
                }
                Msg::PingTo(to, v) => ctx.send(to, Msg::Ping(v)),
                Msg::ArmTimer(key) => {
                    ctx.set_timer(SimDuration::from_millis(100), key);
                }
                Msg::Both { timer_first, key, v } => {
                    if timer_first {
                        ctx.set_timer(SimDuration::from_micros(1), key);
                    }
                    ctx.send(ctx.me(), Msg::Ping(v));
                    if !timer_first {
                        ctx.set_timer(SimDuration::from_micros(1), key);
                    }
                }
                Msg::Bump => {
                    self.stable += 1;
                    self.volatile += 1;
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Msg>, key: u64) {
            self.timers_fired.push(key);
            self.fired.push((ctx.now(), key));
        }

        fn on_crash(&mut self) {
            self.crashed += 1;
            self.volatile = 0;
        }

        fn on_recover(&mut self, _ctx: &mut Ctx<Msg>) {
            self.recovered += 1;
        }
    }

    fn world() -> World<Node> {
        World::new(7, NetConfig::instant())
    }

    #[test]
    fn messages_are_delivered_in_order() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.send_from_env(a, Msg::Ping(1));
        w.send_from_env(a, Msg::Ping(2));
        w.run_until(SimTime::from_secs(1));
        let got: Vec<u32> = w.actor(a).received.iter().map(|&(_, v)| v).collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(w.now(), SimTime::from_secs(1));
    }

    #[test]
    fn node_to_node_messaging() {
        let mut w = world();
        let a = w.add_node(Node::default());
        let b = w.add_node(Node::default());
        w.send_from_env(a, Msg::PingTo(b, 9));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.actor(b).received, vec![(a, 9)]);
    }

    #[test]
    fn timers_fire() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.send_from_env(a, Msg::ArmTimer(5));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.actor(a).timers_fired, vec![5]);
    }

    #[test]
    fn events_due_at_one_instant_fire_in_push_order() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.send_from_env(a, Msg::Both { timer_first: true, key: 1, v: 2 });
        w.run_until(SimTime::from_millis(1));
        w.send_from_env(a, Msg::Both { timer_first: false, key: 3, v: 4 });
        w.run_until(SimTime::from_millis(2));
        let fired = &w.actor(a).fired;
        assert_eq!(fired.iter().map(|&(_, k)| k).collect::<Vec<_>>(), [1, 2, 4, 3]);
        // Each pair really was due at one instant, so only `seq` ordered it.
        assert_eq!(fired[0].0, fired[1].0);
        assert_eq!(fired[2].0, fired[3].0);
    }

    #[test]
    fn the_slab_reuses_slots_and_never_outgrows_the_peak_backlog() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        let mut w = world();
        let a = w.add_node(Node::default());
        w.start();
        let mut peak = 0;
        for i in 0..100_000u64 {
            w.send_from_env(a, Msg::Bump);
            peak = peak.max(w.pending_events());
            // Drain to a backlog that climbs to 64 and falls back to 0.
            let backlog = 64 - (i % 128).abs_diff(64);
            while w.pending_events() as u64 > backlog {
                w.step();
            }
            assert!(w.slab.len() <= peak, "cycle {i}: {} slots, peak {peak}", w.slab.len());
        }
        assert_eq!((peak, w.slab.len()), (65, 65));
        w.run_to_quiescence(u64::MAX);
        assert_eq!(w.actor(a).stable, 100_000);
        assert_eq!(w.free.len(), w.slab.len());
    }

    #[test]
    fn pending_events_counts_only_live_events() {
        let mut w = world();
        let a = w.add_node(Node::default());
        for v in 0..3 {
            w.send_from_env(a, Msg::Ping(v));
        }
        assert!(w.step() && w.step());
        assert_eq!((w.pending_events(), w.slab.len()), (1, 3));
        // A new event takes a freed slot instead of growing the slab.
        w.send_from_env(a, Msg::Ping(3));
        assert_eq!((w.pending_events(), w.slab.len()), (2, 3));
        w.run_to_quiescence(10);
        assert_eq!((w.pending_events(), w.slab.len()), (0, 3));
        let got: Vec<u32> = w.actor(a).received.iter().map(|&(_, v)| v).collect();
        assert_eq!(got, [0, 1, 2, 3]);
    }

    #[test]
    fn crash_drops_messages_and_timers() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.send_from_env(a, Msg::ArmTimer(1));
        w.schedule_crash(SimTime::from_millis(50), a);
        // Message arriving while down is dropped.
        w.run_until(SimTime::from_millis(60));
        w.send_from_env(a, Msg::Ping(1));
        w.run_until(SimTime::from_secs(1));
        assert!(!w.is_up(a));
        assert_eq!(w.actor(a).crashed, 1);
        assert!(
            w.actor(a).timers_fired.is_empty(),
            "timer must die with crash"
        );
        assert!(w.actor(a).received.is_empty());
        assert_eq!(w.metrics().counter("net.dropped_dest_down"), 1);
    }

    #[test]
    fn recovery_restores_delivery() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.schedule_crash(SimTime::from_millis(10), a);
        w.schedule_recover(SimTime::from_millis(20), a);
        w.run_until(SimTime::from_millis(30));
        assert!(w.is_up(a));
        assert_eq!(w.actor(a).recovered, 1);
        w.send_from_env(a, Msg::Ping(3));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.actor(a).received.len(), 1);
    }

    #[test]
    fn volatile_state_is_lost_stable_survives() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.send_from_env(a, Msg::Bump);
        w.run_until(SimTime::from_millis(5));
        w.schedule_crash(SimTime::from_millis(10), a);
        w.schedule_recover(SimTime::from_millis(20), a);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.actor(a).stable, 1);
        assert_eq!(w.actor(a).volatile, 0);
    }

    #[test]
    fn partitions_block_and_heal() {
        let mut w = world();
        let a = w.add_node(Node::default());
        let b = w.add_node(Node::default());
        w.schedule_partition(SimTime::ZERO, a, b);
        w.run_until(SimTime::from_millis(1));
        w.send_from_env(a, Msg::PingTo(b, 1));
        w.run_until(SimTime::from_millis(10));
        assert!(w.actor(b).received.is_empty());
        assert_eq!(w.metrics().counter("net.dropped_partition"), 1);
        w.schedule_heal(w.now(), a, b);
        w.run_until(SimTime::from_millis(20));
        w.send_from_env(a, Msg::PingTo(b, 2));
        w.run_until(SimTime::from_millis(30));
        assert_eq!(w.actor(b).received, vec![(a, 2)]);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut w: World<Node> = World::new(
                seed,
                NetConfig {
                    min_delay: SimDuration::from_millis(1),
                    jitter: SimDuration::from_millis(10),
                    local_delay: SimDuration::from_micros(1),
                    drop_prob: 0.2,
                    dup_prob: 0.1,
                    reorder_window: SimDuration::from_millis(5),
                },
            );
            let a = w.add_node(Node::default());
            let b = w.add_node(Node::default());
            for i in 0..50 {
                w.send_from_env(a, Msg::PingTo(b, i));
            }
            w.run_until(SimTime::from_secs(1));
            w.actor(b).received.clone()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should perturb the run");
    }

    #[test]
    fn run_until_never_rewinds_the_clock() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.now(), SimTime::from_secs(2));
        // A target in the past is a no-op, not a time machine.
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.now(), SimTime::from_secs(2));
        // Events injected afterwards happen at or after the current time.
        w.send_from_env(a, Msg::Ping(1));
        w.run_until(SimTime::from_secs(3));
        assert_eq!(w.actor(a).received.len(), 1);
    }

    #[test]
    fn run_to_quiescence_counts_events() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.send_from_env(a, Msg::Ping(1));
        let n = w.run_to_quiescence(1000);
        assert_eq!(n, 1);
        assert_eq!(w.pending_events(), 0);
        assert!(!w.step());
    }

    #[test]
    fn double_crash_and_double_recover_are_idempotent() {
        let mut w = world();
        let a = w.add_node(Node::default());
        w.schedule_crash(SimTime::from_millis(1), a);
        w.schedule_crash(SimTime::from_millis(2), a);
        w.schedule_recover(SimTime::from_millis(3), a);
        w.schedule_recover(SimTime::from_millis(4), a);
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.actor(a).crashed, 1);
        assert_eq!(w.actor(a).recovered, 1);
    }

    #[test]
    fn duplicating_network_delivers_some_messages_twice() {
        let mut w: World<Node> = World::new(
            5,
            NetConfig {
                dup_prob: 0.5,
                ..NetConfig::instant()
            },
        );
        let a = w.add_node(Node::default());
        let b = w.add_node(Node::default());
        for i in 0..100 {
            w.send_from_env(a, Msg::PingTo(b, i));
        }
        w.run_until(SimTime::from_secs(1));
        let got = w.actor(b).received.len();
        assert!(got > 100, "expected duplicates, got {got}");
        assert_eq!(w.metrics().counter("net.duplicated"), got as u64 - 100);
        // Self-sends are never duplicated.
        let mut w: World<Node> = World::new(
            5,
            NetConfig {
                dup_prob: 1.0,
                ..NetConfig::instant()
            },
        );
        let a = w.add_node(Node::default());
        w.send_from_env(a, Msg::PingTo(a, 1));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.actor(a).received.len(), 1);
    }

    #[test]
    fn reorder_window_shuffles_delivery_order() {
        let mut w: World<Node> = World::new(
            9,
            NetConfig {
                reorder_window: SimDuration::from_millis(50),
                ..NetConfig::instant()
            },
        );
        let a = w.add_node(Node::default());
        let b = w.add_node(Node::default());
        for i in 0..50 {
            w.send_from_env(a, Msg::PingTo(b, i));
        }
        w.run_until(SimTime::from_secs(1));
        let got: Vec<u32> = w.actor(b).received.iter().map(|&(_, v)| v).collect();
        assert_eq!(got.len(), 50, "reordering must not lose messages");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_ne!(got, sorted, "expected at least one out-of-order delivery");
    }

    #[test]
    fn dup_and_reorder_are_deterministic_under_seed() {
        let run = |seed: u64| {
            let mut w: World<Node> = World::new(
                seed,
                NetConfig {
                    dup_prob: 0.3,
                    reorder_window: SimDuration::from_millis(20),
                    ..NetConfig::instant()
                },
            );
            let a = w.add_node(Node::default());
            let b = w.add_node(Node::default());
            for i in 0..50 {
                w.send_from_env(a, Msg::PingTo(b, i));
            }
            w.run_until(SimTime::from_secs(1));
            w.actor(b).received.clone()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn lossy_network_drops_some_messages() {
        let mut w: World<Node> = World::new(
            5,
            NetConfig {
                drop_prob: 0.5,
                ..NetConfig::instant()
            },
        );
        let a = w.add_node(Node::default());
        let b = w.add_node(Node::default());
        for i in 0..100 {
            w.send_from_env(a, Msg::PingTo(b, i));
        }
        w.run_until(SimTime::from_secs(1));
        let got = w.actor(b).received.len();
        assert!(got > 10 && got < 90, "got {got}");
        assert!(w.metrics().counter("net.dropped_loss") > 0);
    }
}
