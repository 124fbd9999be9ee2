//! The wall-clock host of one [`Site`]: the deadline queues and effect loop
//! under `pv_net::Node`.
//!
//! A [`Site`] is sans-IO: each step applies its traces and metrics into the
//! registry and trace its host lends, and hands back the sends and timer
//! arms for the host to apply. The simulation's `World` is one host, through
//! `Cluster`'s node adapter; [`SiteHost`] is the other. It owns the site,
//! its random stream and the armed timers, builds every input the site is
//! stepped with, applies the effects in emission order, and hands the
//! remote sends back to its caller. Timers are filed by their typed
//! [`TimerKey`]. It reads no clock: every call is handed the time as a
//! [`SimTime`], which must never decrease from one call to the next. The
//! socket loop around it owns the wall clock and is only a transport and a
//! wait: it feeds [`SiteHost::deliver`] from its connections, ships what
//! comes out, and blocks until more arrives or [`SiteHost::next_deadline`].
//! A crash is the process exiting, and a snapshot read is a
//! [`Msg::SnapshotRead`] the site answers itself, so neither needs a call
//! here.
//!
//! The metrics registry and the trace belong to the node, so every call
//! borrows them.

use crate::messages::Msg;
use crate::site::Site;
use pv_protocol::{Input, Output, TimerKey};
use pv_simnet::{Metrics, NodeId, SimDuration, SimRng, SimTime, Trace};
use std::collections::VecDeque;

/// One armed timer. Fields in firing order: the derived `Ord` is by
/// `(due, id)`, and ids grow in arm order, so `key` never decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Armed {
    due: SimTime,
    id: u64,
    key: TimerKey,
}

/// The timers armed with one delay, in `(due, id)` order. The time a host
/// is handed never decreases and ids grow, so an arm appends.
struct DelayQueue {
    delay: SimDuration,
    armed: VecDeque<Armed>,
}

/// The armed timers, one queue per distinct delay. The machine arms only
/// with its configuration's timeouts, so there are a handful of queues, and
/// the next timer to fire is the least of their fronts.
#[derive(Default)]
struct Timers {
    next_id: u64,
    queues: Vec<DelayQueue>,
}

impl Timers {
    /// Arms `key` at `now` to fire after `delay`, in the queue of `delay`,
    /// keeping it in `(due, id)` order.
    fn arm(&mut self, now: SimTime, delay: SimDuration, key: TimerKey) {
        let timer = Armed {
            due: now + delay,
            id: self.next_id,
            key,
        };
        self.next_id += 1;
        let q = match self.queues.iter().position(|q| q.delay == delay) {
            Some(q) => q,
            None => {
                self.queues.push(DelayQueue {
                    delay,
                    armed: VecDeque::new(),
                });
                self.queues.len() - 1
            }
        };
        let armed = &mut self.queues[q].armed;
        if armed.back().is_none_or(|last| *last < timer) {
            armed.push_back(timer);
        } else {
            // Only a time that went backwards gets here.
            let at = armed.partition_point(|t| *t < timer);
            armed.insert(at, timer);
        }
    }

    /// The queue whose front fires next: the least `(due, id)` among the
    /// fronts (`None`: nothing armed).
    fn next(&self) -> Option<usize> {
        let fronts = self.queues.iter().enumerate();
        let fronts = fronts.filter_map(|(q, queue)| Some((queue.armed.front()?, q)));
        fronts.min().map(|(_, q)| q)
    }

    /// When the next armed timer is due (`None`: nothing armed).
    fn deadline(&self) -> Option<SimTime> {
        self.next().map(|q| self.queues[q].armed[0].due)
    }

    /// Removes and returns the key of the earliest timer due by `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<TimerKey> {
        let q = self.next()?;
        let armed = &mut self.queues[q].armed;
        (armed[0].due <= now).then(|| armed.pop_front().expect("a front").key)
    }
}

/// One site hosted on wall-clock time. See the module docs.
pub struct SiteHost {
    site: Site,
    me: NodeId,
    rng: SimRng,
    timers: Timers,
}

impl SiteHost {
    /// Hosts `site` with the random stream of `seed`.
    pub fn new(mut site: Site, seed: u64) -> Self {
        site.enable_wall_clock_metrics();
        SiteHost {
            me: NodeId(site.id()),
            site,
            rng: SimRng::new(seed),
            timers: Timers::default(),
        }
    }

    /// The hosted site (inspection).
    pub fn site(&self) -> &Site {
        &self.site
    }

    /// Runs the site's start-up at `now`. A site opened over a previous
    /// incarnation's image replays recovery here, before any traffic;
    /// returns whether it did.
    pub fn start(
        &mut self,
        now: SimTime,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> bool {
        let cold = self.site.start(metrics);
        if cold {
            self.run(now, Input::Recovered, metrics, trace, out);
        }
        cold
    }

    /// Delivers one message at `now`.
    pub fn deliver(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Msg,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        self.run(now, Input::Msg { from, msg }, metrics, trace, out);
    }

    /// Fires, at `now`, every timer due by `now`; returns whether any was.
    pub fn fire_due(
        &mut self,
        now: SimTime,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> bool {
        let mut fired = false;
        while let Some(key) = self.timers.pop_due(now) {
            self.run(now, Input::Timer(key), metrics, trace, out);
            fired = true;
        }
        fired
    }

    /// When the next armed timer is due (`None`: nothing armed).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.deadline()
    }

    /// Clean shutdown: forces the store durable and gives the site back.
    pub fn into_site(mut self) -> Site {
        self.site.sync_store();
        self.site
    }

    /// Steps the site on `input`, then on every message it sent itself, in
    /// FIFO order, until none is left: a self-send is stepped before the
    /// caller can feed the next external input.
    fn run(
        &mut self,
        now: SimTime,
        input: Input,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        let mut loopback = VecDeque::new();
        let mut next = Some(input);
        while let Some(input) = next {
            let effects = self.site.step(now, input, &mut self.rng, metrics, trace);
            apply(now, self.me, effects, &mut self.timers, out, &mut loopback);
            next = loopback.pop_front().map(|msg| Input::Msg { from: self.me, msg });
        }
    }
}

/// Applies the effects of `me`'s step at `now`, in emission order: remote
/// sends to `out`, self-sends to `loopback`, timers to `timers`.
fn apply(
    now: SimTime,
    me: NodeId,
    effects: impl IntoIterator<Item = Output>,
    timers: &mut Timers,
    out: &mut Vec<(NodeId, Msg)>,
    loopback: &mut VecDeque<Msg>,
) {
    for effect in effects {
        match effect {
            Output::Send { to, msg } if to == me => loopback.push_back(msg),
            Output::Send { to, msg } => out.push((to, msg)),
            Output::ArmTimer { delay, key } => timers.arm(now, delay, key),
            Output::Trace(_) | Output::Metric(_) | Output::NeedCoin { .. } => {
                unreachable!("the site applies {effect:?} itself")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommitProtocol, EngineConfig};
    use crate::directory::Directory;
    use crate::ids::encode_txn;
    use crate::topology::Topology;
    use pv_core::{Entry, ItemId, TransactionSpec, TxnId, Value};
    use pv_simnet::SimDuration;
    use pv_store::{DiskWal, FsyncPolicy, SiteStore};

    /// Node id of the test's client.
    const CLIENT: NodeId = NodeId(9);

    fn topo() -> Topology {
        Topology::new(2, Directory::Mod(2))
            .engine(EngineConfig {
                wait_timeout: SimDuration::from_millis(40),
                ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
            })
            .item(0u64, 100i64)
            .item(1u64, 100i64)
    }

    fn host(site: u32, topo: &Topology) -> SiteHost {
        SiteHost::new(Site::open(site, topo).unwrap(), 7)
    }

    fn submit(req_id: u64, spec: TransactionSpec) -> Msg {
        Msg::Submit { req_id, spec }
    }

    /// A distinct timer key per `n`.
    fn key(n: u64) -> TimerKey {
        TimerKey::PartWait(TxnId(n))
    }

    /// Arms `key(n)` to fire `delay_ms` after the step that emits it.
    fn timer(n: u64, delay_ms: u64) -> Output {
        Output::ArmTimer {
            delay: SimDuration::from_millis(delay_ms),
            key: key(n),
        }
    }

    /// Applies `effects` as the effects of a step run at `now_ms`.
    fn arm_at(h: &mut SiteHost, now_ms: u64, effects: Vec<Output>) {
        let now = SimTime::from_millis(now_ms);
        apply(now, h.me, effects, &mut h.timers, &mut Vec::new(), &mut VecDeque::new());
    }

    /// Every timer armed on `h`, in no particular order.
    fn armed(h: &SiteHost) -> impl Iterator<Item = (SimDuration, &Armed)> {
        let queues = h.timers.queues.iter();
        queues.flat_map(|q| q.armed.iter().map(move |t| (q.delay, t)))
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/host-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn timers_fire_in_due_order_with_ties_in_arm_order() {
        let mut h = host(0, &topo());
        assert_eq!(h.next_deadline(), None);
        arm_at(&mut h, 0, vec![timer(100, 30), timer(101, 10), timer(102, 10)]);
        assert_eq!(h.next_deadline(), Some(SimTime::from_millis(10)));
        // Nothing is due before the first deadline.
        assert_eq!(h.timers.pop_due(SimTime(9_999)), None);
        let late = SimTime::from_secs(1);
        assert_eq!(h.timers.pop_due(late), Some(key(101)));
        assert_eq!(h.timers.pop_due(late), Some(key(102)));
        assert_eq!(h.next_deadline(), Some(SimTime::from_millis(30)));
        assert_eq!(h.timers.pop_due(late), Some(key(100)));
        assert_eq!(h.timers.pop_due(late), None);
        assert_eq!(h.next_deadline(), None);
    }

    #[test]
    fn timers_of_two_delays_fire_in_due_then_id_order_across_queues() {
        let mut h = host(0, &topo());
        // 5 s and 2 s arms, alternating, so that the 2 s queue's front is
        // sometimes earlier than the 5 s queue's and sometimes tied with it.
        arm_at(&mut h, 0, vec![timer(100, 5_000)]);
        arm_at(&mut h, 1_000, vec![timer(101, 2_000)]);
        arm_at(&mut h, 3_000, vec![timer(102, 2_000)]);
        arm_at(&mut h, 3_000, vec![timer(103, 5_000)]);
        arm_at(&mut h, 6_000, vec![timer(104, 2_000)]);
        arm_at(&mut h, 6_000, vec![timer(105, 5_000)]);
        arm_at(&mut h, 7_000, vec![timer(106, 2_000)]);
        assert_eq!(h.timers.queues.len(), 2, "one queue per delay");
        let mut fired = Vec::new();
        while let Some(due) = h.next_deadline() {
            let TimerKey::PartWait(txn) = h.timers.pop_due(due).unwrap() else {
                panic!("only part-wait keys were armed");
            };
            fired.push((due.as_micros() / 1000, txn.raw()));
        }
        let expected = [
            (3_000, 101),
            (5_000, 100),
            (5_000, 102),
            (8_000, 103),
            (8_000, 104),
            (9_000, 106),
            (11_000, 105),
        ];
        assert_eq!(fired, expected);
    }

    #[test]
    fn an_arm_out_of_order_is_filed_in_place() {
        let mut h = host(0, &topo());
        arm_at(&mut h, 2_000, vec![timer(100, 1_000)]);
        // A time that went backwards: same delay, earlier due.
        arm_at(&mut h, 1_000, vec![timer(101, 1_000)]);
        let late = SimTime::from_secs(10);
        assert_eq!(h.timers.pop_due(late), Some(key(101)));
        assert_eq!(h.timers.pop_due(late), Some(key(100)));
    }

    #[test]
    fn a_site_above_4095_coordinates_a_transfer_and_fires_its_timers() {
        // Its transaction ids carry site 4096, more than a timer key packed
        // into one word can hold; the host files the typed keys.
        let (mut metrics, mut trace) = (Metrics::new(), Trace::default());
        let topo = Topology::new(4097, Directory::Mod(4097))
            .item(0u64, 100i64)
            .item(4096u64, 100i64);
        let mut hosts = [host(0, &topo), host(4096, &topo)];
        let client = NodeId(5000);
        let first = submit(1, TransactionSpec::transfer(4096, 0, 30));
        let mut wire = VecDeque::from([(client, NodeId(4096), first)]);
        let mut replies = Vec::new();
        let now = SimTime::from_secs(1);
        while let Some((from, to, msg)) = wire.pop_front() {
            let h = match to.0 {
                0 => &mut hosts[0],
                4096 => &mut hosts[1],
                _ => {
                    replies.push(msg);
                    continue;
                }
            };
            let mut out = Vec::new();
            h.deliver(now, from, msg, &mut metrics, &mut trace, &mut out);
            wire.extend(out.into_iter().map(|(dst, m)| (to, dst, m)));
        }
        assert!(
            matches!(&replies[..], [Msg::Reply { req_id: 1, result }] if result.is_committed()),
            "{replies:?}"
        );
        let entry = |h: &SiteHost, item: u64| h.site().store().get(ItemId(item));
        assert_eq!(entry(&hosts[1], 4096), Some(Entry::Simple(Value::Int(70))));
        assert_eq!(entry(&hosts[0], 0), Some(Entry::Simple(Value::Int(130))));

        // The coordinator's timers fire, and leave nothing to resend.
        let read_timer = TimerKey::CoordRead(encode_txn(4096, 0, 1));
        assert!(armed(&hosts[1]).any(|(_, t)| t.key == read_timer));
        let mut out = Vec::new();
        while let Some(due) = hosts[1].next_deadline() {
            assert!(hosts[1].fire_due(due, &mut metrics, &mut trace, &mut out));
        }
        assert!(out.is_empty(), "{out:?}");
        assert!(hosts[1].site().is_quiescent());
    }

    #[test]
    fn deliver_stamps_and_arms_at_the_time_it_is_handed() {
        let (mut metrics, mut trace) = (Metrics::new(), Trace::collecting());
        let topo = topo();
        let mut hosts = [host(0, &topo), host(1, &topo)];
        // A whole transfer, every frame delivered at `x`.
        let x = SimTime(123_456_789);
        let first = submit(1, TransactionSpec::transfer(0, 1, 30));
        let mut wire = VecDeque::from([(CLIENT, NodeId(0), first)]);
        while let Some((from, to, msg)) = wire.pop_front() {
            if to != CLIENT {
                let mut out = Vec::new();
                hosts[to.0 as usize].deliver(x, from, msg, &mut metrics, &mut trace, &mut out);
                wire.extend(out.into_iter().map(|(dst, m)| (to, dst, m)));
            }
        }
        let text = trace.to_text();
        assert!(text.contains("decided"), "trace:\n{text}");
        assert!(trace.records().iter().all(|r| r.at == x), "trace:\n{text}");
        let engine = topo.engine;
        let timeouts = [
            engine.read_timeout,
            engine.ready_timeout,
            engine.wait_timeout,
            engine.read_lease,
            engine.inquire_interval,
        ];
        let timers: Vec<_> = hosts.iter().flat_map(armed).collect();
        assert!(timers.iter().any(|&(delay, _)| delay == engine.read_timeout));
        for (delay, t) in timers {
            assert!(timeouts.contains(&delay), "{delay:?}");
            assert_eq!(t.due, x + delay);
        }
    }

    #[test]
    fn fire_due_fires_what_is_due_at_the_instant_and_nothing_later() {
        let (mut metrics, mut trace, mut out) = (Metrics::new(), Trace::default(), Vec::new());
        let mut h = host(0, &topo());
        let x = SimTime::from_secs(1);
        let one = SimDuration(1);
        let first = submit(1, TransactionSpec::transfer(0, 1, 30));
        h.deliver(x, CLIENT, first, &mut metrics, &mut trace, &mut out);
        let second = submit(2, TransactionSpec::transfer(0, 1, 10));
        h.deliver(x + one, CLIENT, second, &mut metrics, &mut trace, &mut out);
        let t = h.next_deadline().unwrap();
        assert!(t > x);
        assert!(!h.fire_due(SimTime(t.0 - 1), &mut metrics, &mut trace, &mut out));
        assert!(h.fire_due(t, &mut metrics, &mut trace, &mut out));
        // The second submission's twin, armed 1 µs later, is left.
        assert_eq!(h.next_deadline(), Some(t + one));
        assert!(h.fire_due(t + one, &mut metrics, &mut trace, &mut out));
    }

    #[test]
    fn start_replays_recovery_once_on_a_reopened_image_and_never_on_a_fresh_store() {
        let (mut metrics, mut trace, mut out) = (Metrics::new(), Trace::collecting(), Vec::new());

        let mut fresh = host(0, &topo());
        assert!(!fresh.start(SimTime::ZERO, &mut metrics, &mut trace, &mut out));
        assert_eq!(fresh.site().store().epoch(), 0);
        assert_eq!(fresh.next_deadline(), None);
        assert!(out.is_empty() && trace.is_empty());

        // The image of a participant that died staged, outcome unknown.
        let dir = scratch("reopened");
        let txn = encode_txn(0, 0, 1);
        {
            let wal = DiskWal::open(dir.join("site-1"), FsyncPolicy::PerDecision).unwrap();
            let mut store = SiteStore::open(Box::new(wal));
            store.seed_item(ItemId(1), Value::Int(100));
            store.stage(txn, 0, vec![(ItemId(1), Entry::Simple(Value::Int(130)))]);
            store.sync();
        }
        let mut reopened = host(1, &topo().data_dir(&dir));
        assert!(reopened.start(SimTime::ZERO, &mut metrics, &mut trace, &mut out));
        assert_eq!(reopened.site().store().epoch(), 1);
        // Recovery re-armed the staged transaction's wait timer and the
        // inquiry timer.
        let timers = armed(&reopened).count();
        assert!(timers >= 2, "{timers} timers");
        // A second start has nothing left to replay.
        assert!(!reopened.start(SimTime::ZERO, &mut metrics, &mut trace, &mut out));
        assert_eq!(reopened.site().store().epoch(), 1);
        assert_eq!(armed(&reopened).count(), timers);
    }

    #[test]
    fn self_sends_are_stepped_before_deliver_returns() {
        let (mut metrics, mut trace) = (Metrics::new(), Trace::collecting());
        let topo = topo();
        let mut hosts = [host(0, &topo), host(1, &topo)];
        // Ferry a cross-site transfer between the two hosts by hand. Site 0
        // coordinates and also holds item 0, so it addresses its decision to
        // itself as well as to site 1.
        let first = submit(1, TransactionSpec::transfer(0, 1, 30));
        let mut wire = VecDeque::from([(CLIENT, NodeId(0), first)]);
        let mut replies = Vec::new();
        let mut decided = false;
        let mut now = SimTime::ZERO;
        while let Some((from, to, msg)) = wire.pop_front() {
            now += SimDuration(10);
            if to == CLIENT {
                replies.push(msg);
                continue;
            }
            let host = &mut hosts[to.0 as usize];
            let mut out = Vec::new();
            host.deliver(now, from, msg, &mut metrics, &mut trace, &mut out);
            if out.iter().any(|(_, m)| matches!(m, Msg::Decision { .. })) {
                // Site 1's copy is still in `out`; site 0's own copy never
                // left the host and is already applied.
                decided = true;
                let store = host.site().store();
                assert_eq!(store.get(ItemId(0)), Some(Entry::Simple(Value::Int(70))));
                assert!(store.pending_txns().is_empty());
                assert!(out.iter().all(|(dst, _)| *dst != to), "{out:?}");
            }
            wire.extend(out.into_iter().map(|(dst, m)| (to, dst, m)));
        }
        assert!(decided);
        assert!(
            matches!(&replies[..], [Msg::Reply { req_id: 1, result }] if result.is_committed()),
            "{replies:?}"
        );
        let store = hosts[1].site().store();
        assert_eq!(store.get(ItemId(1)), Some(Entry::Simple(Value::Int(130))));

        // The trace the caller lent saw the protocol go by. Each host stamps
        // with its own clock, so times compare per node.
        let text = trace.to_text();
        assert!(text.contains("prepared") && text.contains("decided"), "trace:\n{text}");
        for node in [NodeId(0), NodeId(1)] {
            let mine = trace.records().iter().filter(|r| r.node == node);
            let times: Vec<SimTime> = mine.map(|r| r.at).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "{node}: {times:?}");
        }

        // The registry the caller lent counted the storage work and holds no
        // gauge series: nothing reads one from a node, and it would only grow.
        assert!(metrics.counter("wal.appends") > 0);
        assert_eq!(metrics.snapshot().gauges, Default::default());
    }
}
