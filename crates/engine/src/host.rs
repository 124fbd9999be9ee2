//! The wall-clock host of one [`Site`]: the timer map and effect drain under
//! `pv_net::Node`.
//!
//! A [`Site`] is a sans-IO actor: every callback runs under a
//! [`pv_simnet::Ctx`] and leaves behind effects (sends, timers) for its
//! driver to apply. The simulation's `World` is one driver; [`SiteHost`] is
//! the other. It owns the site, its random stream, the armed timers and the
//! `Instant` epoch that maps wall-clock time onto [`SimTime`] micros, runs
//! each callback, applies the effects in emission order, and hands the
//! remote sends back to its caller. The socket loop around it is only a
//! transport and a wait: it feeds [`SiteHost::deliver`] from its
//! connections, ships what comes out, and blocks until more arrives or
//! [`SiteHost::next_deadline`]. A crash is the process exiting, and a
//! snapshot read is a [`Msg::SnapshotRead`] the site answers itself, so
//! neither needs a call here.
//!
//! The metrics registry and the trace belong to the node, so every call
//! borrows them.

use crate::messages::Msg;
use crate::site::Site;
use pv_simnet::{Actor, Ctx, Effect, Metrics, NodeId, SimRng, SimTime, Trace};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// One site hosted on wall-clock time. See the module docs.
pub struct SiteHost {
    site: Site,
    me: NodeId,
    rng: SimRng,
    next_timer_id: u64,
    /// Armed timers, `(due, timer id) → key`. Ids grow in arm order, so the
    /// map's first entry is the next timer to fire and equal deadlines fire
    /// in the order they were armed.
    timers: BTreeMap<(Instant, u64), u64>,
    /// Wall-clock time zero of the site's [`SimTime`].
    epoch: Instant,
}

impl SiteHost {
    /// Hosts `site` with the random stream of `seed`; its clock starts now.
    pub fn new(mut site: Site, seed: u64) -> Self {
        site.enable_wall_clock_metrics();
        SiteHost {
            me: NodeId(site.id()),
            site,
            rng: SimRng::new(seed),
            next_timer_id: 0,
            timers: BTreeMap::new(),
            epoch: Instant::now(),
        }
    }

    /// The hosted site (inspection).
    pub fn site(&self) -> &Site {
        &self.site
    }

    /// Runs the site's start-up. A site opened over a previous incarnation's
    /// image replays recovery here, before any traffic; returns whether it
    /// did.
    pub fn start(
        &mut self,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> bool {
        let cold = self.site.is_cold_start();
        self.run(metrics, trace, out, |site, ctx| site.on_start(ctx));
        cold
    }

    /// Delivers one message.
    pub fn deliver(
        &mut self,
        from: NodeId,
        msg: Msg,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        self.run(metrics, trace, out, |site, ctx| site.on_message(ctx, from, msg));
    }

    /// Fires every timer that is due; returns whether any was.
    pub fn fire_due(
        &mut self,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> bool {
        let mut fired = false;
        while let Some(key) = self.pop_due(Instant::now()) {
            self.run(metrics, trace, out, |site, ctx| site.on_timer(ctx, key));
            fired = true;
        }
        fired
    }

    /// When the next armed timer is due (`None`: nothing armed).
    pub fn next_deadline(&self) -> Option<Instant> {
        self.timers.keys().next().map(|&(due, _)| due)
    }

    /// Clean shutdown: forces the store durable and gives the site back.
    pub fn into_site(mut self) -> Site {
        self.site.sync_store();
        self.site
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// Runs `first`, then every message the site sent to itself, in FIFO
    /// order, until none is left: a self-send is stepped before the caller
    /// can feed the next external input.
    fn run(
        &mut self,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
        first: impl FnOnce(&mut Site, &mut Ctx<Msg>),
    ) {
        let mut loopback = VecDeque::new();
        self.callback(metrics, trace, out, &mut loopback, first);
        while let Some(msg) = loopback.pop_front() {
            let me = self.me;
            self.callback(metrics, trace, out, &mut loopback, |site, ctx| {
                site.on_message(ctx, me, msg)
            });
        }
    }

    /// Runs one actor callback and applies its effects.
    fn callback(
        &mut self,
        metrics: &mut Metrics,
        trace: &mut Trace,
        out: &mut Vec<(NodeId, Msg)>,
        loopback: &mut VecDeque<Msg>,
        f: impl FnOnce(&mut Site, &mut Ctx<Msg>),
    ) {
        let mut ctx = Ctx::external(
            self.now(),
            self.me,
            &mut self.rng,
            metrics,
            trace,
            &mut self.next_timer_id,
        );
        f(&mut self.site, &mut ctx);
        let effects = ctx.drain_effects();
        self.apply(effects, out, loopback);
    }

    /// Applies effects in emission order: remote sends to `out`, self-sends
    /// to `loopback`, timers to the map.
    fn apply(
        &mut self,
        effects: Vec<Effect<Msg>>,
        out: &mut Vec<(NodeId, Msg)>,
        loopback: &mut VecDeque<Msg>,
    ) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } if to == self.me => loopback.push_back(msg),
                Effect::Send { to, msg } => out.push((to, msg)),
                Effect::SetTimer { id, key, at } => {
                    let due = self.epoch + Duration::from_micros(at.as_micros());
                    self.timers.insert((due, id), key);
                }
                Effect::CancelTimer(id) => self.timers.retain(|&(_, armed), _| armed != id),
            }
        }
    }

    /// Removes and returns the key of the earliest timer due at `now`.
    fn pop_due(&mut self, now: Instant) -> Option<u64> {
        let entry = self.timers.first_entry()?;
        (entry.key().0 <= now).then(|| entry.remove())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommitProtocol, EngineConfig};
    use crate::directory::Directory;
    use crate::ids::encode_txn;
    use crate::topology::Topology;
    use pv_core::{Entry, Expr, ItemId, TransactionSpec, Value};
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

    fn transfer(from: u64, to: u64, amount: i64) -> TransactionSpec {
        let (f, t) = (ItemId(from), ItemId(to));
        TransactionSpec::new()
            .guard(Expr::read(f).ge(Expr::int(amount)))
            .update(f, Expr::read(f).sub(Expr::int(amount)))
            .update(t, Expr::read(t).add(Expr::int(amount)))
    }

    fn submit(req_id: u64, spec: TransactionSpec) -> Msg {
        Msg::Submit { req_id, spec }
    }

    fn timer(id: u64, key: u64, at_ms: u64) -> Effect<Msg> {
        Effect::SetTimer {
            id,
            key,
            at: SimTime(at_ms * 1000),
        }
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
        let effects = vec![timer(0, 100, 30), timer(1, 101, 10), timer(2, 102, 10)];
        h.apply(effects, &mut Vec::new(), &mut VecDeque::new());
        assert_eq!(h.next_deadline(), Some(h.epoch + Duration::from_millis(10)));
        // Nothing is due before the first deadline.
        assert_eq!(h.pop_due(h.epoch + Duration::from_millis(9)), None);
        let late = h.epoch + Duration::from_secs(1);
        assert_eq!(h.pop_due(late), Some(101));
        assert_eq!(h.pop_due(late), Some(102));
        assert_eq!(h.next_deadline(), Some(h.epoch + Duration::from_millis(30)));
        assert_eq!(h.pop_due(late), Some(100));
        assert_eq!(h.pop_due(late), None);
        assert_eq!(h.next_deadline(), None);
    }

    #[test]
    fn cancel_suppresses_exactly_the_cancelled_timer() {
        let mut h = host(0, &topo());
        let effects = vec![
            timer(0, 100, 10),
            timer(1, 101, 10),
            timer(2, 102, 20),
            Effect::CancelTimer(1),
            // Cancelling a timer that is not armed is a no-op.
            Effect::CancelTimer(7),
        ];
        h.apply(effects, &mut Vec::new(), &mut VecDeque::new());
        let late = h.epoch + Duration::from_secs(1);
        assert_eq!(h.pop_due(late), Some(100));
        assert_eq!(h.pop_due(late), Some(102));
        assert_eq!(h.pop_due(late), None);
    }

    #[test]
    fn start_replays_recovery_once_on_a_reopened_image_and_never_on_a_fresh_store() {
        let (mut metrics, mut trace, mut out) = (Metrics::new(), Trace::collecting(), Vec::new());

        let mut fresh = host(0, &topo());
        assert!(!fresh.start(&mut metrics, &mut trace, &mut out));
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
        assert!(reopened.start(&mut metrics, &mut trace, &mut out));
        assert_eq!(reopened.site().store().epoch(), 1);
        // Recovery re-armed the staged transaction's wait timer and the
        // inquiry timer.
        let armed = reopened.timers.len();
        assert!(armed >= 2, "{armed} timers");
        // A second start has nothing left to replay.
        assert!(!reopened.start(&mut metrics, &mut trace, &mut out));
        assert_eq!(reopened.site().store().epoch(), 1);
        assert_eq!(reopened.timers.len(), armed);
    }

    #[test]
    fn self_sends_are_stepped_before_deliver_returns() {
        let (mut metrics, mut trace) = (Metrics::new(), Trace::collecting());
        let topo = topo();
        let mut hosts = [host(0, &topo), host(1, &topo)];
        // Ferry a cross-site transfer between the two hosts by hand. Site 0
        // coordinates and also holds item 0, so it addresses its decision to
        // itself as well as to site 1.
        let mut wire = VecDeque::from([(CLIENT, NodeId(0), submit(1, transfer(0, 1, 30)))]);
        let mut replies = Vec::new();
        let mut decided = false;
        while let Some((from, to, msg)) = wire.pop_front() {
            if to == CLIENT {
                replies.push(msg);
                continue;
            }
            let host = &mut hosts[to.0 as usize];
            let mut out = Vec::new();
            host.deliver(from, msg, &mut metrics, &mut trace, &mut out);
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
