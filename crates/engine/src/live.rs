//! A live, thread-backed deployment of the engine.
//!
//! The simulated world is where the paper's experiments run, but the same
//! [`Site`] logic also deploys onto real threads: one OS thread per site,
//! crossbeam channels as the network, and wall clock time. This is possible
//! because sites are *sans-io* actors: a [`SiteHost`] runs each callback,
//! keeps the timers and returns the messages to send, so a site thread is
//! only the transport (channels, injected link faults) and the wait between
//! deadlines.
//!
//! The live runtime supports crash/recover injection (the thread drops its
//! volatile state and replays the WAL, exactly like the simulation) and
//! shared metrics behind a `parking_lot` mutex.

use crate::error::EngineError;
use crate::host::SiteHost;
use crate::messages::{Msg, TxnResult};
use crate::site::Site;
use crate::topology::Topology;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use pv_core::{ItemId, Value};
use pv_simnet::{Metrics, NodeId, SimRng, Trace, TraceRecord, TraceSink};
use pv_store::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared registry of client reply channels, keyed by client node id.
type ClientRegistry = Arc<Mutex<BTreeMap<u32, Sender<(u64, TxnResult)>>>>;

/// Shared fault state of the live network: cut site pairs and a loss
/// probability applied to every site-to-site send. Mirrors the simulation's
/// [`pv_simnet::NetConfig`] knobs, but mutable at runtime.
#[derive(Debug, Default)]
struct LiveLinks {
    blocked: BTreeSet<(u32, u32)>,
    drop_prob: f64,
}

impl LiveLinks {
    /// Normalises a pair so `(a, b)` and `(b, a)` are the same link.
    fn key(a: u32, b: u32) -> (u32, u32) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// What flows over a site thread's inbox.
enum Envelope {
    /// A protocol message from another node.
    Deliver { from: NodeId, msg: Msg },
    /// Crash the site: volatile state is dropped, the WAL survives.
    Crash,
    /// Recover the site.
    Recover,
    /// Reply with a state snapshot.
    Inspect(Sender<SiteSnapshot>),
    /// Serve a coordination-free MVCC snapshot read and reply on the
    /// channel with `(snapshot, entries)`.
    SnapshotRead {
        /// Items to read; empty = every item the site holds.
        items: Vec<ItemId>,
        /// Where the `(snapshot, entries)` answer goes.
        reply: Sender<pv_store::SnapshotView>,
    },
    /// Shut the thread down.
    Stop,
}

/// A point-in-time view of one live site.
#[derive(Debug, Clone)]
pub struct SiteSnapshot {
    /// The site's id.
    pub site: SiteId,
    /// Whether it is currently up.
    pub up: bool,
    /// Items currently holding polyvalues.
    pub poly_count: usize,
    /// Entries of every item the site holds.
    pub items: Vec<(ItemId, pv_core::Entry<Value>)>,
    /// Whether any protocol state is still in flight.
    pub quiescent: bool,
}

/// One site thread: a [`SiteHost`] between an inbox and the peers' inboxes.
struct SiteThread {
    host: SiteHost,
    me: NodeId,
    inbox: Receiver<Envelope>,
    peers: Vec<Sender<Envelope>>,
    clients: ClientRegistry,
    metrics: Arc<Mutex<Metrics>>,
    trace: Arc<Mutex<Trace>>,
    links: Arc<Mutex<LiveLinks>>,
    /// Draws the injected message loss of [`LiveLinks::drop_prob`].
    loss_rng: SimRng,
}

impl SiteThread {
    /// Runs one host call under the shared metrics and trace, then ships
    /// the messages it produced.
    fn drive<R>(
        &mut self,
        f: impl FnOnce(&mut SiteHost, &mut Metrics, &mut Trace, &mut Vec<(NodeId, Msg)>) -> R,
    ) -> R {
        let mut out = Vec::new();
        let result = {
            let mut metrics = self.metrics.lock();
            let mut trace = self.trace.lock();
            f(&mut self.host, &mut metrics, &mut trace, &mut out)
        };
        for (to, msg) in out {
            self.send(to, msg);
        }
        result
    }

    /// Routes one outgoing message: replies to client channels, everything
    /// else to site inboxes. A send to a missing peer is dropped, like a
    /// datagram.
    fn send(&mut self, to: NodeId, msg: Msg) {
        if let Msg::Reply { req_id, result } = msg {
            if let Some(tx) = self.clients.lock().get(&to.0) {
                let _ = tx.send((req_id, result));
            }
            return;
        }
        // Injected network faults apply to site-to-site links only (client
        // replies above stay reliable, like the simulation's loopback).
        let (blocked, drop_prob) = {
            let links = self.links.lock();
            (
                links.blocked.contains(&LiveLinks::key(self.me.0, to.0)),
                links.drop_prob,
            )
        };
        if blocked {
            self.metrics.lock().inc("live.dropped_partition");
            return;
        }
        if drop_prob > 0.0 && self.loss_rng.chance(drop_prob) {
            self.metrics.lock().inc("live.dropped_loss");
            return;
        }
        if let Some(peer) = self.peers.get(to.0 as usize) {
            let _ = peer.send(Envelope::Deliver { from: self.me, msg });
        }
    }

    fn run(mut self) -> Site {
        if self.drive(|host, m, t, out| host.start(m, t, out)) {
            self.metrics.lock().inc("live.cold_recoveries");
        }
        loop {
            self.drive(|host, m, t, out| host.fire_due(m, t, out));
            let wait = self
                .host
                .next_deadline()
                .map(|due| due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50));
            match self.inbox.recv_timeout(wait) {
                Ok(Envelope::Deliver { from, msg }) => {
                    self.drive(|host, m, t, out| host.deliver(from, msg, m, t, out));
                }
                Ok(Envelope::Crash) => {
                    if self.host.crash() {
                        self.metrics.lock().inc("live.crashes");
                    }
                }
                Ok(Envelope::Recover) => {
                    if self.drive(|host, m, t, out| host.recover(m, t, out)) {
                        self.metrics.lock().inc("live.recoveries");
                    }
                }
                Ok(Envelope::Inspect(reply)) => {
                    let site = self.host.site();
                    let snapshot = SiteSnapshot {
                        site: site.id(),
                        up: self.host.is_up(),
                        poly_count: site.poly_count(),
                        items: site
                            .store()
                            .iter_items()
                            .map(|(i, e)| (i, e.clone()))
                            .collect(),
                        quiescent: site.is_quiescent(),
                    };
                    let _ = reply.send(snapshot);
                }
                Ok(Envelope::SnapshotRead { items, reply }) => {
                    // A crashed site drops the request; the caller times out.
                    if let Some(view) = self.drive(|host, m, t, _| host.snapshot_read(&items, m, t))
                    {
                        let _ = reply.send(view);
                    }
                }
                Ok(Envelope::Stop) | Err(RecvTimeoutError::Disconnected) => {
                    return self.host.into_site();
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }
}

/// Configures and starts a [`LiveCluster`].
///
/// The cluster shape lives in a [`Topology`] — the configuration type shared
/// with the simulation and the `pv-net` socket runtime — so the usual entry
/// point is [`LiveCluster::from_topology`]. This builder adds what only the
/// live runtime has: streaming trace sinks.
pub struct LiveBuilder {
    topo: Topology,
    trace: Option<Trace>,
}

impl LiveBuilder {
    /// Starts a builder over an existing cluster description.
    pub fn from_topology(topo: Topology) -> Self {
        LiveBuilder { topo, trace: None }
    }

    /// Buffers a full protocol trace, readable via
    /// [`LiveCluster::trace_text`] / [`LiveCluster::trace_records`]. Live
    /// traces are timestamped with wall-clock microseconds since cluster
    /// start, so unlike simulation traces they are not run-to-run identical.
    pub fn collect_trace(mut self) -> Self {
        self.trace = Some(Trace::collecting());
        self
    }

    /// Buffers a protocol trace and streams each record to `sink`. Sinks
    /// are live callbacks, so they stay builder-level rather than moving
    /// into the (clonable, runtime-agnostic) [`Topology`].
    pub fn trace(mut self, sink: impl TraceSink + Send + 'static) -> Self {
        self.trace = Some(Trace::with_sink(sink));
        self
    }

    /// Spawns the site threads and returns the running cluster.
    ///
    /// # Panics
    ///
    /// Panics when a site's WAL directory cannot be opened; use
    /// [`LiveBuilder::try_start`] (or [`LiveCluster::from_topology`]) to
    /// get the error instead.
    pub fn start(self) -> LiveCluster {
        self.try_start().expect("start live cluster")
    }

    /// Spawns the site threads, reporting WAL-directory failures as
    /// [`EngineError::Io`] instead of panicking.
    pub fn try_start(self) -> Result<LiveCluster, EngineError> {
        let trace = match self.trace {
            Some(trace) => trace,
            None if self.topo.collect_trace => Trace::collecting(),
            None => Trace::default(),
        };
        LiveCluster::spawn(&self.topo, trace)
    }
}

/// A running thread-per-site deployment of the engine.
///
/// # Examples
///
/// ```
/// use pv_core::{Expr, ItemId, TransactionSpec, Value};
/// use pv_engine::live::LiveCluster;
/// use pv_engine::{Directory, Topology};
/// use std::time::Duration;
///
/// let topo = Topology::new(2, Directory::Mod(2))
///     .item(ItemId(0), Value::Int(100))
///     .item(ItemId(1), Value::Int(0));
/// let cluster = LiveCluster::from_topology(topo).unwrap();
/// let transfer = TransactionSpec::new()
///     .guard(Expr::read(ItemId(0)).ge(Expr::int(40)))
///     .update(ItemId(0), Expr::read(ItemId(0)).sub(Expr::int(40)))
///     .update(ItemId(1), Expr::read(ItemId(1)).add(Expr::int(40)));
/// let result = cluster.submit(0, &transfer, Duration::from_secs(5)).unwrap();
/// assert!(result.is_committed());
/// cluster.shutdown();
/// ```
pub struct LiveCluster {
    senders: Vec<Sender<Envelope>>,
    handles: Vec<std::thread::JoinHandle<Site>>,
    clients: ClientRegistry,
    metrics: Arc<Mutex<Metrics>>,
    trace: Arc<Mutex<Trace>>,
    links: Arc<Mutex<LiveLinks>>,
    client_rx: Receiver<(u64, TxnResult)>,
    client_node: u32,
    next_req: Mutex<u64>,
    static_checks: bool,
}

impl LiveCluster {
    /// Spawns a live cluster described by a runtime-agnostic [`Topology`] —
    /// the same value [`crate::ClusterBuilder::from_topology`] and
    /// `pv_net::NetBuilder::from_topology` accept. Fails with
    /// [`EngineError::Io`] when a site's WAL directory cannot be opened.
    pub fn from_topology(topo: Topology) -> Result<Self, EngineError> {
        LiveBuilder::from_topology(topo).try_start()
    }

    fn spawn(topo: &Topology, trace: Trace) -> Result<Self, EngineError> {
        let sites = topo.sites;
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let trace = Arc::new(Mutex::new(trace));
        let clients = Arc::new(Mutex::new(BTreeMap::new()));
        let links = Arc::new(Mutex::new(LiveLinks::default()));
        let epoch = Instant::now();
        let mut senders = Vec::with_capacity(sites as usize);
        let mut inboxes = Vec::with_capacity(sites as usize);
        for _ in 0..sites {
            let (tx, rx) = channel::unbounded();
            senders.push(tx);
            inboxes.push(rx);
        }
        let mut handles = Vec::with_capacity(sites as usize);
        for (s, inbox) in (0..sites).zip(inboxes) {
            let site = Site::open(s, topo)?;
            let thread = SiteThread {
                host: SiteHost::new(site, 0xC0FFEE + u64::from(s), epoch),
                me: NodeId(s),
                inbox,
                peers: senders.clone(),
                clients: Arc::clone(&clients),
                metrics: Arc::clone(&metrics),
                trace: Arc::clone(&trace),
                links: Arc::clone(&links),
                loss_rng: SimRng::new(0x1055 + u64::from(s)),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pv-site-{s}"))
                    .spawn(move || thread.run())
                    .expect("spawn site thread"),
            );
        }
        // Register one client channel, addressed as node `sites`.
        let client_node = sites;
        let (ctx_tx, client_rx) = channel::unbounded();
        clients.lock().insert(client_node, ctx_tx);
        Ok(LiveCluster {
            senders,
            handles,
            clients,
            metrics,
            trace,
            links,
            client_rx,
            client_node,
            next_req: Mutex::new(1),
            static_checks: topo.engine.static_checks,
        })
    }

    /// Submits a transaction to `coordinator` and blocks for the result.
    pub fn submit(
        &self,
        coordinator: SiteId,
        spec: &pv_core::TransactionSpec,
        deadline: Duration,
    ) -> Result<TxnResult, EngineError> {
        if self.static_checks {
            if let Err(report) = pv_analysis::gate_spec(spec) {
                return Err(EngineError::Rejected(report));
            }
        }
        let req_id = {
            let mut next = self.next_req.lock();
            let id = *next;
            *next += 1;
            id
        };
        self.sender(coordinator)?
            .send(Envelope::Deliver {
                from: NodeId(self.client_node),
                msg: Msg::Submit {
                    req_id,
                    spec: spec.clone(),
                },
            })
            .map_err(|_| EngineError::Disconnected)?;
        let limit = Instant::now() + deadline;
        loop {
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            match self.client_rx.recv_timeout(remaining) {
                Ok((id, result)) if id == req_id => return Ok(result),
                Ok(_) => continue, // stale reply from an abandoned request
                Err(RecvTimeoutError::Timeout) => return Err(EngineError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(EngineError::Disconnected),
            }
        }
    }

    fn sender(&self, site: SiteId) -> Result<&Sender<Envelope>, EngineError> {
        self.senders
            .get(site as usize)
            .ok_or(EngineError::UnknownSite(site))
    }

    /// Crashes a site (volatile state lost; the WAL survives).
    pub fn crash(&self, site: SiteId) -> Result<(), EngineError> {
        let _ = self.sender(site)?.send(Envelope::Crash);
        Ok(())
    }

    /// Recovers a crashed site.
    pub fn recover(&self, site: SiteId) -> Result<(), EngineError> {
        let _ = self.sender(site)?.send(Envelope::Recover);
        Ok(())
    }

    /// Cuts the link between sites `a` and `b` (both directions): every
    /// message either sends to the other is silently dropped until healed.
    pub fn partition(&self, a: SiteId, b: SiteId) -> Result<(), EngineError> {
        self.check_site(a)?;
        self.check_site(b)?;
        self.links.lock().blocked.insert(LiveLinks::key(a, b));
        Ok(())
    }

    /// Heals a previously cut link.
    pub fn heal(&self, a: SiteId, b: SiteId) -> Result<(), EngineError> {
        self.check_site(a)?;
        self.check_site(b)?;
        self.links.lock().blocked.remove(&LiveLinks::key(a, b));
        Ok(())
    }

    /// Sets the probability that any site-to-site message is lost in
    /// transit, mirroring the simulation's `NetConfig::drop_prob`.
    pub fn set_drop_prob(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.links.lock().drop_prob = p;
    }

    fn check_site(&self, site: SiteId) -> Result<(), EngineError> {
        self.sender(site).map(|_| ())
    }

    /// Snapshots a site's state.
    pub fn inspect(&self, site: SiteId, deadline: Duration) -> Result<SiteSnapshot, EngineError> {
        let (tx, rx) = channel::bounded(1);
        self.sender(site)?
            .send(Envelope::Inspect(tx))
            .map_err(|_| EngineError::Disconnected)?;
        rx.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => EngineError::Timeout,
            RecvTimeoutError::Disconnected => EngineError::Disconnected,
        })
    }

    /// Serves a coordination-free read-only transaction at `site`: the site
    /// thread pins an MVCC snapshot, reads `items` (all its items when the
    /// list is empty), and answers `(snapshot, entries)` without touching
    /// its lock table or sending any protocol message.
    pub fn snapshot_read(
        &self,
        site: SiteId,
        items: &[ItemId],
        deadline: Duration,
    ) -> Result<pv_store::SnapshotView, EngineError> {
        let (tx, rx) = channel::bounded(1);
        self.sender(site)?
            .send(Envelope::SnapshotRead {
                items: items.to_vec(),
                reply: tx,
            })
            .map_err(|_| EngineError::Disconnected)?;
        rx.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => EngineError::Timeout,
            RecvTimeoutError::Disconnected => EngineError::Disconnected,
        })
    }

    /// Total polyvalued items across live sites.
    pub fn total_poly_count(&self, deadline: Duration) -> Result<usize, EngineError> {
        let mut total = 0;
        for s in 0..self.senders.len() {
            total += self.inspect(s as SiteId, deadline)?.poly_count;
        }
        Ok(total)
    }

    /// A copy of the shared metrics registry.
    pub fn metrics(&self) -> Metrics {
        self.metrics.lock().clone()
    }

    /// The buffered trace records so far (empty unless the builder enabled
    /// tracing).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.trace.lock().records().to_vec()
    }

    /// The buffered trace in the stable line format.
    pub fn trace_text(&self) -> String {
        self.trace.lock().to_text()
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.senders.len()
    }

    /// Stops every site thread and returns the final [`Site`] states.
    pub fn shutdown(self) -> Vec<Site> {
        for tx in &self.senders {
            let _ = tx.send(Envelope::Stop);
        }
        self.clients.lock().clear();
        self.handles
            .into_iter()
            .map(|h| h.join().expect("site thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommitProtocol, EngineConfig};
    use crate::directory::Directory;
    use pv_core::{Entry, Expr, TransactionSpec};
    use pv_simnet::SimDuration;

    fn fast_config() -> EngineConfig {
        EngineConfig {
            read_timeout: SimDuration::from_millis(200),
            ready_timeout: SimDuration::from_millis(200),
            wait_timeout: SimDuration::from_millis(80),
            read_lease: SimDuration::from_millis(500),
            inquire_interval: SimDuration::from_millis(100),
            ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
        }
    }

    fn transfer(from: u64, to: u64, amount: i64) -> TransactionSpec {
        let (f, t) = (ItemId(from), ItemId(to));
        TransactionSpec::new()
            .guard(Expr::read(f).ge(Expr::int(amount)))
            .update(f, Expr::read(f).sub(Expr::int(amount)))
            .update(t, Expr::read(t).add(Expr::int(amount)))
    }

    fn two_site_topo() -> Topology {
        Topology::new(2, Directory::Mod(2))
            .engine(fast_config())
            .items(vec![(ItemId(0), Value::Int(100)), (ItemId(1), Value::Int(100))])
    }

    fn two_site_cluster() -> LiveCluster {
        LiveCluster::from_topology(two_site_topo()).unwrap()
    }

    #[test]
    fn live_transfer_commits() {
        let cluster = two_site_cluster();
        let result = cluster
            .submit(0, &transfer(0, 1, 30), Duration::from_secs(5))
            .unwrap();
        assert!(result.is_committed());
        let s0 = cluster.inspect(0, Duration::from_secs(1)).unwrap();
        let s1 = cluster.inspect(1, Duration::from_secs(1)).unwrap();
        assert_eq!(s0.items[0].1, Entry::Simple(Value::Int(70)));
        assert_eq!(s1.items[0].1, Entry::Simple(Value::Int(130)));
        assert!(s0.up && s1.up);
        cluster.shutdown();
    }

    #[test]
    fn live_denied_transfer_changes_nothing() {
        let cluster = two_site_cluster();
        let result = cluster
            .submit(0, &transfer(0, 1, 500), Duration::from_secs(5))
            .unwrap();
        assert!(result.is_committed());
        assert!(!result.fully_granted());
        let s0 = cluster.inspect(0, Duration::from_secs(1)).unwrap();
        assert_eq!(s0.items[0].1, Entry::Simple(Value::Int(100)));
        cluster.shutdown();
    }

    #[test]
    fn live_crash_recover_preserves_data() {
        let cluster = two_site_cluster();
        cluster
            .submit(0, &transfer(0, 1, 10), Duration::from_secs(5))
            .unwrap();
        cluster.crash(1).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let down = cluster.inspect(1, Duration::from_secs(1)).unwrap();
        assert!(!down.up);
        cluster.recover(1).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let up = cluster.inspect(1, Duration::from_secs(1)).unwrap();
        assert!(up.up);
        assert_eq!(up.items[0].1, Entry::Simple(Value::Int(110)), "WAL replay");
        cluster.shutdown();
    }

    #[test]
    fn live_transaction_during_crash_times_out_or_aborts() {
        let cluster = two_site_cluster();
        cluster.crash(1).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // Coordinator 0 cannot reach site 1: the attempt must not hang
        // forever and must not commit.
        let result = cluster.submit(0, &transfer(0, 1, 10), Duration::from_secs(3));
        match result {
            Ok(r) => assert!(!r.is_committed()),
            Err(EngineError::Timeout) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
        cluster.recover(1).unwrap();
        // After recovery the system settles with no residual uncertainty.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(cluster.total_poly_count(Duration::from_secs(1)).unwrap(), 0);
        // And money is intact.
        let s0 = cluster.inspect(0, Duration::from_secs(1)).unwrap();
        let s1 = cluster.inspect(1, Duration::from_secs(1)).unwrap();
        let total = [&s0, &s1]
            .iter()
            .flat_map(|s| s.items.iter())
            .map(|(_, e)| e.as_simple().and_then(Value::as_int).expect("settled"))
            .sum::<i64>();
        assert_eq!(total, 200);
        cluster.shutdown();
    }

    #[test]
    fn live_unknown_site_is_an_error_not_a_panic() {
        let cluster = two_site_cluster();
        assert_eq!(cluster.crash(9).err(), Some(EngineError::UnknownSite(9)));
        assert_eq!(cluster.recover(9).err(), Some(EngineError::UnknownSite(9)));
        let submitted = cluster.submit(9, &transfer(0, 1, 1), Duration::from_secs(1));
        assert_eq!(submitted.err(), Some(EngineError::UnknownSite(9)));
        assert_eq!(
            cluster.inspect(9, Duration::from_secs(1)).err(),
            Some(EngineError::UnknownSite(9))
        );
        cluster.shutdown();
    }

    #[test]
    fn live_trace_records_protocol_transitions() {
        let topo = Topology::new(2, Directory::Mod(2))
            .engine(fast_config())
            .item(0u64, 100i64)
            .item(1u64, 100i64);
        let cluster = LiveBuilder::from_topology(topo).collect_trace().start();
        let result = cluster
            .submit(0, &transfer(0, 1, 30), Duration::from_secs(5))
            .unwrap();
        assert!(result.is_committed());
        let text = cluster.trace_text();
        assert!(text.contains("prepared"), "trace:\n{text}");
        assert!(text.contains("decided"), "trace:\n{text}");
        assert_eq!(text.lines().count(), cluster.trace_records().len());
        cluster.shutdown();
    }

    #[test]
    fn live_static_checks_reject_before_submission() {
        let cluster = LiveCluster::from_topology(two_site_topo().static_checks()).unwrap();
        // An ill-typed spec never reaches a site.
        let bad = TransactionSpec::new().update(ItemId(0), Expr::int(1).add(Expr::bool(true)));
        match cluster.submit(0, &bad, Duration::from_secs(5)) {
            Err(EngineError::Rejected(report)) => {
                assert!(report.contains("PV001"), "report: {report}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // A well-typed spec still commits.
        let result = cluster
            .submit(0, &transfer(0, 1, 30), Duration::from_secs(5))
            .unwrap();
        assert!(result.is_committed());
        cluster.shutdown();
    }

    /// A scratch directory under the workspace `target/` (tests must not
    /// write outside the repository), wiped before use.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/live-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Polls `f` until it holds or `deadline` passes; returns the final
    /// verdict.
    fn wait_until(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
        let limit = Instant::now() + deadline;
        while Instant::now() < limit {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        f()
    }

    fn live_total(cluster: &LiveCluster) -> i64 {
        (0..cluster.site_count())
            .map(|s| {
                cluster
                    .inspect(s as SiteId, Duration::from_secs(1))
                    .unwrap()
                    .items
                    .iter()
                    .map(|(_, e)| e.as_simple().and_then(Value::as_int).expect("settled"))
                    .sum::<i64>()
            })
            .sum()
    }

    #[test]
    fn live_partition_blocks_and_heal_restores() {
        let cluster = two_site_cluster();
        cluster.partition(0, 1).unwrap();
        // The coordinator cannot reach site 1: the transfer must fail
        // without hanging, and must not half-apply.
        match cluster.submit(0, &transfer(0, 1, 10), Duration::from_secs(3)) {
            Ok(r) => assert!(!r.is_committed()),
            Err(EngineError::Timeout) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
        assert!(cluster.metrics().counter("live.dropped_partition") > 0);
        cluster.heal(0, 1).unwrap();
        let result = cluster
            .submit(0, &transfer(0, 1, 10), Duration::from_secs(5))
            .unwrap();
        assert!(result.is_committed());
        assert!(wait_until(Duration::from_secs(5), || {
            cluster.total_poly_count(Duration::from_secs(1)).unwrap() == 0
        }));
        assert_eq!(live_total(&cluster), 200, "conservation across partition");
        cluster.shutdown();
    }

    #[test]
    fn live_partition_rejects_unknown_sites() {
        let cluster = two_site_cluster();
        assert_eq!(
            cluster.partition(0, 9).err(),
            Some(EngineError::UnknownSite(9))
        );
        assert_eq!(cluster.heal(9, 0).err(), Some(EngineError::UnknownSite(9)));
        cluster.shutdown();
    }

    #[test]
    fn live_lossy_links_converge_after_reset() {
        let cluster = two_site_cluster();
        cluster.set_drop_prob(0.25);
        // Many submissions fail under 25 % loss; whatever commits must stay
        // atomic once the loss stops and inquiries settle the rest.
        for k in 0..8 {
            let _ = cluster.submit(0, &transfer(k % 2, (k + 1) % 2, 5), Duration::from_secs(2));
        }
        assert!(cluster.metrics().counter("live.dropped_loss") > 0);
        cluster.set_drop_prob(0.0);
        assert!(
            wait_until(Duration::from_secs(10), || {
                cluster.total_poly_count(Duration::from_secs(1)).unwrap() == 0
                    && (0..2).all(|s| {
                        cluster.inspect(s, Duration::from_secs(1)).unwrap().quiescent
                    })
            }),
            "uncertainty must drain once the network is clean"
        );
        assert_eq!(live_total(&cluster), 200, "conservation under loss");
        cluster.shutdown();
    }

    #[test]
    fn live_disk_backed_cluster_survives_restart() {
        let dir = scratch("restart");
        let build = || LiveCluster::from_topology(two_site_topo().data_dir(&dir)).unwrap();
        let first = build();
        let result = first
            .submit(0, &transfer(0, 1, 30), Duration::from_secs(5))
            .unwrap();
        assert!(result.is_committed());
        first.shutdown(); // syncs every site's WAL
        // A brand-new process image over the same directories: balances must
        // come back from disk, not from the builder's seeds.
        let second = build();
        assert!(wait_until(Duration::from_secs(5), || {
            second
                .inspect(0, Duration::from_secs(1))
                .unwrap()
                .items
                .first()
                .map(|(_, e)| e == &Entry::Simple(Value::Int(70)))
                .unwrap_or(false)
        }));
        let s1 = second.inspect(1, Duration::from_secs(1)).unwrap();
        assert_eq!(s1.items[0].1, Entry::Simple(Value::Int(130)));
        assert_eq!(second.metrics().counter("live.cold_recoveries"), 2);
        // And the recovered cluster still processes transactions.
        let again = second
            .submit(1, &transfer(1, 0, 5), Duration::from_secs(5))
            .unwrap();
        assert!(again.is_committed());
        assert_eq!(live_total(&second), 200);
        second.shutdown();
    }

    #[test]
    fn live_restart_resolves_stranded_polyvalue() {
        use pv_core::Entry;
        use pv_store::{DiskWal, FsyncPolicy, SiteStore};
        // Craft on-disk images of a cluster that died mid-uncertainty: the
        // coordinator (site 0) durably decided *complete* and applied its own
        // write, but the participant (site 1) crashed staged, never having
        // learned the outcome.
        let dir = scratch("stranded");
        let txn = crate::ids::encode_txn(0, 0, 1);
        {
            let wal = DiskWal::open(dir.join("site-0"), FsyncPolicy::PerDecision).unwrap();
            let mut coord = SiteStore::open(Box::new(wal));
            coord.seed_item(ItemId(0), Value::Int(70));
            coord.record_decision(txn, true);
            coord.sync();
        }
        {
            let wal = DiskWal::open(dir.join("site-1"), FsyncPolicy::PerDecision).unwrap();
            let mut part = SiteStore::open(Box::new(wal));
            part.seed_item(ItemId(1), Value::Int(100));
            part.stage(txn, 0, vec![(ItemId(1), Entry::Simple(Value::Int(130)))]);
            part.sync();
        }
        let cluster = LiveCluster::from_topology(two_site_topo().data_dir(&dir)).unwrap();
        // Recovery re-stages the pending transaction, times out its wait
        // phase (installing an in-doubt polyvalue), inquires at the
        // coordinator, learns *complete*, and collapses the polyvalue into
        // the staged value.
        assert!(
            wait_until(Duration::from_secs(10), || {
                let s1 = cluster.inspect(1, Duration::from_secs(1)).unwrap();
                s1.poly_count == 0
                    && s1.items.first().map(|(_, e)| e == &Entry::Simple(Value::Int(130)))
                        == Some(true)
                    && s1.quiescent
            }),
            "stranded polyvalue must collapse to the decided outcome"
        );
        let s0 = cluster.inspect(0, Duration::from_secs(1)).unwrap();
        assert_eq!(s0.items[0].1, Entry::Simple(Value::Int(70)));
        assert_eq!(live_total(&cluster), 200, "conservation after restart");
        cluster.shutdown();
    }

    #[test]
    fn live_snapshot_read_is_coordination_free() {
        let cluster = LiveCluster::from_topology(two_site_topo().collect_trace()).unwrap();
        let result = cluster
            .submit(0, &transfer(0, 1, 30), Duration::from_secs(5))
            .unwrap();
        assert!(result.is_committed());
        let before = cluster.metrics();
        let (snap, entries) = cluster
            .snapshot_read(0, &[ItemId(0)], Duration::from_secs(5))
            .unwrap();
        assert!(snap > 0);
        assert_eq!(entries, vec![(ItemId(0), Entry::Simple(Value::Int(70)))]);
        // Empty item list = full site scan.
        let (_, all) = cluster
            .snapshot_read(1, &[], Duration::from_secs(5))
            .unwrap();
        assert_eq!(all, vec![(ItemId(1), Entry::Simple(Value::Int(130)))]);
        let after = cluster.metrics();
        assert_eq!(after.counter("store.snapshot_reads"), 2);
        // Coordination-free: no lock-table traffic, no new transactions or
        // protocol phases between the two captures.
        for c in [
            "lock.conflicts",
            "lock.queued",
            "lock.wounds",
            "txn.submitted",
            "inquire.sent",
            "outcome.forwarded",
        ] {
            assert_eq!(before.counter(c), after.counter(c), "{c} moved");
        }
        assert!(cluster.trace_text().contains("snapshot_read site=s0"));
        cluster.shutdown();
    }

    #[test]
    fn live_sequential_transfers_conserve() {
        let cluster = two_site_cluster();
        for k in 0..10 {
            let (a, b) = if k % 2 == 0 { (0, 1) } else { (1, 0) };
            let r = cluster.submit(a as u32 % 2, &transfer(a, b, 5 + k), Duration::from_secs(5));
            assert!(r.unwrap().is_committed());
        }
        let s0 = cluster.inspect(0, Duration::from_secs(1)).unwrap();
        let s1 = cluster.inspect(1, Duration::from_secs(1)).unwrap();
        let total: i64 = [&s0, &s1]
            .iter()
            .flat_map(|s| s.items.iter())
            .map(|(_, e)| e.as_simple().and_then(Value::as_int).expect("settled"))
            .sum();
        assert_eq!(total, 200);
        assert!(cluster.metrics().counter("txn.committed") >= 10);
        cluster.shutdown();
    }
}
