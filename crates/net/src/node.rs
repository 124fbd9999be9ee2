//! The site node: a single-process, single-threaded socket event loop
//! around one [`pv_engine::SiteHost`].
//!
//! This is the second deployment of the identical sans-IO
//! `pv_protocol::SiteMachine`, after the deterministic simulation:
//! the [`SiteHost`] runs every callback, applies effects in emission order,
//! steps self-sends and keeps the wall-clock timers. What this module adds
//! is real I/O: a readiness loop over non-blocking `std::net` sockets
//! (accept, read, decode, one write per connection per pass) and
//! **deadline-driven peer dialing**: connection attempts run on detached
//! dialer threads and report back through a channel, so the event loop keeps
//! serving live peers and clients while an unreachable peer is being
//! retried. Retries are governed by a
//! per-peer [`Circuit`] breaker under a jittered-exponential [`Backoff`]
//! policy — a peer that stays dead walks Closed → Open → HalfOpen with
//! growing pauses (never a hot loop), and a peer that stays unreachable past
//! the policy's attempt budget is a structured [`EngineError::Unreachable`],
//! never a hang. Messages bound for a down peer queue (bounded) and flush on
//! reconnect; the §3.3 inquiry protocol absorbs anything the bound drops.
//!
//! Between passes the loop blocks in `poll(2)` on its own descriptors
//! — the listener, every live inbound and peer socket (readable; writable
//! too while that connection still has queued output) and a wake pipe — so
//! a frame is read the moment it arrives and an idle site does not run at
//! all (`net.idle_wakeups` counts the waits that ended with nothing ready).
//! A dial result arrives on a channel, which `poll(2)` cannot watch: the
//! dialer thread writes a byte to the wake pipe after it sends. The wait is
//! bounded by the earliest of three deadlines, each of which the next pass
//! acts on: the host's next protocol timer, the probe time of an open
//! circuit on a link that needs a connection, and the end of a recovering
//! link's stability window.

use crate::backoff::{Backoff, Circuit, CircuitState, CircuitVerdict};
use crate::poll::{self, PollFd};
use crate::wire::{
    decode_frame, encode_frame, Frame, NodeSnapshot, PeerKind, WireMetrics, MAX_FRAME_LEN,
};
use pv_engine::messages::Msg;
use pv_engine::topology::Topology;
use pv_engine::{EngineError, Site, SiteHost};
use pv_simnet::{Metrics, NodeId, Trace};
use pv_store::SiteId;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Most protocol messages held for a down peer before the oldest drop.
/// The §3.1 timers and §3.3 inquiries re-drive anything lost.
const PENDING_CAP: usize = 4096;

/// One live connection with read/write buffering. Writes that the socket
/// will not take immediately stay queued in `wbuf` and drain as the peer
/// reads — backpressure without blocking the loop.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            dead: false,
        })
    }

    /// Encodes `frame` onto the write queue (which an un-frameable one
    /// leaves untouched). The loop flushes each queue once per pass, so
    /// everything a pass emits to one peer leaves in one `write`.
    fn queue(&mut self, frame: &Frame) -> Result<(), EngineError> {
        Ok(encode_frame(frame, &mut self.wbuf)?)
    }

    /// This connection's entry in the wait set: readable always; writable
    /// only while output is queued, or a level-triggered wait would never
    /// block.
    fn pollfd(&self) -> PollFd {
        let out = if self.wbuf.is_empty() { 0 } else { poll::OUT };
        PollFd::new(&self.stream, poll::IN | out)
    }

    /// Writes as much queued output as the socket accepts.
    fn flush(&mut self) {
        while !self.wbuf.is_empty() && !self.dead {
            match self.stream.write(&self.wbuf) {
                Ok(0) => {
                    self.dead = true;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                }
            }
        }
    }

    /// Reads everything currently available. EOF or a socket error marks
    /// the connection dead (already buffered frames still parse).
    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    // Refuse unbounded buffering from a peer that floods
                    // garbage faster than we parse.
                    if self.rbuf.len() > 2 * MAX_FRAME_LEN as usize {
                        self.dead = true;
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }
}

/// The dial/reconnect state of one outbound peer link.
struct PeerLink {
    addr: Option<SocketAddr>,
    conn: Option<Conn>,
    /// Channel from an in-flight dialer thread, if one is out.
    dial: Option<mpsc::Receiver<std::io::Result<TcpStream>>>,
    circuit: Circuit,
    /// When the current connection was established (stability window: the
    /// circuit only re-closes after the link survives a while, so a
    /// flapping peer keeps walking up the backoff curve).
    connected_at: Option<Instant>,
    /// Messages awaiting reconnect (bounded by [`PENDING_CAP`]).
    pending: VecDeque<Msg>,
    /// Whether this link should be connected even without queued traffic.
    /// Always true for peer sites: a cluster eagerly re-forms itself after
    /// a partition heals instead of waiting for traffic.
    want: bool,
    ever_connected: bool,
    last_err: String,
}

impl PeerLink {
    fn unused(policy: Backoff, salt: u64) -> Self {
        PeerLink {
            addr: None,
            conn: None,
            dial: None,
            circuit: Circuit::new(policy, salt),
            connected_at: None,
            pending: VecDeque::new(),
            want: false,
            ever_connected: false,
            last_err: String::new(),
        }
    }

    /// Whether the link should be dialled: it is wanted or has traffic
    /// queued, and has neither a connection nor a dial in flight.
    fn needs_conn(&self) -> bool {
        self.conn.is_none() && self.dial.is_none() && (self.want || !self.pending.is_empty())
    }
}

/// Configuration of one site process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Which site of the topology this process is.
    pub site: SiteId,
    /// The shared cluster description (same value the simulation
    /// consumes). When it carries a
    /// [`BackoffConfig`](pv_engine::topology::BackoffConfig), that policy
    /// overrides `backoff`.
    pub topo: Topology,
    /// Dial/reconnect policy for peer connections.
    pub backoff: Backoff,
}

/// A bound-but-not-yet-running site node.
///
/// Construction is two-phase so an in-process cluster can bind every
/// listener on port 0 first, learn the real addresses, and only then hand
/// each node the full peer table:
///
/// 1. [`Node::bind`] — open the listener (and the WAL, recovering if the
///    image is non-empty);
/// 2. [`Node::set_peers`] — provide every site's address;
/// 3. [`Node::run`] — dial peers and serve until a `Shutdown` frame.
pub struct Node {
    me: NodeId,
    sites: u32,
    listener: TcpListener,
    backoff: Backoff,
    host: SiteHost,
    metrics: Metrics,
    trace: Trace,
    /// Outbound site→site links, indexed by peer site id.
    peers: Vec<PeerLink>,
    /// Inbound connections (slab; indices stay stable while a connection
    /// lives, and a reaped slot takes the next accepted connection).
    conns: Vec<Option<Conn>>,
    /// Reply routing: node id (from `Hello`) → inbound conn slot.
    routes: BTreeMap<u32, usize>,
    /// The wake pipe. Dialer threads write a byte to a clone of `wake_tx`
    /// after sending their result; the loop waits on `wake_rx`.
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl Node {
    /// Opens the listener on `listen` (use port 0 to let the OS pick) and
    /// builds the site from the topology: disk-backed WAL under
    /// `data_dir/site-<s>` when the topology has a data dir, recovery from a
    /// non-empty image, seeded items durable before serving.
    pub fn bind(config: NodeConfig, listen: SocketAddr) -> Result<Node, EngineError> {
        let NodeConfig { site: s, topo, backoff } = config;
        if s >= topo.sites {
            return Err(EngineError::UnknownSite(s));
        }
        let backoff = topo
            .backoff
            .as_ref()
            .map(Backoff::from_config)
            .unwrap_or(backoff);
        let listener = TcpListener::bind(listen)
            .map_err(|e| EngineError::Io(format!("bind {listen}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| EngineError::Io(format!("set_nonblocking: {e}")))?;
        let (wake_rx, wake_tx) = UnixStream::pair()
            .and_then(|(rx, tx)| {
                rx.set_nonblocking(true)?;
                tx.set_nonblocking(true)?;
                Ok((rx, tx))
            })
            .map_err(|e| EngineError::Io(format!("wake pipe: {e}")))?;
        let site = Site::open(s, &topo)?;
        let peers = (0..topo.sites)
            .map(|p| PeerLink::unused(backoff, peer_salt(s, p)))
            .collect();
        Ok(Node {
            me: NodeId(s),
            sites: topo.sites,
            listener,
            backoff,
            host: SiteHost::new(site, 0xBEEF_0000 + u64::from(s)),
            metrics: Metrics::new(),
            trace: Trace::default(),
            peers,
            conns: Vec::new(),
            routes: BTreeMap::new(),
            wake_rx,
            wake_tx,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, EngineError> {
        self.listener
            .local_addr()
            .map_err(|e| EngineError::Io(format!("local_addr: {e}")))
    }

    /// Provides the full site address table (index = site id). Must be
    /// called before [`Node::run`]. The entry for this site itself is
    /// ignored (self-sends never leave the [`SiteHost`]), so the table
    /// may point at chaos proxies while the node listens on its real
    /// address.
    pub fn set_peers(&mut self, addrs: Vec<SocketAddr>) {
        for (p, addr) in addrs.into_iter().enumerate() {
            if let Some(link) = self.peers.get_mut(p) {
                link.addr = Some(addr);
                link.want = p as u32 != self.me.0;
            }
        }
    }

    /// The active dial/reconnect policy.
    pub fn backoff(&self) -> Backoff {
        self.backoff
    }

    /// Swaps the dial/reconnect policy live (also reachable over the wire
    /// via the `ConfigBackoff` control frame). Connection state carries
    /// over; only future backoff decisions change.
    pub fn set_backoff(&mut self, policy: Backoff) {
        self.backoff = policy;
        for link in &mut self.peers {
            link.circuit.set_policy(policy);
        }
    }

    /// Runs one host call, then ships the messages it produced.
    fn drive<R>(
        &mut self,
        f: impl FnOnce(&mut SiteHost, &mut Metrics, &mut Trace, &mut Vec<(NodeId, Msg)>) -> R,
    ) -> Result<R, EngineError> {
        let mut out = Vec::new();
        let result = f(&mut self.host, &mut self.metrics, &mut self.trace, &mut out);
        for (to, msg) in out {
            self.send(to, msg)?;
        }
        Ok(result)
    }

    /// Routes one outgoing message: a peer-site link, or a client connection
    /// (by the node id its `Hello` registered). A missing client route drops
    /// the message like a datagram — the protocol's timers and inquiries
    /// already tolerate loss. A message for a peer site
    /// that is currently down queues (bounded) for delivery on reconnect;
    /// the reconnect itself is governed by the peer's circuit breaker and
    /// never blocks this loop.
    fn send(&mut self, to: NodeId, msg: Msg) -> Result<(), EngineError> {
        if to.0 < self.sites {
            let link = &mut self.peers[to.0 as usize];
            if let Some(conn) = link.conn.as_mut() {
                if !conn.dead {
                    conn.queue(&Frame::Proto {
                        from: self.me.0,
                        msg,
                    })?;
                    return Ok(());
                }
            }
            if link.pending.len() >= PENDING_CAP {
                link.pending.pop_front();
                self.metrics.inc("net.dropped_peer_down");
            }
            link.pending.push_back(msg);
            return Ok(());
        }
        if let Some(&slot) = self.routes.get(&to.0) {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.queue(&Frame::Proto {
                    from: self.me.0,
                    msg,
                })?;
                return Ok(());
            }
        }
        self.metrics.inc("net.dropped_no_route");
        Ok(())
    }

    /// Advances every peer link one step: reap dead connections, collect
    /// dial results, promote links that survived the stability window, and
    /// launch new circuit-gated dial probes. Never blocks; a peer whose
    /// circuit exhausts its budget is a fatal structured `Unreachable`.
    fn pump_peers(&mut self) -> Result<(), EngineError> {
        let now = Instant::now();
        let stability = self.stability();
        for p in 0..self.peers.len() {
            if p as u32 == self.me.0 {
                continue;
            }
            // 1. Reap a connection that died.
            if matches!(&self.peers[p].conn, Some(c) if c.dead) {
                let link = &mut self.peers[p];
                link.conn = None;
                link.connected_at = None;
                link.last_err = "connection closed by peer".into();
                self.metrics.inc("net.peer_conn_lost");
                self.fail_link(p, now)?;
            }
            // 2. A healthy connection that outlived the stability window
            //    re-closes the circuit (resets the failure count).
            let link = &mut self.peers[p];
            if let Some(t) = link.connected_at {
                if link.circuit.failures() > 0 && now.duration_since(t) >= stability {
                    link.circuit.on_success();
                    self.metrics.inc("net.circuit_reclosed");
                }
            }
            // 3. Collect an in-flight dial result.
            let mut dial_result = None;
            if let Some(rx) = &self.peers[p].dial {
                match rx.try_recv() {
                    Ok(r) => dial_result = Some(r),
                    Err(mpsc::TryRecvError::Empty) => {}
                    Err(mpsc::TryRecvError::Disconnected) => {
                        dial_result = Some(Err(std::io::Error::other("dialer thread vanished")))
                    }
                }
            }
            match dial_result {
                Some(Ok(stream)) => {
                    let link = &mut self.peers[p];
                    link.dial = None;
                    match Conn::new(stream) {
                        Ok(mut conn) => {
                            let hello = conn.queue(&Frame::Hello {
                                node: self.me.0,
                                kind: PeerKind::Site,
                            });
                            match hello {
                                Ok(()) => {
                                    link.connected_at = Some(now);
                                    if link.ever_connected {
                                        self.metrics.inc("net.reconnects");
                                    }
                                    link.ever_connected = true;
                                    // First-ever success closes immediately;
                                    // a recovering link waits out the
                                    // stability window (step 2).
                                    if link.circuit.failures() == 0 {
                                        link.circuit.on_success();
                                    }
                                    while let Some(msg) = link.pending.pop_front() {
                                        conn.queue(&Frame::Proto {
                                            from: self.me.0,
                                            msg,
                                        })?;
                                    }
                                    link.conn = Some(conn);
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        Err(e) => {
                            link.last_err = format!("configure socket: {e}");
                            self.fail_link(p, now)?;
                        }
                    }
                }
                Some(Err(e)) => {
                    let link = &mut self.peers[p];
                    link.dial = None;
                    link.last_err = e.to_string();
                    self.fail_link(p, now)?;
                }
                None => {}
            }
            // 4. Launch a new probe if the link should be up and the
            //    circuit allows one.
            let link = &mut self.peers[p];
            if link.needs_conn() && link.circuit.try_probe(now) {
                let Some(addr) = link.addr else {
                    return Err(EngineError::UnknownSite(p as SiteId));
                };
                let timeout = self.backoff.connect_timeout();
                let (tx, rx) = mpsc::channel();
                let wake = self
                    .wake_tx
                    .try_clone()
                    .map_err(|e| EngineError::Io(format!("wake pipe: {e}")))?;
                link.dial = Some(rx);
                self.metrics.inc("net.backoff.attempts");
                std::thread::Builder::new()
                    .name(format!("pv-dial-{}-{p}", self.me.0))
                    .spawn(move || {
                        let _ = tx.send(TcpStream::connect_timeout(&addr, timeout));
                        // The loop is blocked on descriptors and cannot see
                        // the channel. (A full pipe already holds a wake-up.)
                        let _ = (&wake).write(&[1]);
                    })
                    .map_err(|e| EngineError::Io(format!("spawn dialer: {e}")))?;
            }
        }
        Ok(())
    }

    /// How long a connection must stay up before its circuit re-closes, so a
    /// link that flaps (accept-then-kill partitions) keeps climbing the
    /// backoff curve instead of hot-cycling at dial speed.
    fn stability(&self) -> Duration {
        self.backoff.base.max(Duration::from_millis(250))
    }

    /// How long the wait may block: until the earliest thing the next pass
    /// would act on without any socket becoming ready — the host's next
    /// protocol timer, the probe time of an open circuit on a link that
    /// needs a connection, or the end of a recovering link's stability
    /// window. `None` when nothing is scheduled.
    fn wait_timeout(&self) -> Option<Duration> {
        let stability = self.stability();
        let links = self.peers.iter().filter_map(|link| {
            if link.needs_conn() {
                match link.circuit.state() {
                    CircuitState::Open { until } => Some(until),
                    CircuitState::Closed | CircuitState::HalfOpen => None,
                }
            } else if link.circuit.failures() > 0 {
                link.connected_at.map(|t| t + stability)
            } else {
                None
            }
        });
        let due = self.host.next_deadline().into_iter().chain(links).min()?;
        Some(due.saturating_duration_since(Instant::now()))
    }

    /// Writes each connection's queued output, once.
    fn flush_all(&mut self) {
        let peers = self.peers.iter_mut().filter_map(|link| link.conn.as_mut());
        for conn in self.conns.iter_mut().flatten().chain(peers) {
            conn.flush();
        }
    }

    /// Records a failure on peer link `p`: the circuit opens with the next
    /// backoff delay (observable as `net.circuit_open` / `net.backoff.*`),
    /// or, past the attempt budget, the node gives up with a structured
    /// [`EngineError::Unreachable`].
    fn fail_link(&mut self, p: usize, now: Instant) -> Result<(), EngineError> {
        let link = &mut self.peers[p];
        match link.circuit.on_failure(now) {
            CircuitVerdict::Backoff { wait } => {
                self.metrics.inc("net.circuit_open");
                self.metrics
                    .observe("net.backoff.wait_ms", wait.as_secs_f64() * 1e3);
                Ok(())
            }
            CircuitVerdict::Exhausted => {
                self.metrics.inc("net.backoff.exhausted");
                let addr = link
                    .addr
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| "<unset>".into());
                Err(EngineError::Unreachable {
                    site: p as SiteId,
                    detail: format!(
                        "{addr} after {} attempts: {}",
                        link.circuit.policy().attempts,
                        link.last_err
                    ),
                })
            }
        }
    }

    fn snapshot(&self) -> NodeSnapshot {
        let site = self.host.site();
        NodeSnapshot {
            site: site.id(),
            items: site
                .store()
                .iter_items()
                .map(|(i, e)| (i, e.clone()))
                .collect(),
            poly_count: site.poly_count() as u64,
            quiescent: site.is_quiescent(),
        }
    }

    /// Serves until a `Shutdown` frame arrives (returning the final
    /// [`Site`]) or a fatal error occurs: listener failure, or a peer site
    /// unreachable past the backoff policy's attempt budget.
    pub fn run(mut self) -> Result<Site, EngineError> {
        let wired = self
            .peers
            .iter()
            .enumerate()
            .filter(|(p, link)| *p as u32 != self.me.0 && link.addr.is_some())
            .count();
        if wired != self.sites as usize - 1 {
            return Err(EngineError::Io(format!(
                "peer table has {wired} addresses for {} sites",
                self.sites
            )));
        }
        if self.drive(|host, m, t, out| host.start(m, t, out))? {
            self.metrics.inc("net.cold_recoveries");
        }
        let mut set: Vec<PollFd> = Vec::new();
        let mut sources: Vec<Source> = Vec::new();
        loop {
            // 1. Fire due timers.
            self.drive(|host, m, t, out| host.fire_due(m, t, out))?;

            // 2. Flush: everything queued for a connection since the last
            // wait (the frames just stepped, the timers just fired) leaves
            // in one `write`. Flushing before step 3 means every way a
            // connection dies — a read, a decode, a write — has run by the
            // time the dead are reaped, so the wait set is live sockets
            // only: `poll` is level-triggered and would keep reporting a
            // hung-up one.
            self.flush_all();

            // 3. Advance peer links (lost connections, dial results,
            // reconnect probes) and reap dead inbound connections.
            self.pump_peers()?;
            self.reap_inbound();

            // 4. Block until a descriptor is ready or the next deadline.
            set.clear();
            sources.clear();
            set.push(PollFd::new(&self.listener, poll::IN));
            sources.push(Source::Listener);
            set.push(PollFd::new(&self.wake_rx, poll::IN));
            sources.push(Source::Wake);
            for (slot, conn) in self.conns.iter().enumerate() {
                if let Some(conn) = conn {
                    set.push(conn.pollfd());
                    sources.push(Source::Inbound(slot));
                }
            }
            for (p, link) in self.peers.iter().enumerate() {
                if let Some(conn) = &link.conn {
                    set.push(conn.pollfd());
                    sources.push(Source::Peer(p));
                }
            }
            let ready = poll::wait(&mut set, self.wait_timeout())
                .map_err(|e| EngineError::Io(format!("poll: {e}")))?;
            if ready == 0 {
                self.metrics.inc("net.idle_wakeups");
                continue;
            }

            // 5. Serve what came back ready: accept, read, parse complete
            // frames. Any report counts, asked for or not — a hang-up or
            // error surfaces through `fill`, and queued output goes out in
            // the next pass's flush. IO and engine work are separate passes
            // so the engine borrows cleanly.
            let mut events: Vec<(usize, Frame)> = Vec::new();
            for (source, _) in sources.iter().zip(&set).filter(|(_, fd)| fd.ready()) {
                match *source {
                    Source::Listener => self.accept_all()?,
                    Source::Wake => {
                        // The bytes carry nothing; the dial results they
                        // announce are collected by `pump_peers`.
                        let mut buf = [0u8; 64];
                        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
                    }
                    Source::Inbound(slot) => {
                        let Some(conn) = self.conns[slot].as_mut() else { continue };
                        conn.fill();
                        loop {
                            match decode_frame(&conn.rbuf) {
                                Ok(Some((frame, n))) => {
                                    conn.rbuf.drain(..n);
                                    events.push((slot, frame));
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    // A malformed stream cannot be
                                    // resynchronised; drop the connection.
                                    // (Counted, not fatal: only this peer is
                                    // affected.)
                                    self.metrics.inc("net.decode_errors");
                                    conn.dead = true;
                                    break;
                                }
                            }
                        }
                    }
                    // Peers never send frames back on our dialed pipe; the
                    // read is how its EOF is noticed.
                    Source::Peer(p) => {
                        if let Some(conn) = self.peers[p].conn.as_mut() {
                            conn.fill();
                        }
                    }
                }
            }

            // 6. Process frames through the engine.
            for (slot, frame) in events {
                match frame {
                    Frame::Hello { node, kind: _ } => {
                        self.routes.insert(node, slot);
                    }
                    Frame::Proto { from, msg } => {
                        let from = NodeId(from);
                        self.drive(|host, m, t, out| host.deliver(from, msg, m, t, out))?;
                    }
                    Frame::InspectReq => {
                        let snap = self.snapshot();
                        self.respond(slot, &Frame::InspectResp(snap));
                    }
                    Frame::MetricsReq => {
                        // Storage metrics were flushed by the engine inside
                        // the last callback; the registry is current.
                        let wire = WireMetrics::from_metrics(&self.metrics);
                        self.respond(slot, &Frame::MetricsResp(wire));
                    }
                    Frame::ConfigBackoff(cfg) => {
                        self.set_backoff(Backoff::from_config(&cfg));
                        self.metrics.inc("net.backoff.reconfigured");
                    }
                    Frame::Shutdown => {
                        // Best-effort flush of queued replies before exit.
                        self.flush_all();
                        return Ok(self.host.into_site());
                    }
                    // Responses are never addressed *to* a site.
                    Frame::InspectResp(_) | Frame::MetricsResp(_) => {
                        self.metrics.inc("net.unexpected_frame");
                    }
                }
            }
        }
    }

    /// Queues a control response on the inbound connection that asked. One
    /// that cannot be framed (a registry or item table past
    /// [`MAX_FRAME_LEN`]) is that connection's failure, not the site's: the
    /// connection is dropped and the node keeps serving.
    fn respond(&mut self, slot: usize, frame: &Frame) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        if conn.queue(frame).is_err() {
            conn.dead = true;
            self.metrics.inc("net.encode_errors");
        }
    }

    /// Accepts every connection waiting on the listener, each into the
    /// first free slot of the slab.
    fn accept_all(&mut self) -> Result<(), EngineError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn =
                        Conn::new(stream).map_err(|e| EngineError::Io(format!("accept: {e}")))?;
                    match self.conns.iter_mut().find(|slot| slot.is_none()) {
                        Some(slot) => *slot = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.metrics.inc("net.accepted");
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(EngineError::Io(format!("accept: {e}"))),
            }
        }
    }

    /// Frees the slot of every dead inbound connection, with the routes
    /// that led to it.
    fn reap_inbound(&mut self) {
        for (i, slot) in self.conns.iter_mut().enumerate() {
            if matches!(slot, Some(c) if c.dead) {
                *slot = None;
                self.routes.retain(|_, &mut s| s != i);
                self.metrics.inc("net.conn_closed");
            }
        }
    }
}

/// What an entry of the wait set stands for.
#[derive(Clone, Copy)]
enum Source {
    Listener,
    Wake,
    /// The inbound connection in this slot of `Node::conns`.
    Inbound(usize),
    /// The dialed connection to this peer site.
    Peer(usize),
}

/// Jitter salt of the (node, peer) directed link.
fn peer_salt(me: SiteId, peer: u32) -> u64 {
    (u64::from(me) << 32) ^ u64::from(peer) ^ 0x5EED_CAFE
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_engine::Directory;

    /// A bound one-site node.
    fn lone_node() -> Node {
        let config = NodeConfig {
            site: 0,
            topo: Topology::new(1, Directory::Mod(1)),
            backoff: Backoff::default(),
        };
        Node::bind(config, "127.0.0.1:0".parse().unwrap()).unwrap()
    }

    #[test]
    fn an_accepted_connection_takes_the_first_reaped_slot() {
        let mut node = lone_node();
        let addr = node.local_addr().unwrap();
        let dial = |n: usize| -> Vec<TcpStream> {
            (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect()
        };

        let _clients = dial(3);
        node.accept_all().unwrap();
        assert_eq!(node.conns.len(), 3);
        node.routes.insert(7, 1);
        node.conns[1].as_mut().unwrap().dead = true;
        node.reap_inbound();
        assert!(node.conns[1].is_none() && node.routes.is_empty());

        let _more = dial(2);
        node.accept_all().unwrap();
        assert_eq!(node.conns.len(), 4, "one reused slot, one new");
        assert!(node.conns.iter().all(Option::is_some));
        assert_eq!(node.metrics.counter("net.accepted"), 5);
        assert_eq!(node.metrics.counter("net.conn_closed"), 1);
    }

    #[test]
    fn an_unframeable_response_costs_the_connection_not_the_node() {
        let mut node = lone_node();
        let _client = TcpStream::connect(node.local_addr().unwrap()).unwrap();
        node.accept_all().unwrap();
        node.respond(0, &Frame::InspectResp(node.snapshot()));
        let queued = node.conns[0].as_ref().unwrap().wbuf.clone();
        assert!(!queued.is_empty());

        // A registry whose raw observations no longer fit one frame.
        let samples = vec![0u64; MAX_FRAME_LEN as usize / 8 + 1];
        let oversized = WireMetrics {
            counters: Vec::new(),
            histograms: vec![("phase.submit_decided".into(), samples)],
        };
        node.respond(0, &Frame::MetricsResp(oversized));
        let conn = node.conns[0].as_ref().unwrap();
        assert!(conn.dead);
        assert_eq!(conn.wbuf, queued, "the half-encoded frame is gone from the queue");
        assert_eq!(node.metrics.counter("net.encode_errors"), 1);
        node.reap_inbound();
        assert!(node.conns[0].is_none());
    }
}
