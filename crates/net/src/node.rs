//! The site node: a single-process, single-threaded socket event loop
//! around one [`pv_engine::SiteHost`].
//!
//! This is the second deployment of the identical sans-IO
//! `pv_protocol::SiteMachine`, after the deterministic simulation:
//! the [`SiteHost`] steps the site on every input, applies its sends and
//! timer arms in emission order, steps self-sends and keeps the protocol
//! timers. What this module adds
//! is the wall clock and real I/O: a readiness loop over non-blocking
//! `std::net` sockets (accept, read until a short read, decode in place,
//! one write per connection per pass) and
//! **deadline-driven peer dialing**: connection attempts run on detached
//! dialer threads and report back through a channel, so the event loop keeps
//! serving live peers and clients while an unreachable peer is being
//! retried. Retries are paced by the node's jittered-exponential [`Backoff`]
//! policy, fixed when the node is built: each peer link counts its
//! consecutive failures and holds the time of its next dial, so a peer that
//! stays dead is probed one dial at a time with growing pauses (never a hot
//! loop), and a peer that stays unreachable past the policy's attempt budget
//! is a structured [`EngineError::Unreachable`], never a hang. A connection
//! forgets its link's failures only once it has stayed up for a stability
//! window. Messages bound for a down peer queue (bounded) and flush on
//! reconnect; the §3.3 inquiry protocol absorbs anything the bound drops.
//!
//! Between passes the loop waits in `poll(2)` on its own descriptors
//! — the listener, every live inbound and peer socket (readable; writable
//! too while that connection still has queued output) and a wake pipe — so
//! a frame is read the moment it arrives and an idle site does not run at
//! all (`net.idle_wakeups` counts the waits that ended with nothing ready).
//! A dial result arrives on a channel, which `poll(2)` cannot watch: the
//! dialer thread writes a byte to the wake pipe after it sends. The wait is
//! bounded by the earliest of three deadlines, each of which the next pass
//! acts on: the host's next protocol timer, the retry time of a link that
//! needs a connection, and the end of a recovering link's stability window.
//!
//! A wait spins before it blocks while spinning pays: for up to 25 µs, or
//! until the wait would have ended had it blocked at once, it polls with a
//! zero timeout and yields the CPU between tries, so a frame that lands
//! inside that time is read without the wake-up of a sleeping thread. Whether a wait spins is
//! a score of the recent spins (`SpinScore`): a busy site whose peers
//! answer within the spin keeps spinning, and an idle site, or one behind
//! slow links, spins only on a probe every 16th wait. `net.spin.caught`,
//! `net.spin.blocked` and `net.spin.polls` count the spins' outcomes and
//! calls.
//!
//! The node owns the epoch of the host's [`SimTime`]. The time of a pass is
//! the clock reading taken when its wait ended: a spin reads the clock on
//! every try to bound itself, and a blocking wait reads it once on return.
//! That reading is the time of every frame the pass delivers and of the
//! next pass's timers, link deadlines and wait. A timer fires only once that
//! time has reached its deadline, so never early, and at most `poll`'s
//! millisecond rounding, one spin and one pass late.

use crate::backoff::Backoff;
use crate::conn::{Conn, READ_CHUNK};
use crate::poll::{self, PollFd};
use crate::wire::{Frame, NodeSnapshot, WireMetrics};
use pv_engine::messages::Msg;
use pv_engine::topology::Topology;
use pv_engine::{EngineError, Site, SiteHost};
use pv_simnet::{Metrics, NodeId, SimTime, Trace};
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

/// How long a wait polls without blocking before it sleeps in `poll(2)`. A
/// frame that lands inside it is read without waking a sleeping thread. On
/// `net_closed` neither 10, 50 nor 100 µs was clearly ahead of 25 µs, and a
/// longer spin burns more CPU where spins miss.
const SPIN: Duration = Duration::from_micros(25);

/// Every this-many-th wait spins whatever the [`SpinScore`] says, so a node
/// whose spins stopped paying notices when they pay again.
const PROBE_EVERY: u32 = 16;

/// The highest [`SpinScore`]: a node whose spins have been catching frames
/// stops spinning after at most four misses in a row.
const SCORE_CAP: u8 = 8;

/// Socket calls on connections since a `MetricsReq` last folded them into
/// the registry. Plain fields, so the loop's hot path does no string-keyed
/// lookup.
#[derive(Default)]
struct SockCounts {
    reads: u64,
    writes: u64,
    /// Waits: one per pass, spun or not.
    polls: u64,
    /// Waits that ended inside their spin.
    spin_caught: u64,
    /// Waits that spun, caught nothing and went on to block.
    spin_blocked: u64,
    /// Zero-timeout `poll` calls made by spins.
    spin_polls: u64,
}

/// Whether the next wait spins before it blocks: a score of the recent
/// spins, one up for a spin that caught a frame and two down for one that
/// did not, held within `0..=`[`SCORE_CAP`]. A node spins while the score is
/// positive, and on every [`PROBE_EVERY`]-th wait regardless; so a busy
/// node whose peers answer within the spin keeps spinning, and an idle one,
/// or one behind slow links, spins on the probes alone.
#[derive(Default)]
struct SpinScore {
    score: u8,
    waits: u32,
}

impl SpinScore {
    /// Counts one wait and says whether it spins.
    fn spins(&mut self) -> bool {
        self.waits = self.waits.wrapping_add(1);
        self.score > 0 || self.waits.is_multiple_of(PROBE_EVERY)
    }

    /// Scores one spin: `caught` if a descriptor became ready inside it.
    fn score(&mut self, caught: bool) {
        self.score = if caught {
            (self.score + 1).min(SCORE_CAP)
        } else {
            self.score.saturating_sub(2)
        };
    }
}

/// Polls `set` without blocking, yielding the CPU between tries (the
/// thread that would write the frame may need it), until a descriptor is
/// ready or `until` has passed. Returns the ready count and the clock
/// reading taken after the last try; adds each try to `polls`.
fn spin(set: &mut [PollFd], until: Instant, polls: &mut u64) -> std::io::Result<(usize, Instant)> {
    loop {
        *polls += 1;
        let ready = poll::wait(set, Some(Duration::ZERO))?;
        let now = Instant::now();
        if ready > 0 || now >= until {
            return Ok((ready, now));
        }
        std::thread::yield_now();
    }
}

/// The dial/reconnect state of one outbound peer link. Every peer site's
/// link is kept connected, traffic or not, so a cluster re-forms itself as
/// soon as a partition heals.
#[derive(Default)]
struct PeerLink {
    addr: Option<SocketAddr>,
    conn: Option<Conn>,
    /// Channel from an in-flight dialer thread, if one is out.
    dial: Option<mpsc::Receiver<std::io::Result<TcpStream>>>,
    /// Consecutive failures since the link last stayed up for a stability
    /// window.
    failures: u32,
    /// No dial launches before this: the backoff wait after the last
    /// failure.
    retry_at: Option<Instant>,
    /// When the current connection was established (stability window: the
    /// failures are only forgotten after the link survives a while, so a
    /// flapping peer keeps walking up the backoff curve).
    connected_at: Option<Instant>,
    /// Messages awaiting reconnect (bounded by [`PENDING_CAP`]).
    pending: VecDeque<Msg>,
    ever_connected: bool,
    last_err: String,
}

impl PeerLink {
    /// Whether the link has neither a connection nor a dial in flight.
    fn needs_conn(&self) -> bool {
        self.conn.is_none() && self.dial.is_none()
    }

    /// The time the loop must next look at this link even if no socket
    /// becomes ready: its retry time while it needs a connection, or the
    /// end of a recovering connection's stability window.
    fn deadline(&self, stability: Duration) -> Option<Instant> {
        if self.needs_conn() {
            self.retry_at
        } else if self.failures > 0 {
            self.connected_at.map(|t| t + stability)
        } else {
            None
        }
    }
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
    /// How long [`Site::open`] took in [`Node::bind`], in seconds: WAL open,
    /// replay and seeding. A cold start observes it as `recovery.duration`.
    open_secs: f64,
    /// Wall-clock time zero of the host's [`SimTime`].
    epoch: Instant,
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
    /// The messages of the host call `drive` is running (kept for its
    /// capacity).
    out: Vec<(NodeId, Msg)>,
    /// What every `read` lands in: [`READ_CHUNK`] bytes, zeroed once. The
    /// loop reads one connection at a time, so one buffer serves them all.
    chunk: Box<[u8]>,
    sock: SockCounts,
    spin: SpinScore,
}

impl Node {
    /// Opens the listener on `listen` (use port 0 to let the OS pick) and
    /// builds site `s` of the shared cluster description `topo` (the value
    /// the simulation consumes; borrowed, so in-process sites share one item
    /// table): disk-backed WAL under `data_dir/site-<s>` when the topology
    /// has a data dir, recovery from a non-empty image, seeded items durable
    /// before serving. `backoff` is the dial/reconnect policy for peer
    /// connections, fixed for the node's life.
    pub fn bind(
        s: SiteId,
        topo: &Topology,
        backoff: Backoff,
        listen: SocketAddr,
    ) -> Result<Node, EngineError> {
        if s >= topo.sites {
            return Err(EngineError::UnknownSite(s));
        }
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
        let opening = Instant::now();
        let site = Site::open(s, topo)?;
        let open_secs = opening.elapsed().as_secs_f64();
        let peers = (0..topo.sites).map(|_| PeerLink::default()).collect();
        Ok(Node {
            me: NodeId(s),
            sites: topo.sites,
            listener,
            backoff,
            host: SiteHost::new(site, 0xBEEF_0000 + u64::from(s)),
            open_secs,
            epoch: Instant::now(),
            metrics: Metrics::new(),
            trace: Trace::default(),
            peers,
            conns: Vec::new(),
            routes: BTreeMap::new(),
            wake_rx,
            wake_tx,
            out: Vec::new(),
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            sock: SockCounts::default(),
            spin: SpinScore::default(),
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
        for (link, addr) in self.peers.iter_mut().zip(addrs) {
            link.addr = Some(addr);
        }
    }

    /// Runs one host call, then ships the messages it produced.
    fn drive<R>(
        &mut self,
        f: impl FnOnce(&mut SiteHost, &mut Metrics, &mut Trace, &mut Vec<(NodeId, Msg)>) -> R,
    ) -> Result<R, EngineError> {
        let mut out = std::mem::take(&mut self.out);
        let result = f(&mut self.host, &mut self.metrics, &mut self.trace, &mut out);
        for (to, msg) in out.drain(..) {
            self.send(to, msg)?;
        }
        self.out = out;
        Ok(result)
    }

    /// Routes one outgoing message: a peer-site link, or a client connection
    /// (by the node id its `Hello` registered). A missing client route drops
    /// the message like a datagram — the protocol's timers and inquiries
    /// already tolerate loss. A message for a peer site
    /// that is currently down queues (bounded) for delivery on reconnect;
    /// the reconnect itself is paced by the backoff policy and never blocks
    /// this loop.
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

    /// Advances every peer link one step at `now`: reap dead connections,
    /// forget the failures of links that survived the stability window,
    /// collect dial results, and launch the dials whose backoff wait has
    /// passed. Never blocks; a peer that exhausts the attempt budget is a
    /// fatal structured `Unreachable`.
    fn pump_peers(&mut self, now: Instant) -> Result<(), EngineError> {
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
            //    resets the failure count.
            let link = &mut self.peers[p];
            let stable = link.connected_at.is_some_and(|t| now.duration_since(t) >= stability);
            if link.failures > 0 && stable {
                link.failures = 0;
                self.metrics.inc("net.circuit_reclosed");
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
                            conn.queue(&Frame::Hello { node: self.me.0 })?;
                            // A recovering link keeps its failures until it
                            // outlives the stability window (step 2).
                            link.connected_at = Some(now);
                            if link.ever_connected {
                                self.metrics.inc("net.reconnects");
                            }
                            link.ever_connected = true;
                            while let Some(msg) = link.pending.pop_front() {
                                conn.queue(&Frame::Proto {
                                    from: self.me.0,
                                    msg,
                                })?;
                            }
                            link.conn = Some(conn);
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
            // 4. Launch a dial if the link is down and its backoff wait is
            //    over.
            let link = &mut self.peers[p];
            if link.needs_conn() && link.retry_at.is_none_or(|t| now >= t) {
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

    /// How long a connection must stay up before its link's failures are
    /// forgotten, so a link that flaps (accept-then-kill partitions) keeps
    /// climbing the backoff curve instead of hot-cycling at dial speed.
    fn stability(&self) -> Duration {
        self.backoff.base.max(Duration::from_millis(250))
    }

    /// How long the wait may block, from `now`: until the earliest thing
    /// the next pass would act on without any socket becoming ready — the
    /// host's next protocol timer, or a link's [`PeerLink::deadline`].
    /// `None` when nothing is scheduled.
    fn wait_timeout(&self, now: Instant) -> Option<Duration> {
        let stability = self.stability();
        let links = self.peers.iter().filter_map(|link| link.deadline(stability));
        let timer = self.host.next_deadline();
        let timer = timer.map(|due| self.epoch + Duration::from_micros(due.as_micros()));
        let due = timer.into_iter().chain(links).min()?;
        Some(due.saturating_duration_since(now))
    }

    /// Waits for a descriptor of `set` to be ready or for the next
    /// deadline, from the pass's time `now`. A blocking wait from `now`
    /// would end at the deadline rounded up to whole milliseconds (the
    /// kernel's timeout); that is the end of the wait. When the
    /// [`SpinScore`] says so, the wait first spins for [`SPIN`] or until the
    /// end of the wait, whichever is sooner, then blocks for what is left
    /// of it. So a deadline inside that millisecond neither cuts the spin
    /// short nor ends the block after it: under load a dead timer falls due
    /// every few microseconds, and a wait ended at each would end into a
    /// pass that fires a handful of no-op timers instead of into the frames
    /// a blocking wait collects. Returns the ready count and the clock
    /// reading taken when the wait ended.
    fn wait(&mut self, set: &mut [PollFd], now: Instant) -> Result<(usize, Instant), EngineError> {
        let failed = |e| EngineError::Io(format!("poll: {e}"));
        self.sock.polls += 1;
        let mut timeout = self.wait_timeout(now);
        if self.spin.spins() {
            let start = Instant::now();
            let spun = start + SPIN;
            let end_of_wait = timeout.map(|t| now + poll::rounded(t));
            let until = end_of_wait.map_or(spun, |e| e.min(spun));
            if until > start {
                let (ready, end) = spin(set, until, &mut self.sock.spin_polls).map_err(failed)?;
                if ready > 0 {
                    self.spin.score(true);
                    self.sock.spin_caught += 1;
                    return Ok((ready, end));
                }
                if until < spun {
                    // The wait's end came first and has passed: there is
                    // nothing left to block for, and no verdict on spinning.
                    return Ok((0, end));
                }
                self.spin.score(false);
                self.sock.spin_blocked += 1;
                timeout = end_of_wait.map(|e| e.saturating_duration_since(end));
            }
        }
        let ready = poll::wait(set, timeout).map_err(failed)?;
        Ok((ready, Instant::now()))
    }

    /// `now` as the host's [`SimTime`]: whole micros since the epoch,
    /// rounded down, so a timer due at `d` fires only once `d` has passed.
    fn sim_time(&self, now: Instant) -> SimTime {
        SimTime(now.duration_since(self.epoch).as_micros() as u64)
    }

    /// Writes each connection's queued output, once.
    fn flush_all(&mut self) {
        let peers = self.peers.iter_mut().filter_map(|link| link.conn.as_mut());
        for conn in self.conns.iter_mut().flatten().chain(peers) {
            self.sock.writes += conn.flush();
        }
    }

    /// Adds the socket calls counted since the last fold to the registry as
    /// `net.sock.reads`, `net.sock.writes`, `net.polls` and, for the waits
    /// that spun, `net.spin.caught`, `net.spin.blocked` and
    /// `net.spin.polls`.
    fn fold_sock_counts(&mut self) {
        let SockCounts {
            reads,
            writes,
            polls,
            spin_caught,
            spin_blocked,
            spin_polls,
        } = std::mem::take(&mut self.sock);
        self.metrics.inc_by("net.sock.reads", reads);
        self.metrics.inc_by("net.sock.writes", writes);
        self.metrics.inc_by("net.polls", polls);
        self.metrics.inc_by("net.spin.caught", spin_caught);
        self.metrics.inc_by("net.spin.blocked", spin_blocked);
        self.metrics.inc_by("net.spin.polls", spin_polls);
    }

    /// Records a failure on peer link `p` at `now`: the next dial waits the
    /// next backoff delay (observable as `net.circuit_open` /
    /// `net.backoff.*`), or, at the attempt budget, the node gives up with a
    /// structured [`EngineError::Unreachable`].
    fn fail_link(&mut self, p: usize, now: Instant) -> Result<(), EngineError> {
        let link = &mut self.peers[p];
        link.failures = link.failures.saturating_add(1);
        if link.failures >= self.backoff.attempts {
            self.metrics.inc("net.backoff.exhausted");
            let addr = link
                .addr
                .map(|a| a.to_string())
                .unwrap_or_else(|| "<unset>".into());
            return Err(EngineError::Unreachable {
                site: p as SiteId,
                detail: format!(
                    "{addr} after {} attempts: {}",
                    self.backoff.attempts, link.last_err
                ),
            });
        }
        let wait = self.backoff.delay(link.failures, peer_salt(self.me.0, p as u32));
        link.retry_at = Some(now + wait);
        self.metrics.inc("net.circuit_open");
        self.metrics
            .observe("net.backoff.wait_ms", wait.as_secs_f64() * 1e3);
        Ok(())
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
        // The time of the pass: the clock reading taken when the last wait
        // ended; the first pass uses this one.
        let mut now = Instant::now();
        let at = self.sim_time(now);
        if self.drive(|host, m, t, out| host.start(at, m, t, out))? {
            self.metrics.inc("net.cold_recoveries");
            self.metrics.observe("recovery.duration", self.open_secs);
        }
        let mut set: Vec<PollFd> = Vec::new();
        let mut sources: Vec<Source> = Vec::new();
        let mut events: Vec<(usize, Frame)> = Vec::new();
        loop {
            // 1. Fire the timers due by the time the last wait ended.
            let at = self.sim_time(now);
            self.drive(|host, m, t, out| host.fire_due(at, m, t, out))?;

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
            self.pump_peers(now)?;
            self.reap_inbound();

            // 4. Wait until a descriptor is ready or the next deadline:
            // spin first while spins catch frames, then block.
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
            let ready;
            (ready, now) = self.wait(&mut set, now)?;
            if ready == 0 {
                self.metrics.inc("net.idle_wakeups");
                continue;
            }

            // 5. Serve what came back ready: accept, read, parse complete
            // frames. Any report counts, asked for or not — a hang-up or
            // error surfaces through `fill`, and queued output goes out in
            // the next pass's flush. IO and engine work are separate passes
            // so the engine borrows cleanly.
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
                        self.sock.reads += conn.fill(&mut self.chunk);
                        if conn.decode_into(slot, &mut events).is_err() {
                            // Counted, not fatal: only this peer is affected.
                            self.metrics.inc("net.decode_errors");
                        }
                    }
                    // Peers never send frames back on our dialed pipe; the
                    // read is how its EOF is noticed.
                    Source::Peer(p) => {
                        if let Some(conn) = self.peers[p].conn.as_mut() {
                            self.sock.reads += conn.fill(&mut self.chunk);
                        }
                    }
                }
            }

            // 6. Process frames through the engine, all stamped with the
            // time the wait ended.
            let at = self.sim_time(now);
            for (slot, frame) in events.drain(..) {
                match frame {
                    Frame::Hello { node } => {
                        self.routes.insert(node, slot);
                    }
                    Frame::Proto { from, msg } => {
                        let from = NodeId(from);
                        self.drive(|host, m, t, out| host.deliver(at, from, msg, m, t, out))?;
                    }
                    Frame::InspectReq => {
                        let snap = self.snapshot();
                        self.respond(slot, &Frame::InspectResp(snap));
                    }
                    Frame::MetricsReq => {
                        // Storage metrics were flushed by the engine inside
                        // the last step; the socket counts fold in here.
                        self.fold_sock_counts();
                        let wire = WireMetrics::from_metrics(&self.metrics);
                        self.respond(slot, &Frame::MetricsResp(wire));
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
    /// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN)) is that connection's
    /// failure, not the site's: the connection is dropped and the node keeps
    /// serving.
    fn respond(&mut self, slot: usize, frame: &Frame) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        if conn.queue(frame).is_err() {
            conn.dead = true;
            self.metrics.inc("net.encode_errors");
        }
    }

    /// Accepts every connection waiting on the listener, each into the
    /// first free slot of the slab. A failure that concerns only the
    /// connection being accepted is counted as `net.accept_errors`; any
    /// other ends the node.
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
                Err(e) if accept_error_is_transient(e.kind()) => {
                    self.metrics.inc("net.accept_errors");
                }
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

/// Renders a fatal [`EngineError`] as the one JSON line `pv-node` and
/// `pv-loadgen` print on stderr before they exit non-zero, e.g.
/// `{"error":{"kind":"unreachable","site":2,"detail":"..."}}`. Only
/// `unreachable` carries a `site`; `detail` is the error's `Display` with
/// double quotes made single and newlines made spaces.
pub fn error_json(e: &EngineError) -> String {
    let (kind, site) = match e {
        EngineError::Unreachable { site, .. } => ("unreachable", Some(*site)),
        EngineError::Io(_) => ("io", None),
        EngineError::Encode(_) => ("encode", None),
        EngineError::Decode(_) => ("decode", None),
        EngineError::Timeout => ("timeout", None),
        EngineError::Disconnected => ("disconnected", None),
        _ => ("engine", None),
    };
    let detail: String = e
        .to_string()
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' => ' ',
            c => c,
        })
        .collect();
    match site {
        Some(s) => {
            format!("{{\"error\":{{\"kind\":\"{kind}\",\"site\":{s},\"detail\":\"{detail}\"}}}}")
        }
        None => format!("{{\"error\":{{\"kind\":\"{kind}\",\"detail\":\"{detail}\"}}}}"),
    }
}

/// Whether a failed `accept` concerns only the connection it would have
/// returned — the client reset it while it queued, or a signal interrupted
/// the call — so the listener can keep serving. Every other kind is the
/// listener's own failure.
fn accept_error_is_transient(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::ConnectionAborted | ErrorKind::Interrupted)
}

/// Jitter salt of the (node, peer) directed link.
fn peer_salt(me: SiteId, peer: u32) -> u64 {
    (u64::from(me) << 32) ^ u64::from(peer) ^ 0x5EED_CAFE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_FRAME_LEN;
    use pv_engine::Directory;

    /// A bound one-site node.
    fn lone_node() -> Node {
        let topo = Topology::new(1, Directory::Mod(1));
        Node::bind(0, &topo, Backoff::default(), "127.0.0.1:0".parse().unwrap()).unwrap()
    }

    #[test]
    fn error_json_pins_the_kind_of_every_engine_error() {
        use pv_core::ItemId;
        let kinds = [
            (EngineError::Timeout, "timeout"),
            (EngineError::Disconnected, "disconnected"),
            (EngineError::UnknownSite(4), "engine"),
            (EngineError::UnknownClient(1), "engine"),
            (EngineError::UnplacedItem(ItemId(3)), "engine"),
            (EngineError::MissingItem(ItemId(3)), "engine"),
            (EngineError::NotAnInt(ItemId(3)), "engine"),
            (EngineError::Rejected("PV001".into()), "engine"),
            (EngineError::Encode("too long".into()), "encode"),
            (EngineError::Decode("bad crc".into()), "decode"),
            (EngineError::Io("refused".into()), "io"),
        ];
        for (e, kind) in kinds {
            let line = error_json(&e);
            let head = format!("{{\"error\":{{\"kind\":\"{kind}\",\"detail\":\"");
            assert!(line.starts_with(&head), "{e:?} renders {line}");
        }
        let e = EngineError::Unreachable {
            site: 2,
            detail: "dial \"x\"\nrefused".into(),
        };
        assert_eq!(
            error_json(&e),
            r#"{"error":{"kind":"unreachable","site":2,"detail":"site s2 unreachable: dial 'x' refused"}}"#
        );
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

    #[test]
    fn only_aborted_and_interrupted_accepts_are_survived() {
        assert!(accept_error_is_transient(ErrorKind::ConnectionAborted));
        assert!(accept_error_is_transient(ErrorKind::Interrupted));
        let emfile = std::io::Error::from_raw_os_error(24).kind();
        for fatal in [
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
            ErrorKind::Other,
            emfile,
        ] {
            assert!(!accept_error_is_transient(fatal), "{fatal:?}");
        }
    }

    /// Site 0 of a two-site cluster under `backoff`, its link to site 1
    /// pointed at `peer`.
    fn node_with_peer(backoff: Backoff, peer: SocketAddr) -> Node {
        let topo = Topology::new(2, Directory::Mod(2));
        let mut node = Node::bind(0, &topo, backoff, "127.0.0.1:0".parse().unwrap()).unwrap();
        let me = node.local_addr().unwrap();
        node.set_peers(vec![me, peer]);
        node
    }

    #[test]
    fn a_failing_link_backs_off_dials_once_and_recovers_after_the_stability_window() {
        let backoff = Backoff {
            attempts: 5,
            ..Backoff::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let mut node = node_with_peer(backoff, peer);
        let stability = node.stability();
        let dials = |node: &Node| node.metrics.counter("net.backoff.attempts");

        // The jittered delays of link 0 → 1, as the policy has always drawn
        // them: `Backoff::default()`, salt `peer_salt(0, 1)`.
        let waits = [41_177_341, 80_263_283, 204_601_744, 499_585_280].map(Duration::from_nanos);
        let mut now = Instant::now();
        for (k, &wait) in waits.iter().enumerate() {
            node.fail_link(1, now).unwrap();
            let link = &node.peers[1];
            assert_eq!(link.failures, k as u32 + 1);
            assert_eq!(link.retry_at, Some(now + wait));
            assert_eq!(link.deadline(stability), Some(now + wait));
            node.pump_peers(now + wait - Duration::from_nanos(1)).unwrap();
            assert_eq!(dials(&node), 0, "no dial before the wait is over");
            now += wait;
        }
        assert_eq!(node.metrics.counter("net.circuit_open"), 4);
        let observed = node.metrics.histogram("net.backoff.wait_ms").unwrap().values().to_vec();
        let expected: Vec<f64> = waits.iter().map(|w| w.as_secs_f64() * 1e3).collect();
        assert_eq!(observed, expected);

        // The wait is over: one dial launches, and no second one while it
        // is out, however long it takes.
        node.pump_peers(now).unwrap();
        assert_eq!(dials(&node), 1);
        let (tx, rx) = mpsc::channel();
        node.peers[1].dial = Some(rx);
        node.pump_peers(now + Duration::from_secs(3600)).unwrap();
        assert_eq!(dials(&node), 1, "one dial at a time");

        // The dial succeeds, but the link keeps its failures until the
        // connection outlives the stability window.
        tx.send(TcpStream::connect(peer)).unwrap();
        node.pump_peers(now).unwrap();
        let link = &node.peers[1];
        assert!(link.conn.is_some() && link.dial.is_none());
        assert_eq!(link.failures, 4);
        assert_eq!(link.deadline(stability), Some(now + stability));
        node.pump_peers(now + stability - Duration::from_nanos(1)).unwrap();
        assert_eq!(node.peers[1].failures, 4);
        assert_eq!(node.metrics.counter("net.circuit_reclosed"), 0);
        node.pump_peers(now + stability).unwrap();
        assert_eq!(node.peers[1].failures, 0);
        assert_eq!(node.peers[1].deadline(stability), None);
        assert_eq!(node.metrics.counter("net.circuit_reclosed"), 1);
        assert_eq!(dials(&node), 1);
    }

    #[test]
    fn the_wait_never_ends_before_the_next_timer_is_due() {
        use pv_core::{Expr, ItemId, TransactionSpec};
        let topo = Topology::new(1, Directory::Mod(1)).item(0u64, 100i64);
        let mut node = Node::bind(0, &topo, Backoff::default(), "127.0.0.1:0".parse().unwrap())
            .unwrap();
        let item = ItemId(0);
        let spec = TransactionSpec::new().update(item, Expr::read(item).add(Expr::int(1)));
        let submit = Msg::Submit { req_id: 1, spec };
        let at = SimTime(1_234_567);
        node.drive(|host, m, t, out| host.deliver(at, NodeId(9), submit, m, t, out))
            .unwrap();
        let d = node.host.next_deadline().expect("the submission armed a timer");
        assert!(d > at);
        let due = node.epoch + Duration::from_micros(d.as_micros());
        // From 1 s before the deadline up to it, across µs and ms
        // boundaries.
        for back_ns in [
            0, 1, 999, 1_000, 1_001, 999_999, 1_000_000, 1_000_001, 7_654_321, 1_000_000_000,
        ] {
            let now = due - Duration::from_nanos(back_ns);
            let wait = node.wait_timeout(now).unwrap();
            assert!(wait >= due - now, "{back_ns} ns before: waits {wait:?}");
            // `poll` takes whole milliseconds, rounded up; the pass after
            // the wait stamps a time by which the timer is due.
            let polled = Duration::from_millis(wait.as_nanos().div_ceil(1_000_000) as u64);
            assert!(node.sim_time(now + polled) >= d, "{back_ns} ns before");
        }
        // Once the deadline has passed, the wait is zero.
        let late = due + Duration::from_millis(5);
        assert_eq!(node.wait_timeout(late), Some(Duration::ZERO));
    }

    #[test]
    fn the_attempts_th_failure_is_unreachable_and_names_the_budget() {
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut node = node_with_peer(Backoff::fast_fail(), peer);
        node.peers[1].last_err = "connection refused".into();
        let now = Instant::now();
        node.fail_link(1, now).unwrap();
        node.fail_link(1, now).unwrap();
        match node.fail_link(1, now) {
            Err(EngineError::Unreachable { site, detail }) => {
                assert_eq!(site, 1);
                assert_eq!(detail, format!("{peer} after 3 attempts: connection refused"));
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
        assert_eq!(node.metrics.counter("net.circuit_open"), 2);
        assert_eq!(node.metrics.counter("net.backoff.exhausted"), 1);
    }

    /// Counts the waits in `n` that spin when the spins catch a frame or
    /// not by turns of `outcomes`.
    fn spins_in(score: &mut SpinScore, n: u32, outcomes: &[bool]) -> u32 {
        let mut outcomes = outcomes.iter().copied().cycle();
        let mut spun = 0;
        for _ in 0..n {
            if score.spins() {
                spun += 1;
                score.score(outcomes.next().unwrap());
            }
        }
        spun
    }

    #[test]
    fn an_idle_node_stops_spinning_but_for_the_probes() {
        let mut score = SpinScore {
            score: SCORE_CAP,
            waits: 0,
        };
        // Four misses bring a full score to zero; then only every
        // PROBE_EVERY-th wait spins.
        assert_eq!(spins_in(&mut score, PROBE_EVERY, &[false]), 4 + 1);
        assert_eq!(score.score, 0);
        assert_eq!(spins_in(&mut score, 10 * PROBE_EVERY, &[false]), 10);
    }

    #[test]
    fn a_node_whose_spins_catch_frames_keeps_spinning() {
        let mut score = SpinScore::default();
        // A fresh node blocks until its first probe...
        assert_eq!(spins_in(&mut score, PROBE_EVERY - 1, &[true]), 0);
        // ...which catches a frame, and from then on every wait spins.
        let n = 10 * PROBE_EVERY;
        assert_eq!(spins_in(&mut score, n + 1, &[true]), n + 1);
        assert_eq!(score.score, SCORE_CAP);
        // Two catches in three hold their ground (+1 +1 −2)...
        assert_eq!(spins_in(&mut score, n, &[true, true, false]), n);
        // ...but one in two does not, and the node falls back to the probes.
        assert!(spins_in(&mut score, n, &[true, false]) < n / 2);
        assert!(score.score <= 1, "score {}", score.score);
    }

    #[test]
    fn a_spin_ends_at_its_limit_or_at_the_first_ready_descriptor() {
        let (rx, tx) = UnixStream::pair().unwrap();
        let mut set = [PollFd::new(&rx, poll::IN)];
        let mut polls = 0;
        let until = Instant::now() + SPIN;
        let (ready, end) = spin(&mut set, until, &mut polls).unwrap();
        assert_eq!(ready, 0);
        assert!(end >= until && polls >= 1);
        // Bounded by one more try past the limit; generous for a loaded box.
        assert!(end < until + Duration::from_millis(50), "spun {:?} too long", end - until);

        (&tx).write_all(&[1]).unwrap();
        let mut polls = 0;
        let (ready, _) = spin(&mut set, Instant::now() + SPIN, &mut polls).unwrap();
        assert_eq!((ready, polls), (1, 1), "a ready descriptor ends the spin at once");
    }

    #[test]
    fn a_wait_spins_no_longer_than_the_budget_or_the_end_of_the_wait() {
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut node = node_with_peer(Backoff::default(), peer);
        let (rx, _tx) = UnixStream::pair().unwrap();
        let mut set = [PollFd::new(&rx, poll::IN)];
        node.spin.score = SCORE_CAP;
        let counts = |node: &Node| {
            let s = &node.sock;
            (s.polls, s.spin_caught, s.spin_blocked, s.spin_polls > 0)
        };

        // A deadline 5 µs after the pass: `poll` would sleep a whole
        // millisecond, so the spin takes its full budget, misses, and the
        // wait blocks for the rest of that millisecond.
        let now = Instant::now();
        let due = now + Duration::from_micros(5);
        node.peers[1].retry_at = Some(due);
        let (ready, end) = node.wait(&mut set, now).unwrap();
        assert_eq!(ready, 0);
        assert!(end >= now + Duration::from_millis(1));
        assert_eq!(counts(&node), (1, 0, 1, true));
        assert_eq!(node.spin.score, SCORE_CAP - 2);

        // A pass that ran for most of that millisecond: the spin ends where
        // the blocking wait would have, without blocking after it and
        // without a verdict on spinning.
        let now = Instant::now() - Duration::from_micros(995);
        let due = now + Duration::from_micros(5);
        node.peers[1].retry_at = Some(due);
        let (ready, end) = node.wait(&mut set, now).unwrap();
        assert_eq!(ready, 0);
        assert!(end >= now + Duration::from_millis(1));
        assert!(end < now + Duration::from_millis(50), "spun {:?}", end - now);
        assert_eq!(counts(&node), (2, 0, 1, true));
        assert_eq!(node.spin.score, SCORE_CAP - 2);

        // A deadline already due: nothing to spin for.
        node.sock.spin_polls = 0;
        node.peers[1].retry_at = Some(Instant::now());
        let (ready, _) = node.wait(&mut set, Instant::now()).unwrap();
        assert_eq!(ready, 0);
        assert_eq!(counts(&node), (3, 0, 1, false));
    }
}
