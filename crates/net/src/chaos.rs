//! Networked fault injection: a frame-aware TCP proxy on every site link.
//!
//! A [`ChaosNet`] fronts each site of a `pv-net` cluster with a proxy
//! listener. Site peer tables point at the proxies (the nodes themselves
//! still bind their real addresses), so every site→site connection crosses a
//! proxy that can misbehave on command: delay frames, drop them, duplicate
//! them, throttle bytes, cut a connection in the middle of a frame, or
//! blackhole a direction entirely (a partition). Faults are configured per
//! *directed link* — the proxy learns which node is talking from the `Hello`
//! frame every connection opens with — so one-way partitions and asymmetric
//! loss are first-class.
//!
//! Injection decisions come from a [`SimRng`] forked per connection from one
//! master seed, so a chaos schedule replays the same decision sequence for
//! the same seed and traffic. (Wall-clock interleaving across real sockets
//! is not deterministic — the *faults* are, the timing is not; the recovery
//! invariants the harness checks hold under any interleaving.)
//!
//! The proxy operates on whole frames in the faulted direction: a dropped
//! or delayed frame never corrupts the byte stream, mirroring message-level
//! loss in the simulator's [`pv_simnet`] fault model. The one deliberate
//! exception is [`LinkFaults::cut_midframe_prob`], which truncates a frame
//! and closes the socket — exercising the decoder's partial-frame handling
//! and the node's reconnect path at once. Everything injected is counted in
//! a shared metrics registry under `chaos.injected.*`.

use crate::wire::{decode_frame, Frame, HEADER_LEN};
use pv_engine::EngineError;
use pv_simnet::{Metrics, SimRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a proxied connection may sit without a parseable `Hello` before
/// the proxy gives up on it.
const HELLO_DEADLINE: Duration = Duration::from_secs(5);

/// Poll tick of the per-connection pump loop.
const PUMP_TICK: Duration = Duration::from_millis(1);

/// The fault schedule of one directed site link.
///
/// All probabilities are per frame in `[0, 1]`; the zero value (the
/// `Default`) is a transparent proxy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Extra latency added to every forwarded frame.
    pub delay: Duration,
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is delivered twice.
    pub dup_prob: f64,
    /// Byte-rate cap on the link (`0` = unlimited).
    pub throttle_bytes_per_sec: u64,
    /// Probability a frame is truncated mid-header/payload and the
    /// connection cut — the receiver sees a partial frame then EOF.
    pub cut_midframe_prob: f64,
    /// Blackholes the direction: existing connections are killed and new
    /// ones closed as soon as their `Hello` identifies the link.
    pub blocked: bool,
}

impl LinkFaults {
    /// A transparent link (no faults).
    pub fn clean() -> Self {
        LinkFaults::default()
    }

    /// A blocked (partitioned) link.
    pub fn partitioned() -> Self {
        LinkFaults {
            blocked: true,
            ..LinkFaults::default()
        }
    }
}

struct FaultTable {
    default: LinkFaults,
    links: BTreeMap<(u32, u32), LinkFaults>,
}

impl FaultTable {
    fn get(&self, from: u32, to: u32) -> LinkFaults {
        self.links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default)
    }

    fn entry(&mut self, from: u32, to: u32) -> &mut LinkFaults {
        let fallback = self.default;
        self.links.entry((from, to)).or_insert(fallback)
    }
}

struct Shared {
    faults: Mutex<FaultTable>,
    /// Where each proxy currently forwards (index = site id). Mutable so a
    /// site restarted on a fresh port can be re-targeted while its
    /// proxy-facing address — the one in every peer table — stays stable.
    reals: Mutex<Vec<SocketAddr>>,
    metrics: Mutex<Metrics>,
    stop: AtomicBool,
    conn_serial: AtomicU64,
    seed: u64,
}

impl Shared {
    fn inc(&self, key: &'static str) {
        self.metrics.lock().expect("metrics lock").inc(key);
    }
}

/// A fleet of fault-injecting proxies, one per site of a cluster.
///
/// Build with the sites' *real* listen addresses; point the sites' peer
/// tables at [`ChaosNet::proxy_addrs`] instead. Clients keep using the real
/// addresses — chaos is injected between sites, where the §3.1/§3.3
/// protocol has to survive it, not between the harness and its probes.
pub struct ChaosNet {
    proxy_addrs: Vec<SocketAddr>,
    shared: Arc<Shared>,
    accepters: Vec<std::thread::JoinHandle<()>>,
}

impl ChaosNet {
    /// Binds one proxy listener per entry of `real_addrs` (loopback, OS
    /// port) and starts forwarding. `seed` drives every injection decision.
    pub fn new(seed: u64, real_addrs: &[SocketAddr]) -> Result<Self, EngineError> {
        let shared = Arc::new(Shared {
            faults: Mutex::new(FaultTable {
                default: LinkFaults::default(),
                links: BTreeMap::new(),
            }),
            reals: Mutex::new(real_addrs.to_vec()),
            metrics: Mutex::new(Metrics::new()),
            stop: AtomicBool::new(false),
            conn_serial: AtomicU64::new(0),
            seed,
        });
        let mut proxy_addrs = Vec::with_capacity(real_addrs.len());
        let mut accepters = Vec::with_capacity(real_addrs.len());
        for to in 0..real_addrs.len() {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| EngineError::Io(format!("bind chaos proxy: {e}")))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| EngineError::Io(format!("set_nonblocking: {e}")))?;
            proxy_addrs.push(
                listener
                    .local_addr()
                    .map_err(|e| EngineError::Io(format!("local_addr: {e}")))?,
            );
            let shared = Arc::clone(&shared);
            let to = to as u32;
            accepters.push(
                std::thread::Builder::new()
                    .name(format!("pv-chaos-accept-{to}"))
                    .spawn(move || accept_loop(listener, to, shared))
                    .map_err(|e| EngineError::Io(format!("spawn accepter: {e}")))?,
            );
        }
        Ok(ChaosNet {
            proxy_addrs,
            shared,
            accepters,
        })
    }

    /// The proxy address fronting each site (index = site id). Hand these
    /// to the sites as their peer table.
    pub fn proxy_addrs(&self) -> &[SocketAddr] {
        &self.proxy_addrs
    }

    /// Repoints site `site`'s proxy at a new real address. The chaos
    /// harness restarts killed nodes on fresh ports (`std` exposes no
    /// `SO_REUSEADDR`, so the old port may sit in TIME_WAIT) — peers keep
    /// dialing the same proxy address and land on the reborn process.
    pub fn retarget(&self, site: u32, real: SocketAddr) {
        let mut reals = self.shared.reals.lock().expect("reals lock");
        if let Some(slot) = reals.get_mut(site as usize) {
            *slot = real;
        }
    }

    /// Sets the fault schedule applied to links without an explicit entry.
    pub fn set_default(&self, faults: LinkFaults) {
        self.shared.faults.lock().expect("faults lock").default = faults;
    }

    /// Sets the fault schedule of the directed link `from → to`.
    pub fn set_link(&self, from: u32, to: u32, faults: LinkFaults) {
        self.shared.faults.lock().expect("faults lock").links.insert((from, to), faults);
    }

    /// The current fault schedule of the directed link `from → to`.
    pub fn link(&self, from: u32, to: u32) -> LinkFaults {
        self.shared.faults.lock().expect("faults lock").get(from, to)
    }

    /// Partitions site groups `a` and `b` from each other (both
    /// directions). Existing connections across the cut are killed; redials
    /// are refused until [`ChaosNet::heal`]. Non-blocking fault fields of
    /// affected links are preserved.
    pub fn partition(&self, a: &[u32], b: &[u32]) {
        let mut table = self.shared.faults.lock().expect("faults lock");
        for &x in a {
            for &y in b {
                table.entry(x, y).blocked = true;
                table.entry(y, x).blocked = true;
            }
        }
    }

    /// Blocks only the `from` group → `to` group direction (an asymmetric
    /// partition: requests die, replies from the other side still flow on
    /// their own links).
    pub fn partition_oneway(&self, from: &[u32], to: &[u32]) {
        let mut table = self.shared.faults.lock().expect("faults lock");
        for &x in from {
            for &y in to {
                table.entry(x, y).blocked = true;
            }
        }
    }

    /// Unblocks every link (other fault fields are preserved). Healed sites
    /// rejoin on their own backoff schedules — the harness asserts that the
    /// rejoin is paced, not a thundering herd.
    pub fn heal(&self) {
        let mut table = self.shared.faults.lock().expect("faults lock");
        table.default.blocked = false;
        for faults in table.links.values_mut() {
            faults.blocked = false;
        }
    }

    /// A snapshot of everything injected so far (`chaos.injected.*`
    /// counters).
    pub fn metrics(&self) -> Metrics {
        let mut out = Metrics::new();
        out.merge(&self.shared.metrics.lock().expect("metrics lock"));
        out
    }

    /// Stops the proxy threads. Existing proxied connections close; the
    /// sites behind the proxies are untouched.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in self.accepters.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosNet {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn accept_loop(listener: TcpListener, to: u32, shared: Arc<Shared>) {
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let serial = shared.conn_serial.fetch_add(1, Ordering::Relaxed);
                let real = shared.reals.lock().expect("reals lock")[to as usize];
                let shared = Arc::clone(&shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name(format!("pv-chaos-pump-{to}-{serial}"))
                    .spawn(move || pump_conn(stream, real, to, serial, shared))
                {
                    pumps.push(handle);
                }
                pumps.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for handle in pumps {
        let _ = handle.join();
    }
}

/// Reads whatever `stream` has available into `buf`; returns false once the
/// connection is finished (EOF or error).
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Writes as much of `buf` as the socket takes, up to `budget` bytes;
/// returns `Err(())` once the connection is finished.
fn drain(stream: &mut TcpStream, buf: &mut Vec<u8>, budget: usize) -> Result<usize, ()> {
    let mut written = 0;
    while written < budget && !buf.is_empty() {
        let n = buf.len().min(budget - written);
        match stream.write(&buf[..n]) {
            Ok(0) => return Err(()),
            Ok(k) => {
                buf.drain(..k);
                written += k;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(written)
}

/// One proxied connection: learn the source node from its `Hello`, dial the
/// real site behind the proxy, then pump frames with faults applied in the
/// client→site direction and bytes relayed verbatim the other way.
fn pump_conn(
    mut client: TcpStream,
    real: SocketAddr,
    to: u32,
    serial: u64,
    shared: Arc<Shared>,
) {
    if client.set_nonblocking(true).is_err() {
        return;
    }
    let _ = client.set_nodelay(true);

    // Phase 1: wait for the Hello that names the directed link.
    let mut rbuf: Vec<u8> = Vec::new();
    let deadline = Instant::now() + HELLO_DEADLINE;
    let (from, hello_raw) = loop {
        if shared.stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
            return;
        }
        if !fill(&mut client, &mut rbuf) {
            return;
        }
        match decode_frame(&rbuf) {
            Ok(Some((Frame::Hello { node, .. }, n))) => {
                let raw = rbuf[..n].to_vec();
                rbuf.drain(..n);
                break (node, raw);
            }
            Ok(Some(_)) | Err(_) => return, // first frame must be Hello
            Ok(None) => std::thread::sleep(PUMP_TICK),
        }
    };

    if shared.faults.lock().expect("faults lock").get(from, to).blocked {
        shared.inc("chaos.injected.conn_refused");
        return; // dropping the socket = connection refused mid-partition
    }

    let Ok(server) = TcpStream::connect_timeout(&real, Duration::from_secs(2)) else {
        return;
    };
    let mut server = server;
    if server.set_nonblocking(true).is_err() {
        return;
    }
    let _ = server.set_nodelay(true);

    let mut rng = SimRng::new(shared.seed).fork((u64::from(from) << 32) | u64::from(to) ^ serial);

    // Frames waiting out their injected delay, FIFO per due time.
    let mut delayed: VecDeque<(Instant, Vec<u8>)> = VecDeque::new();
    // Bytes cleared for the site, pending socket capacity (and throttle).
    let mut server_wbuf: Vec<u8> = hello_raw;
    // Reverse direction: site → dialer, relayed verbatim.
    let mut client_wbuf: Vec<u8> = Vec::new();
    // Token bucket for throttling (refilled by wall-clock elapsed).
    let mut tokens: f64 = 0.0;
    let mut last_refill = Instant::now();
    let mut cut_after_flush = false;

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let faults = shared.faults.lock().expect("faults lock").get(from, to);
        if faults.blocked {
            shared.inc("chaos.injected.conn_killed");
            return;
        }

        let client_alive = fill(&mut client, &mut rbuf);
        if rbuf.len() > 64 * 1024 * 1024 {
            return; // runaway unparseable stream
        }

        // Apply per-frame faults to everything parseable.
        loop {
            match decode_frame(&rbuf) {
                Ok(Some((_, n))) => {
                    let raw = rbuf[..n].to_vec();
                    rbuf.drain(..n);
                    if faults.drop_prob > 0.0 && rng.chance(faults.drop_prob) {
                        shared.inc("chaos.injected.drop");
                        continue;
                    }
                    if faults.cut_midframe_prob > 0.0 && rng.chance(faults.cut_midframe_prob) {
                        shared.inc("chaos.injected.cut_midframe");
                        // Forward a prefix that ends inside the frame, then
                        // hang up once it has flushed.
                        let cut = (raw.len() / 2).max(HEADER_LEN / 2).min(raw.len() - 1);
                        server_wbuf.extend_from_slice(&raw[..cut]);
                        cut_after_flush = true;
                        break;
                    }
                    let copies = if faults.dup_prob > 0.0 && rng.chance(faults.dup_prob) {
                        shared.inc("chaos.injected.dup");
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        if faults.delay > Duration::ZERO {
                            shared.inc("chaos.injected.delay");
                            delayed.push_back((Instant::now() + faults.delay, raw.clone()));
                        } else {
                            server_wbuf.extend_from_slice(&raw);
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => return, // corrupt stream: no resync possible
            }
        }

        // Release frames whose delay has elapsed.
        let now = Instant::now();
        while matches!(delayed.front(), Some((due, _)) if *due <= now) {
            let (_, raw) = delayed.pop_front().expect("peeked");
            server_wbuf.extend_from_slice(&raw);
        }

        // Throttle: spendable bytes this tick.
        let budget = if faults.throttle_bytes_per_sec > 0 {
            let elapsed = now.duration_since(last_refill).as_secs_f64();
            last_refill = now;
            tokens = (tokens + elapsed * faults.throttle_bytes_per_sec as f64)
                .min(faults.throttle_bytes_per_sec as f64);
            if !server_wbuf.is_empty() && tokens < 1.0 {
                shared.inc("chaos.injected.throttle_stall");
            }
            tokens as usize
        } else {
            last_refill = now;
            usize::MAX
        };
        match drain(&mut server, &mut server_wbuf, budget) {
            Ok(written) => {
                if faults.throttle_bytes_per_sec > 0 {
                    tokens -= written as f64;
                }
            }
            Err(()) => return,
        }
        if cut_after_flush && server_wbuf.is_empty() {
            shared.inc("chaos.injected.conn_killed");
            return;
        }

        // Reverse direction, verbatim.
        let server_alive = fill(&mut server, &mut client_wbuf);
        if drain(&mut client, &mut client_wbuf, usize::MAX).is_err() {
            return;
        }

        let done_client = !client_alive && rbuf.is_empty() && delayed.is_empty();
        if (done_client && server_wbuf.is_empty()) || (!server_alive && client_wbuf.is_empty()) {
            return;
        }
        std::thread::sleep(PUMP_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_table_falls_back_to_default() {
        let table = FaultTable {
            default: LinkFaults {
                drop_prob: 0.5,
                ..LinkFaults::default()
            },
            links: BTreeMap::from([((0, 1), LinkFaults::partitioned())]),
        };
        assert!(table.get(0, 1).blocked);
        assert!(!table.get(1, 0).blocked);
        assert_eq!(table.get(1, 0).drop_prob, 0.5);
    }

    #[test]
    fn partition_and_heal_toggle_directed_links() {
        let chaos = ChaosNet::new(7, &[]).expect("no listeners needed");
        chaos.partition(&[0], &[1, 2]);
        assert!(chaos.link(0, 1).blocked);
        assert!(chaos.link(2, 0).blocked);
        assert!(!chaos.link(1, 2).blocked);
        chaos.heal();
        assert!(!chaos.link(0, 1).blocked);
        assert!(!chaos.link(2, 0).blocked);
    }

    #[test]
    fn oneway_partition_blocks_only_one_direction() {
        let chaos = ChaosNet::new(7, &[]).expect("no listeners needed");
        chaos.partition_oneway(&[0], &[1]);
        assert!(chaos.link(0, 1).blocked);
        assert!(!chaos.link(1, 0).blocked);
    }

    #[test]
    fn heal_preserves_non_blocking_faults() {
        let chaos = ChaosNet::new(7, &[]).expect("no listeners needed");
        chaos.set_link(
            0,
            1,
            LinkFaults {
                drop_prob: 0.25,
                blocked: true,
                ..LinkFaults::default()
            },
        );
        chaos.heal();
        let link = chaos.link(0, 1);
        assert!(!link.blocked);
        assert_eq!(link.drop_prob, 0.25);
    }
}
