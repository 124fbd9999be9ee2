//! Real `pv-node` process clusters on localhost, and the end-of-run checks
//! every cluster harness shares.
//!
//! [`ProcCluster`] is how `pv-loadgen`, `pv-chaos` and the process tests run
//! one OS process per site. It starts `pv-node` with the flags of a
//! [`ProcSpec`] and waits until every site accepts; it kills and restarts
//! sites, opens clients, and shuts the cluster down, checking each exit
//! status. Dropping it kills whatever still runs, so a failed run leaves no
//! orphans. With a chaos seed every site→site link runs through a
//! [`ChaosNet`] proxy, as [`NetBuilder::chaos`](crate::NetBuilder::chaos)
//! does in process; the proxies are what let a killed site come back on a
//! fresh port.
//!
//! [`ProcCluster::settle`] and [`NetCluster::settle`](crate::NetCluster::settle)
//! poll through one loop, and [`balances`] audits the snapshots they return.

use crate::backoff::Backoff;
use crate::chaos::ChaosNet;
use crate::client::NetClient;
use crate::wire::NodeSnapshot;
use pv_core::{ItemId, Value};
use pv_engine::{CommitProtocol, EngineConfig, EngineError};
use pv_simnet::{Metrics, SimDuration};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The pause between two polls of a readiness wait or a settle.
const POLL: Duration = Duration::from_millis(25);
/// The longest one inspect of a settle may take.
const REQUEST: Duration = Duration::from_secs(5);
/// How long a started site gets to accept its first connection.
const READY: Duration = Duration::from_secs(10);

fn io_error(what: &str, e: impl std::fmt::Display) -> EngineError {
    EngineError::Io(format!("{what}: {e}"))
}

/// The localhost engine timeouts `pv-node --fast` runs under, for
/// `protocol`: every [`ProcCluster`] site, and the in-process clusters of
/// the tests.
pub fn fast_config(protocol: CommitProtocol) -> EngineConfig {
    EngineConfig {
        read_timeout: SimDuration::from_millis(200),
        ready_timeout: SimDuration::from_millis(200),
        wait_timeout: SimDuration::from_millis(80),
        read_lease: SimDuration::from_millis(500),
        inquire_interval: SimDuration::from_millis(100),
        ..EngineConfig::with_protocol(protocol)
    }
}

/// The `pv-node` flags every site of a [`ProcCluster`] is started with
/// (always with `--fast`: the timeouts of [`fast_config`]).
#[derive(Debug, Clone)]
pub struct ProcSpec {
    /// The `pv-node` binary: [`sibling_node_bin`] from a binary,
    /// `env!("CARGO_BIN_EXE_pv-node")` from an integration test.
    pub bin: PathBuf,
    /// Number of sites.
    pub sites: u32,
    /// `--accounts`: integer items `0..accounts`, item `i` at site
    /// `i mod sites`.
    pub accounts: u64,
    /// `--balance`: every account's starting value.
    pub balance: i64,
    /// `--protocol`, passed as its [`CommitProtocol::label`].
    pub protocol: CommitProtocol,
    /// `--data-dir`: disk WALs under this directory, made empty at spawn and
    /// removed by a clean [`ProcCluster::shutdown`]. `None` keeps every WAL
    /// in memory.
    pub data_dir: Option<PathBuf>,
    /// The sites' `--attempts`/`--delay-ms`/`--max-delay-ms`, and the dial
    /// policy of [`ProcCluster::client`].
    pub backoff: Backoff,
    /// Routes every site→site link through a [`ChaosNet`] seeded with this.
    pub chaos_seed: Option<u64>,
}

impl ProcSpec {
    /// `sites` sites of `bin` holding 12 accounts of 100 under the
    /// polyvalue protocol, in memory, with the default backoff and no chaos.
    pub fn new(bin: impl Into<PathBuf>, sites: u32) -> Self {
        ProcSpec {
            bin: bin.into(),
            sites,
            accounts: 12,
            balance: 100,
            protocol: CommitProtocol::Polyvalue,
            data_dir: None,
            backoff: Backoff::default(),
            chaos_seed: None,
        }
    }
}

/// The `pv-node` binary beside the running executable, where Cargo builds
/// it next to `pv-loadgen` and `pv-chaos`.
pub fn sibling_node_bin() -> Result<PathBuf, EngineError> {
    let me = std::env::current_exe().map_err(|e| io_error("current_exe", e))?;
    let bin = me.with_file_name("pv-node");
    if !bin.exists() {
        return Err(io_error("pv-node binary not found (build both)", bin.display()));
    }
    Ok(bin)
}

/// Reserves a free loopback port by binding and releasing it (the race
/// window is negligible on a quiet machine).
fn free_addr() -> Result<SocketAddr, EngineError> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| io_error("reserve port", e))
}

/// A cluster of `pv-node` processes on localhost (see the module docs).
/// Every method takes `&self`, so scenario threads can share it while the
/// harness kills and restarts sites.
pub struct ProcCluster {
    spec: ProcSpec,
    /// Each site's listen address; a restart moves it.
    addrs: Mutex<Vec<SocketAddr>>,
    /// Each site's process while it runs; all `None` when attached.
    children: Mutex<Vec<Option<Child>>>,
    chaos: Option<ChaosNet>,
    next_client: AtomicU32,
}

impl ProcCluster {
    /// Starts one `pv-node` per site on a free loopback port, behind chaos
    /// proxies when `spec.chaos_seed` is set, and waits until each accepts.
    pub fn spawn(spec: ProcSpec) -> Result<Self, EngineError> {
        if let Some(dir) = &spec.data_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| io_error(&dir.display().to_string(), e))?;
        }
        let addrs = (0..spec.sites).map(|_| free_addr()).collect::<Result<Vec<_>, _>>()?;
        let chaos = spec.chaos_seed.map(|seed| ChaosNet::new(seed, &addrs)).transpose()?;
        let mut cluster = ProcCluster::attach(addrs, spec.backoff);
        (cluster.spec, cluster.chaos) = (spec, chaos);
        for s in 0..cluster.sites() {
            cluster.start_site(s)?;
        }
        for s in 0..cluster.sites() {
            cluster.wait_ready(s)?;
        }
        Ok(cluster)
    }

    /// A handle on a cluster started by someone else, at `addrs`: clients,
    /// [`settle`](Self::settle) and [`metrics`](Self::metrics) work, and
    /// [`shutdown`](Self::shutdown) stops nothing, since it stops only the
    /// processes this handle started.
    pub fn attach(addrs: Vec<SocketAddr>, backoff: Backoff) -> Self {
        let sites = addrs.len() as u32;
        ProcCluster {
            spec: ProcSpec {
                backoff,
                ..ProcSpec::new(PathBuf::new(), sites)
            },
            addrs: Mutex::new(addrs),
            children: Mutex::new((0..sites).map(|_| None).collect()),
            chaos: None,
            next_client: AtomicU32::new(sites + 1),
        }
    }

    /// Number of sites.
    pub fn sites(&self) -> u32 {
        self.spec.sites
    }

    /// Site `s`'s current listen address (clients bypass the proxies); a
    /// site the cluster does not have is [`EngineError::UnknownSite`].
    fn addr(&self, s: u32) -> Result<SocketAddr, EngineError> {
        let addrs = self.addrs.lock().expect("addrs lock");
        addrs.get(s as usize).copied().ok_or(EngineError::UnknownSite(s))
    }

    /// Every site's current listen address (index = site id).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.addrs.lock().expect("addrs lock").clone()
    }

    /// The chaos proxies, when the spec named a chaos seed.
    pub fn chaos(&self) -> Option<&ChaosNet> {
        self.chaos.as_ref()
    }

    fn start_site(&self, s: u32) -> Result<(), EngineError> {
        let (spec, b) = (&self.spec, &self.spec.backoff);
        let peers = self.chaos.as_ref().map_or_else(|| self.addrs(), |c| c.proxy_addrs().to_vec());
        let peers = peers.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
        let flags = format!(
            "--site {s} --addrs {peers} --listen {} --accounts {} --balance {} --protocol {} \
             --fast --attempts {} --delay-ms {} --max-delay-ms {}",
            self.addr(s)?,
            spec.accounts,
            spec.balance,
            spec.protocol.label(),
            b.attempts,
            b.base.as_millis(),
            b.max.as_millis()
        );
        let mut cmd = Command::new(&spec.bin);
        cmd.args(flags.split(' '));
        if let Some(dir) = &spec.data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io_error(&format!("spawn {}", spec.bin.display()), e))?;
        self.children.lock().expect("children lock")[s as usize] = Some(child);
        Ok(())
    }

    /// Polls until site `s` accepts a connection.
    fn wait_ready(&self, s: u32) -> Result<(), EngineError> {
        let addr = self.addr(s)?;
        let limit = Instant::now() + READY;
        while let Err(e) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            if Instant::now() > limit {
                return Err(io_error(&format!("site {s} at {addr} never came up"), e));
            }
            std::thread::sleep(POLL);
        }
        Ok(())
    }

    /// Kills site `s` hard (SIGKILL): no WAL flush, no goodbye to its peers.
    pub fn kill(&self, s: u32) {
        if let Some(mut child) = self.children.lock().expect("children lock")[s as usize].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Starts site `s` again from its data directory on a fresh port (the
    /// old one may sit in TIME_WAIT), retargets its chaos proxy, which is
    /// what its peers keep dialing, and waits until it accepts. Without the
    /// proxies the peers would dial the old port, so this needs a chaos seed.
    pub fn restart(&self, s: u32) -> Result<(), EngineError> {
        let chaos = self.chaos.as_ref().ok_or_else(|| io_error("restart", "no chaos proxies"))?;
        let fresh = free_addr()?;
        self.addrs.lock().expect("addrs lock")[s as usize] = fresh;
        chaos.retarget(s, fresh);
        self.start_site(s)?;
        self.wait_ready(s)
    }

    /// A new connection to site `s` under the spec's backoff, with a client
    /// node id no other client of this cluster uses. A site the cluster
    /// does not have is [`EngineError::UnknownSite`].
    pub fn client(&self, s: u32) -> Result<NetClient, EngineError> {
        self.client_with(s, self.spec.backoff)
    }

    /// [`client`](Self::client) under another dial policy: a loader that
    /// must not wait out a killed site dials with [`Backoff::fast_fail`].
    pub fn client_with(&self, s: u32, backoff: Backoff) -> Result<NetClient, EngineError> {
        let addr = self.addr(s)?;
        let node = self.next_client.fetch_add(1, Ordering::Relaxed);
        NetClient::connect(addr, node, backoff)
    }

    /// Polls every site until each is quiescent with zero polyvalues and
    /// returns their snapshots. Each poll dials a site once, so a site that
    /// is down costs a refused connect per poll and never holds the call
    /// past `limit`; then the error names the last poll's failure and the
    /// polyvalues it counted.
    pub fn settle(&self, limit: Duration) -> Result<Vec<NodeSnapshot>, EngineError> {
        let once = Backoff {
            attempts: 1,
            ..self.spec.backoff
        };
        settle(self.sites(), limit, |s, wait| self.client_with(s, once)?.inspect(wait))
    }

    /// Every site's metrics registry, merged; each site gets `deadline` to
    /// answer.
    pub fn metrics(&self, deadline: Duration) -> Result<Metrics, EngineError> {
        let mut merged = Metrics::new();
        for s in 0..self.sites() {
            merged.merge(&self.client(s)?.metrics(deadline)?);
        }
        Ok(merged)
    }

    /// Sends every site this cluster started and did not kill a `Shutdown`
    /// frame and waits for it: each flushes its WAL and must exit 0, or the
    /// error names it. Then stops the proxies and removes the data
    /// directory.
    pub fn shutdown(mut self) -> Result<(), EngineError> {
        for s in 0..self.sites() {
            if self.children.lock().expect("children lock")[s as usize].is_some() {
                self.client(s)?.shutdown()?;
            }
        }
        let mut failed = Vec::new();
        for (s, slot) in self.children.get_mut().expect("children lock").iter_mut().enumerate() {
            let Some(mut child) = slot.take() else { continue };
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => failed.push(format!("site {s} exited with {status}")),
                Err(e) => failed.push(format!("site {s}: {e}")),
            }
        }
        if !failed.is_empty() {
            return Err(EngineError::Io(format!("pv-node {}", failed.join(", "))));
        }
        if let Some(chaos) = self.chaos.take() {
            chaos.shutdown();
        }
        if let Some(dir) = &self.spec.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}

impl Drop for ProcCluster {
    fn drop(&mut self) {
        let children = self.children.get_mut().unwrap_or_else(PoisonError::into_inner);
        for child in children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Polls `inspect(site, wait)` over `0..sites` until every site answers
/// quiescent with zero polyvalues, and returns the answers. An inspect
/// error is retried on the next poll until `limit`; then the error names
/// the last poll's failure and what its answers left unsettled
/// ([`unsettled`]).
fn settle(
    sites: u32,
    limit: Duration,
    mut inspect: impl FnMut(u32, Duration) -> Result<NodeSnapshot, EngineError>,
) -> Result<Vec<NodeSnapshot>, EngineError> {
    let deadline = Instant::now() + limit;
    loop {
        let mut snaps = Vec::with_capacity(sites as usize);
        let mut failure = None;
        for s in 0..sites {
            let wait = deadline.saturating_duration_since(Instant::now()).clamp(POLL, REQUEST);
            match inspect(s, wait) {
                Ok(snap) => snaps.push(snap),
                Err(e) => failure = Some(format!("site {s}: {e}")),
            }
        }
        let polys: u64 = snaps.iter().map(|snap| snap.poly_count).sum();
        if failure.is_none() && polys == 0 && snaps.iter().all(|snap| snap.quiescent) {
            return Ok(snaps);
        }
        if Instant::now() >= deadline {
            let failure = failure.unwrap_or_else(|| "none".into());
            let left = unsettled(&snaps);
            return Err(EngineError::Io(format!(
                "not settled within {limit:?}: {polys} polyvalues left ({left}), last error: {failure}"
            )));
        }
        std::thread::sleep(POLL);
    }
}

/// What keeps `snaps` from settling: each site that holds polyvalues, with
/// each polyvalued item and the transactions it depends on, and each site
/// that is not quiescent.
fn unsettled(snaps: &[NodeSnapshot]) -> String {
    let mut parts = Vec::new();
    for snap in snaps {
        let polys: Vec<String> = snap
            .items
            .iter()
            .filter(|(_, entry)| entry.is_poly())
            .map(|(item, entry)| {
                let deps: Vec<String> = entry.deps().iter().map(ToString::to_string).collect();
                format!("{item} on {}", deps.join("+"))
            })
            .collect();
        if !polys.is_empty() {
            parts.push(format!("site {} holds {}", snap.site, polys.join(", ")));
        }
        if !snap.quiescent {
            parts.push(format!("site {} is not quiescent", snap.site));
        }
    }
    if parts.is_empty() {
        "nothing".into()
    } else {
        parts.join("; ")
    }
}

/// Every item's value across `snaps`, by item. Each must be a settled
/// integer: a polyvalue or a non-integer entry is an error naming the item
/// and its site.
pub fn balances(snaps: &[NodeSnapshot]) -> Result<BTreeMap<ItemId, i64>, EngineError> {
    let mut out = BTreeMap::new();
    for snap in snaps {
        for (item, entry) in &snap.items {
            let v = entry.as_simple().and_then(Value::as_int).ok_or_else(|| {
                let site = snap.site;
                EngineError::Io(format!("site {site}: {item} is not a settled integer: {entry:?}"))
            })?;
            out.insert(*item, v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::{Entry, TxnId};
    use std::sync::mpsc;

    fn snapshot(items: Vec<(ItemId, Entry<Value>)>) -> NodeSnapshot {
        NodeSnapshot {
            site: 1,
            items,
            poly_count: 0,
            quiescent: true,
        }
    }

    #[test]
    fn balances_reject_a_polyvalue() {
        let (new, old) = (Entry::Simple(Value::Int(60)), Entry::Simple(Value::Int(100)));
        let poly = Entry::in_doubt(new, old, TxnId(5));
        let snaps = [snapshot(vec![(ItemId(0), Entry::Simple(Value::Int(1))), (ItemId(3), poly)])];
        let err = balances(&snaps).expect_err("a polyvalue is not settled").to_string();
        assert!(err.contains("site 1") && err.contains(&ItemId(3).to_string()), "{err}");
    }

    #[test]
    fn balances_reject_a_non_integer() {
        let snaps = [snapshot(vec![(ItemId(2), Entry::Simple(Value::Bool(true)))])];
        let err = balances(&snaps).expect_err("a boolean is not a balance").to_string();
        assert!(err.contains(&ItemId(2).to_string()), "{err}");
    }

    #[test]
    fn settle_names_each_stranded_polyvalue_and_busy_site() {
        let int = |v| Entry::Simple(Value::Int(v));
        let once = Entry::in_doubt(int(1), int(2), TxnId(5));
        let twice = Entry::in_doubt(once.clone(), int(3), TxnId(7));
        let snaps = [
            NodeSnapshot { site: 0, ..snapshot(vec![(ItemId(0), int(1))]) },
            NodeSnapshot { poly_count: 2, ..snapshot(vec![(ItemId(3), once), (ItemId(4), twice)]) },
            NodeSnapshot { site: 2, quiescent: false, ..snapshot(Vec::new()) },
        ];
        let err = settle(3, Duration::ZERO, |s, _| Ok(snaps[s as usize].clone()))
            .expect_err("polyvalues and a busy site are not settled")
            .to_string();
        let want = "2 polyvalues left (site 1 holds item3 on T5, item4 on T5+T7; site 2 is not quiescent)";
        assert!(err.contains(want), "{err}");
        assert!(!err.contains("site 0"), "{err}");
    }

    #[test]
    fn settle_names_a_dead_site_within_its_limit() {
        let dead = free_addr().expect("reserve port");
        let cluster = ProcCluster::attach(vec![dead], Backoff::patient());
        let limit = Duration::from_millis(300);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let started = Instant::now();
            let _ = tx.send((cluster.settle(limit), started.elapsed()));
        });
        let (result, took) = rx.recv_timeout(limit * 20).expect("settle hung on a dead site");
        let err = result.expect_err("nothing listens there").to_string();
        assert!(err.contains("site 0") && err.contains(&dead.to_string()), "{err}");
        // One poll past the limit, plus a scheduling allowance.
        assert!(took < limit + POLL + Duration::from_millis(100), "took {took:?}");
    }

    #[test]
    fn a_client_of_an_unknown_site_is_an_error_value() {
        let cluster = ProcCluster::attach(vec![free_addr().expect("reserve port")], Backoff::patient());
        assert_eq!(cluster.client(1).err(), Some(EngineError::UnknownSite(1)));
        let fast = Backoff::fast_fail();
        assert_eq!(cluster.client_with(9, fast).err(), Some(EngineError::UnknownSite(9)));
    }
}
