//! An in-process networked cluster: every site node runs its real socket
//! event loop on its own thread, over real localhost TCP.
//!
//! This is the second consumer of the shared [`Topology`] — after
//! `ClusterBuilder::from_topology` (simulation) — and the test/bench
//! harness for the `pv-node` binary's event loop: identical [`Node`] code,
//! just hosted on threads instead of separate processes, so integration
//! tests exercise the full wire path (codec, Hello routing, backpressure,
//! reconnects) without process management. With [`NetBuilder::chaos`] the
//! site links additionally route through a fault-injecting [`ChaosNet`]
//! proxy, which is how the partition/heal and fault-soak tests run a real
//! TCP cluster through the §3.1/§3.3 recovery machinery.

use crate::backoff::Backoff;
use crate::chaos::ChaosNet;
use crate::client::NetClient;
use crate::node::{Node, NodeConfig};
use crate::wire::NodeSnapshot;
use pv_core::TransactionSpec;
use pv_engine::messages::TxnResult;
use pv_engine::topology::Topology;
use pv_engine::{EngineError, Site};
use pv_simnet::Metrics;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Configures and starts a [`NetCluster`] from a shared [`Topology`].
pub struct NetBuilder {
    topo: Topology,
    backoff: Backoff,
    chaos_seed: Option<u64>,
}

impl NetBuilder {
    /// Starts a builder over an existing cluster description — the same
    /// value `ClusterBuilder::from_topology` accepts. A [`Topology::backoff`]
    /// policy, when present, seeds the builder's backoff.
    pub fn from_topology(topo: Topology) -> Self {
        let backoff = topo
            .backoff
            .as_ref()
            .map(Backoff::from_config)
            .unwrap_or_default();
        NetBuilder {
            topo,
            backoff,
            chaos_seed: None,
        }
    }

    /// Overrides the dial/reconnect policy (tests use
    /// [`Backoff::fast_fail`]).
    pub fn backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Routes every site→site link through a fault-injecting [`ChaosNet`]
    /// proxy seeded with `seed`. The proxies start transparent; drive them
    /// through [`NetCluster::chaos`].
    pub fn chaos(mut self, seed: u64) -> Self {
        self.chaos_seed = Some(seed);
        self
    }

    /// Binds every site on a loopback port, wires the peer tables (through
    /// chaos proxies when enabled), and spawns one event-loop thread per
    /// site.
    pub fn start(self) -> Result<NetCluster, EngineError> {
        let sites = self.topo.sites;
        let mut nodes = Vec::with_capacity(sites as usize);
        for s in 0..sites {
            let config = NodeConfig {
                site: s,
                topo: self.topo.clone(),
                backoff: self.backoff,
            };
            nodes.push(Node::bind(config, "127.0.0.1:0".parse().expect("loopback"))?);
        }
        let addrs: Vec<SocketAddr> = nodes
            .iter()
            .map(|n| n.local_addr())
            .collect::<Result<_, _>>()?;
        let chaos = match self.chaos_seed {
            Some(seed) => Some(ChaosNet::new(seed, &addrs)?),
            None => None,
        };
        let peer_addrs = chaos
            .as_ref()
            .map(|c| c.proxy_addrs().to_vec())
            .unwrap_or_else(|| addrs.clone());
        let mut handles = Vec::with_capacity(sites as usize);
        for (s, mut node) in nodes.into_iter().enumerate() {
            node.set_peers(peer_addrs.clone());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pv-net-{s}"))
                    .spawn(move || node.run())
                    .expect("spawn node thread"),
            );
        }
        Ok(NetCluster {
            addrs,
            handles,
            chaos,
            topo: self.topo,
            backoff: self.backoff,
            next_client: AtomicU32::new(sites + 1),
            control: Mutex::new(None),
        })
    }
}

/// A running socket cluster (one event-loop thread per site, real TCP).
pub struct NetCluster {
    addrs: Vec<SocketAddr>,
    handles: Vec<std::thread::JoinHandle<Result<Site, EngineError>>>,
    chaos: Option<ChaosNet>,
    topo: Topology,
    backoff: Backoff,
    next_client: AtomicU32,
    /// One lazily-opened control connection per site, for
    /// submit/inspect/metrics convenience calls.
    control: Mutex<Option<Vec<NetClient>>>,
}

impl NetCluster {
    /// Starts configuring a networked cluster (alias for
    /// [`NetBuilder::from_topology`]).
    pub fn builder(topo: Topology) -> NetBuilder {
        NetBuilder::from_topology(topo)
    }

    /// Spawns a cluster with the default dial/reconnect policy.
    pub fn from_topology(topo: Topology) -> Result<Self, EngineError> {
        NetBuilder::from_topology(topo).start()
    }

    /// The listen address of every site (index = site id). These are the
    /// sites' real addresses even under chaos — clients bypass the proxies.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The chaos proxy layer, when the cluster was started with
    /// [`NetBuilder::chaos`].
    pub fn chaos(&self) -> Option<&ChaosNet> {
        self.chaos.as_ref()
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.addrs.len()
    }

    /// Opens a new client connection to `site` with a fresh, unique client
    /// node id. Independent connections can pipeline independently.
    pub fn client(&self, site: u32) -> Result<NetClient, EngineError> {
        let addr = *self
            .addrs
            .get(site as usize)
            .ok_or(EngineError::UnknownSite(site))?;
        let node = self.next_client.fetch_add(1, Ordering::Relaxed);
        NetClient::connect(addr, node, self.backoff)
    }

    /// Runs `f` with the cluster's cached control connection to `site`.
    fn with_control<T>(
        &self,
        site: u32,
        f: impl FnOnce(&mut NetClient) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        if site as usize >= self.addrs.len() {
            return Err(EngineError::UnknownSite(site));
        }
        let mut guard = self.control.lock().expect("control lock");
        if guard.is_none() {
            let mut clients = Vec::with_capacity(self.addrs.len());
            for s in 0..self.addrs.len() as u32 {
                clients.push(self.client(s)?);
            }
            *guard = Some(clients);
        }
        f(&mut guard.as_mut().expect("just filled")[site as usize])
    }

    /// Submits a transaction to `coordinator` and blocks for the result.
    /// With `Topology::static_checks` on, the spec is gated client-side
    /// first.
    pub fn submit(
        &self,
        coordinator: u32,
        spec: &TransactionSpec,
        deadline: Duration,
    ) -> Result<TxnResult, EngineError> {
        if self.topo.engine.static_checks {
            if let Err(report) = pv_analysis::gate_spec(spec) {
                return Err(EngineError::Rejected(report));
            }
        }
        self.with_control(coordinator, |c| c.submit(spec, deadline))
    }

    /// Snapshots a site's state.
    pub fn inspect(&self, site: u32, deadline: Duration) -> Result<NodeSnapshot, EngineError> {
        self.with_control(site, |c| c.inspect(deadline))
    }

    /// Serves a coordination-free read-only transaction at `site`: the site
    /// pins an MVCC snapshot, reads `items` (all its items when the list is
    /// empty), and answers `(snapshot, entries)` without touching its lock
    /// table or sending any site-to-site message.
    pub fn snapshot_read(
        &self,
        site: u32,
        items: &[pv_core::ItemId],
        deadline: Duration,
    ) -> Result<pv_store::SnapshotView, EngineError> {
        self.with_control(site, |c| c.snapshot_read(items, deadline))
    }

    /// Total polyvalued items across sites.
    pub fn total_poly_count(&self, deadline: Duration) -> Result<u64, EngineError> {
        let mut total = 0;
        for s in 0..self.addrs.len() as u32 {
            total += self.inspect(s, deadline)?.poly_count;
        }
        Ok(total)
    }

    /// Fetches and merges every site's metrics registry.
    pub fn metrics(&self, deadline: Duration) -> Result<Metrics, EngineError> {
        let mut merged = Metrics::new();
        for s in 0..self.addrs.len() as u32 {
            let m = self.with_control(s, |c| c.metrics(deadline))?;
            merged.merge(&m);
        }
        Ok(merged)
    }

    /// Fetches one site's metrics registry (unmerged).
    pub fn site_metrics(&self, site: u32, deadline: Duration) -> Result<Metrics, EngineError> {
        self.with_control(site, |c| c.metrics(deadline))
    }

    /// Pushes a new reconnect/backoff policy to every site live.
    pub fn configure_backoff(
        &self,
        config: pv_engine::topology::BackoffConfig,
    ) -> Result<(), EngineError> {
        for s in 0..self.addrs.len() as u32 {
            self.with_control(s, |c| c.configure_backoff(config))?;
        }
        Ok(())
    }

    /// Sends every site a shutdown frame and joins the event-loop threads,
    /// returning the final [`Site`] states.
    pub fn shutdown(self) -> Result<Vec<Site>, EngineError> {
        {
            let mut guard = self.control.lock().expect("control lock");
            if guard.is_none() {
                let mut clients = Vec::with_capacity(self.addrs.len());
                for s in 0..self.addrs.len() as u32 {
                    let addr = self.addrs[s as usize];
                    let node = self.next_client.fetch_add(1, Ordering::Relaxed);
                    clients.push(NetClient::connect(addr, node, self.backoff)?);
                }
                *guard = Some(clients);
            }
            for client in guard.as_mut().expect("just filled") {
                client.shutdown()?;
            }
        }
        let mut sites = Vec::with_capacity(self.handles.len());
        for handle in self.handles {
            sites.push(handle.join().expect("node thread panicked")?);
        }
        if let Some(chaos) = self.chaos {
            chaos.shutdown();
        }
        Ok(sites)
    }
}
