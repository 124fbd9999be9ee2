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
//!
//! Everything past start-up reaches the sites the way it reaches `pv-node`
//! processes: through a [`ProcCluster`] attached to their addresses, which
//! opens a new connection for each client, inspection, metrics fetch and
//! shutdown frame.

use crate::backoff::Backoff;
use crate::chaos::ChaosNet;
use crate::client::NetClient;
use crate::node::Node;
use crate::proc::ProcCluster;
use crate::wire::NodeSnapshot;
use pv_core::TransactionSpec;
use pv_engine::messages::TxnResult;
use pv_engine::topology::Topology;
use pv_engine::{EngineError, Site};
use pv_simnet::Metrics;
use std::net::SocketAddr;
use std::time::Duration;

/// Configures and starts a [`NetCluster`] from a shared [`Topology`].
pub struct NetBuilder {
    topo: Topology,
    backoff: Backoff,
    chaos_seed: Option<u64>,
}

impl NetBuilder {
    /// Starts a builder over an existing cluster description — the same
    /// value `ClusterBuilder::from_topology` accepts — with the default
    /// dial/reconnect policy.
    pub fn from_topology(topo: Topology) -> Self {
        NetBuilder {
            topo,
            backoff: Backoff::default(),
            chaos_seed: None,
        }
    }

    /// Sets the dial/reconnect policy every node and client of the cluster
    /// uses for its whole life (tests use [`Backoff::fast_fail`]).
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
        let loopback = "127.0.0.1:0".parse().expect("loopback");
        for s in 0..sites {
            nodes.push(Node::bind(s, &self.topo, self.backoff, loopback)?);
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
            handles,
            chaos,
            attached: ProcCluster::attach(addrs, self.backoff),
            static_checks: self.topo.engine.static_checks,
        })
    }
}

/// A running socket cluster: one event-loop thread per site over real TCP,
/// the chaos proxies when enabled, and a [`ProcCluster`] attached to the
/// sites, through which every client, inspection, metrics fetch and
/// shutdown frame reaches them.
pub struct NetCluster {
    handles: Vec<std::thread::JoinHandle<Result<Site, EngineError>>>,
    chaos: Option<ChaosNet>,
    attached: ProcCluster,
    /// Whether submissions are gated client-side first
    /// (`Topology::static_checks`).
    static_checks: bool,
}

impl NetCluster {
    /// Spawns a cluster with the default dial/reconnect policy.
    pub fn from_topology(topo: Topology) -> Result<Self, EngineError> {
        NetBuilder::from_topology(topo).start()
    }

    /// The listen address of every site (index = site id). These are the
    /// sites' real addresses even under chaos — clients bypass the proxies.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.attached.addrs()
    }

    /// The chaos proxy layer, when the cluster was started with
    /// [`NetBuilder::chaos`].
    pub fn chaos(&self) -> Option<&ChaosNet> {
        self.chaos.as_ref()
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.attached.sites() as usize
    }

    /// Opens a new client connection to `site` with a fresh, unique client
    /// node id. Independent connections can pipeline independently.
    pub fn client(&self, site: u32) -> Result<NetClient, EngineError> {
        self.attached.client(site)
    }

    /// Submits a transaction to `coordinator` on a new connection and blocks
    /// for the result. With `Topology::static_checks` on, the spec is gated
    /// client-side first.
    pub fn submit(
        &self,
        coordinator: u32,
        spec: &TransactionSpec,
        deadline: Duration,
    ) -> Result<TxnResult, EngineError> {
        if self.static_checks {
            if let Err(report) = pv_analysis::gate_spec(spec) {
                return Err(EngineError::Rejected(report));
            }
        }
        self.client(coordinator)?.submit(spec, deadline)
    }

    /// Snapshots a site's state.
    pub fn inspect(&self, site: u32, deadline: Duration) -> Result<NodeSnapshot, EngineError> {
        self.client(site)?.inspect(deadline)
    }

    /// Serves a coordination-free read-only transaction at `site`: in one
    /// step the site reads the newest entries of `items` (all its items
    /// when the list is empty) and answers `(snapshot, entries)`,
    /// `snapshot` being its current write sequence number, without touching
    /// its lock table or sending any site-to-site message.
    pub fn snapshot_read(
        &self,
        site: u32,
        items: &[pv_core::ItemId],
        deadline: Duration,
    ) -> Result<pv_store::SnapshotView, EngineError> {
        self.client(site)?.snapshot_read(items, deadline)
    }

    /// Polls every site until each is quiescent with zero polyvalues and
    /// returns their snapshots ([`ProcCluster::settle`]).
    pub fn settle(&self, limit: Duration) -> Result<Vec<NodeSnapshot>, EngineError> {
        self.attached.settle(limit)
    }

    /// Fetches and merges every site's metrics registry.
    pub fn metrics(&self, deadline: Duration) -> Result<Metrics, EngineError> {
        self.attached.metrics(deadline)
    }

    /// Fetches one site's metrics registry (unmerged).
    pub fn site_metrics(&self, site: u32, deadline: Duration) -> Result<Metrics, EngineError> {
        self.client(site)?.metrics(deadline)
    }

    /// Sends every site a shutdown frame and joins the event-loop threads,
    /// returning the final [`Site`] states. Every site is dialed before the
    /// first frame leaves, so none is still being dialed once a peer has
    /// gone.
    pub fn shutdown(self) -> Result<Vec<Site>, EngineError> {
        let sites = self.site_count() as u32;
        let clients = (0..sites).map(|s| self.client(s)).collect::<Result<Vec<_>, _>>()?;
        for mut client in clients {
            client.shutdown()?;
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
