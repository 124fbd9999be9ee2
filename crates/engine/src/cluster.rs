//! Cluster assembly: sites + clients in one simulated world.

use crate::client::{Client, ClientConfig};
use crate::config::EngineConfig;
use crate::directory::Directory;
use crate::error::EngineError;
use crate::messages::Msg;
use crate::site::{site_node, Site};
use crate::topology::Topology;
use crate::workload::Workload;
use pv_core::{Entry, ItemId, Value};
use pv_protocol::{Input, Output, TimerKey};
use pv_simnet::{Actor, Ctx, NetConfig, NodeId, SimTime, Trace, World};
use pv_store::{SiteId, SiteStore, Storage};

/// The node type of an engine world: either a database site or a client.
pub enum Node {
    /// A database site.
    Site(Box<Site>),
    /// A workload client.
    Client(Box<Client>),
}

/// The simulator's host of a [`Site`]: each callback becomes one step, and
/// the step's sends and timer arms go to the world in emission order. The
/// world's timers carry a bare `u64`, so a [`TimerKey`] is packed here and
/// unpacked in `on_timer`.
impl Actor for Node {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            Node::Site(s) => {
                if s.start(ctx.metrics()) {
                    step(s, ctx, Input::Recovered);
                }
            }
            Node::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        match self {
            Node::Site(s) => step(s, ctx, Input::Msg { from, msg }),
            Node::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, key: u64) {
        match self {
            Node::Site(s) => match TimerKey::decode(key) {
                Some(key) => step(s, ctx, Input::Timer(key)),
                None => debug_assert!(false, "undecodable timer key {key:#x}"),
            },
            Node::Client(c) => c.on_timer(ctx, key),
        }
    }

    fn on_crash(&mut self) {
        match self {
            Node::Site(s) => s.crash(),
            Node::Client(c) => c.on_crash(),
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            Node::Site(s) => step(s, ctx, Input::Recovered),
            Node::Client(c) => c.on_recover(ctx),
        }
    }
}

/// Steps `site` on `input` under `ctx` and hands its effects to the world.
fn step(site: &mut Site, ctx: &mut Ctx<Msg>, input: Input) {
    let now = ctx.now();
    let (rng, metrics, trace) = ctx.lend();
    for effect in site.step(now, input, rng, metrics, trace) {
        match effect {
            Output::Send { to, msg } => ctx.send(to, msg),
            Output::ArmTimer { delay, key } => ctx.set_timer(delay, key.encode()),
            Output::Trace(_) | Output::Metric(_) | Output::NeedCoin { .. } => {
                unreachable!("the site applies {effect:?} itself")
            }
        }
    }
}

/// A per-site factory for pluggable storage backends.
type StorageFactory = Box<dyn Fn(SiteId) -> Box<dyn Storage>>;

/// Builder for a simulated cluster.
///
/// The cluster *shape* — sites, placement, protocol, items, durability —
/// lives in a [`Topology`], the configuration type shared with the
/// networked runtime; this builder adds what only the simulation has: a
/// seed, a network model, simulated clients, and pluggable storage backends.
/// Start from [`ClusterBuilder::from_topology`] to run a description that
/// also deploys on `pv-net`, or from [`ClusterBuilder::new`] for a fresh
/// default topology.
pub struct ClusterBuilder {
    topo: Topology,
    seed: u64,
    net: NetConfig,
    clients: Vec<(ClientConfig, Box<dyn Workload>)>,
    trace: Option<Trace>,
    storage: Option<StorageFactory>,
}

impl ClusterBuilder {
    /// Starts a builder for `sites` sites placed by `directory`.
    pub fn new(sites: u32, directory: Directory) -> Self {
        ClusterBuilder::from_topology(Topology::new(sites, directory))
    }

    /// Starts a builder over an existing cluster description. The
    /// topology's items, engine configuration, data directory, fsync
    /// policy, and trace flag all carry over; only simulation-specific
    /// pieces (seed, network model, clients) remain to be set.
    pub fn from_topology(topo: Topology) -> Self {
        ClusterBuilder {
            topo,
            seed: 0,
            net: NetConfig::default(),
            clients: Vec::new(),
            trace: None,
            storage: None,
        }
    }

    /// Sets the random seed (runs are reproducible per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the engine configuration (protocol, timeouts). Accepts a full
    /// [`EngineConfig`] or a bare [`crate::CommitProtocol`].
    pub fn engine(mut self, engine: impl Into<EngineConfig>) -> Self {
        self.topo = self.topo.engine(engine);
        self
    }

    /// Seeds an initial item value (placed by the directory). Accepts raw
    /// `u64` item ids and anything convertible to a [`Value`].
    pub fn item(mut self, item: impl Into<ItemId>, value: impl Into<Value>) -> Self {
        self.topo = self.topo.item(item, value);
        self
    }

    /// Seeds items `0..n` with the same integer value.
    pub fn uniform_items(mut self, n: u64, value: i64) -> Self {
        self.topo = self.topo.uniform_items(n, value);
        self
    }

    /// Adds a client driven by `workload`.
    pub fn client(mut self, config: ClientConfig, workload: Box<dyn Workload>) -> Self {
        self.clients.push((config, workload));
        self
    }

    /// Adds `n` clients sharing one configuration; `workload_fn` builds the
    /// workload for each client index.
    pub fn clients(
        mut self,
        n: usize,
        config: ClientConfig,
        workload_fn: impl Fn(usize) -> Box<dyn Workload>,
    ) -> Self {
        for i in 0..n {
            self.clients.push((config.clone(), workload_fn(i)));
        }
        self
    }

    /// Backs every site's store with storage built by `factory` — e.g. a
    /// [`pv_store::FaultyStorage`] for storage-fault injection runs, or a
    /// [`pv_store::DiskWal`] for durability experiments. The default is a
    /// plain in-memory WAL.
    pub fn storage(mut self, factory: impl Fn(SiteId) -> Box<dyn Storage> + 'static) -> Self {
        self.storage = Some(Box::new(factory));
        self
    }

    /// Buffers a full protocol trace of the run, readable afterwards via
    /// [`Cluster::trace`].
    pub fn collect_trace(mut self) -> Self {
        self.trace = Some(Trace::collecting());
        self
    }

    /// Builds the world: sites first (node ids `0..sites`), then clients.
    pub fn build(self) -> Cluster {
        let topo = self.topo;
        let mut world = World::new(self.seed, self.net);
        if let Some(trace) = self.trace {
            world.set_trace(trace);
        }
        for s in 0..topo.sites {
            // An explicit storage factory wins over the topology's data dir
            // (crash-point and fault-injection runs wrap their own backend).
            let site = match &self.storage {
                Some(factory) => Site::open_over(s, &topo, SiteStore::with_storage(factory(s))),
                None => Site::open(s, &topo).expect("open site WAL directory"),
            };
            let id = world.add_node(Node::Site(Box::new(site)));
            debug_assert_eq!(id, site_node(s));
        }
        let mut client_nodes = Vec::with_capacity(self.clients.len());
        for (config, workload) in self.clients {
            let client = Client::new(config, topo.directory.clone(), topo.sites, workload);
            client_nodes.push(world.add_node(Node::Client(Box::new(client))));
        }
        Cluster {
            world,
            sites: topo.sites,
            client_nodes,
            directory: topo.directory,
        }
    }
}

/// A running simulated cluster.
pub struct Cluster {
    /// The underlying simulation world (exposed for failure injection and
    /// fine-grained control).
    pub world: World<Node>,
    sites: u32,
    client_nodes: Vec<NodeId>,
    directory: Directory,
}

impl Cluster {
    /// Number of sites.
    pub fn site_count(&self) -> u32 {
        self.sites
    }

    /// The node ids of the clients, in the order they were added.
    pub fn client_nodes(&self) -> &[NodeId] {
        &self.client_nodes
    }

    /// Immutable access to a site.
    pub fn site(&self, s: SiteId) -> Result<&Site, EngineError> {
        if s >= self.sites {
            return Err(EngineError::UnknownSite(s));
        }
        match self.world.actor(site_node(s)) {
            Node::Site(site) => Ok(site),
            Node::Client(_) => Err(EngineError::UnknownSite(s)),
        }
    }

    /// Immutable access to a client by index.
    pub fn client(&self, idx: usize) -> Result<&Client, EngineError> {
        let node = *self
            .client_nodes
            .get(idx)
            .ok_or(EngineError::UnknownClient(idx))?;
        match self.world.actor(node) {
            Node::Client(c) => Ok(c),
            Node::Site(_) => Err(EngineError::UnknownClient(idx)),
        }
    }

    /// Runs the simulation until virtual time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// The run's protocol trace (empty unless the builder enabled one via
    /// [`ClusterBuilder::collect_trace`]).
    pub fn trace(&self) -> &Trace {
        self.world.trace()
    }

    /// Total number of items holding polyvalues across all sites — the
    /// paper's `P(t)` for the engine-level system.
    pub fn total_poly_count(&self) -> usize {
        (0..self.sites)
            .map(|s| self.site(s as SiteId).expect("site ids in range").poly_count())
            .sum()
    }

    /// Samples the polyvalue census into the metrics gauge `poly.count`.
    pub fn sample_poly_gauge(&mut self) {
        let now = self.world.now();
        let count = self.total_poly_count() as f64;
        self.world.metrics_mut().gauge("poly.count", now, count);
    }

    /// The current entry of an item, wherever it lives.
    pub fn item_entry(&self, item: ItemId) -> Result<Entry<Value>, EngineError> {
        let site = self
            .directory
            .site_of(item)
            .ok_or(EngineError::UnplacedItem(item))?;
        self.site(site)?
            .store()
            .get(item)
            .ok_or(EngineError::MissingItem(item))
    }

    /// Serves a coordination-free read-only transaction at site `s`: in one
    /// step the site reads the newest entries of `items` (all its items
    /// when the list is empty), so no write interleaves, and returns
    /// `(snapshot, entries)` with the site's current write sequence number
    /// as `snapshot`. No lock-table traffic and no protocol
    /// messages; the trace records a `snapshot_read` event and the
    /// `store.snapshot_reads` counter advances.
    pub fn snapshot_read(
        &mut self,
        s: SiteId,
        items: &[ItemId],
    ) -> Result<pv_store::SnapshotView, EngineError> {
        if s >= self.sites {
            return Err(EngineError::UnknownSite(s));
        }
        let read = Msg::SnapshotRead {
            req_id: 0,
            items: items.to_vec(),
        };
        let input = Input::Msg { from: NodeId::ENV, msg: read };
        Ok(self.world.call(site_node(s), |node, ctx| {
            let Node::Site(site) = node else {
                unreachable!("site ids map to site nodes");
            };
            let now = ctx.now();
            let (rng, metrics, trace) = ctx.lend();
            let reply = site.step(now, input, rng, metrics, trace).next();
            let Some(Output::Send {
                msg: Msg::SnapshotReadReply { snapshot, entries, .. },
                ..
            }) = reply
            else {
                unreachable!("a snapshot read answers with its view, not {reply:?}");
            };
            (snapshot, entries)
        }))
    }

    /// Whether every site is fully quiescent: no in-flight protocol state,
    /// no staged transactions, no tracked outcomes.
    pub fn all_quiescent(&self) -> bool {
        (0..self.sites).all(|s| {
            self.site(s as SiteId)
                .expect("site ids in range")
                .is_quiescent()
        })
    }

    /// Sums an integer item range (consistency checks, e.g. conservation of
    /// money). Fails if any item is missing, polyvalued, or not an integer.
    pub fn sum_items(&self, items: impl Iterator<Item = ItemId>) -> Result<i64, EngineError> {
        let mut total = 0i64;
        for item in items {
            match self.item_entry(item)? {
                Entry::Simple(Value::Int(n)) => total += n,
                _ => return Err(EngineError::NotAnInt(item)),
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Script;
    use pv_simnet::SimDuration;

    #[test]
    fn builder_places_items_by_directory() {
        let cluster = ClusterBuilder::new(3, Directory::Mod(3))
            .uniform_items(9, 7)
            .build();
        for s in 0..3u32 {
            assert_eq!(cluster.site(s).unwrap().store().item_count(), 3);
        }
        assert_eq!(
            cluster.item_entry(ItemId(4)),
            Ok(Entry::Simple(Value::Int(7)))
        );
        assert_eq!(cluster.sum_items((0..9).map(ItemId)), Ok(63));
        assert!(cluster.all_quiescent());
        assert_eq!(cluster.total_poly_count(), 0);
        assert_eq!(cluster.site_count(), 3);
    }

    #[test]
    fn clients_are_added_after_sites() {
        let cluster = ClusterBuilder::new(2, Directory::Mod(2))
            .client(
                ClientConfig::default(),
                Box::new(Script::new(vec![], SimDuration::from_millis(1))),
            )
            .build();
        assert_eq!(cluster.client_nodes(), &[NodeId(2)]);
        assert_eq!(cluster.client(0).unwrap().outstanding_count(), 0);
    }

    #[test]
    fn accessors_reject_bad_ids_without_panicking() {
        let cluster = ClusterBuilder::new(1, Directory::Mod(1))
            .client(
                ClientConfig::default(),
                Box::new(Script::new(vec![], SimDuration::from_millis(1))),
            )
            .build();
        assert_eq!(cluster.site(1).err(), Some(EngineError::UnknownSite(1)));
        assert_eq!(
            cluster.client(5).err(),
            Some(EngineError::UnknownClient(5))
        );
        assert_eq!(
            cluster.item_entry(ItemId(0)).err(),
            Some(EngineError::MissingItem(ItemId(0)))
        );
        assert_eq!(
            cluster.sum_items([ItemId(9)].into_iter()).err(),
            Some(EngineError::MissingItem(ItemId(9)))
        );
    }

    #[test]
    fn clients_helper_adds_n_clients() {
        let cluster = ClusterBuilder::new(2, Directory::Mod(2))
            .clients(3, ClientConfig::default(), |_| {
                Box::new(Script::new(vec![], SimDuration::from_millis(1)))
            })
            .build();
        assert_eq!(cluster.client_nodes().len(), 3);
        assert_eq!(cluster.client_nodes()[0], NodeId(2));
    }

    #[test]
    fn builder_accepts_protocol_and_raw_item_ids() {
        let cluster = ClusterBuilder::new(1, Directory::Mod(1))
            .engine(crate::config::CommitProtocol::Blocking2pc)
            .item(3u64, 42i64)
            .build();
        assert_eq!(
            cluster.item_entry(ItemId(3)),
            Ok(Entry::Simple(Value::Int(42)))
        );
    }

    #[test]
    fn trace_is_disabled_by_default_and_collectable() {
        let quiet = ClusterBuilder::new(1, Directory::Mod(1)).build();
        assert!(!quiet.trace().is_enabled());
        let traced = ClusterBuilder::new(1, Directory::Mod(1))
            .collect_trace()
            .build();
        assert!(traced.trace().is_enabled());
    }
}
