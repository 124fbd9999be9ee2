//! The site actor: a thin driver mapping the sans-IO [`SiteMachine`] onto
//! the simulation substrate.
//!
//! All protocol logic — both roles of the §3.1 protocol, Figure 1's
//! participant machine, and the §3.3 recovery manager — lives in
//! `pv-protocol`. This actor owns what the pure machine cannot: the durable
//! [`SiteStore`] it lends to every step, the mapping of
//! [`Output`](pv_protocol::Output) effects onto the actor `Ctx` (sends,
//! timers, traces, metrics), the randomness for
//! [`Output::NeedCoin`](pv_protocol::Output::NeedCoin), the opt-in static
//! submit gate (which needs `pv-analysis`), and the storage-metrics flush.
//! Timer keys cross the untyped `u64` timer facility via
//! [`TimerKey::encode`]/[`TimerKey::decode`].
//!
//! Cluster convention: site `s` is simulation node `NodeId(s)`; clients use
//! higher node ids.

use crate::config::EngineConfig;
use crate::directory::Directory;
use crate::error::EngineError;
use crate::messages::{AbortReason, Msg, TxnResult};
use crate::topology::Topology;
use pv_protocol::timer::TimerKey;
use pv_protocol::{Input, MetricOp, Output, SiteMachine};
use pv_simnet::{Actor, Ctx, NodeId};
use pv_store::{DiskWal, SiteId, SiteStore};
use std::collections::VecDeque;

pub use pv_protocol::site_node;

/// One site of the distributed database: the protocol machine plus its
/// durable store and the driver glue.
pub struct Site {
    machine: SiteMachine,
    store: SiteStore,
    /// Whether the site runs on the wall clock ([`SiteHost`](crate::SiteHost)
    /// opts in). Recovery durations then flow into the metrics — the
    /// simulation leaves them out to keep its exports byte-deterministic
    /// under a seed — and gauge samples do not: a series is read from the
    /// simulator's registry only, and a node that serves for days would
    /// grow one without bound.
    wall_clock_metrics: bool,
    /// Whether the store held a durable image from a previous incarnation
    /// when the site was opened. [`Actor::on_start`] then replays recovery
    /// (epoch bump, lock re-acquisition for staged transactions, inquiry
    /// timer) once, before any traffic.
    cold_start: bool,
}

impl Site {
    /// Creates a site with an empty store.
    pub fn new(id: SiteId, config: EngineConfig, directory: Directory) -> Self {
        let store = SiteStore::new();
        Site::with_store(id, config, directory, store)
    }

    /// Creates a site over an existing store — typically one opened from a
    /// durable [`pv_store::Storage`] backend, possibly holding a recovered
    /// image from a previous incarnation of this site.
    pub fn with_store(
        id: SiteId,
        config: EngineConfig,
        directory: Directory,
        store: SiteStore,
    ) -> Self {
        let store = store
            .with_compact_threshold(config.compact_threshold)
            .with_lsm_thresholds(config.memtable_threshold, config.run_threshold);
        Site {
            machine: SiteMachine::new(id, config, directory),
            store,
            wall_clock_metrics: false,
            cold_start: false,
        }
    }

    /// Builds site `id` of `topo` — the one bootstrap every runtime uses.
    /// The store is a [`DiskWal`] under `data_dir/site-<id>` when the
    /// topology has a data directory (replaying whatever image is there) and
    /// in-memory otherwise. Fails with [`EngineError::Io`] when the WAL
    /// directory cannot be opened.
    pub fn open(id: SiteId, topo: &Topology) -> Result<Site, EngineError> {
        let store = match &topo.data_dir {
            Some(dir) => {
                let path = dir.join(format!("site-{id}"));
                let wal = DiskWal::open(&path, topo.fsync_policy)
                    .map_err(|e| EngineError::Io(format!("open WAL at {}: {e}", path.display())))?;
                SiteStore::open(Box::new(wal))
            }
            None => SiteStore::new(),
        };
        Ok(Site::open_over(id, topo, store))
    }

    /// [`Site::open`] over a store the caller built (the simulation's
    /// pluggable-storage runs): seeds the topology's items this site is home
    /// to and does not already hold, and makes that population durable
    /// before the site serves traffic.
    pub(crate) fn open_over(id: SiteId, topo: &Topology, store: SiteStore) -> Site {
        // Read before seeding: seeding a fresh store also appends records.
        let cold_start = !store.wal().is_empty();
        let mut site = Site::with_store(id, topo.engine.clone(), topo.directory.clone(), store);
        site.cold_start = cold_start;
        let seeds: Vec<_> = topo
            .items
            .iter()
            .filter(|(item, _)| {
                topo.directory.site_of(*item) == Some(id) && !site.store.contains(*item)
            })
            .collect();
        // Sized once: a doubling index would leave its outgrown tables
        // behind as allocator holes, a few MiB of peak RSS per cluster.
        site.store.reserve_items(seeds.len());
        for (item, value) in seeds {
            site.seed_item(*item, value.clone());
        }
        site.sync_store();
        site
    }

    /// Whether [`Actor::on_start`] has a previous incarnation's image to
    /// recover from (false again once it has run).
    pub fn is_cold_start(&self) -> bool {
        self.cold_start
    }

    /// Loads an item this site is home to (initial database population).
    pub fn seed_item(&mut self, item: pv_core::ItemId, value: pv_core::Value) {
        debug_assert_eq!(self.machine.directory().site_of(item), Some(self.machine.id()));
        self.store.seed_item(item, value);
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.machine.id()
    }

    /// Read access to the site's store (assertions, polyvalue census).
    pub fn store(&self) -> &SiteStore {
        &self.store
    }

    /// Read access to the protocol machine (tests, diagnostics).
    pub fn machine(&self) -> &SiteMachine {
        &self.machine
    }

    /// Forces the store's storage backend to persist everything buffered —
    /// the clean-shutdown path of a live deployment.
    pub fn sync_store(&mut self) {
        self.store.sync();
    }

    /// Marks the site as running on the wall clock: the `recovery.duration`
    /// histogram is observed and gauge series are not sampled. Only a
    /// real-time runtime should enable this: the simulation leaves it off so
    /// same-seed metric exports stay byte-identical.
    pub fn enable_wall_clock_metrics(&mut self) {
        self.wall_clock_metrics = true;
    }

    /// Number of items currently holding polyvalues at this site.
    pub fn poly_count(&self) -> usize {
        self.store.poly_count()
    }

    /// Whether the site has any protocol state in flight (volatile or
    /// staged) — used by tests to check quiescence.
    pub fn is_quiescent(&self) -> bool {
        self.machine.is_idle()
            && self.store.pending_txns().is_empty()
            && !self.store.has_tracked_txns()
    }

    /// Advances the machine by one input and applies the resulting effects
    /// to the `Ctx`, **in emission order** (the simulation draws network
    /// randomness per send, so reordering would change behaviour under a
    /// seed). A [`Output::NeedCoin`] request is answered from the node's RNG
    /// and fed back into the machine at its position in the effect stream.
    fn drive(&mut self, ctx: &mut Ctx<Msg>, input: Input) {
        let mut out = Vec::new();
        self.machine.step(ctx.now(), input, &mut self.store, &mut out);
        let mut out = VecDeque::from(out);
        while let Some(output) = out.pop_front() {
            match output {
                Output::Send { to, msg } => ctx.send(to, msg),
                Output::ArmTimer { delay, key } => {
                    ctx.set_timer(delay, key.encode());
                }
                Output::Trace(ev) => ctx.trace(ev),
                Output::Metric(op) => match op {
                    MetricOp::Inc(name) => ctx.metrics().inc(name),
                    MetricOp::IncOwned(name) => ctx.metrics().inc(&name),
                    MetricOp::IncBy(name, n) => ctx.metrics().inc_by(name, n),
                    MetricOp::Observe(name, v) => ctx.metrics().observe(name, v),
                    MetricOp::Gauge(name, v) => {
                        if !self.wall_clock_metrics {
                            let now = ctx.now();
                            ctx.metrics().gauge(name, now, v);
                        }
                    }
                },
                Output::NeedCoin { txn, complete_prob } => {
                    let completed = ctx.rng().chance(complete_prob);
                    let mut follow = Vec::new();
                    self.machine.step(
                        ctx.now(),
                        Input::Coin { txn, completed },
                        &mut self.store,
                        &mut follow,
                    );
                    // The follow-up effects take the request's place at the
                    // front, so the overall order matches the machine's.
                    for output in follow.into_iter().rev() {
                        out.push_front(output);
                    }
                }
            }
        }
    }

    /// Drains the store's accumulated storage/recovery statistics into the
    /// shared metrics registry. Called after every actor callback so the
    /// counters track the WAL in near-real time without the store needing a
    /// metrics handle of its own. Only the deltas that moved are recorded:
    /// an absent counter reads as 0, and most callbacks move only the WAL's.
    fn flush_storage_metrics(&mut self, ctx: &mut Ctx<Msg>) {
        let stats = self.store.take_stats();
        if stats.is_empty() {
            return;
        }
        let deltas = [
            ("wal.bytes", stats.wal_bytes),
            ("wal.appends", stats.wal_appends),
            ("wal.syncs", stats.wal_syncs),
            ("wal.segments", stats.wal_segments),
            ("wal.compactions", stats.wal_compactions),
            ("wal.checkpoint_records", stats.wal_checkpoint_records),
            ("recovery.replay_records", stats.recovery_replay_records),
            ("recovery.truncations", stats.recovery_truncations),
            ("store.flushes", stats.lsm_flushes),
            ("store.compactions", stats.lsm_compactions),
            ("store.gc_dropped", stats.lsm_gc_dropped),
            ("store.snapshot_reads", stats.snapshot_reads),
        ];
        for (name, delta) in deltas {
            if delta > 0 {
                ctx.metrics().inc_by(name, delta);
            }
        }
        if self.wall_clock_metrics {
            for d in stats.recovery_durations {
                ctx.metrics().observe("recovery.duration", d);
            }
        } else {
            let now = ctx.now();
            ctx.metrics().gauge("store.runs", now, self.store.lsm_runs() as f64);
            ctx.metrics()
                .gauge("store.mvcc_versions", now, self.store.mvcc_versions() as f64);
            ctx.metrics()
                .gauge("store.snapshot_age", now, self.store.snapshot_age() as f64);
        }
    }

    /// Serves a coordination-free read-only transaction directly against
    /// the store: acquires a snapshot sequence number, reads `items` (all
    /// items when empty) at that point in time, and returns
    /// `(snapshot, entries)`. Emits the snapshot-read trace event and the
    /// `store.snapshot_reads` counter; touches no lock table and sends no
    /// protocol messages.
    pub fn snapshot_read(
        &mut self,
        ctx: &mut Ctx<Msg>,
        items: &[pv_core::ItemId],
    ) -> (u64, Vec<(pv_core::ItemId, pv_core::Entry<pv_core::Value>)>) {
        let (snap, entries) = self.store.snapshot_read(items);
        ctx.trace(pv_simnet::TraceEvent::SnapshotRead {
            site: self.machine.id(),
            snapshot: snap,
            items: entries.len() as u32,
        });
        self.flush_storage_metrics(ctx);
        (snap, entries)
    }
}

impl Actor for Site {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        // A site opened over a previous incarnation's image recovers before
        // it touches any traffic; a fresh site has nothing to do.
        if std::mem::take(&mut self.cold_start) {
            self.on_recover(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        // The opt-in submit gate: reject statically wrong transactions
        // before burning protocol work on them. Rejections are final (the
        // spec itself is wrong), so clients do not retry them. The gate
        // lives in the driver — the protocol crate must not depend on
        // `pv-analysis` (which depends back on it for trace checking).
        if let Msg::Submit { req_id, spec } = &msg {
            if self.machine.config().static_checks {
                if let Err(report) = pv_analysis::gate_spec(spec) {
                    // The machine never sees the submission, so count it
                    // (and the rejection) here.
                    ctx.metrics().inc("txn.submitted");
                    ctx.metrics().inc("txn.rejected.static");
                    let result = TxnResult::Aborted {
                        reason: AbortReason::Rejected(report),
                    };
                    let req_id = *req_id;
                    ctx.send(from, Msg::Reply { req_id, result });
                    self.flush_storage_metrics(ctx);
                    return;
                }
            }
        }
        self.drive(ctx, Input::Msg { from, msg });
        self.flush_storage_metrics(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, key: u64) {
        let Some(key) = TimerKey::decode(key) else {
            debug_assert!(false, "undecodable timer key {key:#x}");
            return;
        };
        self.drive(ctx, Input::Timer(key));
        self.flush_storage_metrics(ctx);
    }

    fn on_crash(&mut self) {
        // Volatile state is gone; the store survives via its WAL. Armed
        // timers die with the node at the substrate level.
        self.machine.crash();
        self.store.crash_and_recover();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<Msg>) {
        self.drive(ctx, Input::Recovered);
        self.flush_storage_metrics(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::{Entry, ItemId, SplitMode, Value};

    fn site() -> Site {
        Site::new(0, EngineConfig::default(), Directory::Mod(1))
    }

    #[test]
    fn seed_and_accessors() {
        let mut s = site();
        s.seed_item(ItemId(0), Value::Int(5));
        assert_eq!(s.id(), 0);
        assert_eq!(s.store().get(ItemId(0)), Some(Entry::Simple(Value::Int(5))));
        assert_eq!(s.poly_count(), 0);
        assert!(s.is_quiescent());
    }

    #[test]
    fn config_split_mode_is_respected_in_construction() {
        let cfg = EngineConfig {
            split_mode: SplitMode::Eager,
            ..EngineConfig::default()
        };
        let s = Site::new(0, cfg, Directory::Mod(1));
        assert_eq!(s.machine().config().split_mode, SplitMode::Eager);
    }
}
