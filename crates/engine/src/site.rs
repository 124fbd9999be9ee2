//! The site: the sans-IO [`SiteMachine`] with the durable store it steps
//! over.
//!
//! All protocol logic — both roles of the §3.1 protocol, Figure 1's
//! participant machine, and the §3.3 recovery manager — lives in
//! `pv-protocol`. A [`Site`] adds what the pure machine cannot own: the
//! [`SiteStore`] it lends to every step, the opt-in static submit gate
//! (which needs `pv-analysis`), the randomness for [`Output::NeedCoin`],
//! and the recording of [`Output::Trace`]/[`Output::Metric`] and of the
//! storage counters into the registry and trace its host lends. Each step
//! hands back only the sends and timer arms, in emission order, for the
//! host to apply: the simulator through `Cluster`'s node adapter, the
//! wall clock through [`SiteHost`](crate::SiteHost).
//!
//! Cluster convention: site `s` is simulation node `NodeId(s)`; clients use
//! higher node ids.

use crate::error::EngineError;
use crate::messages::{AbortReason, Msg, TxnResult};
use crate::topology::Topology;
use pv_protocol::{Input, MetricOp, Output, SiteMachine};
use pv_simnet::{Metrics, SimRng, SimTime, Trace};
use pv_store::{DiskWal, FsyncPolicy, SiteId, SiteStore};

pub use pv_protocol::site_node;

/// One site of the distributed database: the protocol machine plus its
/// durable store.
pub struct Site {
    machine: SiteMachine,
    store: SiteStore,
    /// Whether the site runs on the wall clock ([`SiteHost`](crate::SiteHost)
    /// opts in). Gauge samples then stay out of the metrics: a series is
    /// read from the simulator's registry only, and a node that serves for
    /// days would grow one without bound.
    wall_clock_metrics: bool,
    /// Whether the store held a durable image from a previous incarnation
    /// when the site was opened: its host then steps it with
    /// [`Input::Recovered`] (epoch bump, lock re-acquisition for staged
    /// transactions, inquiry timer) once, before any traffic.
    cold_start: bool,
    /// The outputs a step has yet to apply, as a stack (the next one last).
    pending: Vec<Output>,
    /// The sends and timer arms of the current step, in emission order.
    /// Both buffers are kept so their allocations are reused.
    effects: Vec<Output>,
}

impl Site {
    /// Builds site `id` of `topo` — the one bootstrap every runtime uses.
    /// The store is a per-decision [`DiskWal`] under `data_dir/site-<id>`
    /// when the topology has a data directory (replaying whatever image is
    /// there) and in-memory otherwise. Fails with [`EngineError::Io`] when
    /// the WAL directory cannot be opened.
    pub fn open(id: SiteId, topo: &Topology) -> Result<Site, EngineError> {
        let store = match &topo.data_dir {
            Some(dir) => {
                let path = dir.join(format!("site-{id}"));
                let wal = DiskWal::open(&path, FsyncPolicy::PerDecision)
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
    /// before the site serves traffic. An empty store takes its whole
    /// population as its first checkpoint, in one synced write
    /// ([`SiteStore::seed_checkpoint`]); a reopened image only gains the
    /// items it lacks, one logged record each.
    pub(crate) fn open_over(id: SiteId, topo: &Topology, store: SiteStore) -> Site {
        // Read before seeding: seeding a fresh store also writes its log.
        let cold_start = store.log_len() != 0;
        let mut store = store.with_compact_threshold(topo.engine.compact_threshold);
        let seeds: Vec<_> = topo
            .items
            .iter()
            .filter(|(item, _)| topo.directory.site_of(*item) == Some(id) && !store.contains(*item))
            .cloned()
            .collect();
        if cold_start {
            for (item, value) in seeds {
                store.seed_item(item, value);
            }
            store.sync();
        } else {
            store.seed_checkpoint(seeds);
        }
        Site {
            machine: SiteMachine::new(id, topo.engine.clone(), topo.directory.clone()),
            store,
            wall_clock_metrics: false,
            cold_start,
            pending: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.machine.id()
    }

    /// Read access to the site's store (assertions, polyvalue census).
    pub fn store(&self) -> &SiteStore {
        &self.store
    }

    /// Forces the store's storage backend to persist everything buffered —
    /// the clean-shutdown path of a live deployment.
    pub(crate) fn sync_store(&mut self) {
        self.store.sync();
    }

    /// Marks the site as running on the wall clock: gauge series are not
    /// sampled. Only a real-time runtime should enable this.
    pub(crate) fn enable_wall_clock_metrics(&mut self) {
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

    /// The site's start-up, before any traffic: whether it was opened over
    /// a previous incarnation's image and must now be stepped with
    /// [`Input::Recovered`] (true at most once). A fresh site only reports
    /// the write of its seeded image into `metrics`.
    pub(crate) fn start(&mut self, metrics: &mut Metrics) -> bool {
        let cold = std::mem::take(&mut self.cold_start);
        if !cold {
            self.flush_storage_metrics(metrics);
        }
        cold
    }

    /// Steps the site on `input` at `now` and hands back the sends and
    /// timer arms it emitted, in emission order, for the host to apply.
    /// Everything else is applied here, at its place in the stream: traces
    /// and metrics go into the borrowed `trace` and `metrics`, and a
    /// [`Output::NeedCoin`] is answered from `rng` and stepped at once. The
    /// storage counters the step moved are flushed into `metrics` last.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        input: Input,
        rng: &mut SimRng,
        metrics: &mut Metrics,
        trace: &mut Trace,
    ) -> std::vec::Drain<'_, Output> {
        if let Some(rejection) = self.gate(&input, metrics) {
            self.effects.push(rejection);
        } else {
            self.push_step(now, input);
        }
        while let Some(output) = self.pending.pop() {
            match output {
                Output::Send { .. } | Output::ArmTimer { .. } => self.effects.push(output),
                Output::Trace(event) => trace.record(now, site_node(self.id()), event),
                Output::Metric(MetricOp::Inc(name)) => metrics.inc(name),
                Output::Metric(MetricOp::IncBy(name, n)) => metrics.inc_by(name, n),
                Output::Metric(MetricOp::Observe(name, v)) => metrics.observe(name, v),
                Output::Metric(MetricOp::Gauge(name, v)) => {
                    if !self.wall_clock_metrics {
                        metrics.gauge(name, now, v);
                    }
                }
                Output::NeedCoin { txn, complete_prob } => {
                    let completed = rng.chance(complete_prob);
                    // The follow-up outputs go on top of the stack: they
                    // take the request's place, so the overall order
                    // matches the machine's.
                    self.push_step(now, Input::Coin { txn, completed });
                }
            }
        }
        self.flush_storage_metrics(metrics);
        self.effects.drain(..)
    }

    /// Crashes the site: volatile state is dropped and the store recovers
    /// from its WAL. Armed timers die with the node; dropping them is the
    /// host's job.
    pub(crate) fn crash(&mut self) {
        self.machine.crash();
        self.store.crash_and_recover();
    }

    /// The opt-in submit gate: a statically wrong submission is answered
    /// with its rejection before it burns protocol work, and the machine
    /// never sees it. Rejections are final (the spec itself is wrong), so
    /// clients do not retry them. The gate lives here because the protocol
    /// crate must not depend on `pv-analysis` (which depends back on it for
    /// trace checking).
    fn gate(&self, input: &Input, metrics: &mut Metrics) -> Option<Output> {
        let Input::Msg { from, msg: Msg::Submit { req_id, spec } } = input else {
            return None;
        };
        if !self.machine.config().static_checks {
            return None;
        }
        let report = pv_analysis::gate_spec(spec).err()?;
        // The machine never sees the submission, so count it (and the
        // rejection) here.
        metrics.inc("txn.submitted");
        metrics.inc("txn.rejected.static");
        let result = TxnResult::Aborted {
            reason: AbortReason::Rejected(report),
        };
        Some(Output::Send {
            to: *from,
            msg: Msg::Reply { req_id: *req_id, result },
        })
    }

    /// Steps the machine and pushes its outputs onto the stack, the first
    /// one emitted on top.
    fn push_step(&mut self, now: SimTime, input: Input) {
        let base = self.pending.len();
        self.machine.step(now, input, &mut self.store, &mut self.pending);
        self.pending[base..].reverse();
    }

    /// Drains the store's accumulated storage/recovery statistics into the
    /// shared metrics registry, so the counters track the WAL in near-real
    /// time without the store needing a metrics handle of its own. Only the
    /// deltas that moved are recorded: an absent counter reads as 0, and
    /// most steps move only the WAL's.
    fn flush_storage_metrics(&mut self, metrics: &mut Metrics) {
        let stats = self.store.take_stats();
        if stats.is_empty() {
            return;
        }
        let deltas = [
            ("wal.bytes", stats.wal_bytes),
            ("wal.appends", stats.wal_appends),
            ("wal.syncs", stats.wal_syncs),
            ("wal.compactions", stats.wal_compactions),
            ("wal.checkpoint_records", stats.wal_checkpoint_records),
            ("recovery.replay_records", stats.recovery_replay_records),
            ("recovery.truncations", stats.recovery_truncations),
            ("store.snapshot_reads", stats.snapshot_reads),
        ];
        for (name, delta) in deltas {
            if delta > 0 {
                metrics.inc_by(name, delta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::Directory;
    use pv_core::{Entry, ItemId, Value};

    #[test]
    fn seed_and_accessors() {
        let s = Site::open(0, &Topology::new(1, Directory::Mod(1)).item(0u64, 5i64)).unwrap();
        assert_eq!(s.id(), 0);
        assert_eq!(s.store().get(ItemId(0)), Some(Entry::Simple(Value::Int(5))));
        assert_eq!(s.poly_count(), 0);
        assert!(s.is_quiescent());
    }

    #[test]
    fn a_reopened_seeded_directory_is_a_cold_start_and_is_not_reseeded() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/site-tests/reopened-seeded");
        let _ = std::fs::remove_dir_all(&dir);
        let topo = Topology::new(2, Directory::Mod(2))
            .uniform_items(6, 100)
            .data_dir(&dir);
        let mut metrics = Metrics::new();
        let mut fresh = Site::open(0, &topo).unwrap();
        assert!(!fresh.start(&mut metrics));
        assert_eq!(fresh.store().item_count(), 3);
        assert_eq!((fresh.store().append_seq(), fresh.store().log_len()), (3, 3));
        drop(fresh);

        // The image holds every item: the reopened store appends nothing.
        let mut reopened = Site::open(0, &topo).unwrap();
        assert!(reopened.start(&mut metrics));
        assert_eq!(reopened.store().item_count(), 3);
        assert_eq!((reopened.store().append_seq(), reopened.store().log_len()), (0, 3));
        drop(reopened);

        // An item the image lacks is seeded on its own, one append.
        let mut grown = Site::open(0, &topo.item(8u64, 7i64)).unwrap();
        assert!(grown.start(&mut metrics));
        assert_eq!(grown.store().get(ItemId(8)), Some(Entry::Simple(Value::Int(7))));
        assert_eq!((grown.store().append_seq(), grown.store().log_len()), (1, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
