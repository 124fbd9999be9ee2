//! The unified runtime description shared by every deployment of the engine.
//!
//! Two runtimes drive the identical `pv_protocol::SiteMachine`: the
//! deterministic simulation ([`Cluster`](crate::Cluster)) and the
//! multi-process socket runtime (`pv-net`). Before this module each grew
//! its own builder with its own copy of the same knobs; a workload spec
//! written against one could not move to the other without re-plumbing its
//! configuration. A [`Topology`] is that configuration, once: how many
//! sites, where items live, which protocol variant and timeouts, the initial
//! database population, durability (data directory and fsync policy), the
//! static-checks submit gate, and whether a protocol trace is collected.
//!
//! Both runtimes consume the same value:
//!
//! ```
//! use pv_engine::topology::Topology;
//! use pv_engine::{ClusterBuilder, Directory};
//!
//! let topo = Topology::new(2, Directory::Mod(2))
//!     .item(0u64, 100i64)
//!     .item(1u64, 100i64);
//!
//! // Simulation: add clients/seed, then build.
//! let sim = ClusterBuilder::from_topology(topo.clone()).seed(7).build();
//! assert_eq!(sim.site_count(), 2);
//! // (`pv_net::NetCluster::from_topology` accepts the same value.)
//! ```

use crate::config::EngineConfig;
use crate::directory::Directory;
use pv_core::{ItemId, Value};
use pv_store::FsyncPolicy;
use std::path::PathBuf;

/// Runtime-agnostic description of a reconnect/backoff policy, consumed by
/// the networked runtime (`pv_net::Backoff::from_config`) and carried on the
/// wire by the `ConfigBackoff` control frame for live reconfiguration.
///
/// Plain milliseconds/floats rather than `Duration` so the value can live in
/// a [`Topology`], travel in a frame, and be compared exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Upper bound any single delay grows to, in milliseconds.
    pub max_ms: u64,
    /// Multiplicative growth per attempt (≥ 1.0).
    pub factor: f64,
    /// Fraction of each delay randomised (0.0 = none, 0.5 = ±50 %).
    pub jitter: f64,
    /// Consecutive failures tolerated before a peer is declared unreachable.
    pub attempts: u32,
}

// The `ConfigBackoff` frame's payload; a non-finite float does not decode.
pv_store::wire_table! { struct BackoffConfig { base_ms, max_ms, factor, jitter, attempts } }

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_ms: 50,
            max_ms: 1000,
            factor: 2.0,
            jitter: 0.25,
            attempts: 50,
        }
    }
}

/// A complete, runtime-agnostic description of one polyvalue cluster.
///
/// Construct with [`Topology::new`], refine with the chainable setters, then
/// hand the value to [`ClusterBuilder::from_topology`](crate::ClusterBuilder::from_topology)
/// or `pv_net::NetBuilder::from_topology`. The fields are public so embedding
/// code (and the `pv-net` crate) can read the description back without a
/// parallel accessor surface.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of database sites (site ids `0..sites`).
    pub sites: u32,
    /// Item placement: which site is home to which item.
    pub directory: Directory,
    /// Protocol variant, timeouts, lock policy, split mode, the
    /// static-checks gate, and the WAL compaction threshold.
    pub engine: EngineConfig,
    /// Initial database population; each item is seeded at its home site.
    pub items: Vec<(ItemId, Value)>,
    /// When set, each site persists its WAL under `<dir>/site-<s>` and
    /// recovers from a non-empty image on startup. `None` keeps WALs in
    /// memory (the simulation additionally supports arbitrary backends via
    /// [`ClusterBuilder::storage`](crate::ClusterBuilder::storage)).
    pub data_dir: Option<PathBuf>,
    /// Fsync policy of disk-backed sites (ignored without a data dir).
    pub fsync_policy: FsyncPolicy,
    /// Whether the runtime buffers a full protocol trace. Streaming sinks
    /// remain per-builder: a sink is a live callback, not cluster shape.
    pub collect_trace: bool,
    /// Reconnect/backoff policy of the networked runtime (`None` = that
    /// runtime's default). The simulation has no sockets to redial and
    /// ignores it.
    pub backoff: Option<BackoffConfig>,
}

impl Topology {
    /// A topology of `sites` sites placed by `directory`, with default
    /// engine configuration, no items, in-memory durability, and no trace.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero.
    pub fn new(sites: u32, directory: Directory) -> Self {
        assert!(sites > 0, "a cluster needs at least one site");
        Topology {
            sites,
            directory,
            engine: EngineConfig::default(),
            items: Vec::new(),
            data_dir: None,
            fsync_policy: FsyncPolicy::PerDecision,
            collect_trace: false,
            backoff: None,
        }
    }

    /// Sets the engine configuration (protocol, timeouts). Accepts a full
    /// [`EngineConfig`] or a bare [`crate::CommitProtocol`].
    pub fn engine(mut self, config: impl Into<EngineConfig>) -> Self {
        self.engine = config.into();
        self
    }

    /// Seeds an initial item value (placed by the directory). Accepts raw
    /// `u64` item ids and anything convertible to a [`Value`].
    pub fn item(mut self, item: impl Into<ItemId>, value: impl Into<Value>) -> Self {
        self.items.push((item.into(), value.into()));
        self
    }

    /// Seeds many items at once.
    pub fn items(mut self, items: impl IntoIterator<Item = (ItemId, Value)>) -> Self {
        self.items.extend(items);
        self
    }

    /// Seeds items `0..n` with the same integer value.
    pub fn uniform_items(mut self, n: u64, value: i64) -> Self {
        for i in 0..n {
            self.items.push((ItemId(i), Value::Int(value)));
        }
        self
    }

    /// Turns on the static submit gate: every submitted transaction runs the
    /// `pv-analysis` checks first, and `Error`-severity findings abort it
    /// (non-retryably) before any protocol work.
    pub fn static_checks(mut self) -> Self {
        self.engine.static_checks = true;
        self
    }

    /// Persists each site's WAL under `<dir>/site-<s>`; a site whose
    /// directory already holds a WAL image recovers from it.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Sets the fsync policy of disk-backed sites (default: per-decision,
    /// the cheapest policy that keeps the §3.1 protocol crash-safe).
    pub fn fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.fsync_policy = policy;
        self
    }

    /// Sets the networked runtime's reconnect/backoff policy (ignored by
    /// the socketless runtimes).
    pub fn backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// Sets the floor of the WAL checkpoint rule: a site rewrites its log as
    /// a snapshot once the records appended since the last checkpoint reach
    /// what that checkpoint wrote, and at least `records`
    /// ([`EngineConfig::compact_threshold`]).
    pub fn compact_threshold(mut self, records: usize) -> Self {
        self.engine.compact_threshold = records;
        self
    }

    /// Sets the number of versions a keyspace partition's memtable holds
    /// before it flushes into a sorted run.
    pub fn memtable_threshold(mut self, versions: usize) -> Self {
        self.engine.memtable_threshold = versions;
        self
    }

    /// Sets the number of sorted runs a keyspace partition accumulates
    /// before a size-tiered compaction merges them.
    pub fn run_threshold(mut self, runs: usize) -> Self {
        self.engine.run_threshold = runs;
        self
    }

    /// Buffers a full protocol trace in whichever runtime consumes this
    /// topology. Simulation traces are byte-identical per seed; a
    /// wall-clock runtime stamps its records with wall-clock time.
    pub fn collect_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// The sum of all integer items seeded by this topology — the expected
    /// conserved total for funds-transfer-style workloads, used by the
    /// cross-runtime equivalence tests and the loadgen conservation gate.
    pub fn seeded_int_total(&self) -> i64 {
        self.items
            .iter()
            .filter_map(|(_, v)| v.as_int())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_setters_accumulate() {
        let topo = Topology::new(3, Directory::Mod(3))
            .engine(crate::CommitProtocol::Blocking2pc)
            .uniform_items(6, 10)
            .item(100u64, 5i64)
            .static_checks()
            .fsync_policy(FsyncPolicy::PerAppend)
            .collect_trace();
        assert_eq!(topo.sites, 3);
        assert_eq!(topo.items.len(), 7);
        assert!(topo.engine.static_checks);
        assert_eq!(topo.fsync_policy, FsyncPolicy::PerAppend);
        assert!(topo.collect_trace);
        assert_eq!(topo.seeded_int_total(), 65);
    }

    #[test]
    fn storage_threshold_setters_reach_the_engine_config() {
        let topo = Topology::new(1, Directory::Mod(1))
            .compact_threshold(64)
            .memtable_threshold(8)
            .run_threshold(3);
        assert_eq!(topo.engine.compact_threshold, 64);
        assert_eq!(topo.engine.memtable_threshold, 8);
        assert_eq!(topo.engine.run_threshold, 3);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_is_rejected() {
        let _ = Topology::new(0, Directory::Mod(1));
    }

    #[test]
    fn backoff_setter_records_the_policy() {
        let topo = Topology::new(2, Directory::Mod(2)).backoff(BackoffConfig {
            attempts: 7,
            ..BackoffConfig::default()
        });
        assert_eq!(topo.backoff.unwrap().attempts, 7);
        assert!(Topology::new(1, Directory::Mod(1)).backoff.is_none());
    }
}
