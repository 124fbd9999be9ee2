//! `sim_faulty`: the paper's funds transfer in the deterministic simulation,
//! under Poisson site crashes and link partitions.
//!
//! No sockets and no threads: `pv-core`'s condition algebra and
//! polytransaction evaluation, `pv-protocol` and `pv-simnet` do all the work.
//! The fault schedule is the `shootout` bench's. Every count is a pure
//! function of the seed; only the wall-clock readings vary between runs.

use crate::workload::{SimSpec, BALANCE};
use pv_core::{Entry, ItemId, Value};
use pv_engine::{
    ClientConfig, Cluster, ClusterBuilder, CommitProtocol, Directory, EngineConfig, RandomTransfers,
};
use pv_simnet::{
    FailureConfig, FailurePlan, Metrics, NetConfig, NodeId, SimDuration, SimRng, SimTime,
};
use pv_store::{Record, Storage};
use std::sync::Arc;
use std::time::Instant;

/// Most polyvalued entries harvested per simulation for the `core.*` timings.
const HARVEST_PER_SIM: usize = 8;

/// WAL records kept per simulation for the codec timings.
const WAL_SAMPLE: usize = 256;

/// What one seeded simulation produced.
#[derive(Debug, Clone, Default)]
pub struct SimRun {
    /// Wall time to build the cluster and schedule its faults.
    pub setup_s: f64,
    /// Wall time of the two `run_until` calls.
    pub wall_s: f64,
    pub submitted: u64,
    /// Commits acknowledged before the chaos horizon.
    pub prompt: u64,
    /// The world's registry at the end of the run (clients and sites).
    pub registry: Metrics,
    /// Polyvalued entries seen in the stores at the chaos horizon.
    pub harvested: Vec<Entry<Value>>,
    /// The tail of site 0's WAL, for the codec timings.
    pub wal_sample: Vec<Record>,
    pub violations: Vec<String>,
}

impl SimRun {
    pub fn committed(&self) -> u64 {
        self.registry.counter("client.committed")
    }

    /// Transfers the clients gave up on, lost, or saw refused.
    pub fn abandoned(&self) -> u64 {
        ["client.gave_up", "client.failed", "client.no_reply"]
            .iter()
            .map(|c| self.registry.counter(c))
            .sum()
    }
}

/// Builds each site's storage backend (the traced pass wraps `MemStorage`
/// in a `TimedStorage`); `None` keeps the simulation's default.
pub type StorageFactory = Arc<dyn Fn(u32) -> Box<dyn Storage>>;

/// Builds the cluster for `seed` and schedules its crashes and partitions.
fn build(spec: &SimSpec, seed: u64, storage: Option<StorageFactory>) -> Cluster {
    let mut builder = ClusterBuilder::new(spec.sites, Directory::Mod(spec.sites))
        .seed(seed)
        .net(NetConfig::default())
        .engine(EngineConfig::with_protocol(CommitProtocol::Polyvalue))
        .uniform_items(spec.accounts, BALANCE)
        .clients(
            spec.clients as usize,
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            |_| {
                Box::new(
                    RandomTransfers::new(spec.accounts, spec.rate_per_sec, 50)
                        .with_limit(spec.per_client),
                )
            },
        );
    if let Some(factory) = storage {
        builder = builder.storage(move |s| factory(s));
    }
    let mut cluster = builder.build();
    let horizon = SimTime::from_secs(spec.chaos_secs);
    FailurePlan::poisson(
        FailureConfig {
            crash_rate_per_sec: spec.crash_rate,
            mean_downtime_secs: 0.8,
            horizon,
        },
        spec.sites,
        &mut SimRng::new(seed ^ 0xC4A5),
    )
    .apply(&mut cluster.world);
    // Link partitions at the same intensity: cross-site commits through a
    // cut link are left in doubt, which is where polyvalues are installed.
    let mut prng = SimRng::new(seed ^ 0x9A27);
    let sites = u64::from(spec.sites);
    let mut t = 0.0f64;
    loop {
        t += prng.exponential(1.0 / (spec.crash_rate * sites as f64));
        if t >= spec.chaos_secs as f64 {
            break;
        }
        let a = prng.below(sites) as u32;
        let mut b = prng.below(sites) as u32;
        if a == b {
            b = (b + 1) % spec.sites;
        }
        let start = SimTime::from_millis((t * 1000.0) as u64);
        let end = start + SimDuration::from_secs_f64(prng.exponential(0.8).max(0.05));
        cluster
            .world
            .schedule_partition(start, NodeId(a), NodeId(b));
        cluster.world.schedule_heal(end, NodeId(a), NodeId(b));
    }
    cluster
}

/// Runs one seeded simulation and applies its gates: zero residual
/// polyvalues, every site quiescent, and the seeded total conserved.
pub fn run_one(spec: &SimSpec, seed: u64, storage: Option<StorageFactory>) -> SimRun {
    let t0 = Instant::now();
    let mut cluster = build(spec, seed, storage);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    cluster.run_until(SimTime::from_secs(spec.chaos_secs));
    let mut wall_s = t1.elapsed().as_secs_f64();
    let prompt = cluster.world.metrics().counter("client.committed");
    let mut harvested = Vec::new();
    for s in 0..spec.sites {
        let site = cluster.site(s).expect("site ids in range");
        harvested.extend(
            site.store()
                .iter_items()
                .map(|(_, e)| e)
                .filter(Entry::is_poly)
                .take(HARVEST_PER_SIM.saturating_sub(harvested.len())),
        );
    }
    let t2 = Instant::now();
    cluster.run_until(SimTime::from_secs(spec.chaos_secs + spec.drain_secs));
    wall_s += t2.elapsed().as_secs_f64();

    let mut violations = Vec::new();
    let residual = cluster.total_poly_count();
    if residual != 0 {
        violations.push(format!(
            "seed {seed}: {residual} polyvalues never collapsed"
        ));
    }
    if !cluster.all_quiescent() {
        violations.push(format!("seed {seed}: a site still holds protocol state"));
    }
    let expected = spec.accounts as i64 * BALANCE;
    match cluster.sum_items((0..spec.accounts).map(ItemId)) {
        Ok(total) if total == expected => {}
        Ok(total) => violations.push(format!("seed {seed}: total {total}, seeded {expected}")),
        Err(e) => violations.push(format!("seed {seed}: audit failed: {e}")),
    }

    let wal = cluster.site(0).expect("site 0 exists").store().wal();
    let wal_sample = wal
        .iter()
        .skip(wal.len().saturating_sub(WAL_SAMPLE))
        .cloned()
        .collect();
    let registry = cluster.world.metrics().clone();
    SimRun {
        setup_s,
        wall_s,
        submitted: u64::from(spec.clients) * spec.per_client,
        prompt,
        registry,
        harvested,
        wal_sample,
        violations,
    }
}

/// The simulation seeds a run covers: `K` consecutive seeds starting at
/// `seed × 1_000_003`, with `K` fixed by `secs` alone. The same arguments
/// give the same seeds and therefore the same counts; different `--seed`s
/// give disjoint sets, so ten runs are ten independent samples.
pub fn seeds(spec: &SimSpec, seed: u64, secs: u64) -> std::ops::Range<u64> {
    let first = seed.wrapping_mul(1_000_003);
    first..first + (secs * spec.sims_per_second).max(1)
}
