//! Exhaustive crash-point exploration: FoundationDB-style recovery testing.
//!
//! The simulation is deterministic under a seed, and a site's stable-storage
//! write activity is fully described by its WAL append counter
//! ([`pv_store::SiteStore::append_seq`], which counts every record ever
//! appended and is never reset by compaction). That gives each site a precise
//! coordinate system for crashes: "the first moment site `s` has appended
//! `k` records".
//!
//! The harness runs a scripted multi-site transfer scenario once, recording
//! every append count each site reaches at an actor-callback boundary. Then,
//! for every one of those points, it re-runs the *same seeded scenario* from
//! scratch, crashes the site the first time it reaches the point, recovers
//! it shortly after, lets the system settle, and asserts the tier-1
//! invariants:
//!
//! * **conservation** — the transfer workload's total balance is unchanged;
//! * **no residual polyvalues** — every in-doubt outcome was resolved;
//! * **quiescence** — no protocol state is left in flight anywhere.
//!
//! Because each exploration replays the identical event schedule up to the
//! crash, the harness is reproducible: a reported violation names the seed,
//! site, and append point needed to replay it exactly.
//!
//! Every site's log runs [`FsyncPolicy::PerDecision`], the laxest rule a
//! site can run: only the protocol's own sync points and decision or epoch
//! records reach stable storage, so a crash loses un-synced background
//! records — applied writes, dependency bookkeeping — and recovery must heal
//! the gap through replay, re-staging, and the §3.3 inquiry protocol.

use crate::client::ClientConfig;
use crate::cluster::{Cluster, ClusterBuilder};
use crate::config::{CommitProtocol, EngineConfig};
use crate::directory::Directory;
use crate::site::site_node;
use crate::workload::RandomTransfers;
use pv_core::ItemId;
use pv_simnet::{NetConfig, SimDuration, SimTime};
use pv_store::{FsyncPolicy, MemStorage, SiteId};
use std::collections::BTreeSet;
use std::fmt;

/// Parameters of one crash-point exploration.
#[derive(Debug, Clone)]
pub struct CrashPointConfig {
    /// The scenario seed; every exploration replays this exact schedule.
    pub seed: u64,
    /// Number of sites (items are placed modulo this).
    pub sites: u32,
    /// Number of accounts in the transfer workload.
    pub accounts: u64,
    /// Number of transfers the scripted client issues.
    pub transfers: u64,
    /// Virtual seconds to let each crashed run settle before checking.
    pub settle_secs: u64,
    /// Caps the points explored per site (evenly sampled); `None` explores
    /// every reachable point.
    pub max_points_per_site: Option<usize>,
    /// The commit protocol the scenario runs under. Paxos Commit exercises a
    /// different durability surface — per-acceptor vote/promise/accept
    /// records — whose replay the sweep must also cover.
    pub protocol: CommitProtocol,
}

/// Initial balance per account (the conservation target).
const INITIAL: i64 = 500;
/// Client arrival rate (transfers per virtual second).
const RATE_PER_SEC: f64 = 15.0;
/// How long a crashed site stays down.
const RECOVER_AFTER: SimDuration = SimDuration::from_millis(700);
/// Floor of the WAL checkpoint rule ([`pv_store::SiteStore::maybe_compact`]).
/// Tiny so sites checkpoint several times within the scenario and the
/// append coordinates straddle them: crashes land just before and just
/// after the log was rewritten.
const COMPACT_THRESHOLD: usize = 8;

impl Default for CrashPointConfig {
    fn default() -> Self {
        CrashPointConfig {
            seed: 0xC8A5,
            sites: 3,
            accounts: 12,
            transfers: 30,
            settle_secs: 90,
            max_points_per_site: None,
            protocol: CommitProtocol::Polyvalue,
        }
    }
}

/// One invariant violation found at a crash point.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The crashed site.
    pub site: SiteId,
    /// The append point the crash was injected at: the first moment the
    /// site had appended this many WAL records.
    pub point: u64,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "site {} @ append {}: {}",
            self.site, self.point, self.what
        )
    }
}

/// The outcome of an exploration.
#[derive(Debug, Clone)]
pub struct CrashPointReport {
    /// Total crash points explored across all sites.
    pub points_explored: usize,
    /// WAL append points explored per site.
    pub points_per_site: Vec<usize>,
    /// WAL checkpoints the crash-free reference run made once its sites had
    /// started, all sites together; the seeded images are not counted (zero
    /// means no append point had a checkpoint on either side of it).
    pub wal_checkpoints: u64,
    /// Every invariant violation found (empty on a clean pass).
    pub violations: Vec<Violation>,
}

impl CrashPointReport {
    /// Whether every crash point recovered without violating an invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for CrashPointReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} crash points (append {}; {} WAL checkpoints crossed), {} violation(s)",
            self.points_explored,
            self.points_per_site
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            self.wal_checkpoints,
            self.violations.len()
        )
    }
}

/// Builds the scenario cluster: `sites` sites over per-decision in-memory
/// storage, one client issuing random guarded transfers.
fn build(cfg: &CrashPointConfig) -> Cluster {
    let engine = EngineConfig {
        compact_threshold: COMPACT_THRESHOLD,
        ..EngineConfig::with_protocol(cfg.protocol)
    };
    ClusterBuilder::new(cfg.sites, Directory::Mod(cfg.sites))
        .seed(cfg.seed)
        .net(NetConfig::default())
        .engine(engine)
        .uniform_items(cfg.accounts, INITIAL)
        .storage(|_| Box::new(MemStorage::with_policy(FsyncPolicy::PerDecision)))
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(
                RandomTransfers::new(cfg.accounts, RATE_PER_SEC, 40)
                    .with_limit(cfg.transfers),
            ),
        )
        .build()
}

/// Runs the scenario once with no crashes and returns, per site, every WAL
/// append count observable at an actor-callback boundary. (A callback can
/// append several records at once; a crash can only strike between
/// callbacks, so these are exactly the reachable crash states.)
pub fn enumerate_points(cfg: &CrashPointConfig) -> Vec<BTreeSet<u64>> {
    reference_run(cfg).0
}

/// The reference run: every append count each site reaches at a callback
/// boundary, and the WAL checkpoints the run made after its sites started
/// (each site's seeded image is a checkpoint too, written before any crash
/// point).
fn reference_run(cfg: &CrashPointConfig) -> (Vec<BTreeSet<u64>>, u64) {
    let mut cluster = build(cfg);
    cluster.world.start();
    let seeded = cluster.world.metrics().counter("wal.compactions");
    let mut points: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); cfg.sites as usize];
    let horizon = SimTime::from_secs(cfg.settle_secs);
    let sample = |cluster: &Cluster, points: &mut Vec<BTreeSet<u64>>| {
        for s in 0..cfg.sites {
            let n = cluster
                .site(s as SiteId)
                .expect("site ids in range")
                .store()
                .append_seq();
            if n > 0 {
                points[s as usize].insert(n);
            }
        }
    };
    sample(&cluster, &mut points);
    while cluster.world.now() <= horizon && cluster.world.step() {
        sample(&cluster, &mut points);
    }
    let checkpoints = cluster.world.metrics().counter("wal.compactions") - seeded;
    (points, checkpoints)
}

/// Replays the scenario, crashes `site` the first time it has appended
/// `point` records, recovers it, settles, and checks invariants.
fn crash_at(cfg: &CrashPointConfig, site: SiteId, point: u64) -> Option<Violation> {
    let mut cluster = build(cfg);
    let reached = |c: &Cluster| {
        c.site(site)
            .expect("site ids in range")
            .store()
            .append_seq()
            >= point
    };
    while !reached(&cluster) {
        if !cluster.world.step() {
            return Some(Violation {
                site,
                point,
                what: "crash point unreachable on replay (determinism broken?)".into(),
            });
        }
    }
    let now = cluster.world.now();
    cluster.world.schedule_crash(now, site_node(site));
    cluster
        .world
        .schedule_recover(now + RECOVER_AFTER, site_node(site));
    cluster.run_until(SimTime::from_secs(cfg.settle_secs));
    if cluster.world.metrics().counter("node.crashes") != 1 {
        return Some(Violation {
            site,
            point,
            what: "harness error: crash was never delivered".into(),
        });
    }
    check_invariants(&cluster, cfg, site, point)
}

/// The tier-1 invariants every settled post-crash run must satisfy.
fn check_invariants(
    cluster: &Cluster,
    cfg: &CrashPointConfig,
    site: SiteId,
    point: u64,
) -> Option<Violation> {
    let expected = cfg.accounts as i64 * INITIAL;
    let fail = |what: String| Some(Violation { site, point, what });
    match cluster.sum_items((0..cfg.accounts).map(ItemId)) {
        Ok(total) if total == expected => {}
        Ok(total) => return fail(format!("conservation violated: {total} != {expected}")),
        Err(e) => return fail(format!("item unreadable or polyvalued after settle: {e:?}")),
    }
    if cluster.total_poly_count() != 0 {
        return fail(format!(
            "{} residual polyvalued item(s)",
            cluster.total_poly_count()
        ));
    }
    if !cluster.all_quiescent() {
        return fail("protocol state still in flight".into());
    }
    for s in 0..cfg.sites {
        let residual = cluster
            .site(s as SiteId)
            .expect("site ids in range")
            .store()
            .pc_txns()
            .len();
        if residual != 0 {
            // Paxos Commit acceptor state must be pruned once the decision
            // is durable everywhere; leftovers mean a vote/promise survived
            // recovery without its transaction ever resolving.
            return fail(format!(
                "{residual} unresolved Paxos Commit acceptor record(s) at site {s}"
            ));
        }
    }
    None
}

/// Explores every enumerated crash point (or an even sample capped by
/// `max_points_per_site`) and reports all violations found.
pub fn explore(cfg: &CrashPointConfig) -> CrashPointReport {
    let (points, wal_checkpoints) = reference_run(cfg);
    let mut violations = Vec::new();
    let mut points_per_site = Vec::with_capacity(points.len());
    for (s, set) in points.iter().enumerate() {
        let all: Vec<u64> = set.iter().copied().collect();
        let chosen: Vec<u64> = match cfg.max_points_per_site {
            Some(cap) if all.len() > cap && cap > 0 => {
                (0..cap).map(|i| all[i * all.len() / cap]).collect()
            }
            _ => all,
        };
        points_per_site.push(chosen.len());
        violations.extend(
            chosen
                .iter()
                .filter_map(|&point| crash_at(cfg, s as SiteId, point)),
        );
    }
    CrashPointReport {
        points_explored: points_per_site.iter().sum(),
        points_per_site,
        wal_checkpoints,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny exploration used for unit coverage; the full harness runs in
    /// `tests/engine_crashpoints.rs`.
    fn tiny() -> CrashPointConfig {
        CrashPointConfig {
            sites: 2,
            accounts: 4,
            transfers: 4,
            settle_secs: 30,
            max_points_per_site: Some(3),
            ..CrashPointConfig::default()
        }
    }

    #[test]
    fn enumerates_nonempty_point_sets_per_site() {
        let cfg = tiny();
        let points = enumerate_points(&cfg);
        assert_eq!(points.len(), 2);
        for set in &points {
            // Seeding alone appends records, so every site has points.
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let cfg = tiny();
        assert_eq!(enumerate_points(&cfg), enumerate_points(&cfg));
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let report = explore(&tiny());
        assert!(report.points_explored > 0);
        assert_eq!(report.points_per_site.len(), 2);
        let text = report.to_string();
        assert!(text.contains("violation"), "report: {text}");
        assert!(report.ok(), "violations: {:?}", report.violations);
        // Even four transfers cross the tiny checkpoint floor.
        assert!(report.wal_checkpoints > 0, "report: {text}");
    }

    #[test]
    fn tiny_paxos_commit_exploration_is_clean() {
        let report = explore(&CrashPointConfig {
            protocol: CommitProtocol::PaxosCommit,
            ..tiny()
        });
        assert!(report.points_explored > 0);
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn violation_display_names_the_coordinates() {
        let v = Violation {
            site: 1,
            point: 42,
            what: "example".into(),
        };
        assert_eq!(v.to_string(), "site 1 @ append 42: example");
    }
}
