//! Exhaustive crash-point recovery: for every stable-storage append point
//! any site reaches during a scripted multi-site transfer scenario, crash
//! the site there, recover it, and demand the tier-1 invariants
//! (conservation, no residual polyvalues, quiescence) after settling.
//!
//! Runs under both protocol-critical fsync policies: per-decision (background
//! records can be lost on crash) and periodic every-N (whole batches can be
//! lost). Both must recover cleanly at *every* point — the assertions are
//! exhaustive, not sampled.
//!
//! The same sweep runs under Paxos Commit, whose durability surface is
//! different: each acceptor logs a record per vote, promise and acceptance,
//! and recovery must replay them back to the same ballot/decision state or a
//! takeover could assemble a majority the fast path cannot see.

use pv_engine::crashpoint::{enumerate_points, explore, CrashPointConfig};
use pv_engine::CommitProtocol;
use pv_simnet::SimDuration;
use pv_store::FsyncPolicy;

fn scenario(protocol: CommitProtocol, policy: FsyncPolicy) -> CrashPointConfig {
    CrashPointConfig {
        seed: 0xCAFE,
        sites: 3,
        accounts: 9,
        initial: 500,
        transfers: 10,
        rate_per_sec: 15.0,
        policy,
        settle_secs: 60,
        recover_after: SimDuration::from_millis(700),
        max_points_per_site: None, // exhaustive
        protocol,
        // A tiny checkpoint floor: append points on both sides of several
        // WAL checkpoints at every site.
        compact_threshold: 8,
    }
}

fn assert_clean(label: &str, cfg: &CrashPointConfig) {
    let report = explore(cfg);
    // Sanity: the scenario actually produced a meaningful search space.
    assert!(
        report.points_explored > 20,
        "{label}: search space too small: {report}"
    );
    assert!(
        report.wal_checkpoints > 0,
        "{label}: no crash point straddles a WAL checkpoint: {report}"
    );
    assert!(
        report.ok(),
        "{label}: invariant violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn per_decision_policy_recovers_at_every_crash_point() {
    assert_clean(
        "polyvalue/per-decision",
        &scenario(CommitProtocol::Polyvalue, FsyncPolicy::PerDecision),
    );
}

#[test]
fn periodic_fsync_policy_recovers_at_every_crash_point() {
    // EveryN(8): up to 7 background records evaporate on any crash; the
    // explicit syncs in stage/record_decision/bump_epoch plus the §3.3
    // inquiry protocol must still recover every point.
    assert_clean(
        "polyvalue/every-8",
        &scenario(CommitProtocol::Polyvalue, FsyncPolicy::EveryN(8)),
    );
}

#[test]
fn paxos_commit_recovers_at_every_crash_point_per_decision() {
    assert_clean(
        "paxos-commit/per-decision",
        &scenario(CommitProtocol::PaxosCommit, FsyncPolicy::PerDecision),
    );
}

#[test]
fn paxos_commit_recovers_at_every_crash_point_periodic_fsync() {
    // Vote/promise/accept records are synced at append time by the acceptor
    // discipline, so even an EveryN(8) background policy must replay every
    // acceptor to the exact ballot/decision state the peers already acted on.
    assert_clean(
        "paxos-commit/every-8",
        &scenario(CommitProtocol::PaxosCommit, FsyncPolicy::EveryN(8)),
    );
}

#[test]
fn crash_point_enumeration_covers_every_site() {
    let points = enumerate_points(&scenario(
        CommitProtocol::Polyvalue,
        FsyncPolicy::PerDecision,
    ));
    assert_eq!(points.len(), 3);
    for (s, set) in points.iter().enumerate() {
        assert!(!set.is_empty(), "site {s} reached no append points");
        // Append counts start at the seeded image and only grow.
        let min = *set.iter().next().unwrap();
        assert!(min >= 1, "site {s} min point {min}");
    }
}

#[test]
fn paxos_crash_points_cover_acceptor_records() {
    // The paxos scenario must actually exercise the acceptor log: votes,
    // promises or acceptances appear as extra append points compared to the
    // pure item/decision records of the blocking protocols.
    let points = enumerate_points(&scenario(
        CommitProtocol::PaxosCommit,
        FsyncPolicy::PerDecision,
    ));
    assert_eq!(points.len(), 3);
    for (s, set) in points.iter().enumerate() {
        assert!(!set.is_empty(), "site {s} reached no append points");
    }
}
