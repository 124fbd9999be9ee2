//! Exhaustive crash-point recovery: for every stable-storage append point
//! any site reaches during a scripted multi-site transfer scenario, crash
//! the site there, recover it, and demand the tier-1 invariants
//! (conservation, no residual polyvalues, quiescence) after settling.
//!
//! Every site's log syncs only at the protocol's sync points and on decision
//! or epoch records (per-decision), so a crash can lose any background
//! record written since. Recovery must be clean at *every* point — the
//! assertions are exhaustive, not sampled.
//!
//! The same sweep runs under Paxos Commit, whose durability surface is
//! different: each acceptor logs a record per vote, promise and acceptance,
//! and recovery must replay them back to the same ballot/decision state or a
//! takeover could assemble a majority the fast path cannot see.

use pv_engine::crashpoint::{enumerate_points, explore, CrashPointConfig};
use pv_engine::CommitProtocol;

fn scenario(protocol: CommitProtocol) -> CrashPointConfig {
    CrashPointConfig {
        seed: 0xCAFE,
        sites: 3,
        accounts: 9,
        transfers: 10,
        settle_secs: 60,
        max_points_per_site: None, // exhaustive
        protocol,
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
    // Background records evaporate on any crash; the explicit syncs in
    // stage/record_decision/bump_epoch plus the §3.3 inquiry protocol must
    // still recover every point.
    assert_clean("polyvalue", &scenario(CommitProtocol::Polyvalue));
}

#[test]
fn paxos_commit_recovers_at_every_crash_point_per_decision() {
    // Vote/promise/accept records are synced at append time by the acceptor
    // discipline, so every acceptor must replay to the exact ballot/decision
    // state the peers already acted on.
    assert_clean("paxos-commit", &scenario(CommitProtocol::PaxosCommit));
}

#[test]
fn crash_point_enumeration_covers_every_site() {
    let points = enumerate_points(&scenario(CommitProtocol::Polyvalue));
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
    let points = enumerate_points(&scenario(CommitProtocol::PaxosCommit));
    assert_eq!(points.len(), 3);
    for (s, set) in points.iter().enumerate() {
        assert!(!set.is_empty(), "site {s} reached no append points");
    }
}
