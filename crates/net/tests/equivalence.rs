//! Cross-runtime equivalence: one [`Topology`], two runtimes, identical
//! outcomes.
//!
//! The same deterministic sequence of guarded transfers is executed
//! sequentially against the simulated cluster and the real-TCP networked
//! cluster, both built from the *same* `Topology` value. Because execution
//! is sequential, each transfer's fate depends only on the committed state
//! the previous ones left behind, so both runtimes must produce the same
//! `(committed, fully_granted)` sequence and the same final balances, and
//! each must conserve total funds.

use pv_core::{Entry, Expr, ItemId, TransactionSpec, Value};
use pv_engine::{
    ClientConfig, ClusterBuilder, CommitProtocol, Directory, EngineConfig, Script, Topology,
};
use pv_net::NetCluster;
use pv_simnet::{SimDuration, SimRng};
use std::time::Duration;

const SITES: u32 = 3;
const ACCOUNTS: u64 = 6;
const BALANCE: i64 = 100;

fn shared_topology(protocol: CommitProtocol) -> Topology {
    Topology::new(SITES, Directory::Mod(SITES))
        .engine(EngineConfig {
            protocol,
            read_timeout: SimDuration::from_millis(200),
            ready_timeout: SimDuration::from_millis(200),
            wait_timeout: SimDuration::from_millis(80),
            read_lease: SimDuration::from_millis(500),
            inquire_interval: SimDuration::from_millis(100),
            ..EngineConfig::default()
        })
        .uniform_items(ACCOUNTS, BALANCE)
}

/// The workload: 24 transfers whose amounts are chosen so that some guards
/// deny (insufficient funds), making the outcome sequence state-dependent —
/// a runtime that diverges anywhere diverges visibly from then on.
fn workload() -> Vec<TransactionSpec> {
    let mut rng = SimRng::new(0xE9_01);
    (0..24)
        .map(|_| {
            let from = rng.below(ACCOUNTS);
            let mut to = rng.below(ACCOUNTS);
            if to == from {
                to = (to + 1) % ACCOUNTS;
            }
            // Mostly modest amounts, occasionally one large enough that the
            // guard denies once an account has drained.
            let amt = if rng.chance(0.3) {
                90 + rng.below(40) as i64
            } else {
                1 + rng.below(30) as i64
            };
            let (f, t) = (ItemId(from), ItemId(to));
            TransactionSpec::new()
                .guard(Expr::read(f).ge(Expr::int(amt)))
                .update(f, Expr::read(f).sub(Expr::int(amt)))
                .update(t, Expr::read(t).add(Expr::int(amt)))
        })
        .collect()
}

/// `(committed, fully_granted)` per transaction plus the final per-item
/// balances, sorted by item.
type Outcomes = (Vec<(bool, bool)>, Vec<(u64, i64)>);

fn settled_int(entry: &Entry<Value>) -> i64 {
    entry
        .as_simple()
        .and_then(|v| v.as_int())
        .expect("item settled to a simple int")
}

fn run_sim(protocol: CommitProtocol, specs: Vec<TransactionSpec>) -> Outcomes {
    // One scripted client, widely spaced arrivals so execution is strictly
    // sequential in virtual time; no retries so each result is the fate of
    // exactly one attempt.
    let n = specs.len();
    let mut cluster = ClusterBuilder::from_topology(shared_topology(protocol))
        .seed(11)
        .client(
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
            Box::new(Script::new(specs, SimDuration::from_secs(5))),
        )
        .build();
    let deadline = pv_simnet::SimTime::ZERO + SimDuration::from_secs(5 * (n as u64 + 4));
    cluster.run_until(deadline);
    let results = cluster.client(0).expect("client").results();
    assert_eq!(results.len(), n, "sim: every transaction got a result");
    let fates = results
        .iter()
        .map(|(_, r)| (r.is_committed(), r.fully_granted()))
        .collect();
    assert!(cluster.all_quiescent(), "sim drained");
    let balances = (0..ACCOUNTS)
        .map(|i| {
            (
                i,
                settled_int(&cluster.item_entry(ItemId(i)).expect("item")),
            )
        })
        .collect();
    (fates, balances)
}

/// Polls until every site is settled (quiescent, zero polyvalues).
/// "Sequential" means settled-between-submissions: without this, the next
/// transaction can race the previous decision's propagation to a
/// participant and hit a timing-dependent no-wait lock conflict.
fn settle(cluster: &NetCluster, deadline: Duration) {
    let limit = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut snaps = (0..SITES).map(|s| cluster.inspect(s, deadline).expect("inspect"));
        if snaps.all(|snap| snap.poly_count == 0 && snap.quiescent) {
            return;
        }
        assert!(std::time::Instant::now() < limit, "cluster did not settle");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn run_net(protocol: CommitProtocol, specs: Vec<TransactionSpec>) -> Outcomes {
    let cluster = NetCluster::from_topology(shared_topology(protocol)).expect("start net");
    let deadline = Duration::from_secs(10);
    let fates = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let r = cluster
                .submit((i as u32) % SITES, spec, deadline)
                .expect("net submit");
            settle(&cluster, deadline);
            (r.is_committed(), r.fully_granted())
        })
        .collect();
    let mut balances = Vec::new();
    for s in 0..SITES {
        let snap = cluster.inspect(s, deadline).expect("inspect");
        assert_eq!(snap.poly_count, 0, "net drained");
        for (item, entry) in &snap.items {
            balances.push((item.0, settled_int(entry)));
        }
    }
    balances.sort_unstable();
    cluster.shutdown().expect("clean shutdown");
    (fates, balances)
}

fn assert_equivalent(protocol: CommitProtocol) {
    let specs = workload();
    let (sim_fates, sim_balances) = run_sim(protocol, specs.clone());
    let (net_fates, net_balances) = run_net(protocol, specs);

    // The workload is interesting: at least one commit-and-grant and at
    // least one guard denial, so the fate vector actually discriminates.
    assert!(sim_fates.iter().any(|&(c, g)| c && g), "some grant");
    assert!(sim_fates.iter().any(|&(c, g)| c && !g), "some denial");

    assert_eq!(sim_fates, net_fates, "sim vs net outcome sequence");
    assert_eq!(sim_balances, net_balances, "sim vs net final balances");

    for (name, balances) in [("sim", &sim_balances), ("net", &net_balances)] {
        let total: i64 = balances.iter().map(|(_, v)| v).sum();
        assert_eq!(
            total,
            ACCOUNTS as i64 * BALANCE,
            "{name}: conservation of funds"
        );
    }
}

#[test]
fn same_topology_same_outcomes_on_both_runtimes() {
    assert_equivalent(CommitProtocol::Polyvalue);
}

/// The fault-free Paxos Commit fast path must route every transaction to
/// the same fate on both runtimes — votes, acceptor acknowledgements
/// and the decision broadcast all cross the real TCP codec in the net
/// cluster.
#[test]
fn same_topology_same_outcomes_under_paxos_commit() {
    assert_equivalent(CommitProtocol::PaxosCommit);
}
