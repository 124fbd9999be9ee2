//! Robustness tests: the protocol must converge under lossy networks, slow
//! links, expired leases, and coordinator failures at every phase.

use pv_core::{ItemId, TransactionSpec, Value};
use pv_engine::{
    ClientConfig, Cluster, ClusterBuilder, CommitProtocol, Directory, EngineConfig,
    RandomTransfers, Script,
};
use pv_simnet::{NetConfig, NodeId, SimDuration, SimTime};

const ACCOUNTS: u64 = 12;
const INITIAL: i64 = 500;

fn settle_and_check(cluster: &mut Cluster, until_secs: u64) {
    cluster.run_until(SimTime::from_secs(until_secs));
    assert_eq!(
        cluster.sum_items((0..ACCOUNTS).map(ItemId)).unwrap(),
        ACCOUNTS as i64 * INITIAL,
        "conservation violated"
    );
    assert_eq!(cluster.total_poly_count(), 0, "residual polyvalues");
    assert!(cluster.all_quiescent(), "protocol state lingering");
}

#[test]
fn lossy_network_converges_and_conserves() {
    // 5 % of every message silently dropped: lost Prepares, Decisions, and
    // OutcomeNotifies must all be healed by timeouts and inquiries.
    let mut cluster = ClusterBuilder::new(3, Directory::Mod(3))
        .seed(77)
        .net(NetConfig {
            drop_prob: 0.05,
            ..NetConfig::default()
        })
        .engine(EngineConfig::with_protocol(CommitProtocol::Polyvalue))
        .uniform_items(ACCOUNTS, INITIAL)
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 15.0, 40).with_limit(250)),
        )
        .build();
    settle_and_check(&mut cluster, 60);
    let m = cluster.world.metrics();
    assert!(m.counter("net.dropped_loss") > 0, "loss must have occurred");
    assert!(m.counter("txn.committed") > 100, "progress despite loss");
}

#[test]
fn very_lossy_network_still_never_violates_atomicity() {
    // 20 % loss: many transactions fail, but the ones that commit are atomic.
    let mut cluster = ClusterBuilder::new(3, Directory::Mod(3))
        .seed(78)
        .net(NetConfig {
            drop_prob: 0.20,
            ..NetConfig::default()
        })
        .engine(EngineConfig::with_protocol(CommitProtocol::Polyvalue))
        .uniform_items(ACCOUNTS, INITIAL)
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 10.0, 40).with_limit(150)),
        )
        .build();
    settle_and_check(&mut cluster, 90);
}

#[test]
fn slow_wan_with_scaled_timeouts_works() {
    // 30–80 ms one-way latency with timeouts scaled to match.
    let mut cluster = ClusterBuilder::new(3, Directory::Mod(3))
        .seed(79)
        .net(NetConfig {
            min_delay: SimDuration::from_millis(30),
            jitter: SimDuration::from_millis(50),
            ..NetConfig::default()
        })
        .engine(EngineConfig {
            read_timeout: SimDuration::from_millis(800),
            ready_timeout: SimDuration::from_millis(800),
            wait_timeout: SimDuration::from_millis(600),
            read_lease: SimDuration::from_secs(3),
            ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
        })
        .uniform_items(ACCOUNTS, INITIAL)
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 5.0, 40).with_limit(100)),
        )
        .build();
    settle_and_check(&mut cluster, 90);
    assert!(cluster.world.metrics().counter("txn.committed") > 60);
}

#[test]
fn expired_read_lease_forces_prepare_nack() {
    // A coordinator stalled by a partition during its read phase comes back
    // after the participant's lease expired; its Prepare must be refused,
    // not applied over stale reads.
    let mut cluster = ClusterBuilder::new(2, Directory::Mod(2))
        .seed(80)
        .net(NetConfig::instant())
        .engine(EngineConfig {
            // Coordinator far more patient than the participant's lease.
            read_timeout: SimDuration::from_secs(5),
            ready_timeout: SimDuration::from_secs(5),
            read_lease: SimDuration::from_millis(100),
            ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
        })
        .item(ItemId(0), Value::Int(INITIAL))
        .item(ItemId(1), Value::Int(INITIAL))
        .client(
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
            Box::new(Script::new(
                vec![TransactionSpec::transfer(0, 1, 50)],
                SimDuration::from_millis(1),
            )),
        )
        .build();
    // Let the ReadReq reach site 1 and the ReadResp start back, then cut the
    // link so the coordinator's Prepare is delayed past the lease.
    let mut guard = 0;
    while cluster.world.metrics().counter("net.delivered") < 3 {
        let t = SimTime(cluster.world.now().as_micros() + 1);
        cluster.run_until(t);
        guard += 1;
        assert!(guard < 1_000_000);
    }
    let now = cluster.world.now();
    cluster.world.schedule_partition(now, NodeId(0), NodeId(1));
    cluster
        .world
        .schedule_heal(now + SimDuration::from_millis(500), NodeId(0), NodeId(1));
    cluster.run_until(SimTime::from_secs(10));
    // Either the coordinator's reads never completed (timeout abort) or the
    // Prepare was nacked after the expired lease — never a stale commit.
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(pv_core::Entry::Simple(Value::Int(INITIAL)))
    );
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(pv_core::Entry::Simple(Value::Int(INITIAL)))
    );
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 2 * INITIAL);
    assert!(cluster.all_quiescent());
}

#[test]
fn repeated_crashes_of_every_site_converge() {
    // Every site crashes twice during the run.
    let mut cluster = ClusterBuilder::new(3, Directory::Mod(3))
        .seed(81)
        .net(NetConfig::default())
        .engine(EngineConfig::with_protocol(CommitProtocol::Polyvalue))
        .uniform_items(ACCOUNTS, INITIAL)
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 15.0, 40).with_limit(200)),
        )
        .build();
    for s in 0..3u32 {
        for round in 0..2u64 {
            let at = SimTime::from_millis(1_000 + s as u64 * 1_500 + round * 5_000);
            cluster.world.schedule_crash(at, NodeId(s));
            cluster
                .world
                .schedule_recover(at + SimDuration::from_millis(700), NodeId(s));
        }
    }
    settle_and_check(&mut cluster, 60);
    assert_eq!(cluster.world.metrics().counter("node.crashes"), 6);
}

#[test]
fn duplicating_and_reordering_network_converges() {
    // 10 % of messages delivered twice and a 15 ms reorder window on top of
    // 2 % loss: duplicated Prepares, Decisions, and OutcomeNotifies must be
    // idempotent, and overtaking must not wedge the protocol.
    let mut cluster = ClusterBuilder::new(3, Directory::Mod(3))
        .seed(83)
        .net(NetConfig {
            drop_prob: 0.02,
            dup_prob: 0.10,
            reorder_window: SimDuration::from_millis(15),
            ..NetConfig::default()
        })
        .engine(EngineConfig::with_protocol(CommitProtocol::Polyvalue))
        .uniform_items(ACCOUNTS, INITIAL)
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 15.0, 40).with_limit(200)),
        )
        .build();
    settle_and_check(&mut cluster, 60);
    let m = cluster.world.metrics();
    assert!(m.counter("net.duplicated") > 0, "duplication must have occurred");
    assert!(m.counter("txn.committed") > 80, "progress despite duplication");
}

#[test]
fn duplicated_prepare_while_staged_is_answered_not_restaged() {
    // Forge a duplicate Prepare for a transaction the participant has
    // already staged-and-decided: the stale duplicate must be refused (the
    // lease is gone), and state must not change.
    let mut cluster = ClusterBuilder::new(2, Directory::Mod(2))
        .seed(84)
        .net(NetConfig::instant())
        .engine(EngineConfig::with_protocol(CommitProtocol::Polyvalue))
        .item(ItemId(0), Value::Int(INITIAL))
        .item(ItemId(1), Value::Int(INITIAL))
        .client(
            ClientConfig::default(),
            Box::new(Script::new(
                vec![TransactionSpec::transfer(0, 1, 50)],
                SimDuration::from_millis(1),
            )),
        )
        .build();
    cluster.run_until(SimTime::from_secs(1));
    let before1 = cluster.item_entry(ItemId(1));
    let txn = pv_engine::encode_txn(0, 0, 1);
    cluster.world.send_from_env(
        NodeId(1),
        pv_engine::Msg::Prepare {
            txn,
            writes: vec![(ItemId(1), pv_core::Entry::Simple(Value::Int(999)))],
        },
    );
    cluster.run_until(SimTime::from_secs(2));
    assert_eq!(cluster.item_entry(ItemId(1)), before1, "stale Prepare applied");
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 2 * INITIAL);
    assert!(cluster.all_quiescent());
}

#[test]
fn duplicate_decisions_and_notifies_are_idempotent() {
    // Run a normal commit, then replay its Decision and an OutcomeNotify at
    // the participant: state must not change.
    let mut cluster = ClusterBuilder::new(2, Directory::Mod(2))
        .seed(82)
        .net(NetConfig::instant())
        .engine(EngineConfig::with_protocol(CommitProtocol::Polyvalue))
        .item(ItemId(0), Value::Int(INITIAL))
        .item(ItemId(1), Value::Int(INITIAL))
        .client(
            ClientConfig::default(),
            Box::new(Script::new(
                vec![TransactionSpec::transfer(0, 1, 50)],
                SimDuration::from_millis(1),
            )),
        )
        .build();
    cluster.run_until(SimTime::from_secs(1));
    let before0 = cluster.item_entry(ItemId(0));
    let before1 = cluster.item_entry(ItemId(1));
    // Forge duplicates for a transaction id the coordinator actually used.
    let txn = pv_engine::encode_txn(0, 0, 1);
    cluster.world.send_from_env(
        NodeId(1),
        pv_engine::Msg::Decision {
            txn,
            completed: true,
        },
    );
    cluster.world.send_from_env(
        NodeId(1),
        pv_engine::Msg::OutcomeNotify {
            txn,
            completed: true,
        },
    );
    cluster.run_until(SimTime::from_secs(2));
    assert_eq!(cluster.item_entry(ItemId(0)), before0);
    assert_eq!(cluster.item_entry(ItemId(1)), before1);
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 2 * INITIAL);
}
