//! Tests for the wound-wait lock policy (the no-wait alternative).

use pv_core::ItemId;
use pv_engine::{
    ClientConfig, Cluster, ClusterBuilder, CommitProtocol, Directory, EngineConfig, LockPolicy,
    RandomTransfers,
};
use pv_simnet::{FailureConfig, FailurePlan, NetConfig, SimRng, SimTime};

const ACCOUNTS: u64 = 6; // few accounts → heavy contention
const INITIAL: i64 = 1_000;

fn contended_cluster(policy: LockPolicy, seed: u64) -> Cluster {
    let mut builder = ClusterBuilder::new(3, Directory::Mod(3))
        .seed(seed)
        .net(NetConfig::default())
        .engine(EngineConfig {
            lock_policy: policy,
            ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
        })
        .uniform_items(ACCOUNTS, INITIAL);
    for _ in 0..3 {
        builder = builder.client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 30.0, 50).with_limit(250)),
        );
    }
    builder.build()
}

#[test]
fn wound_wait_conserves_under_contention() {
    let mut cluster = contended_cluster(LockPolicy::WoundWait, 91);
    cluster.run_until(SimTime::from_secs(40));
    assert_eq!(
        cluster.sum_items((0..ACCOUNTS).map(ItemId)).unwrap(),
        ACCOUNTS as i64 * INITIAL
    );
    assert_eq!(cluster.total_poly_count(), 0);
    assert!(cluster.all_quiescent());
    let m = cluster.world.metrics();
    // The policy must actually have been exercised.
    assert!(
        m.counter("lock.queued") > 0 || m.counter("lock.wounds") > 0,
        "contention must trigger queueing or wounding (queued {}, wounds {})",
        m.counter("lock.queued"),
        m.counter("lock.wounds"),
    );
    assert!(m.counter("txn.committed") > 400);
}

#[test]
fn wound_wait_reduces_client_visible_aborts() {
    let nowait = {
        let mut c = contended_cluster(LockPolicy::NoWait, 92);
        c.run_until(SimTime::from_secs(40));
        c
    };
    let woundwait = {
        let mut c = contended_cluster(LockPolicy::WoundWait, 92);
        c.run_until(SimTime::from_secs(40));
        c
    };
    let nw = nowait.world.metrics();
    let ww = woundwait.world.metrics();
    // Same workload, same seed: wound-wait absorbs conflicts in the queue
    // instead of bouncing them to the client.
    assert!(
        ww.counter("client.retries") < nw.counter("client.retries"),
        "wound-wait retries {} must undercut no-wait retries {}",
        ww.counter("client.retries"),
        nw.counter("client.retries"),
    );
    assert!(
        ww.counter("lock.queue_served") > 0,
        "queue must serve requests"
    );
    // Both conserve.
    assert_eq!(
        nowait.sum_items((0..ACCOUNTS).map(ItemId)).unwrap(),
        ACCOUNTS as i64 * INITIAL
    );
    assert_eq!(
        woundwait.sum_items((0..ACCOUNTS).map(ItemId)).unwrap(),
        ACCOUNTS as i64 * INITIAL
    );
}

#[test]
fn wound_wait_survives_chaos() {
    let mut cluster = contended_cluster(LockPolicy::WoundWait, 93);
    FailurePlan::poisson(
        FailureConfig {
            crash_rate_per_sec: 0.2,
            mean_downtime_secs: 0.8,
            horizon: SimTime::from_secs(12),
        },
        3,
        &mut SimRng::new(94),
    )
    .apply(&mut cluster.world);
    cluster.run_until(SimTime::from_secs(50));
    assert_eq!(
        cluster.sum_items((0..ACCOUNTS).map(ItemId)).unwrap(),
        ACCOUNTS as i64 * INITIAL
    );
    assert_eq!(cluster.total_poly_count(), 0);
    assert!(cluster.all_quiescent());
    assert!(cluster.world.metrics().counter("node.crashes") > 0);
}

#[test]
fn lock_decisions_are_deterministic() {
    // The lock table keys items in a seed-free hash map. If its iteration
    // order ever leaked into wound-victim choice or queue service order,
    // same-seed runs would diverge in their lock counters. Compare
    // full metric exports byte-for-byte, and require that both the wound and
    // the queue path actually ran (so the equality is not vacuous).
    let run = |seed| {
        let mut c = contended_cluster(LockPolicy::WoundWait, seed);
        c.run_until(SimTime::from_secs(40));
        let snapshot = c.world.metrics().snapshot();
        let m = c.world.metrics();
        assert!(m.counter("lock.queued") > 0, "workload must park requests");
        assert!(m.counter("lock.wounds") > 0, "workload must wound");
        snapshot.to_json()
    };
    assert_eq!(run(98), run(98));
}

#[test]
fn queued_requests_are_never_lost() {
    // No lost wakeups: every request parked in the wound-wait queue must
    // eventually be served, expired, or withdrawn by its coordinator. A lost
    // wakeup strands the coordinator forever, so the cluster would fail to
    // quiesce; a mis-served one breaks conservation.
    for seed in [101u64, 102, 103] {
        let mut cluster = contended_cluster(LockPolicy::WoundWait, seed);
        cluster.run_until(SimTime::from_secs(60));
        let m = cluster.world.metrics();
        assert!(
            m.counter("lock.queued") > 0,
            "seed {seed}: the contended workload must exercise the queue"
        );
        assert!(
            m.counter("lock.queue_served") > 0,
            "seed {seed}: releases must wake parked requests"
        );
        assert!(
            cluster.all_quiescent(),
            "seed {seed}: a lost wakeup leaves coordinators stuck"
        );
        assert_eq!(
            cluster.sum_items((0..ACCOUNTS).map(ItemId)).unwrap(),
            ACCOUNTS as i64 * INITIAL,
            "seed {seed}"
        );
        assert_eq!(cluster.total_poly_count(), 0, "seed {seed}");
    }
}

#[test]
fn lock_table_release_frees_every_item() {
    // Table-level no-lost-wakeup check: a blocker's release must free every
    // item it held so parked requesters can proceed, and `conflicts` must
    // keep reporting blockers in ascending TxnId order (the order wound-wait
    // uses to pick victims) whatever the hash-map layout.
    use pv_core::TxnId;
    use pv_engine::locks::LockTable;
    let mut table = LockTable::new();
    let blocker = TxnId(1);
    let items: Vec<ItemId> = (0..48).map(ItemId).collect();
    for &item in &items {
        assert!(table.try_write(blocker, item));
    }
    // Every would-be requester sees exactly the blocker, on every item.
    for &item in &items {
        assert_eq!(table.conflicts(TxnId(9), item, true), vec![blocker]);
        assert!(!table.try_read(TxnId(9), item));
    }
    // Shared readers on one item report in ascending order even when added
    // out of order.
    table.release_all(blocker);
    for t in [7u64, 3, 5] {
        assert!(table.try_read(TxnId(t), ItemId(0)));
    }
    assert_eq!(
        table.conflicts(TxnId(9), ItemId(0), true),
        vec![TxnId(3), TxnId(5), TxnId(7)]
    );
    for t in [3u64, 5, 7] {
        table.release_all(TxnId(t));
    }
    // After the release sweep, every item is acquirable: no stale lock
    // remains that would strand a parked request.
    for &item in &items {
        assert!(table.conflicts(TxnId(9), item, true).is_empty());
        assert!(table.try_write(TxnId(9), item), "item {item} stayed locked");
    }
    assert_eq!(table.release_all(TxnId(9)), items);
}

#[test]
fn wound_wait_never_wounds_staged_transactions() {
    // Indirect but load-bearing check: under chaos + contention, wound-wait
    // must never break atomicity, which it would if a staged (wait-phase)
    // transaction were wounded after its coordinator decided complete.
    for seed in [95u64, 96, 97] {
        let mut cluster = contended_cluster(LockPolicy::WoundWait, seed);
        FailurePlan::poisson(
            FailureConfig {
                crash_rate_per_sec: 0.3,
                mean_downtime_secs: 0.5,
                horizon: SimTime::from_secs(10),
            },
            3,
            &mut SimRng::new(seed ^ 1),
        )
        .apply(&mut cluster.world);
        cluster.run_until(SimTime::from_secs(45));
        assert_eq!(
            cluster.sum_items((0..ACCOUNTS).map(ItemId)).unwrap(),
            ACCOUNTS as i64 * INITIAL,
            "seed {seed}"
        );
        assert!(cluster.all_quiescent(), "seed {seed}");
    }
}
