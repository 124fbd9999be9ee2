//! End-to-end protocol tests on a simulated cluster.

use pv_core::{Entry, Expr, ItemId, TransactionSpec, Value};
use pv_engine::{
    coordinator_of, ClientConfig, Cluster, ClusterBuilder, CommitProtocol, Directory, EngineConfig,
    Script, Topology, TxnResult,
};
use pv_simnet::{NetConfig, NodeId, SimDuration, SimTime, TraceEvent};

/// Transfer `amt` from `from` to `to` if funds suffice.
fn transfer(from: u64, to: u64, amt: i64) -> TransactionSpec {
    let (f, t) = (ItemId(from), ItemId(to));
    TransactionSpec::new()
        .guard(Expr::read(f).ge(Expr::int(amt)))
        .update(f, Expr::read(f).sub(Expr::int(amt)))
        .update(t, Expr::read(t).add(Expr::int(amt)))
        .output("granted", Expr::read(f).ge(Expr::int(amt)))
}

fn balance_query(item: u64) -> TransactionSpec {
    TransactionSpec::new().output("balance", Expr::read(ItemId(item)))
}

/// Two sites, two items (item 0 at site 0, item 1 at site 1), one scripted
/// client.
fn two_site_cluster(specs: Vec<TransactionSpec>, protocol: CommitProtocol) -> Cluster {
    ClusterBuilder::new(2, Directory::Mod(2))
        .seed(7)
        .net(NetConfig::instant())
        .engine(EngineConfig::with_protocol(protocol))
        .item(ItemId(0), Value::Int(100))
        .item(ItemId(1), Value::Int(100))
        .client(
            // No retries: these scenarios assert the fate of the *first*
            // attempt; a retry after the heal would re-run the transfer.
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
            Box::new(Script::new(specs, SimDuration::from_millis(10))),
        )
        .build()
}

fn run_secs(cluster: &mut Cluster, s: u64) {
    let t = cluster.world.now() + SimDuration::from_secs(s);
    cluster.run_until(t);
}

#[test]
fn transfer_commits_and_moves_money() {
    let mut cluster = two_site_cluster(vec![transfer(0, 1, 30)], CommitProtocol::Polyvalue);
    run_secs(&mut cluster, 2);
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(Entry::Simple(Value::Int(70)))
    );
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(130)))
    );
    let results = cluster.client(0).unwrap().results();
    assert_eq!(results.len(), 1);
    assert!(results[0].1.is_committed());
    assert!(results[0].1.fully_granted());
    assert!(cluster.all_quiescent());
    assert_eq!(cluster.world.metrics().counter("txn.committed"), 1);
    assert_eq!(cluster.world.metrics().counter("relaxed.violations"), 0);
}

#[test]
fn insufficient_funds_is_denied_not_aborted() {
    let mut cluster = two_site_cluster(vec![transfer(0, 1, 500)], CommitProtocol::Polyvalue);
    run_secs(&mut cluster, 2);
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(Entry::Simple(Value::Int(100)))
    );
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(100)))
    );
    let results = cluster.client(0).unwrap().results();
    assert_eq!(results.len(), 1);
    assert!(
        results[0].1.is_committed(),
        "denied is still a completed txn"
    );
    assert!(!results[0].1.fully_granted());
    assert_eq!(cluster.world.metrics().counter("txn.denied"), 1);
    assert!(cluster.all_quiescent());
}

#[test]
fn read_only_query_returns_balance() {
    let mut cluster = two_site_cluster(vec![balance_query(1)], CommitProtocol::Polyvalue);
    run_secs(&mut cluster, 2);
    let results = cluster.client(0).unwrap().results();
    assert_eq!(results.len(), 1);
    match &results[0].1 {
        TxnResult::Committed { outputs, .. } => {
            assert_eq!(
                outputs[0],
                ("balance".to_string(), Entry::Simple(Value::Int(100)))
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(cluster.all_quiescent());
}

#[test]
fn sequential_transfers_conserve_money() {
    let specs = vec![
        transfer(0, 1, 10),
        transfer(1, 0, 5),
        transfer(0, 1, 20),
        transfer(1, 0, 100),
        transfer(0, 1, 1), // guard may deny depending on order; still conserves
    ];
    let mut cluster = two_site_cluster(specs, CommitProtocol::Polyvalue);
    run_secs(&mut cluster, 5);
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 200);
    assert!(cluster.all_quiescent());
}

/// Drives a transfer until the participant at site 1 has staged (wait phase),
/// then cuts the 0↔1 link. Returns the cluster mid-partition.
///
/// `after_decision` selects the flavour: `false` cuts before the coordinator
/// received `ready` (outcome will be abort), `true` cuts right after the
/// coordinator decided complete (participant misses the decision).
fn in_doubt_scenario(protocol: CommitProtocol, after_decision: bool) -> Cluster {
    let mut cluster = two_site_cluster(vec![transfer(0, 1, 30)], protocol);
    let (a, b) = (NodeId(0), NodeId(1));
    let mut guard = 0;
    loop {
        let t = SimTime(cluster.world.now().as_micros() + 1);
        cluster.run_until(t);
        guard += 1;
        assert!(guard < 1_000_000, "scenario never reached the target state");
        if after_decision {
            if cluster.world.metrics().counter("txn.committed") >= 1 {
                break;
            }
        } else if !cluster.site(1).unwrap().store().pending_txns().is_empty() {
            break;
        }
    }
    let now = cluster.world.now();
    cluster.world.schedule_partition(now, a, b);
    cluster
}

#[test]
fn partition_before_ready_installs_polyvalue_then_aborts_on_heal() {
    let mut cluster = in_doubt_scenario(CommitProtocol::Polyvalue, false);
    // Let the wait timeout fire at site 1: the in-doubt polyvalue appears.
    run_secs(&mut cluster, 1);
    assert_eq!(cluster.site(1).unwrap().poly_count(), 1, "item 1 should be in doubt");
    let entry = cluster.item_entry(ItemId(1)).unwrap();
    let poly = entry.as_poly().expect("polyvalue installed");
    let values: Vec<&Value> = poly.values().collect();
    assert!(values.contains(&&Value::Int(100)) && values.contains(&&Value::Int(130)));
    // Coordinator timed out on ready and aborted; item 0 is unchanged.
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(Entry::Simple(Value::Int(100)))
    );
    // Heal; the inquiry protocol resolves the polyvalue to the old value.
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    run_secs(&mut cluster, 5);
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(100)))
    );
    assert_eq!(cluster.total_poly_count(), 0);
    assert!(cluster.all_quiescent());
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 200);
}

#[test]
fn partition_after_decision_installs_polyvalue_then_completes_on_heal() {
    let mut cluster = in_doubt_scenario(CommitProtocol::Polyvalue, true);
    run_secs(&mut cluster, 1);
    // The coordinator committed: item 0 already shows the debit, the client
    // has its reply, and item 1 is in doubt.
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(Entry::Simple(Value::Int(70)))
    );
    assert!(cluster.client(0).unwrap().results()[0].1.is_committed());
    assert_eq!(cluster.site(1).unwrap().poly_count(), 1);
    // During the failure, processing at site 1 continues: a credit check
    // against the uncertain balance still yields a *simple* answer (§3.4).
    let entry = cluster.item_entry(ItemId(1)).unwrap();
    assert!(entry.is_poly());
    assert!(*entry.min_value() >= Value::Int(100));
    // Heal: the outcome (complete) propagates and the credit lands.
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    run_secs(&mut cluster, 5);
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(130)))
    );
    assert_eq!(cluster.total_poly_count(), 0);
    assert!(cluster.all_quiescent());
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 200);
}

#[test]
fn polytransaction_processes_in_doubt_item_during_partition() {
    let mut cluster = in_doubt_scenario(CommitProtocol::Polyvalue, true);
    run_secs(&mut cluster, 1);
    assert_eq!(cluster.site(1).unwrap().poly_count(), 1);
    // While the partition is up, submit a transaction that *updates* the
    // in-doubt item: a deposit of 7 into item 1, coordinated at site 1.
    // It must proceed (that is the whole point of polyvalues).
    let deposit = TransactionSpec::new()
        .update(ItemId(1), Expr::read(ItemId(1)).add(Expr::int(7)))
        .output("after", Expr::read(ItemId(1)));
    cluster.world.send_from_env(
        NodeId(1),
        pv_engine::Msg::Submit {
            req_id: 99,
            spec: deposit,
        },
    );
    run_secs(&mut cluster, 2);
    // It committed as a polytransaction: item 1 now holds {137/T, 107/¬T}.
    let entry = cluster.item_entry(ItemId(1)).unwrap();
    let poly = entry.as_poly().expect("still uncertain, but updated");
    let values: Vec<&Value> = poly.values().collect();
    assert!(values.contains(&&Value::Int(137)), "values: {values:?}");
    assert!(values.contains(&&Value::Int(107)), "values: {values:?}");
    assert!(cluster.world.metrics().counter("txn.polytransactions") >= 1);
    // Heal: T completed, so the deposit lands on top of the credit.
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    run_secs(&mut cluster, 5);
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(137)))
    );
    assert_eq!(cluster.total_poly_count(), 0);
    assert!(cluster.all_quiescent());
}

#[test]
fn blocking_protocol_keeps_item_locked_during_doubt() {
    let mut cluster = in_doubt_scenario(CommitProtocol::Blocking2pc, true);
    run_secs(&mut cluster, 1);
    // No polyvalue is installed; the item stays at its old value and locked.
    assert_eq!(cluster.site(1).unwrap().poly_count(), 0);
    assert!(cluster.world.metrics().counter("blocking.stalls") >= 1);
    // A deposit against the blocked item cannot proceed.
    let deposit = TransactionSpec::new().update(ItemId(1), Expr::read(ItemId(1)).add(Expr::int(7)));
    cluster.world.send_from_env(
        NodeId(1),
        pv_engine::Msg::Submit {
            req_id: 99,
            spec: deposit,
        },
    );
    run_secs(&mut cluster, 2);
    assert!(
        cluster.world.metrics().counter("lock.conflicts") >= 1,
        "the deposit must hit the lock held by the in-doubt transaction"
    );
    assert!(cluster.item_entry(ItemId(1)).unwrap().is_simple());
    // Heal: outcome arrives, lock releases, and the item settles at 130.
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    run_secs(&mut cluster, 5);
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(130)))
    );
    assert!(cluster.all_quiescent());
}

#[test]
fn relaxed_protocol_can_violate_atomicity() {
    // Unilateral *abort* while the coordinator committed: the credit is lost.
    let mut cluster = in_doubt_scenario(CommitProtocol::Relaxed { complete_prob: 0.0 }, true);
    run_secs(&mut cluster, 1);
    assert_eq!(
        cluster.site(1).unwrap().poly_count(),
        0,
        "relaxed never makes polyvalues"
    );
    assert!(cluster.world.metrics().counter("relaxed.unilateral") >= 1);
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    run_secs(&mut cluster, 5);
    // Money vanished: 70 + 100 ≠ 200.
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(Entry::Simple(Value::Int(70)))
    );
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(100)))
    );
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 170);
    assert!(cluster.world.metrics().counter("relaxed.violations") >= 1);
}

#[test]
fn participant_crash_recovers_staging_from_wal() {
    let mut cluster = in_doubt_scenario(CommitProtocol::Polyvalue, true);
    // Crash site 1 while it is in doubt (before its wait timeout).
    let now = cluster.world.now();
    cluster
        .world
        .schedule_crash(now + SimDuration::from_micros(10), NodeId(1));
    cluster
        .world
        .schedule_recover(now + SimDuration::from_millis(50), NodeId(1));
    run_secs(&mut cluster, 1);
    // After recovery the staged transaction resumed and (still partitioned)
    // timed out into a polyvalue.
    assert_eq!(cluster.site(1).unwrap().poly_count(), 1);
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    run_secs(&mut cluster, 5);
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(130)))
    );
    assert!(cluster.all_quiescent());
    assert_eq!(cluster.sum_items((0..2).map(ItemId)).unwrap(), 200);
}

#[test]
fn coordinator_crash_leads_to_presumed_abort() {
    // Cut before ready, so the coordinator never decides; then crash it and
    // recover it. The participant's inquiry must get "presumed abort".
    let mut cluster = in_doubt_scenario(CommitProtocol::Polyvalue, false);
    let now = cluster.world.now();
    cluster
        .world
        .schedule_crash(now + SimDuration::from_micros(5), NodeId(0));
    cluster
        .world
        .schedule_recover(now + SimDuration::from_millis(100), NodeId(0));
    cluster
        .world
        .schedule_heal(now + SimDuration::from_millis(200), NodeId(0), NodeId(1));
    run_secs(&mut cluster, 6);
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(Entry::Simple(Value::Int(100)))
    );
    assert_eq!(
        cluster.item_entry(ItemId(1)),
        Ok(Entry::Simple(Value::Int(100)))
    );
    assert_eq!(cluster.total_poly_count(), 0);
    assert!(cluster.all_quiescent());
}

#[test]
fn credit_authorization_on_polyvalue_yields_simple_answer() {
    let mut cluster = in_doubt_scenario(CommitProtocol::Polyvalue, true);
    run_secs(&mut cluster, 1);
    assert!(cluster.item_entry(ItemId(1)).unwrap().is_poly());
    // Authorize a charge of 50 against the uncertain balance {100, 130}:
    // every alternative suffices, so the answer is certain (§3.4/§5).
    let auth = TransactionSpec::new().output("ok", Expr::read(ItemId(1)).ge(Expr::int(50)));
    cluster.world.send_from_env(
        NodeId(1),
        pv_engine::Msg::Submit {
            req_id: 42,
            spec: auth,
        },
    );
    run_secs(&mut cluster, 1);
    let m = cluster.world.metrics();
    assert!(m.counter("txn.polytransactions") >= 1);
    assert_eq!(
        m.counter("txn.uncertain_output"),
        0,
        "a loosely-dependent output must come out simple"
    );
}

#[test]
fn withhold_policy_delays_uncertain_replies_until_resolution() {
    use pv_engine::{EngineConfig, UncertainOutputPolicy};
    // Same in-doubt setup, but with the §3.4 Withhold policy and a client
    // that queries the uncertain balance.
    let transfer = transfer(0, 1, 30);
    let query = balance_query(1);
    let mut cluster = ClusterBuilder::new(2, Directory::Mod(2))
        .seed(7)
        .net(NetConfig::instant())
        .engine(EngineConfig {
            uncertain_outputs: UncertainOutputPolicy::Withhold,
            ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
        })
        .item(ItemId(0), Value::Int(100))
        .item(ItemId(1), Value::Int(100))
        .client(
            ClientConfig {
                max_retries: 0,
                response_timeout: SimDuration::from_secs(60),
                ..ClientConfig::default()
            },
            // The query arrives 2 s in, while item 1 is in doubt.
            Box::new(Script::new(
                vec![transfer, query],
                SimDuration::from_secs(2),
            )),
        )
        .build();
    // Let the transfer commit (the script submits it at t = 2 s), then cut
    // the link before the decision reaches site 1. Skip close to the
    // submission first, then probe at microsecond granularity.
    cluster.run_until(SimTime::from_millis(1_990));
    let mut guard = 0;
    loop {
        let t = SimTime(cluster.world.now().as_micros() + 1);
        cluster.run_until(t);
        guard += 1;
        assert!(guard < 1_000_000);
        if cluster.world.metrics().counter("txn.committed") >= 1 {
            break;
        }
    }
    let now = cluster.world.now();
    cluster.world.schedule_partition(now, NodeId(0), NodeId(1));
    // The query runs at ~2 s against the polyvalued balance; its answer is
    // uncertain, so the coordinator withholds it.
    cluster.run_until(SimTime::from_secs(5));
    assert_eq!(cluster.world.metrics().counter("txn.withheld"), 1);
    assert_eq!(cluster.world.metrics().counter("txn.withheld_released"), 0);
    // The client has its transfer result but is still waiting on the query.
    assert_eq!(cluster.client(0).unwrap().results().len(), 1);
    assert_eq!(cluster.client(0).unwrap().outstanding_count(), 1);
    // Heal: the outcome resolves the balance, the withheld reply releases
    // with a *simple* value.
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    cluster.run_until(now + SimDuration::from_secs(5));
    assert_eq!(cluster.world.metrics().counter("txn.withheld_released"), 1);
    let results = cluster.client(0).unwrap().results();
    assert_eq!(results.len(), 2);
    match &results[1].1 {
        TxnResult::Committed { outputs, .. } => {
            assert_eq!(
                outputs[0],
                ("balance".to_string(), Entry::Simple(Value::Int(130)))
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(cluster.all_quiescent());
}

#[test]
fn static_checks_gate_rejects_ill_typed_specs() {
    use pv_engine::AbortReason;
    // First spec is statically wrong (int + bool), second is fine: the gate
    // must reject the first without protocol work and pass the second.
    let bad = TransactionSpec::new().update(ItemId(0), Expr::int(1).add(Expr::bool(true)));
    let topo = pv_engine::Topology::new(2, Directory::Mod(2)).static_checks();
    let mut cluster = ClusterBuilder::from_topology(topo)
        .seed(7)
        .net(NetConfig::instant())
        .item(ItemId(0), Value::Int(100))
        .item(ItemId(1), Value::Int(100))
        .client(
            ClientConfig {
                max_retries: 3,
                ..ClientConfig::default()
            },
            Box::new(Script::new(
                vec![bad, transfer(0, 1, 30)],
                SimDuration::from_millis(10),
            )),
        )
        .build();
    run_secs(&mut cluster, 2);
    let results = cluster.client(0).unwrap().results();
    assert_eq!(results.len(), 2);
    match &results[0].1 {
        TxnResult::Aborted {
            reason: AbortReason::Rejected(report),
        } => assert!(report.contains("PV001"), "report: {report}"),
        other => panic!("expected static rejection, got {other:?}"),
    }
    assert!(results[1].1.is_committed());
    // The rejection is not retried (it is final) and never reaches
    // evaluation: exactly one commit, one rejection, no eval aborts.
    assert_eq!(cluster.world.metrics().counter("txn.rejected.static"), 1);
    assert_eq!(cluster.world.metrics().counter("txn.committed"), 1);
    assert_eq!(cluster.world.metrics().counter("txn.aborted.eval"), 0);
    assert_eq!(cluster.world.metrics().counter("client.retries"), 0);
    assert_eq!(
        cluster.item_entry(ItemId(0)),
        Ok(Entry::Simple(Value::Int(70)))
    );
    assert!(cluster.all_quiescent());
}

/// Snapshot reads on the simulated runtime: coordination-free (no lock or
/// protocol counters move, no messages appear in the trace) and fully
/// deterministic — two same-seed runs that interleave a snapshot read
/// produce byte-identical traces.
#[test]
fn sim_snapshot_reads_are_coordination_free_and_deterministic() {
    let run = || {
        let mut cluster = ClusterBuilder::new(2, Directory::Mod(2))
            .seed(11)
            .net(NetConfig::instant())
            .engine(EngineConfig::default())
            .item(ItemId(0), Value::Int(100))
            .item(ItemId(1), Value::Int(100))
            .client(
                ClientConfig::default(),
                Box::new(Script::new(
                    vec![transfer(0, 1, 30)],
                    SimDuration::from_millis(10),
                )),
            )
            .collect_trace()
            .build();
        run_secs(&mut cluster, 2);

        let before: Vec<u64> = ["lock.conflicts", "lock.queued", "txn.submitted", "inquire.sent"]
            .iter()
            .map(|c| cluster.world.metrics().counter(c))
            .collect();
        let (snap, entries) = cluster.snapshot_read(0, &[ItemId(0)]).expect("snapshot read");
        assert!(snap > 0);
        assert_eq!(entries, vec![(ItemId(0), Entry::Simple(Value::Int(70)))]);
        // Empty item list = full scan of the site's keyspace.
        let (_, all) = cluster.snapshot_read(1, &[]).expect("full scan");
        assert_eq!(all, vec![(ItemId(1), Entry::Simple(Value::Int(130)))]);
        let after: Vec<u64> = ["lock.conflicts", "lock.queued", "txn.submitted", "inquire.sent"]
            .iter()
            .map(|c| cluster.world.metrics().counter(c))
            .collect();
        assert_eq!(before, after, "snapshot reads touched protocol counters");
        assert_eq!(cluster.world.metrics().counter("store.snapshot_reads"), 2);

        let text = cluster.trace().to_text();
        assert!(
            text.contains("snapshot_read site=s0"),
            "trace records the read: {text}"
        );
        text
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed runs with snapshot reads diverged");
}

#[test]
fn sim_rebuilt_over_a_data_dir_replays_cold_recovery() {
    // Tests must not write outside the repository.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/engine-e2e/cold_start");
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Topology::new(2, Directory::Mod(2))
        .item(ItemId(0), Value::Int(100))
        .item(ItemId(1), Value::Int(100))
        .data_dir(&dir)
        .collect_trace();
    // One incarnation of the cluster: a single committed transfer. Returns
    // the first transaction id it decided and its coordinator's epoch.
    let life = |amt: i64| {
        let mut cluster = ClusterBuilder::from_topology(topo.clone())
            .seed(7)
            .net(NetConfig::instant())
            .client(
                ClientConfig::default(),
                Box::new(Script::new(vec![transfer(0, 1, amt)], SimDuration::from_millis(10))),
            )
            .build();
        run_secs(&mut cluster, 2);
        let results = cluster.client(0).unwrap().results();
        assert!(results[0].1.is_committed());
        let decided = cluster
            .trace()
            .records()
            .iter()
            .find_map(|r| match r.event {
                TraceEvent::Decided { txn, .. } => Some(txn),
                _ => None,
            })
            .expect("a decision was traced");
        let coordinator = coordinator_of(pv_core::TxnId(decided));
        (decided, cluster.site(coordinator).unwrap().store().epoch())
    };
    let (first, first_epoch) = life(30);
    assert_eq!(first_epoch, 0);
    // The second incarnation opens the first one's WALs: it must recover
    // (fresh epoch) before minting ids, or it would reuse one whose decision
    // record is already durable.
    let (second, second_epoch) = life(5);
    assert!(second_epoch >= 1, "epoch {second_epoch}");
    assert_ne!(first, second);
}
