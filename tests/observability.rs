//! Integration tests for the observability layer: trace determinism and
//! the agreement between trace events and phase-latency histograms.

use polyvalues::prelude::*;

/// Builds a two-site cluster, commits a cross-site transfer at site 0, cuts
/// the link before site 1 hears the decision (installing a polyvalue on its
/// wait timeout), then heals and settles. Crash-free, so every installed
/// polyvalue is collapsed by outcome propagation.
fn traced_in_doubt_run(seed: u64) -> Cluster {
    let transfer = TransactionSpec::new()
        .guard(Expr::read(ItemId(0)).ge(Expr::int(30)))
        .update(ItemId(0), Expr::read(ItemId(0)).sub(Expr::int(30)))
        .update(ItemId(1), Expr::read(ItemId(1)).add(Expr::int(30)));
    let mut cluster = ClusterBuilder::new(2, Directory::Mod(2))
        .seed(seed)
        .net(NetConfig::default())
        .engine(CommitProtocol::Polyvalue)
        .item(0u64, 100i64)
        .item(1u64, 100i64)
        .collect_trace()
        .client(
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
            Box::new(Script::new(vec![transfer], SimDuration::from_millis(1))),
        )
        .build();
    // Step one microsecond at a time until the coordinator decides, then
    // partition before the decision reaches the participant.
    while cluster.world.metrics().counter("txn.committed") < 1 {
        let next = SimTime(cluster.world.now().as_micros() + 1);
        cluster.run_until(next);
    }
    let now = cluster.world.now();
    cluster.world.schedule_partition(now, NodeId(0), NodeId(1));
    cluster.run_until(now + SimDuration::from_secs(1));
    let now = cluster.world.now();
    cluster.world.schedule_heal(now, NodeId(0), NodeId(1));
    cluster.run_until(now + SimDuration::from_secs(5));
    cluster
}

#[test]
fn same_seed_runs_produce_byte_identical_traces() {
    let a = traced_in_doubt_run(42);
    let b = traced_in_doubt_run(42);
    let text_a = a.trace().to_text();
    let text_b = b.trace().to_text();
    assert!(!text_a.is_empty(), "the run must emit trace events");
    assert_eq!(
        text_a.as_bytes(),
        text_b.as_bytes(),
        "same-seed runs must serialize to identical trace streams"
    );
    // A different seed perturbs network timing, so the streams diverge —
    // the equality above is not vacuous.
    let c = traced_in_doubt_run(43);
    assert_ne!(text_a, c.trace().to_text());
}

#[test]
fn poly_lifetime_histogram_matches_trace_events() {
    let cluster = traced_in_doubt_run(7);
    assert_eq!(cluster.total_poly_count(), 0, "uncertainty must resolve");
    let trace = cluster.trace();
    let installed = trace.count(|e| matches!(e, TraceEvent::PolyvalueInstalled { .. }));
    let collapsed = trace.count(|e| matches!(e, TraceEvent::PolyvalueCollapsed { .. }));
    assert!(installed > 0, "the partition must have left a polyvalue");
    assert_eq!(installed, collapsed, "crash-free: every install collapses");
    let lifetimes = cluster
        .world
        .metrics()
        .histogram("poly.lifetime")
        .expect("lifetime histogram populated");
    assert_eq!(
        lifetimes.count(),
        installed,
        "one lifetime observation per installed polyvalue"
    );
    // Collapse events carry the same lifetime the histogram observed.
    for r in trace.records() {
        if let TraceEvent::PolyvalueCollapsed { lifetime_us, .. } = r.event {
            assert!(lifetime_us > 0);
        }
    }
}

#[test]
fn trace_stream_orders_protocol_transitions() {
    let cluster = traced_in_doubt_run(11);
    let records = cluster.trace().records();
    let pos = |pred: &dyn Fn(&TraceEvent) -> bool| records.iter().position(|r| pred(&r.event));
    let submitted = pos(&|e| matches!(e, TraceEvent::TxnSubmitted { .. })).unwrap();
    let prepared = pos(&|e| matches!(e, TraceEvent::Prepared { .. })).unwrap();
    let decided = pos(&|e| matches!(e, TraceEvent::Decided { .. })).unwrap();
    let installed = pos(&|e| matches!(e, TraceEvent::PolyvalueInstalled { .. })).unwrap();
    let collapsed = pos(&|e| matches!(e, TraceEvent::PolyvalueCollapsed { .. })).unwrap();
    assert!(submitted < prepared && prepared < decided);
    assert!(decided < installed, "install happens after the lost decision");
    assert!(installed < collapsed);
    // Sequence numbers are dense and ordered.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64);
    }
}

#[test]
fn storage_metrics_flow_into_the_registry() {
    // A busy run with a tiny compaction threshold and a mid-run crash must
    // surface the whole durability surface in the metrics registry: WAL
    // traffic, compaction, and recovery replay.
    let mut cluster = ClusterBuilder::new(3, Directory::Mod(3))
        .seed(9)
        .net(NetConfig::default())
        .engine(EngineConfig {
            compact_threshold: 16,
            ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
        })
        .uniform_items(12, 500)
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(12, 15.0, 40).with_limit(120)),
        )
        .build();
    let crash_at = SimTime::from_secs(2);
    cluster.world.schedule_crash(crash_at, NodeId(0));
    cluster
        .world
        .schedule_recover(crash_at + SimDuration::from_millis(700), NodeId(0));
    // Each site's seeded image is its first checkpoint: count from here.
    cluster.world.start();
    let seeded = cluster.world.metrics().counter("wal.compactions");
    cluster.run_until(SimTime::from_secs(60));
    assert_eq!(cluster.total_poly_count(), 0);
    assert_eq!(cluster.sum_items((0..12).map(ItemId)).unwrap(), 12 * 500);

    let m = cluster.world.metrics();
    assert!(m.counter("wal.bytes") > 0, "WAL traffic must be measured");
    assert!(m.counter("wal.appends") > 0);
    assert!(m.counter("wal.syncs") > 0);
    assert!(
        m.counter("wal.compactions") > seeded,
        "a 16-record threshold must force compactions in a 120-transfer run"
    );
    assert!(
        m.counter("recovery.replay_records") > 0,
        "the crashed site must replay its image on recovery"
    );
    // The recovery *duration* is wall-clock, so the simulation keeps it out
    // of its (byte-deterministic) metric exports; only the TCP runtime
    // observes it — see below.
    assert!(
        m.histogram("recovery.duration").is_none(),
        "wall-clock durations must not leak into deterministic sim metrics"
    );
}

#[test]
fn net_recovery_duration_histogram_is_observed() {
    use std::time::Duration;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/tmp/observability");
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Topology::new(2, Directory::Mod(2))
        .engine(CommitProtocol::Polyvalue)
        .items(vec![(ItemId(0), Value::Int(100)), (ItemId(1), Value::Int(100))])
        .data_dir(&dir);
    let deadline = Duration::from_secs(10);
    let transfer = TransactionSpec::new()
        .update(ItemId(0), Expr::read(ItemId(0)).sub(Expr::int(30)))
        .update(ItemId(1), Expr::read(ItemId(1)).add(Expr::int(30)));
    let first = NetCluster::from_topology(topo.clone()).unwrap();
    assert!(first.submit(0, &transfer, deadline).unwrap().is_committed());
    first.shutdown().unwrap();
    // New sites over the same directories: each replays its WAL at start-up.
    let second = NetCluster::from_topology(topo).unwrap();
    let m = second.metrics(deadline).unwrap();
    let recoveries = m
        .histogram("recovery.duration")
        .expect("cold recovery must observe a wall-clock duration");
    assert!(recoveries.count() >= 1, "one observation per recovery");
    assert!(m.counter("recovery.replay_records") > 0);
    assert_eq!(m.counter("net.cold_recoveries"), 2);
    second.shutdown().unwrap();
}
