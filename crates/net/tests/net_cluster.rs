//! Integration tests for the in-process socket cluster: real TCP between
//! event-loop threads, exercising the full wire path (codec, Hello routing,
//! pipelining, inspection, metrics, clean shutdown).

use pv_core::{Expr, ItemId, TransactionSpec};
use pv_engine::{CommitProtocol, Directory, EngineError, Topology};
use pv_net::backoff::Backoff;
use pv_net::proc::{balances, fast_config};
use pv_net::{LinkFaults, NetBuilder, NetCluster};
use std::time::{Duration, Instant};

/// How long a cluster gets to drain to quiescence with no polyvalues.
const SETTLE: Duration = Duration::from_secs(30);

fn bank_topology(sites: u32, accounts: u64) -> Topology {
    Topology::new(sites, Directory::Mod(sites))
        .engine(fast_config(CommitProtocol::Polyvalue))
        .uniform_items(accounts, 100)
}

#[test]
fn transfers_commit_and_conserve_over_tcp() {
    // A tiny checkpoint floor, so 20 transfers checkpoint every site's log.
    let topology = bank_topology(3, 6).compact_threshold(8);
    let cluster = NetCluster::from_topology(topology).expect("start");
    let deadline = Duration::from_secs(10);
    // Each site's seeded image is its first checkpoint: count from here.
    let seeded = cluster.metrics(deadline).expect("metrics at start");

    let committed = (0..20)
        .filter(|i| {
            let spec = TransactionSpec::transfer(i % 6, (i + 1) % 6, 5);
            cluster
                .submit((i % 3) as u32, &spec, deadline)
                .expect("submit")
                .is_committed()
        })
        .count();
    assert!(committed > 0, "no transfer committed");
    // A site id outside the topology is an error value, not a panic.
    let unknown = cluster.submit(9, &TransactionSpec::transfer(0, 1, 5), deadline);
    assert_eq!(unknown.err(), Some(EngineError::UnknownSite(9)));
    assert_eq!(cluster.inspect(9, deadline).err(), Some(EngineError::UnknownSite(9)));

    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, 600, "conservation over TCP");

    let metrics = cluster.metrics(deadline).expect("metrics");
    assert!(
        metrics.counter("txn.committed") > 0,
        "site-side commit counters travel the wire"
    );
    // So does the log's write amplification: checkpoints ran, and rewrote no
    // more than two records per record appended.
    let since_start = |name| metrics.counter(name) - seeded.counter(name);
    let rewritten = since_start("wal.checkpoint_records");
    let appended = since_start("wal.appends");
    assert!(since_start("wal.compactions") > 0 && rewritten > 0);
    assert!(
        rewritten <= 2 * appended,
        "{rewritten} records rewritten for {appended} appended"
    );

    let sites = cluster.shutdown().expect("clean shutdown");
    assert_eq!(sites.len(), 3);
    for site in &sites {
        assert!(site.is_quiescent());
    }
}

#[test]
fn every_site_starts_with_its_share_of_the_items() {
    const ITEMS: u64 = 65_536;
    let topo = bank_topology(3, ITEMS);
    let seeded = topo.seeded_int_total();
    let cluster = NetCluster::from_topology(topo).expect("start cluster");
    let snaps = cluster.settle(SETTLE).expect("a fresh cluster is settled");
    for (s, snap) in snaps.iter().enumerate() {
        let share: Vec<ItemId> = (0..ITEMS).filter(|i| i % 3 == s as u64).map(ItemId).collect();
        let held: Vec<ItemId> = snap.items.iter().map(|(item, _)| *item).collect();
        assert_eq!(held, share, "site {s} holds exactly its share");
    }
    let total: i64 = balances(&snaps).expect("seeded ints").values().sum();
    assert_eq!(total, seeded);
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_clients_from_many_connections_conserve() {
    let cluster = NetCluster::from_topology(bank_topology(3, 8)).expect("start");
    let deadline = Duration::from_secs(10);

    let mut handles = Vec::new();
    for c in 0..4u64 {
        let mut client = cluster.client((c % 3) as u32).expect("client");
        handles.push(std::thread::spawn(move || {
            let mut committed = 0;
            for i in 0..15u64 {
                let from = (c * 3 + i) % 8;
                let to = (from + 1 + c) % 8;
                let spec = TransactionSpec::transfer(from, to, 3);
                // Lock conflicts abort under no-wait; that's a valid
                // outcome — conservation is the invariant under test.
                if let Ok(result) = client.submit(&spec, deadline) {
                    if result.is_committed() {
                        committed += 1;
                    }
                }
            }
            committed
        }));
    }
    let committed: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
    assert!(committed > 0, "nothing committed under contention");

    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, 800, "conservation under contention");
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn pipelined_submissions_all_reply() {
    let cluster = NetCluster::from_topology(bank_topology(2, 4)).expect("start");
    let mut client = cluster.client(0).expect("client");

    // Keep 16 transactions in flight on one connection, refilling the window
    // as each reply lands, until 300 have been sent. Refills issued while
    // replies are still buffered are deferred to the next read; every
    // request must still get exactly one reply routed back to this client.
    let (total, window) = (300u64, 16);
    let mut sent = 0;
    let mut pending: Vec<u64> = Vec::new();
    let limit = Instant::now() + Duration::from_secs(60);
    while sent < total || !pending.is_empty() {
        while pending.len() < window && sent < total {
            let spec = TransactionSpec::transfer(sent % 4, (sent + 1) % 4, 1);
            pending.push(client.submit_async(&spec).expect("submit_async"));
            sent += 1;
        }
        let remaining = limit.saturating_duration_since(Instant::now());
        assert!(!remaining.is_zero(), "replies missing: {pending:?}");
        let (req_id, _result) = client.recv_reply(remaining).expect("reply");
        let before = pending.len();
        pending.retain(|&p| p != req_id);
        assert_eq!(pending.len() + 1, before, "reply {req_id} answers no request in flight");
    }

    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, 400);
    let m = cluster.site_metrics(0, Duration::from_secs(5)).expect("metrics");
    for c in ["net.sock.reads", "net.sock.writes", "net.polls"] {
        assert!(m.counter(c) > 0, "{c} is counted");
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn an_unread_submit_still_commits() {
    let cluster = NetCluster::from_topology(bank_topology(2, 2)).expect("start");
    let deadline = Duration::from_secs(5);
    let committed = || cluster.metrics(deadline).expect("metrics").counter("txn.committed");
    let before = committed();

    // A fresh client's submit leaves at once: it needs no later read, flush
    // or drop to reach the site.
    let mut client = cluster.client(0).expect("client");
    client.submit_async(&TransactionSpec::transfer(0, 1, 5)).expect("submit_async");
    let limit = Instant::now() + Duration::from_secs(10);
    while committed() == before {
        assert!(Instant::now() < limit, "the unread submit never committed");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn short_lived_clients_leave_nothing_behind() {
    // A node serves many more connections than it holds at once (every
    // inspect, every load-generator client): a closed one must give up its
    // place, in the slab and in the wait set, to the next.
    let cluster = NetCluster::from_topology(bank_topology(2, 2)).expect("start");
    let deadline = Duration::from_secs(10);
    for _ in 0..200 {
        let mut client = cluster.client(0).expect("client");
        client.inspect(deadline).expect("inspect");
    }
    let mut last = cluster.client(0).expect("201st client");
    let result = last.submit(&TransactionSpec::transfer(0, 1, 5), deadline).expect("submit");
    assert!(result.is_committed(), "the 201st client is served like the first");

    // Site 0 now holds three inbound connections: site 1's link, `last`,
    // and the control connection `site_metrics` opens. The node learns of a
    // close when it reads the EOF, so give it a moment.
    let limit = Instant::now() + Duration::from_secs(5);
    loop {
        let m = cluster.site_metrics(0, deadline).expect("metrics");
        let live = m.counter("net.accepted") - m.counter("net.conn_closed");
        if live == 3 {
            break;
        }
        assert!(Instant::now() < limit, "{live} connections still counted live");
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn snapshot_reads_over_tcp_are_coordination_free() {
    let cluster = NetCluster::from_topology(bank_topology(2, 4)).expect("start");
    let deadline = Duration::from_secs(10);
    assert!(cluster
        .submit(0, &TransactionSpec::transfer(0, 1, 30), deadline)
        .expect("submit")
        .is_committed());
    cluster.settle(SETTLE).expect("cluster drains");

    let before = cluster.metrics(deadline).expect("metrics");
    // Named items read at one snapshot sequence number.
    let (snap, entries) = cluster
        .snapshot_read(0, &[ItemId(0), ItemId(2)], deadline)
        .expect("snapshot read");
    assert!(snap > 0);
    assert_eq!(entries.len(), 2);
    for (item, entry) in &entries {
        let n = entry.as_simple().and_then(|v| v.as_int()).expect("settled");
        match item.0 {
            0 => assert_eq!(n, 70),
            2 => assert_eq!(n, 100),
            other => panic!("unexpected item {other}"),
        }
    }
    // Empty list = full scan of the site's items.
    let (_, all) = cluster.snapshot_read(1, &[], deadline).expect("full scan");
    assert_eq!(all.len(), 2, "site 1 is home to items 1 and 3");

    let after = cluster.metrics(deadline).expect("metrics");
    assert_eq!(
        after.counter("store.snapshot_reads") - before.counter("store.snapshot_reads"),
        2
    );
    // Coordination-free: no lock-table traffic, no transactions or
    // protocol phases between the captures.
    for c in ["lock.conflicts", "lock.queued", "txn.submitted", "inquire.sent"] {
        assert_eq!(before.counter(c), after.counter(c), "{c} moved");
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn restart_resolves_stranded_polyvalue() {
    use pv_core::{Entry, Value};
    use pv_store::{DiskWal, FsyncPolicy, SiteStore};
    // Craft on-disk images of a cluster that died mid-uncertainty: the
    // coordinator (site 0) durably decided *complete* and applied its own
    // write, but the participant (site 1) crashed staged, never having
    // learned the outcome.
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/net-stranded");
    let _ = std::fs::remove_dir_all(&dir);
    let txn = pv_engine::encode_txn(0, 0, 1);
    {
        let wal = DiskWal::open(dir.join("site-0"), FsyncPolicy::PerDecision).unwrap();
        let mut coord = SiteStore::open(Box::new(wal));
        coord.seed_item(ItemId(0), Value::Int(70));
        coord.record_decision(txn, true);
        coord.sync();
    }
    {
        let wal = DiskWal::open(dir.join("site-1"), FsyncPolicy::PerDecision).unwrap();
        let mut part = SiteStore::open(Box::new(wal));
        part.seed_item(ItemId(1), Value::Int(100));
        part.stage(txn, 0, vec![(ItemId(1), Entry::Simple(Value::Int(130)))]);
        part.sync();
    }
    let cluster = NetCluster::from_topology(bank_topology(2, 2).data_dir(&dir)).expect("start");
    // Recovery re-stages the pending transaction, times out its wait phase
    // (installing an in-doubt polyvalue), inquires at the coordinator,
    // learns *complete*, and collapses the polyvalue into the staged value.
    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    assert_eq!(snaps[0].items, [(ItemId(0), Entry::Simple(Value::Int(70)))]);
    assert_eq!(snaps[1].items, [(ItemId(1), Entry::Simple(Value::Int(130)))], "decided outcome");
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn static_checks_gate_client_side() {
    let topo = bank_topology(2, 2).static_checks();
    let cluster = NetCluster::from_topology(topo).expect("start");
    // Statically ill-typed (int + bool): the analysis gate must reject it
    // before it ever touches a socket.
    let bad = TransactionSpec::new().update(ItemId(0), Expr::int(1).add(Expr::bool(true)));
    match cluster.submit(0, &bad, Duration::from_secs(5)) {
        Err(EngineError::Rejected(_)) => {}
        other => panic!("expected static-check rejection, got {other:?}"),
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn unreachable_peer_fails_fast_with_structured_error() {
    // A node whose peer table points at a dead port must give up within
    // its backoff attempt budget and name the unreachable site — not hang.
    use pv_net::node::Node;
    let topo = bank_topology(2, 2);
    let mut node = Node::bind(0, &topo, Backoff::fast_fail(), "127.0.0.1:0".parse().unwrap())
        .expect("bind");
    let dead = {
        // Grab a port and release it so nothing listens there.
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    node.set_peers(vec![node.local_addr().expect("addr"), dead]);
    match node.run() {
        Err(EngineError::Unreachable { site, detail }) => {
            assert_eq!(site, 1);
            assert!(detail.contains("attempts"), "detail names the budget: {detail}");
        }
        Err(other) => panic!("expected Unreachable, got {other:?}"),
        Ok(_) => panic!("expected Unreachable, got a clean shutdown"),
    }
}

#[test]
fn net_builder_backoff_override_applies() {
    // fast_fail keeps the failure path quick even when the cluster itself
    // is healthy — this just exercises the builder surface.
    let cluster = NetBuilder::from_topology(bank_topology(2, 2))
        .backoff(Backoff::fast_fail())
        .start()
        .expect("start");
    let result = cluster
        .submit(0, &TransactionSpec::transfer(0, 1, 10), Duration::from_secs(10))
        .expect("submit");
    assert!(result.is_committed());
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn hostile_frame_drops_only_its_connection_and_is_counted() {
    use std::io::{ErrorKind, Read, Write};
    let cluster = NetCluster::from_topology(bank_topology(2, 2)).expect("start");
    let deadline = Duration::from_secs(10);

    // A checksum-valid Proto/ReadResp whose polyvalue claims u32::MAX pairs:
    // from 0, tag 3, txn 9, one entry, item 0, Entry::Poly, pair count.
    let mut payload = 0u32.to_le_bytes().to_vec();
    payload.push(3);
    payload.extend(9u64.to_le_bytes());
    payload.extend(1u32.to_le_bytes());
    payload.extend(0u64.to_le_bytes());
    payload.push(1);
    payload.extend(u32::MAX.to_le_bytes());
    let mut frame = b"PVW1".to_vec();
    frame.extend([1, 1, 0, 0]);
    frame.extend((payload.len() as u32).to_le_bytes());
    let sum = pv_store::codec::checksum(&frame) ^ pv_store::codec::checksum(&payload);
    frame.extend(sum.to_le_bytes());
    frame.extend(&payload);

    let mut hostile = std::net::TcpStream::connect(cluster.addrs()[0]).expect("connect");
    hostile.set_read_timeout(Some(deadline)).expect("timeout");
    hostile.write_all(&frame).expect("send");
    match hostile.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("expected the node to drop the connection, got {other:?}"),
    }

    let metrics = cluster.site_metrics(0, deadline).expect("metrics");
    assert_eq!(metrics.counter("net.decode_errors"), 1);
    // The node is still serving everyone else.
    let result = cluster
        .submit(0, &TransactionSpec::transfer(0, 1, 10), deadline)
        .expect("submit");
    assert!(result.is_committed());
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn behind_slow_links_transfers_commit_and_sites_spin_only_on_their_probes() {
    // 2 ms on every site-to-site link: no frame from a peer lands inside a
    // site's 25 µs spin, so once the spins have been scored a site spins on
    // its probes (every 16th wait) and seldom otherwise.
    let cluster = NetBuilder::from_topology(bank_topology(3, 60))
        .chaos(11)
        .start()
        .expect("start");
    cluster.chaos().expect("chaos layer").set_default(LinkFaults {
        delay: Duration::from_millis(2),
        ..LinkFaults::default()
    });
    let deadline = Duration::from_secs(10);
    let mut client = cluster.client(0).expect("client");
    let mut transfer = |i: u64| {
        let spec = TransactionSpec::transfer(i % 60, (i + 7) % 60, 1);
        let result = client.submit(&spec, deadline).expect("submit");
        assert!(result.is_committed(), "transfer {i}: {result:?}");
    };
    (0..40).for_each(&mut transfer);
    let before = cluster.metrics(deadline).expect("metrics");
    (40..240).for_each(&mut transfer);
    let after = cluster.metrics(deadline).expect("metrics");
    let grew = |c: &str| after.counter(c) - before.counter(c);
    let waits = grew("net.polls");
    let spun = grew("net.spin.caught") + grew("net.spin.blocked");
    assert!(waits > 0);
    // At most twice the probe rate (seen: 157 of 2,431).
    assert!(spun * 8 <= waits, "{spun} of {waits} waits spun behind 2 ms links");

    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, 6000);
    cluster.shutdown().expect("clean shutdown");
}
