//! The engine on real sockets: the same `Site` logic that runs in the
//! deterministic simulation deploys onto one event-loop thread per site,
//! talking the `pv-node` wire format over loopback TCP.
//!
//! The demo runs a three-site bank, transfers money through different
//! coordinators, serves a coordination-free snapshot read, and verifies
//! conservation. (Crashing a networked site means killing its process: see
//! `pv-chaos` and `crates/net/tests/process_recovery.rs`.)
//!
//! Run with `cargo run --example net_cluster`.

use polyvalues::prelude::*;
use std::time::Duration;

fn transfer(from: u64, to: u64, amount: i64) -> TransactionSpec {
    let (f, t) = (ItemId(from), ItemId(to));
    TransactionSpec::new()
        .guard(Expr::read(f).ge(Expr::int(amount)))
        .update(f, Expr::read(f).sub(Expr::int(amount)))
        .update(t, Expr::read(t).add(Expr::int(amount)))
}

/// Polls until no site has protocol state in flight (a reply can overtake
/// the decision on its way to a participant); returns every site's state.
fn settled(cluster: &NetCluster) -> Vec<polyvalues::net::wire::NodeSnapshot> {
    loop {
        let snaps: Vec<_> = (0..cluster.site_count() as u32)
            .map(|s| cluster.inspect(s, Duration::from_secs(5)).expect("answers"))
            .collect();
        if snaps.iter().all(|snap| snap.quiescent) {
            return snaps;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    let deadline = Duration::from_secs(5);
    let topo = Topology::new(3, Directory::Mod(3))
        .engine(CommitProtocol::Polyvalue)
        .items((0..3).map(|i| (ItemId(i), Value::Int(100))));
    let cluster = NetCluster::from_topology(topo).expect("start net cluster");
    println!(
        "three sites listening on {:?}; account i lives at site i",
        cluster.addrs()
    );

    // A few cross-site transfers through different coordinators.
    for (from, to, amount) in [(0u64, 1u64, 30i64), (1, 2, 20), (2, 0, 10)] {
        let result = cluster
            .submit((from % 3) as u32, &transfer(from, to, amount), deadline)
            .expect("net cluster answers");
        println!(
            "transfer {from}→{to} of {amount}: committed={}",
            result.is_committed()
        );
        settled(&cluster);
    }

    // A read-only transaction at one site: an MVCC snapshot, no locks, no
    // site-to-site message.
    let (snapshot, entries) = cluster
        .snapshot_read(1, &[ItemId(1)], deadline)
        .expect("site 1 answers");
    println!("snapshot read at site 1 (seq {snapshot}): {entries:?}");
    assert_eq!(entries, [(ItemId(1), Entry::Simple(Value::Int(110)))]);

    // Audit.
    let mut total = 0i64;
    for (s, snap) in settled(&cluster).iter().enumerate() {
        for (item, entry) in &snap.items {
            let v = entry.as_simple().and_then(Value::as_int).expect("settled");
            println!("  site {s}: {item} = {v}");
            total += v;
        }
    }
    println!("total funds: {total} (expected 300)");
    assert_eq!(total, 300);
    assert_eq!(cluster.total_poly_count(deadline).unwrap(), 0);

    let metrics = cluster.metrics(deadline).expect("metrics travel the wire");
    println!(
        "metrics: {} committed, {} connections accepted, {} snapshot reads",
        metrics.counter("txn.committed"),
        metrics.counter("net.accepted"),
        metrics.counter("store.snapshot_reads"),
    );
    cluster.shutdown().expect("clean shutdown");
    println!("clean shutdown.");
}
