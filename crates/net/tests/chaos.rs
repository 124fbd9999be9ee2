//! Integration tests for the fault-injecting chaos layer: a real TCP
//! cluster whose site links route through [`ChaosNet`] proxies, driven
//! through partition/heal and injected link faults — asserting both the
//! engine invariants (conservation, drain) and the backoff/circuit
//! observability the recovery machinery promises.

use pv_core::TransactionSpec;
use pv_engine::{CommitProtocol, Directory, Topology};
use pv_net::backoff::Backoff;
use pv_net::chaos::LinkFaults;
use pv_net::proc::{balances, fast_config};
use pv_net::NetBuilder;
use std::time::{Duration, Instant};

/// How long a healed cluster gets to drain to quiescence with no polyvalues.
const SETTLE: Duration = Duration::from_secs(30);

fn bank_topology(sites: u32, accounts: u64) -> Topology {
    Topology::new(sites, Directory::Mod(sites))
        .engine(fast_config(CommitProtocol::Polyvalue))
        .uniform_items(accounts, 100)
}

#[test]
fn partition_heals_with_paced_backoff() {
    // Cut site 0 away mid-protocol, let the cluster flounder, heal, and
    // require the full recovery story: funds conserved, state drained, and
    // — the robustness contract — circuits tripped, backoff delays grew
    // past the base (paced rejoin, not a thundering herd), and the healed
    // links actually reconnected.
    let backoff = Backoff {
        base: Duration::from_millis(25),
        max: Duration::from_millis(400),
        attempts: 10_000,
    };
    let cluster = NetBuilder::from_topology(bank_topology(3, 6))
        .backoff(backoff)
        .chaos(7)
        .start()
        .expect("start");
    let chaos = cluster.chaos().expect("chaos layer present");

    // Stretch the protocol so the cut lands mid-2PC, then cut after the
    // Prepare hop (~3 × 40ms) and before the Decision hop (~5 × 40ms).
    chaos.set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let mut client = cluster.client(0).expect("client");
    let pending: Vec<u64> = [(0u64, 1u64), (2, 3), (4, 5)]
        .iter()
        .map(|&(f, t)| client.submit_async(&TransactionSpec::transfer(f, t, 5)).expect("submit"))
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    chaos.partition(&[0], &[1, 2]);

    // Collect whatever replies escape; the cut swallows the rest.
    let limit = Instant::now() + Duration::from_millis(800);
    let mut replies = 0;
    while replies < pending.len() {
        let remaining = limit.saturating_duration_since(Instant::now());
        if remaining.is_zero() || client.recv_reply(remaining).is_err() {
            break;
        }
        replies += 1;
    }

    // Let the partition cook long enough for circuits to trip and backoff
    // to climb, then heal and drain.
    std::thread::sleep(Duration::from_millis(700));
    chaos.heal();
    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, 600, "conservation across partition");

    let m = cluster.metrics(Duration::from_secs(5)).expect("metrics");
    assert!(m.counter("net.circuit_open") > 0, "partition trips circuits");
    assert!(m.counter("net.reconnects") > 0, "healed links reconnect");
    let max_wait = m
        .histogram("net.backoff.wait_ms")
        .and_then(|h| h.max())
        .unwrap_or(0.0);
    assert!(
        max_wait > 25.0,
        "backoff grows past the base delay while cut (max {max_wait}ms)"
    );
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn injected_link_faults_are_counted_and_survivable() {
    // Latency plus duplication on every link: commits must still happen
    // (duplicate frames are idempotent at the protocol layer), funds must
    // conserve, and the proxy must account for what it injected.
    let cluster = NetBuilder::from_topology(bank_topology(2, 4))
        .backoff(Backoff::patient())
        .chaos(21)
        .start()
        .expect("start");
    let chaos = cluster.chaos().expect("chaos layer present");
    chaos.set_default(LinkFaults {
        delay: Duration::from_millis(5),
        dup_prob: 0.3,
        ..LinkFaults::default()
    });

    let deadline = Duration::from_secs(10);
    let committed = (0..8)
        .filter(|&i| {
            let spec = TransactionSpec::transfer(u64::from(i % 4), u64::from((i + 1) % 4), 2);
            cluster
                .submit(i % 2, &spec, deadline)
                .map(|r| r.is_committed())
                .unwrap_or(false)
        })
        .count();
    assert!(committed > 0, "nothing committed under link faults");

    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, 400, "conservation under faults");

    let m = chaos.metrics();
    assert!(m.counter("chaos.injected.delay") > 0, "delays were injected");
    assert!(m.counter("chaos.injected.dup") > 0, "duplicates were injected");
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn lossy_links_converge_once_clean() {
    // A quarter of all site-to-site frames vanish. Many submissions fail;
    // whatever commits must stay atomic once the loss stops and inquiries
    // settle the rest.
    let cluster = NetBuilder::from_topology(bank_topology(2, 2))
        .backoff(Backoff::patient())
        .chaos(33)
        .start()
        .expect("start");
    let chaos = cluster.chaos().expect("chaos layer present");
    chaos.set_default(LinkFaults {
        drop_prob: 0.25,
        ..LinkFaults::default()
    });
    for k in 0..8 {
        let spec = TransactionSpec::transfer(k % 2, (k + 1) % 2, 5);
        let _ = cluster.submit(0, &spec, Duration::from_secs(2));
    }
    assert!(chaos.metrics().counter("chaos.injected.drop") > 0, "frames were dropped");

    chaos.set_default(LinkFaults::clean());
    let snaps = cluster.settle(SETTLE).expect("cluster drains");
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, 200, "conservation under loss");
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn idle_event_loop_blocks() {
    // An idle cluster's event loops block in their wait: with no protocol
    // timer armed and every link up, half a second of quiet adds next to
    // nothing to `net.idle_wakeups` (the waits that ended with nothing
    // ready). Then the blocked loops must still wake: a transfer submitted
    // right after commits at once. A loop that missed a wake-up source
    // fails that bound or hangs.
    let cluster = NetBuilder::from_topology(bank_topology(2, 2))
        .backoff(Backoff::patient())
        .start()
        .expect("start");
    let idle_wakeups = || {
        cluster
            .metrics(Duration::from_secs(5))
            .expect("metrics")
            .counter("net.idle_wakeups")
    };
    // Settle, then measure a quiet window.
    std::thread::sleep(Duration::from_millis(200));
    let before = idle_wakeups();
    std::thread::sleep(Duration::from_millis(500));
    let wakeups = idle_wakeups().saturating_sub(before);
    assert!(
        wakeups <= 20,
        "idle loops block rather than poll ({wakeups} empty wake-ups in 500ms)"
    );

    let submitted = Instant::now();
    let result = cluster
        .submit(0, &TransactionSpec::transfer(0, 1, 5), Duration::from_secs(10))
        .expect("submit");
    let took = submitted.elapsed();
    assert!(result.is_committed(), "transfer across both sites commits");
    assert!(
        took < Duration::from_millis(50),
        "blocked loops wake for traffic (commit took {took:?})"
    );
    cluster.shutdown().expect("clean shutdown");
}
