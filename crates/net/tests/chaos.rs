//! Integration tests for the fault-injecting chaos layer: a real TCP
//! cluster whose site links route through [`ChaosNet`] proxies, driven
//! through partition/heal, live backoff reconfiguration, and injected link
//! faults — asserting both the engine invariants (conservation, drain) and
//! the backoff/circuit observability the recovery machinery promises.

use pv_core::{Expr, ItemId, TransactionSpec};
use pv_engine::topology::BackoffConfig;
use pv_engine::{Directory, EngineConfig, Topology};
use pv_net::backoff::Backoff;
use pv_net::chaos::LinkFaults;
use pv_net::{NetBuilder, NetCluster};
use pv_simnet::SimDuration;
use std::time::{Duration, Instant};

fn transfer(from: u64, to: u64, amt: i64) -> TransactionSpec {
    let (f, t) = (ItemId(from), ItemId(to));
    TransactionSpec::new()
        .guard(Expr::read(f).ge(Expr::int(amt)))
        .update(f, Expr::read(f).sub(Expr::int(amt)))
        .update(t, Expr::read(t).add(Expr::int(amt)))
}

fn fast_config() -> EngineConfig {
    EngineConfig {
        read_timeout: SimDuration::from_millis(200),
        ready_timeout: SimDuration::from_millis(200),
        wait_timeout: SimDuration::from_millis(80),
        read_lease: SimDuration::from_millis(500),
        inquire_interval: SimDuration::from_millis(100),
        ..EngineConfig::default()
    }
}

fn bank_topology(sites: u32, accounts: u64) -> Topology {
    Topology::new(sites, Directory::Mod(sites))
        .engine(fast_config())
        .uniform_items(accounts, 100)
}

/// Polls until every site is quiescent with zero polyvalues.
fn drain(cluster: &NetCluster) {
    let limit = Instant::now() + Duration::from_secs(30);
    loop {
        let mut polys = 0;
        let mut quiescent = true;
        for s in 0..cluster.site_count() as u32 {
            let snap = cluster.inspect(s, Duration::from_secs(5)).expect("inspect");
            polys += snap.poly_count;
            quiescent &= snap.quiescent;
        }
        if polys == 0 && quiescent {
            return;
        }
        assert!(Instant::now() < limit, "cluster did not drain");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn total_funds(cluster: &NetCluster) -> i64 {
    let mut total = 0;
    for s in 0..cluster.site_count() as u32 {
        let snap = cluster.inspect(s, Duration::from_secs(5)).expect("inspect");
        for (_, entry) in &snap.items {
            total += entry
                .as_simple()
                .and_then(|v| v.as_int())
                .expect("settled int after drain");
        }
    }
    total
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
        factor: 2.0,
        jitter: 0.25,
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
        .map(|&(f, t)| client.submit_async(&transfer(f, t, 5)).expect("submit"))
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
    drain(&cluster);
    assert_eq!(total_funds(&cluster), 600, "conservation across partition");

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
            cluster
                .submit(i % 2, &transfer(u64::from(i % 4), u64::from((i + 1) % 4), 2), deadline)
                .map(|r| r.is_committed())
                .unwrap_or(false)
        })
        .count();
    assert!(committed > 0, "nothing committed under link faults");

    drain(&cluster);
    assert_eq!(total_funds(&cluster), 400, "conservation under faults");

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
        let _ = cluster.submit(0, &transfer(k % 2, (k + 1) % 2, 5), Duration::from_secs(2));
    }
    assert!(chaos.metrics().counter("chaos.injected.drop") > 0, "frames were dropped");

    chaos.set_default(LinkFaults::clean());
    drain(&cluster);
    assert_eq!(total_funds(&cluster), 200, "conservation under loss");
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn configure_backoff_reconfigures_every_site_live() {
    let cluster = NetBuilder::from_topology(bank_topology(3, 3))
        .backoff(Backoff::fast_fail())
        .start()
        .expect("start");
    cluster
        .configure_backoff(BackoffConfig {
            base_ms: 10,
            max_ms: 100,
            factor: 1.5,
            jitter: 0.1,
            attempts: 500,
        })
        .expect("reconfigure");
    let m = cluster.metrics(Duration::from_secs(5)).expect("metrics");
    assert_eq!(
        m.counter("net.backoff.reconfigured"),
        3,
        "every site acknowledged the new policy"
    );
    // The cluster still works under the new policy.
    let result = cluster
        .submit(0, &transfer(0, 1, 5), Duration::from_secs(10))
        .expect("submit");
    assert!(result.is_committed());
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
        .submit(0, &transfer(0, 1, 5), Duration::from_secs(10))
        .expect("submit");
    let took = submitted.elapsed();
    assert!(result.is_committed(), "transfer across both sites commits");
    assert!(
        took < Duration::from_millis(50),
        "blocked loops wake for traffic (commit took {took:?})"
    );
    cluster.shutdown().expect("clean shutdown");
}
