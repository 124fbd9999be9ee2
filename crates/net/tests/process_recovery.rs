//! Cross-process crash recovery: a real `pv-node` OS process is SIGKILLed
//! mid-transaction, its survivors wait-time-out into stranded in-doubt
//! polyvalues, and the process restarted from its on-disk WAL answers the
//! §3.3 inquiries that collapse them — all over real TCP.
//!
//! This is the process-boundary twin of the in-thread
//! `restart_resolves_stranded_polyvalue` test (`net_cluster.rs`): nothing
//! survives the kill except the data directory.

use pv_core::TransactionSpec;
use pv_net::backoff::Backoff;
use pv_net::chaos::LinkFaults;
use pv_net::proc::{balances, ProcCluster, ProcSpec};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SITES: u32 = 3;
const ACCOUNTS: u64 = 9;
const BALANCE: i64 = 100;

#[test]
fn killed_node_restarts_from_wal_and_collapses_stranded_polyvalues() {
    // Real processes behind chaos proxies: peer tables point at the proxy
    // ports, so a restarted process can come back on a fresh real port
    // (the old one may sit in TIME_WAIT) without peers noticing.
    let data_dir =
        std::env::temp_dir().join(format!("pv-process-recovery-{}", std::process::id()));
    let cluster = ProcCluster::spawn(ProcSpec {
        accounts: ACCOUNTS,
        balance: BALANCE,
        data_dir: Some(data_dir),
        backoff: Backoff::patient(),
        chaos_seed: Some(0xD1E5EED),
        ..ProcSpec::new(env!("CARGO_BIN_EXE_pv-node"), SITES)
    })
    .expect("spawn cluster");
    let chaos = cluster.chaos().expect("chaos proxies");

    // Stretch every hop to 80ms so a participant's wait-timer (80ms after
    // staging under --fast) strands an observable polyvalue strictly before
    // the coordinator's Decision — two more hops away — can collapse it.
    // The kill is triggered by *observation*, not a tuned sleep: the moment
    // a survivor reports an in-doubt polyvalue, the coordinator dies and
    // the still-undelivered Decisions die with its connections. A round
    // that aborts early (read timeout under machine load) strands nothing,
    // so retry with a fresh batch rather than flaking.
    chaos.set_default(LinkFaults {
        delay: Duration::from_millis(80),
        ..LinkFaults::default()
    });
    let mut submitter = cluster.client(0).expect("client to site 0");
    let mut stranded = false;
    'rounds: for _ in 0..5 {
        for (f, t) in [(0u64, 1u64), (2, 3), (4, 5), (6, 7)] {
            submitter.submit_async(&TransactionSpec::transfer(f, t, 5)).expect("submit");
        }
        let observed_limit = Instant::now() + Duration::from_secs(2);
        while Instant::now() < observed_limit {
            for s in 1..SITES {
                let snap = cluster.client(s).and_then(|mut c| c.inspect(Duration::from_secs(2)));
                if snap.is_ok_and(|snap| snap.poly_count > 0) {
                    stranded = true;
                    break 'rounds;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Let the failed round's outcomes settle before resubmitting the
        // same account pairs.
        std::thread::sleep(Duration::from_millis(400));
    }
    assert!(stranded, "survivors never held an in-doubt polyvalue");
    drop(submitter);
    cluster.kill(0); // SIGKILL: no WAL flush, no goodbye

    // Restart site 0 from nothing but its data directory, on a fresh port.
    cluster.restart(0).expect("restart site 0");

    // §3.3: the survivors' inquiries reach the reborn coordinator and every
    // polyvalue collapses; the whole cluster drains.
    let snaps = cluster.settle(Duration::from_secs(30)).expect("cluster drains after restart");

    // The reborn process replayed its WAL (cold recovery), and money is
    // conserved across the crash no matter which outcomes won.
    let m = cluster.client(0).and_then(|mut c| c.metrics(Duration::from_secs(3))).expect("metrics");
    assert!(
        m.counter("net.cold_recoveries") >= 1,
        "restarted site recovered from its WAL"
    );
    let total: i64 = balances(&snaps).expect("settled balances").values().sum();
    assert_eq!(total, ACCOUNTS as i64 * BALANCE, "conservation across the crash");

    // Clean shutdown: every site exits 0, and the data dir goes.
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn dropping_the_cluster_kills_every_site() {
    let cluster = ProcCluster::spawn(ProcSpec::new(env!("CARGO_BIN_EXE_pv-node"), SITES))
        .expect("spawn cluster");
    let addrs = cluster.addrs();
    drop(cluster);
    for addr in addrs {
        assert!(
            TcpStream::connect(addr).is_err(),
            "a site still listens at {addr} after the cluster was dropped"
        );
    }
}
