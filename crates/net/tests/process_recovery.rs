//! Cross-process crash recovery: a real `pv-node` OS process is SIGKILLed
//! mid-transaction, its survivors wait-time-out into stranded in-doubt
//! polyvalues, and the process restarted from its on-disk WAL answers the
//! §3.3 inquiries that collapse them — all over real TCP.
//!
//! This is the process-boundary twin of the in-thread
//! `restart_resolves_stranded_polyvalue` test (`net_cluster.rs`): nothing
//! survives the kill except the data directory.

use pv_core::{Expr, ItemId, TransactionSpec};
use pv_engine::EngineError;
use pv_net::backoff::Backoff;
use pv_net::chaos::{ChaosNet, LinkFaults};
use pv_net::client::NetClient;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SITES: u32 = 3;
const ACCOUNTS: u64 = 9;
const BALANCE: i64 = 100;

fn transfer(from: u64, to: u64, amt: i64) -> TransactionSpec {
    let (f, t) = (ItemId(from), ItemId(to));
    TransactionSpec::new()
        .guard(Expr::read(f).ge(Expr::int(amt)))
        .update(f, Expr::read(f).sub(Expr::int(amt)))
        .update(t, Expr::read(t).add(Expr::int(amt)))
}

/// Kills the child on drop so a failing test never leaks processes.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    l.local_addr().expect("local addr")
}

fn spawn_node(site: u32, proxies: &[SocketAddr], listen: SocketAddr, data_dir: &Path) -> ChildGuard {
    let addrs = proxies
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let child = Command::new(env!("CARGO_BIN_EXE_pv-node"))
        .args([
            "--site",
            &site.to_string(),
            "--addrs",
            &addrs,
            "--listen",
            &listen.to_string(),
            "--accounts",
            &ACCOUNTS.to_string(),
            "--balance",
            &BALANCE.to_string(),
            "--data-dir",
            &data_dir.display().to_string(),
            "--fast",
            "--attempts",
            "100000",
            "--delay-ms",
            "25",
            "--max-delay-ms",
            "500",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pv-node");
    ChildGuard(child)
}

fn wait_ready(addr: SocketAddr) {
    let limit = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err() {
        assert!(Instant::now() < limit, "pv-node at {addr} never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn client(addr: SocketAddr, node: u32) -> Result<NetClient, EngineError> {
    NetClient::connect(addr, node, Backoff::patient())
}

#[test]
fn killed_node_restarts_from_wal_and_collapses_stranded_polyvalues() {
    let data_dir =
        std::env::temp_dir().join(format!("pv-process-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("mkdir data dir");

    // Real processes behind chaos proxies: peer tables point at the proxy
    // ports, so a restarted process can come back on a fresh real port
    // (the old one may sit in TIME_WAIT) without peers noticing.
    let mut reals: Vec<SocketAddr> = (0..SITES).map(|_| free_addr()).collect();
    let chaos = ChaosNet::new(0xD1E5EED, &reals).expect("chaos proxies");
    let proxies = chaos.proxy_addrs().to_vec();
    let mut children: Vec<Option<ChildGuard>> = reals
        .iter()
        .enumerate()
        .map(|(s, &listen)| Some(spawn_node(s as u32, &proxies, listen, &data_dir)))
        .collect();
    for &addr in &reals {
        wait_ready(addr);
    }

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
    let mut submitter = client(reals[0], 100).expect("client to site 0");
    let mut stranded = false;
    'rounds: for _ in 0..5 {
        for (f, t) in [(0u64, 1u64), (2, 3), (4, 5), (6, 7)] {
            submitter.submit_async(&transfer(f, t, 5)).expect("submit");
        }
        let observed_limit = Instant::now() + Duration::from_secs(2);
        while Instant::now() < observed_limit {
            for (s, &addr) in reals.iter().enumerate().skip(1) {
                if let Ok(snap) = client(addr, 200 + s as u32)
                    .and_then(|mut c| c.inspect(Duration::from_secs(2)))
                {
                    if snap.poly_count > 0 {
                        stranded = true;
                        break 'rounds;
                    }
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
    drop(children[0].take()); // SIGKILL: no WAL flush, no goodbye

    // Restart site 0 from nothing but its data directory, on a fresh port.
    let fresh = free_addr();
    reals[0] = fresh;
    chaos.retarget(0, fresh);
    children[0] = Some(spawn_node(0, &proxies, fresh, &data_dir));
    wait_ready(fresh);

    // §3.3: the survivors' inquiries reach the reborn coordinator and every
    // polyvalue collapses; the whole cluster drains.
    let drain_limit = Instant::now() + Duration::from_secs(30);
    loop {
        let mut polys = 0;
        let mut quiescent = true;
        for (s, &addr) in reals.iter().enumerate() {
            let snap = client(addr, 300 + s as u32)
                .and_then(|mut c| c.inspect(Duration::from_secs(3)))
                .expect("inspect");
            polys += snap.poly_count;
            quiescent &= snap.quiescent;
        }
        if polys == 0 && quiescent {
            break;
        }
        assert!(
            Instant::now() < drain_limit,
            "cluster never drained after restart ({polys} polyvalues left)"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The reborn process replayed its WAL (cold recovery), and money is
    // conserved across the crash no matter which outcomes won.
    let m = client(reals[0], 400)
        .and_then(|mut c| c.metrics(Duration::from_secs(3)))
        .expect("metrics");
    assert!(
        m.counter("net.cold_recoveries") >= 1,
        "restarted site recovered from its WAL"
    );
    let mut total = 0;
    for (s, &addr) in reals.iter().enumerate() {
        let snap = client(addr, 500 + s as u32)
            .and_then(|mut c| c.inspect(Duration::from_secs(3)))
            .expect("inspect");
        for (_, entry) in &snap.items {
            total += entry
                .as_simple()
                .and_then(|v| v.as_int())
                .expect("settled value after drain");
        }
    }
    assert_eq!(total, ACCOUNTS as i64 * BALANCE, "conservation across the crash");

    // Clean shutdown (also releases the data dir for removal).
    for (s, &addr) in reals.iter().enumerate() {
        client(addr, 600 + s as u32)
            .and_then(|mut c| c.shutdown())
            .expect("shutdown");
    }
    for child in &mut children {
        if let Some(mut guard) = child.take() {
            let _ = guard.0.wait();
        }
    }
    chaos.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
