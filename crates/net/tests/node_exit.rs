//! Exit contract of the `pv-node` and `pv-loadgen` binaries: a cluster
//! that cannot form (unreachable peer, bad arguments) must exit non-zero
//! with a structured JSON error on stderr — never hang; and `pv-loadgen
//! --addrs` against a running cluster exits 0 and leaves that cluster up.

use pv_net::proc::{ProcCluster, ProcSpec};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Held for the whole body of every test that hands out released ports, so
/// a port one test expects to stay dead never becomes the listener of a
/// binary another test starts. Cargo runs test binaries one at a time, so
/// this file is the only place such tests can overlap.
static PORTS: Mutex<()> = Mutex::new(());

/// Takes [`PORTS`]; a test that panicked while holding it leaves nothing
/// to repair.
fn hold_ports() -> MutexGuard<'static, ()> {
    PORTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `cmd` with a watchdog; panics if it outlives `limit`. Returns the
/// exit code, stdout and stderr.
fn run_with_timeout(mut cmd: Command, limit: Duration) -> (i32, String, String) {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                use std::io::Read;
                let (mut stdout, mut stderr) = (String::new(), String::new());
                let mut out = child.stdout.take().expect("piped");
                out.read_to_string(&mut stdout).expect("read stdout");
                let mut err = child.stderr.take().expect("piped");
                err.read_to_string(&mut stderr).expect("read stderr");
                return (status.code().unwrap_or(-1), stdout, stderr);
            }
            None => {
                if Instant::now() > deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("binary hung past {limit:?} instead of failing fast");
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// A localhost port with nothing listening on it.
fn dead_port() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr").to_string()
}

#[test]
fn pv_node_exits_nonzero_on_unreachable_peer() {
    let _ports = hold_ports();
    let live = dead_port(); // we bind it ourselves below via pv-node
    let dead = dead_port();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pv-node"));
    cmd.args([
        "--site",
        "0",
        "--addrs",
        &format!("{live},{dead}"),
        "--accounts",
        "2",
        "--attempts",
        "3",
        "--delay-ms",
        "50",
    ]);
    let (code, _, stderr) = run_with_timeout(cmd, Duration::from_secs(20));
    assert_ne!(code, 0, "unreachable peer must be fatal");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("{\"error\""))
        .unwrap_or_else(|| panic!("no structured error on stderr:\n{stderr}"));
    assert!(
        line.contains("\"kind\":\"unreachable\"") && line.contains("\"site\":1"),
        "error names the kind and the dead site: {line}"
    );
    assert!(line.contains("attempts"), "error names the retry budget: {line}");
}

#[test]
fn pv_node_exits_2_on_bad_arguments() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pv-node"));
    cmd.args(["--site", "5", "--addrs", "127.0.0.1:1"]);
    let (code, _, stderr) = run_with_timeout(cmd, Duration::from_secs(10));
    assert_eq!(code, 2, "site out of range is a usage error");
    assert!(stderr.contains("usage:"), "usage text on stderr:\n{stderr}");
}

#[test]
fn pv_loadgen_exits_nonzero_when_cluster_is_unreachable() {
    let _ports = hold_ports();
    let dead_a = dead_port();
    let dead_b = dead_port();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pv-loadgen"));
    cmd.args([
        "--addrs",
        &format!("{dead_a},{dead_b}"),
        "--txns",
        "10",
        "--clients",
        "1",
        "--attempts",
        "3",
        "--delay-ms",
        "50",
    ]);
    let (code, _, stderr) = run_with_timeout(cmd, Duration::from_secs(20));
    assert_ne!(code, 0, "unreachable cluster must be fatal");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("{\"error\""))
        .unwrap_or_else(|| panic!("no structured error on stderr:\n{stderr}"));
    assert!(
        line.contains("\"kind\":\"io\"") && line.contains("attempts"),
        "error names the failure and budget: {line}"
    );
}

#[test]
fn pv_loadgen_drives_a_cluster_it_did_not_start_and_leaves_it_up() {
    let _ports = hold_ports();
    let spec = ProcSpec::new(env!("CARGO_BIN_EXE_pv-node"), 3);
    let (accounts, balance) = (spec.accounts.to_string(), spec.balance.to_string());
    let cluster = ProcCluster::spawn(spec).expect("spawn cluster");
    let addrs = cluster.addrs().iter().map(ToString::to_string).collect::<Vec<_>>();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pv-loadgen"));
    cmd.args(["--addrs", &addrs.join(","), "--accounts", &accounts, "--balance", &balance]);
    cmd.args(["--txns", "200", "--clients", "2"]);
    let (code, stdout, stderr) = run_with_timeout(cmd, Duration::from_secs(60));
    assert_eq!(code, 0, "pv-loadgen failed:\n{stderr}");
    let committed: u64 = stdout
        .split_whitespace()
        .find_map(|w| w.strip_prefix("committed="))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no committed= count on stdout:\n{stdout}"));
    assert!(committed > 0, "nothing committed:\n{stdout}");
    // pv-loadgen did not start this cluster, so it must not stop it.
    for s in 0..cluster.sites() {
        let snap = cluster.client(s).and_then(|mut c| c.inspect(Duration::from_secs(5)));
        assert!(snap.is_ok(), "site {s} stopped answering after pv-loadgen exited");
    }
    cluster.shutdown().expect("every site exits 0");
}
