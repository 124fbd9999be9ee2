//! Failure-path contract of the `pv-node` and `pv-loadgen` binaries: a
//! cluster that cannot form (unreachable peer, bad arguments) must exit
//! non-zero with a structured JSON error on stderr — never hang.

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

/// Runs `cmd` with a watchdog; panics if it outlives `limit`.
fn run_with_timeout(mut cmd: Command, limit: Duration) -> (i32, String) {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                let mut stderr = String::new();
                use std::io::Read;
                child
                    .stderr
                    .take()
                    .expect("piped")
                    .read_to_string(&mut stderr)
                    .expect("read stderr");
                return (status.code().unwrap_or(-1), stderr);
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
    let (code, stderr) = run_with_timeout(cmd, Duration::from_secs(20));
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
    let (code, stderr) = run_with_timeout(cmd, Duration::from_secs(10));
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
    let (code, stderr) = run_with_timeout(cmd, Duration::from_secs(20));
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
