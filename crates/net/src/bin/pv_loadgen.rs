//! Load generator for a networked polyvalue cluster.
//!
//! ```text
//! # Spawn a 3-process cluster on free localhost ports, hammer it, report:
//! pv-loadgen --sites 3 --accounts 12 --balance 100 --txns 2000 --clients 4
//!
//! # Target an already-running cluster instead of spawning one:
//! pv-loadgen --addrs 127.0.0.1:7100,127.0.0.1:7101 --txns 1000 --clients 2
//! ```
//!
//! The workload is the paper's funds-transfer bank: `--accounts` integer
//! accounts of `--balance` each, guarded transfers between random pairs,
//! submitted from `--clients` concurrent closed-loop connections (client
//! `k` coordinates through site `k mod sites`). After the run the cluster
//! must drain to zero polyvalues and conserve total funds; a violation, an
//! unreachable site, or a child process dying mid-run exits non-zero with a
//! structured JSON error on stderr (same contract as `pv-node`). The printed
//! throughput and latencies are a progress report, not a benchmark: `pvbench`
//! (`net_closed`, `net_pipelined`) is what measures the networked path.

use pv_core::{Expr, ItemId, TransactionSpec};
use pv_engine::EngineError;
use pv_net::backoff::Backoff;
use pv_net::client::NetClient;
use pv_simnet::{Metrics, SimRng};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: pv-loadgen [--sites N] [--accounts N] [--balance V] [--txns N] [--clients N] \
         [--protocol polyvalue|blocking2pc|relaxed] [--addrs HOST:PORT,...] [--seed N] \
         [--attempts N] [--delay-ms N]"
    );
    std::process::exit(2);
}

fn error_json(e: &EngineError) -> String {
    let (kind, site) = match e {
        EngineError::Unreachable { site, .. } => ("unreachable", Some(*site)),
        EngineError::Io(_) => ("io", None),
        EngineError::Timeout => ("timeout", None),
        EngineError::Disconnected => ("disconnected", None),
        _ => ("engine", None),
    };
    let detail: String = e
        .to_string()
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' => ' ',
            c => c,
        })
        .collect();
    match site {
        Some(s) => {
            format!("{{\"error\":{{\"kind\":\"{kind}\",\"site\":{s},\"detail\":\"{detail}\"}}}}")
        }
        None => format!("{{\"error\":{{\"kind\":\"{kind}\",\"detail\":\"{detail}\"}}}}"),
    }
}

struct Args {
    sites: u32,
    accounts: u64,
    balance: i64,
    txns: u64,
    clients: u32,
    protocol: String,
    addrs: Vec<SocketAddr>,
    seed: u64,
    backoff: Backoff,
}

fn parse_args() -> Args {
    let mut args = Args {
        sites: 3,
        accounts: 12,
        balance: 100,
        txns: 2000,
        clients: 4,
        protocol: "polyvalue".into(),
        addrs: Vec::new(),
        seed: 42,
        backoff: Backoff::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--sites" => args.sites = value("--sites").parse().unwrap_or_else(|_| usage()),
            "--accounts" => args.accounts = value("--accounts").parse().unwrap_or_else(|_| usage()),
            "--balance" => args.balance = value("--balance").parse().unwrap_or_else(|_| usage()),
            "--txns" => args.txns = value("--txns").parse().unwrap_or_else(|_| usage()),
            "--clients" => args.clients = value("--clients").parse().unwrap_or_else(|_| usage()),
            "--protocol" => args.protocol = value("--protocol"),
            "--addrs" => {
                args.addrs = value("--addrs")
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--attempts" => {
                args.backoff.attempts = value("--attempts").parse().unwrap_or_else(|_| usage())
            }
            "--delay-ms" => {
                args.backoff.base =
                    Duration::from_millis(value("--delay-ms").parse().unwrap_or_else(|_| usage()));
                args.backoff.max = args.backoff.max.max(args.backoff.base);
            }
            _ => usage(),
        }
    }
    args
}

/// A spawned site process, killed on drop so a failed run leaves no
/// orphans.
struct ChildGuard(Child, u32);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reserves `n` distinct localhost ports by binding and immediately
/// releasing them (the standard localhost-bench trick; the race window is
/// negligible on a quiet machine).
fn free_addrs(n: u32) -> Result<Vec<SocketAddr>, EngineError> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0").map_err(|e| EngineError::Io(format!("reserve: {e}")))
        })
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| EngineError::Io(format!("reserve: {e}"))))
        .collect()
}

/// Spawns `sites` pv-node processes for the given address table.
fn spawn_cluster(args: &Args, addrs: &[SocketAddr]) -> Result<Vec<ChildGuard>, EngineError> {
    let me = std::env::current_exe().map_err(|e| EngineError::Io(format!("current_exe: {e}")))?;
    let node_bin = me
        .parent()
        .map(|d| d.join("pv-node"))
        .filter(|p| p.exists())
        .ok_or_else(|| {
            EngineError::Io("pv-node binary not found next to pv-loadgen (build both)".into())
        })?;
    let addr_list = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut children = Vec::with_capacity(addrs.len());
    for s in 0..addrs.len() as u32 {
        let child = Command::new(&node_bin)
            .args([
                "--site",
                &s.to_string(),
                "--addrs",
                &addr_list,
                "--accounts",
                &args.accounts.to_string(),
                "--balance",
                &args.balance.to_string(),
                "--protocol",
                &args.protocol,
                "--fast",
                "--attempts",
                &args.backoff.attempts.to_string(),
                "--delay-ms",
                &args.backoff.base.as_millis().to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| EngineError::Io(format!("spawn pv-node: {e}")))?;
        children.push(ChildGuard(child, s));
    }
    Ok(children)
}

fn transfer(from: u64, to: u64, amount: i64) -> TransactionSpec {
    let (f, t) = (ItemId(from), ItemId(to));
    TransactionSpec::new()
        .guard(Expr::read(f).ge(Expr::int(amount)))
        .update(f, Expr::read(f).sub(Expr::int(amount)))
        .update(t, Expr::read(t).add(Expr::int(amount)))
}

/// The outcome of one measured run.
struct RunStats {
    sites: u32,
    clients: u32,
    submitted: u64,
    committed: u64,
    elapsed: Duration,
    /// Client-observed submit→reply latency (seconds) plus the cluster's
    /// merged phase histograms.
    metrics: Metrics,
}

impl RunStats {
    fn throughput(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Drives `txns` transfers through `clients` closed-loop connections and
/// verifies conservation before returning.
fn run_load(args: &Args, addrs: &[SocketAddr]) -> Result<RunStats, EngineError> {
    let sites = addrs.len() as u32;
    let per_client = args.txns / u64::from(args.clients).max(1);
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..args.clients {
        let addr = addrs[(c % sites) as usize];
        let accounts = args.accounts;
        let seed = args.seed.wrapping_add(u64::from(c) * 7919);
        let node = sites + 1 + c;
        let backoff = args.backoff;
        handles.push(std::thread::spawn(move || -> Result<(u64, u64, Metrics), EngineError> {
            let mut client = NetClient::connect(addr, node, backoff)?;
            let mut rng = SimRng::new(seed);
            let mut metrics = Metrics::new();
            let mut committed = 0u64;
            for _ in 0..per_client {
                let from = rng.below(accounts);
                let mut to = rng.below(accounts);
                if to == from {
                    to = (to + 1) % accounts;
                }
                let amount = 1 + rng.below(5) as i64;
                let spec = transfer(from, to, amount);
                let t0 = Instant::now();
                let result = client.submit(&spec, Duration::from_secs(10))?;
                metrics.observe("client.latency", t0.elapsed().as_secs_f64());
                if result.is_committed() {
                    committed += 1;
                }
            }
            Ok((per_client, committed, metrics))
        }));
    }
    let mut submitted = 0;
    let mut committed = 0;
    let mut metrics = Metrics::new();
    for h in handles {
        let (s, c, m) = h.join().expect("client thread panicked")?;
        submitted += s;
        committed += c;
        metrics.merge(&m);
    }
    let elapsed = start.elapsed();

    // Conservation gate: wait for the cluster to drain residual
    // uncertainty, then audit total funds across every site.
    let mut control: Vec<NetClient> = Vec::new();
    for (s, addr) in addrs.iter().enumerate() {
        control.push(NetClient::connect(
            *addr,
            sites + 1 + args.clients + s as u32,
            args.backoff,
        )?);
    }
    let drain_limit = Instant::now() + Duration::from_secs(30);
    loop {
        let mut polys = 0;
        let mut quiescent = true;
        for client in &mut control {
            let snap = client.inspect(Duration::from_secs(5))?;
            polys += snap.poly_count;
            quiescent &= snap.quiescent;
        }
        if polys == 0 && quiescent {
            break;
        }
        if Instant::now() > drain_limit {
            return Err(EngineError::Io(format!(
                "cluster did not drain: {polys} polyvalues still in doubt"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut total = 0i64;
    for client in &mut control {
        let snap = client.inspect(Duration::from_secs(5))?;
        for (_, entry) in &snap.items {
            let v = entry
                .as_simple()
                .and_then(pv_core::Value::as_int)
                .ok_or_else(|| EngineError::Io("unsettled item after drain".into()))?;
            total += v;
        }
    }
    let expected = args.accounts as i64 * args.balance;
    if total != expected {
        return Err(EngineError::Io(format!(
            "CONSERVATION VIOLATION: total {total}, expected {expected}"
        )));
    }

    // Merge each site's registry (phase histograms, protocol counters).
    for client in &mut control {
        metrics.merge(&client.metrics(Duration::from_secs(5))?);
    }
    Ok(RunStats {
        sites,
        clients: args.clients,
        submitted,
        committed,
        elapsed,
        metrics,
    })
}

/// One spawn-measure-shutdown cycle.
fn run_once(args: &Args) -> Result<RunStats, EngineError> {
    if !args.addrs.is_empty() {
        return run_load(args, &args.addrs);
    }
    let addrs = free_addrs(args.sites)?;
    let children = spawn_cluster(args, &addrs)?;
    let stats = run_load(args, &addrs)?;
    // Clean shutdown: every site flushes its WAL and exits 0.
    for (s, addr) in addrs.iter().enumerate() {
        let mut c = NetClient::connect(*addr, 1_000_000 + s as u32, args.backoff)?;
        c.shutdown()?;
    }
    for mut guard in children {
        let status = guard
            .0
            .wait()
            .map_err(|e| EngineError::Io(format!("wait pv-node: {e}")))?;
        if !status.success() {
            return Err(EngineError::Io(format!(
                "pv-node site {} exited with {status}",
                guard.1
            )));
        }
    }
    Ok(stats)
}

fn print_stats(stats: &RunStats) {
    println!(
        "sites={} clients={} submitted={} committed={} elapsed={:.2}s throughput={:.0} txn/s",
        stats.sites,
        stats.clients,
        stats.submitted,
        stats.committed,
        stats.elapsed.as_secs_f64(),
        stats.throughput()
    );
    for name in ["client.latency", "phase.submit_decided", "phase.submit_prepared"] {
        if let Some(h) = stats.metrics.histogram(name) {
            println!(
                "  {name}: n={} p50={:.2}ms p99={:.2}ms max={:.2}ms",
                h.count(),
                h.quantile(0.5).unwrap_or(0.0) * 1e3,
                h.quantile(0.99).unwrap_or(0.0) * 1e3,
                h.max().unwrap_or(0.0) * 1e3,
            );
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    match run_once(&args) {
        Ok(stats) => {
            print_stats(&stats);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}", error_json(&e));
            ExitCode::FAILURE
        }
    }
}
