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
//! The stats line ends with `spin_hits`, the share of the sites' spinning
//! waits that caught a frame before they would have blocked.

use pv_core::TransactionSpec;
use pv_engine::{CommitProtocol, EngineError};
use pv_net::backoff::Backoff;
use pv_net::node::error_json;
use pv_net::proc::{balances, sibling_node_bin, ProcCluster, ProcSpec};
use pv_simnet::{Metrics, SimRng};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: pv-loadgen [--sites N] [--accounts N] [--balance V] [--txns N] [--clients N] \
         [--protocol polyvalue|blocking-2pc|relaxed|paxos-commit] [--addrs HOST:PORT,...] [--seed N] \
         [--attempts N] [--delay-ms N]"
    );
    std::process::exit(2);
}

struct Args {
    sites: u32,
    accounts: u64,
    balance: i64,
    txns: u64,
    clients: u32,
    protocol: CommitProtocol,
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
        protocol: CommitProtocol::Polyvalue,
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
            "--protocol" => args.protocol = value("--protocol").parse().unwrap_or_else(|_| usage()),
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

    /// The share of the sites' spinning waits that caught a frame before
    /// they would have blocked (0 when no wait spun).
    fn spin_hit_ratio(&self) -> f64 {
        let caught = self.metrics.counter("net.spin.caught") as f64;
        let blocked = self.metrics.counter("net.spin.blocked") as f64;
        caught / (caught + blocked).max(1.0)
    }
}

/// Drives `txns` transfers through `clients` closed-loop connections and
/// verifies conservation before returning.
fn run_load(args: &Args, cluster: &ProcCluster) -> Result<RunStats, EngineError> {
    let sites = cluster.sites();
    let per_client = args.txns / u64::from(args.clients).max(1);
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..args.clients {
        let mut client = cluster.client(c % sites)?;
        let accounts = args.accounts;
        let seed = args.seed.wrapping_add(u64::from(c) * 7919);
        handles.push(std::thread::spawn(move || -> Result<(u64, u64, Metrics), EngineError> {
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
                let spec = TransactionSpec::transfer(from, to, amount);
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
    let total: i64 = balances(&cluster.settle(Duration::from_secs(30))?)?.values().sum();
    let expected = args.accounts as i64 * args.balance;
    if total != expected {
        return Err(EngineError::Io(format!(
            "CONSERVATION VIOLATION: total {total}, expected {expected}"
        )));
    }
    // Merge each site's registry (phase histograms, protocol counters).
    metrics.merge(&cluster.metrics(Duration::from_secs(5))?);
    Ok(RunStats {
        sites,
        clients: args.clients,
        submitted,
        committed,
        elapsed,
        metrics,
    })
}

/// One spawn-measure-shutdown cycle, or one measurement of a cluster
/// started by someone else (`--addrs`), which is left running.
fn run_once(args: &Args) -> Result<RunStats, EngineError> {
    let cluster = if args.addrs.is_empty() {
        ProcCluster::spawn(ProcSpec {
            accounts: args.accounts,
            balance: args.balance,
            protocol: args.protocol,
            backoff: args.backoff,
            ..ProcSpec::new(sibling_node_bin()?, args.sites)
        })?
    } else {
        ProcCluster::attach(args.addrs.clone(), args.backoff)
    };
    let stats = run_load(args, &cluster)?;
    // Clean shutdown: every spawned site flushes its WAL and exits 0.
    cluster.shutdown()?;
    Ok(stats)
}

fn print_stats(stats: &RunStats) {
    println!(
        "sites={} clients={} submitted={} committed={} elapsed={:.2}s throughput={:.0} txn/s \
         spin_hits={:.2}",
        stats.sites,
        stats.clients,
        stats.submitted,
        stats.committed,
        stats.elapsed.as_secs_f64(),
        stats.throughput(),
        stats.spin_hit_ratio()
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
