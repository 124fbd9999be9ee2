//! One polyvalue site as an OS process, serving real TCP.
//!
//! ```text
//! pv-node --site 0 --addrs 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 \
//!         [--listen HOST:PORT] [--accounts 12] [--balance 100] \
//!         [--protocol polyvalue] [--data-dir DIR] [--static-checks] [--fast] \
//!         [--attempts 50] [--delay-ms 100] [--max-delay-ms 1000]
//! ```
//!
//! The address list defines the cluster: site `i` listens on the `i`-th
//! address, and every process must be started with the same list and the
//! same seeding flags (they all derive the same [`Topology`]). `--listen`
//! overrides only where this process binds — the chaos harness uses it to
//! bind sites on their real addresses while `--addrs` points every peer
//! table at the fault-injecting proxies. The process serves until a client
//! sends a `Shutdown` frame (exit 0). Any fatal condition — a peer
//! unreachable past the backoff policy's attempt budget, a bind failure —
//! prints a structured JSON error on stderr and exits non-zero instead of
//! hanging:
//!
//! ```text
//! {"error":{"kind":"unreachable","site":2,"detail":"127.0.0.1:7102 after 50 attempts: ..."}}
//! ```
//!
//! Reconnect pacing is exponential: `--delay-ms` is the base delay,
//! doubling (with jitter) toward `--max-delay-ms`, for `--attempts`
//! consecutive failures before the peer is declared unreachable.

use pv_engine::{CommitProtocol, Directory, EngineConfig, EngineError, Topology};
use pv_net::backoff::Backoff;
use pv_net::node::{error_json, Node};
use pv_net::proc::fast_config;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pv-node --site N --addrs HOST:PORT,... [--listen HOST:PORT] [--accounts N] \
         [--balance V] [--protocol polyvalue|blocking-2pc|relaxed|paxos-commit] [--data-dir DIR] \
         [--static-checks] [--fast] [--attempts N] [--delay-ms N] [--max-delay-ms N]"
    );
    std::process::exit(2);
}

struct Args {
    site: u32,
    addrs: Vec<SocketAddr>,
    listen: Option<SocketAddr>,
    accounts: u64,
    balance: i64,
    protocol: CommitProtocol,
    data_dir: Option<String>,
    static_checks: bool,
    fast: bool,
    backoff: Backoff,
}

fn parse_args() -> Args {
    let mut args = Args {
        site: u32::MAX,
        addrs: Vec::new(),
        listen: None,
        accounts: 0,
        balance: 100,
        protocol: CommitProtocol::Polyvalue,
        data_dir: None,
        static_checks: false,
        fast: false,
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
            "--site" => args.site = value("--site").parse().unwrap_or_else(|_| usage()),
            "--addrs" => {
                args.addrs = value("--addrs")
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--accounts" => args.accounts = value("--accounts").parse().unwrap_or_else(|_| usage()),
            "--balance" => args.balance = value("--balance").parse().unwrap_or_else(|_| usage()),
            "--protocol" => args.protocol = value("--protocol").parse().unwrap_or_else(|_| usage()),
            "--listen" => {
                args.listen = Some(value("--listen").parse().unwrap_or_else(|_| usage()))
            }
            "--data-dir" => args.data_dir = Some(value("--data-dir")),
            "--static-checks" => args.static_checks = true,
            "--fast" => args.fast = true,
            "--attempts" => {
                args.backoff.attempts = value("--attempts").parse().unwrap_or_else(|_| usage())
            }
            "--delay-ms" => {
                args.backoff.base =
                    Duration::from_millis(value("--delay-ms").parse().unwrap_or_else(|_| usage()));
                args.backoff.max = args.backoff.max.max(args.backoff.base);
            }
            "--max-delay-ms" => {
                args.backoff.max = Duration::from_millis(
                    value("--max-delay-ms").parse().unwrap_or_else(|_| usage()),
                )
            }
            _ => usage(),
        }
    }
    if args.site == u32::MAX || args.addrs.is_empty() || args.site as usize >= args.addrs.len() {
        usage();
    }
    args
}

fn run(args: Args) -> Result<(), EngineError> {
    let sites = args.addrs.len() as u32;
    let engine = if args.fast {
        fast_config(args.protocol)
    } else {
        EngineConfig::with_protocol(args.protocol)
    };
    let mut topo = Topology::new(sites, Directory::Mod(sites))
        .engine(engine)
        .uniform_items(args.accounts, args.balance);
    if args.static_checks {
        topo = topo.static_checks();
    }
    if let Some(dir) = &args.data_dir {
        topo = topo.data_dir(dir);
    }
    let listen = args.listen.unwrap_or(args.addrs[args.site as usize]);
    let mut node = Node::bind(args.site, &topo, args.backoff, listen)?;
    node.set_peers(args.addrs.clone());
    eprintln!("pv-node: site {} serving on {listen}", args.site);
    node.run()?;
    eprintln!("pv-node: site {} shut down cleanly", args.site);
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", error_json(&e));
            ExitCode::FAILURE
        }
    }
}
