//! `pv-crashpoint` — exhaustive crash-point recovery exploration.
//!
//! Runs a seeded multi-site transfer scenario, enumerates every
//! stable-storage append point each site reaches, then crashes the site at
//! each point in a fresh same-seed run, recovers it, and checks the tier-1
//! invariants (conservation, no residual polyvalues, quiescence) after
//! settling. FoundationDB-style: deterministic, reproducible, exhaustive.
//! Every site's log syncs per decision, so a crash loses the background
//! records written since the last sync.
//!
//! ```text
//! pv-crashpoint                          # defaults: 3 sites, 20 transfers
//! pv-crashpoint --seed 7 --transfers 40  # bigger scripted scenario
//! pv-crashpoint --max-points 50          # cap points per site (CI budget)
//! ```
//!
//! Exit status is 0 when every crash point recovered cleanly, 1 when any
//! invariant violation was found, and 2 on usage errors.

use polyvalues::engine::crashpoint::{explore, CrashPointConfig};
use polyvalues::protocol::CommitProtocol;
use std::process::ExitCode;

const USAGE: &str = "usage: pv-crashpoint [options]

options:
  --seed <n>          scenario seed (default 0xCAFE)
  --sites <n>         number of sites (default 3)
  --accounts <n>      number of accounts (default 12)
  --transfers <n>     scripted transfers (default 20)
  --protocol <p>      commit protocol: polyvalue | blocking-2pc | paxos-commit
                      (default: polyvalue)
  --max-points <n>    cap crash points per site, evenly sampled (default: all)
  -h, --help          this message
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = CrashPointConfig {
        seed: 0xCAFE,
        transfers: 20,
        ..CrashPointConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Option<&String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("pv-crashpoint: {name} needs a value\n{USAGE}");
            }
            v
        };
        match arg.as_str() {
            "--seed" => match take("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return ExitCode::from(2),
            },
            "--sites" => match take("--sites").and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => cfg.sites = v,
                _ => return ExitCode::from(2),
            },
            "--accounts" => match take("--accounts").and_then(|v| v.parse().ok()) {
                Some(v) if v >= 2 => cfg.accounts = v,
                _ => return ExitCode::from(2),
            },
            "--transfers" => match take("--transfers").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.transfers = v,
                None => return ExitCode::from(2),
            },
            "--max-points" => match take("--max-points").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_points_per_site = Some(v),
                None => return ExitCode::from(2),
            },
            // `relaxed` is refused: its unilateral decisions break the
            // sweep's conservation check by design.
            "--protocol" => match take("--protocol").map(|v| v.parse::<CommitProtocol>()) {
                Some(Ok(p)) if !matches!(p, CommitProtocol::Relaxed { .. }) => cfg.protocol = p,
                _ => {
                    eprintln!("pv-crashpoint: bad --protocol\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" | "help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pv-crashpoint: unknown option {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let report = explore(&cfg);
    println!(
        "{report} (seed {:#x}, {} sites, {} transfers)",
        cfg.seed, cfg.sites, cfg.transfers
    );
    for v in &report.violations {
        println!("  VIOLATION {v}");
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
