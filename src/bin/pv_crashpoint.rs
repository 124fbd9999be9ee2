//! `pv-crashpoint` — exhaustive crash-point recovery exploration.
//!
//! Runs a seeded multi-site transfer scenario, enumerates every
//! stable-storage append point each site reaches, then crashes the site at
//! each point in a fresh same-seed run, recovers it, and checks the tier-1
//! invariants (conservation, no residual polyvalues, quiescence) after
//! settling. FoundationDB-style: deterministic, reproducible, exhaustive.
//!
//! ```text
//! pv-crashpoint                          # defaults: 3 sites, both fsync policies
//! pv-crashpoint --seed 7 --transfers 40  # bigger scripted scenario
//! pv-crashpoint --policy per-decision    # single policy
//! pv-crashpoint --max-points 50          # cap points per site (CI budget)
//! ```
//!
//! Exit status is 0 when every crash point recovered cleanly, 1 when any
//! invariant violation was found, and 2 on usage errors.

use polyvalues::engine::crashpoint::{explore, CrashPointConfig};
use polyvalues::protocol::CommitProtocol;
use polyvalues::store::FsyncPolicy;
use std::process::ExitCode;

const USAGE: &str = "usage: pv-crashpoint [options]

options:
  --seed <n>          scenario seed (default 0xCAFE)
  --sites <n>         number of sites (default 3)
  --accounts <n>      number of accounts (default 12)
  --transfers <n>     scripted transfers (default 20)
  --policy <p>        fsync policy: per-append | per-decision | every-<n> | all
                      (default: all = per-decision and every-8)
  --protocol <p>      commit protocol: polyvalue | blocking-2pc | paxos-commit
                      (default: polyvalue)
  --max-points <n>    cap crash points per site, evenly sampled (default: all)
  -h, --help          this message
";

fn parse_policy(s: &str) -> Option<Vec<(String, FsyncPolicy)>> {
    match s {
        "all" => Some(vec![
            ("per-decision".into(), FsyncPolicy::PerDecision),
            ("every-8".into(), FsyncPolicy::EveryN(8)),
        ]),
        "per-append" => Some(vec![("per-append".into(), FsyncPolicy::PerAppend)]),
        "per-decision" => Some(vec![("per-decision".into(), FsyncPolicy::PerDecision)]),
        other => {
            let n = other.strip_prefix("every-")?.parse().ok()?;
            Some(vec![(other.into(), FsyncPolicy::EveryN(n))])
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = CrashPointConfig {
        seed: 0xCAFE,
        transfers: 20,
        ..CrashPointConfig::default()
    };
    let mut policies = parse_policy("all").expect("static default");
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
            "--policy" => match take("--policy").and_then(|v| parse_policy(v)) {
                Some(p) => policies = p,
                None => {
                    eprintln!("pv-crashpoint: bad --policy\n{USAGE}");
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
    let mut failed = false;
    for (label, policy) in policies {
        let report = explore(&CrashPointConfig {
            policy,
            ..cfg.clone()
        });
        println!(
            "policy {label:>12}: {report} (seed {:#x}, {} sites, {} transfers)",
            cfg.seed, cfg.sites, cfg.transfers
        );
        for v in &report.violations {
            println!("  VIOLATION {v}");
        }
        failed |= !report.ok();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
