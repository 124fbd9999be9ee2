//! `pv-explore` — exhaustive interleaving exploration of the commit protocol.
//!
//! Enumerates every reachable ordering of message deliveries, timer firings,
//! and (optionally) site crash/recover events for a small scripted-transfer
//! cluster, asserting the protocol invariants (agreement, polyvalue
//! lifecycle, conservation) in every reachable state. See
//! `pv_protocol::explore` for the semantics.
//!
//! ```text
//! pv-explore [--protocol NAME] [--sites N] [--txns N] [--crashes N]
//!            [--amount N] [--initial N] [--depth N] [--max-states N]
//!            [--allow-truncation] [--summary FILE]
//! ```
//!
//! `--protocol` selects the commit protocol under test: `polyvalue`
//! (default), `blocking-2pc`, `relaxed`, or `paxos-commit`.
//!
//! Exit status: 0 on a clean, complete enumeration; 1 on invariant
//! violations; 2 if a bound truncated the search (unless
//! `--allow-truncation`).

use polyvalues::protocol::explore::{ExploreConfig, Explorer};
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = ExploreConfig::default();
    let mut allow_truncation = false;
    let mut summary_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{arg} needs a numeric value")))
        };
        match arg.as_str() {
            "--protocol" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--protocol needs a value"));
                cfg.engine.protocol = name.parse().unwrap_or_else(|e: String| die(&e));
            }
            "--sites" => cfg.sites = num(&mut args) as u32,
            "--txns" => cfg.txns = num(&mut args) as u32,
            "--crashes" => cfg.crashes = num(&mut args) as u32,
            "--amount" => cfg.amount = num(&mut args) as i64,
            "--initial" => cfg.initial = num(&mut args) as i64,
            "--depth" => cfg.max_depth = num(&mut args) as usize,
            "--max-states" => cfg.max_states = num(&mut args) as usize,
            "--allow-truncation" => allow_truncation = true,
            "--summary" => summary_path = args.next(),
            "--help" | "-h" => {
                println!(
                    "usage: pv-explore [--protocol NAME] [--sites N] [--txns N] [--crashes N] \
                     [--amount N] [--initial N] [--depth N] [--max-states N] \
                     [--allow-truncation] [--summary FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if cfg.sites == 0 || cfg.sites > 16 {
        die("--sites must be between 1 and 16");
    }

    eprintln!(
        "exploring: {} site(s), {} txn(s), crash budget {}, depth <= {}, states <= {}",
        cfg.sites, cfg.txns, cfg.crashes, cfg.max_depth, cfg.max_states
    );
    let start = std::time::Instant::now();
    let report = Explorer::new(cfg.clone()).run();
    let elapsed = start.elapsed();

    let mut summary = String::new();
    let _ = writeln!(summary, "pv-explore state-space summary");
    let _ = writeln!(
        summary,
        "scenario: sites={} txns={} crashes={} amount={} initial={}",
        cfg.sites, cfg.txns, cfg.crashes, cfg.amount, cfg.initial
    );
    let _ = writeln!(
        summary,
        "bounds:   depth<={} states<={}",
        cfg.max_depth, cfg.max_states
    );
    let _ = writeln!(summary, "states:      {}", report.states);
    let _ = writeln!(summary, "transitions: {}", report.transitions);
    let _ = writeln!(summary, "quiescent:   {}", report.quiescent);
    let _ = writeln!(summary, "deepest:     {}", report.deepest);
    let _ = writeln!(
        summary,
        "complete:    {}",
        if report.truncated { "NO (truncated)" } else { "yes" }
    );
    let _ = writeln!(summary, "violations:  {}", report.violations.len());
    for v in report.violations.iter().take(10) {
        let _ = writeln!(summary, "  [{}] {}", v.invariant, v.detail);
        for step in &v.path {
            let _ = writeln!(summary, "      {step}");
        }
    }
    let _ = writeln!(summary, "elapsed:     {:.2}s", elapsed.as_secs_f64());
    print!("{summary}");
    if let Some(path) = summary_path {
        if let Err(e) = std::fs::write(&path, &summary) {
            eprintln!("failed to write summary to {path}: {e}");
            return ExitCode::from(3);
        }
    }

    if !report.violations.is_empty() {
        ExitCode::FAILURE
    } else if report.truncated && !allow_truncation {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn die(msg: &str) -> ! {
    eprintln!("pv-explore: {msg}");
    std::process::exit(64);
}
