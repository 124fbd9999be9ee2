//! `pvbench` — the repository's one layered benchmark.
//!
//! ```text
//! pvbench --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! pvbench run W | trace W  [--seed N] [--secs S]          the same, by subcommand
//! pvbench all [--seed N] [--secs S] [--repeat R] [--out F] every workload, each in a fresh process
//! pvbench compare A.json B.json [--bench BENCHMARK.json]  verdict per workload and metric
//! ```
//!
//! Five workloads (see `workload.rs` and the README) each stress a different
//! layer; `BENCHMARK.json` lists the three whose figures hold still on a
//! shared two-core box. An untraced run prints the end-to-end metrics; a traced run replays
//! the same seeded stream through a single-threaded pump that records spans
//! around every call into a layer, and prints the per-layer metrics. Every
//! run checks its outputs and exits non-zero on any violation.

mod compare;
mod json;
mod layers;
mod micro;
mod netload;
mod pump;
mod report;
mod scratch;
mod simload;
mod stats;
mod timed;
mod trace;
mod workload;

use json::Json;
use report::Report;
use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

/// Measured seconds when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECS: u64 = 16;

/// Warm-up before the measured interval of a networked workload.
const WARMUP: Duration = Duration::from_secs(2);

/// Cluster set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    secs: u64,
    trace: bool,
    repeat: usize,
    out: Option<String>,
    bench: String,
    positional: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: pvbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         pvbench run|trace <workload> [--seed N] [--secs S]\n       \
         pvbench all [--seed N] [--secs S] [--repeat R] [--out FILE]\n       \
         pvbench compare A.json B.json [--bench BENCHMARK.json]",
        workload::NAMES.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1979,
        secs: DEFAULT_SECS,
        trace: false,
        repeat: 1,
        out: None,
        bench: "BENCHMARK.json".into(),
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: `{v}` is not a number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" | "--secs" => args.secs = number(value()?)?.clamp(1, 600),
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            "--out" => args.out = Some(value()?),
            "--bench" => args.bench = value()?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and returns what it measured.
fn run_workload(name: &str, seed: u64, secs: u64, traced: bool) -> Result<Report, String> {
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut report = match (&workload, traced) {
        (Workload::Net(spec), false) => {
            let opts = netload::RunOpts {
                seed,
                secs,
                warmup: WARMUP,
                setup_reps: SETUP_REPS,
                fetch_registry: false,
            };
            let data = data_root(spec.disk)?;
            let out = netload::run(spec, &opts, data.as_ref().map(|d| d.path()));
            for note in &out.notes {
                eprintln!("pvbench: failed operation: {note}");
            }
            // The per-window series behind the reported quartiles.
            let mut series = vec![
                ("commits per window", out.commits.counts()),
                ("commit p50 per window", out.commits.percentiles(0.5)),
                ("commit p99 per window", out.commits.percentiles(0.99)),
                ("cpu us per window", out.cpu_us.clone()),
                ("steal ticks per window", out.steal_ticks.clone()),
            ];
            if out.reads.count() > 0 {
                series.push(("reads per window", out.reads.counts()));
                series.push(("read p50 per window", out.reads.percentiles(0.5)));
                series.push(("read p99 per window", out.reads.percentiles(0.99)));
            }
            for (label, values) in series {
                eprintln!("pvbench: {label} {values:?}");
            }
            report::net_end_to_end(&out)
        }
        (Workload::Sim(spec), false) => {
            let runs: Vec<_> = simload::seeds(spec, seed, secs)
                .map(|s| report::SimDigest::from(&simload::run_one(spec, s, None)))
                .collect();
            report::sim_end_to_end(&runs)
        }
        (Workload::Net(spec), true) => layers::trace_net(name, spec, seed, secs)?,
        (Workload::Sim(spec), true) => layers::trace_sim(name, spec, seed, secs)?,
    };
    report.check_against(if traced {
        report::PER_LAYER
    } else {
        report::END_TO_END
    });
    Ok(report)
}

/// The temporary data directory of a disk-backed run (removed on drop).
pub fn data_root(disk: bool) -> Result<Option<scratch::TempDir>, String> {
    disk.then(|| scratch::TempDir::new("data").map_err(|e| format!("temp dir: {e}")))
        .transpose()
}

fn print_report(name: &str, report: &Report, catalogue: &[(&str, &str)]) {
    for (metric, unit) in catalogue {
        if let Some(v) = report.get(metric) {
            println!("{name:<15} {metric:<42} {v:>16.4} {unit}");
        }
    }
    for v in &report.violations {
        eprintln!("pvbench: VIOLATION in {name}: {v}");
    }
}

/// `--workload …` / `run` / `trace`: one run, metrics by name and unit, then
/// the result line the driver parses.
fn cmd_single(name: &str, args: &Args, traced: bool) -> ExitCode {
    let catalogue = if traced {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    match run_workload(name, args.seed, args.secs, traced) {
        Ok(report) => {
            print_report(name, &report, catalogue);
            println!("{}", report.to_json(catalogue).render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pvbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `pvbench --workload …` in a fresh child process, so that peak memory
/// and CPU time belong to that workload alone, and parses its result line.
fn run_child(name: &str, seed: u64, secs: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &secs.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{name} failed its gates: {last}"));
    }
    Ok(result)
}

/// `all`: every workload untraced (`--repeat` times, seeds `seed..`), then
/// every workload traced once; prints every metric and optionally writes the
/// result file `compare` reads.
fn cmd_all(args: &Args) -> ExitCode {
    let mut failed = false;
    let mut workloads = Vec::new();
    for name in workload::NAMES {
        let mut runs = Vec::new();
        for rep in 0..args.repeat {
            match run_child(name, args.seed + rep as u64, args.secs, false) {
                Ok(result) => runs.push(result),
                Err(e) => {
                    eprintln!("pvbench: {e}");
                    failed = true;
                }
            }
        }
        for (metric, unit) in report::END_TO_END {
            let values = compare::metric_values(&runs, metric);
            if !values.is_empty() {
                let spread = stats::spread(&values)
                    .map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
                println!(
                    "{name:<15} {metric:<42} {:>16.4} {unit}{spread}",
                    stats::median(&values)
                );
            }
        }
        workloads.push((name, Json::Arr(runs)));
    }
    let mut layers = Vec::new();
    for name in workload::NAMES {
        match run_child(name, args.seed, args.secs, true) {
            Ok(result) => {
                for (metric, unit) in report::PER_LAYER {
                    if let Some(v) =
                        compare::metric_values(std::slice::from_ref(&result), metric).first()
                    {
                        println!("{name:<15} {metric:<42} {v:>16.4} {unit}");
                    }
                }
                layers.push((name, result));
            }
            Err(e) => {
                eprintln!("pvbench: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.secs as f64)),
            ("end_to_end", Json::obj(workloads)),
            ("per_layer", Json::obj(layers)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("pvbench: write {path}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pvbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (args.workload.as_deref(), positional.as_slice()) {
        (Some(name), []) => cmd_single(name, &args, args.trace),
        (None, ["run", name]) => cmd_single(name, &args, false),
        (None, ["trace", name]) => cmd_single(name, &args, true),
        (None, ["all"]) => cmd_all(&args),
        (None, ["compare", a, b]) => compare::run(a, b, &args.bench),
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn driver_flags_and_subcommands_parse() {
        let a = args("--workload net_closed --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.secs, a.trace),
            (Some("net_closed"), 7, 3, true)
        );
        let a = args("all --secs 5 --repeat 10 --out r.json").unwrap();
        assert_eq!(
            (a.positional, a.secs, a.repeat),
            (vec!["all".to_owned()], 5, 10)
        );
        assert_eq!(a.out.as_deref(), Some("r.json"));
        assert_eq!(args("run sim_faulty").unwrap().secs, DEFAULT_SECS);
        assert!(args("--seed").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--frobnicate 1").is_err());
        assert!(run_workload("no_such_workload", 1, 1, false).is_err());
    }

    /// `net_closed --secs 1` end to end: a real 3-site TCP cluster under
    /// closed-loop load passes its drain, conservation and exact-balance
    /// gates and reports every end-to-end metric. (Fewer accounts than the
    /// benchmark proper, so an unoptimised test build seeds quickly.)
    #[test]
    fn net_closed_smoke_run_passes_its_gates() {
        let Some(Workload::Net(mut spec)) = workload::by_name("net_closed") else {
            panic!("net_closed is a net workload");
        };
        spec.accounts = 1024;
        let opts = netload::RunOpts {
            seed: 11,
            secs: 1,
            warmup: Duration::from_millis(200),
            setup_reps: 2,
            fetch_registry: false,
        };
        let out = netload::run(&spec, &opts, None);
        assert_eq!(out.violations, Vec::<String>::new());
        assert_eq!(out.setup_s.len(), 2);
        assert!(out.commits.count() > 0 && out.attempted >= out.commits.count());
        let mut report = report::net_end_to_end(&out);
        report.check_against(report::END_TO_END);
        assert!(report.correct(), "{:?}", report.violations);
        assert!(report
            .metrics
            .iter()
            .all(|(name, v)| *v > 0.0 || *name == "failed"));
    }

    /// One seed of `sim_faulty`: the chaos schedule installs and collapses
    /// polyvalues, and the run conserves money and drains completely.
    #[test]
    fn sim_faulty_single_seed_passes_its_gates_and_repeats_exactly() {
        let Some(Workload::Sim(spec)) = workload::by_name("sim_faulty") else {
            panic!("sim_faulty is a sim workload");
        };
        let seed = simload::seeds(&spec, 3, 1).start;
        let run = simload::run_one(&spec, seed, None);
        assert_eq!(run.violations, Vec::<String>::new());
        assert!(run.committed() > 0 && run.prompt <= run.committed());
        let again = simload::run_one(&spec, seed, None);
        let counts = |r: &simload::SimRun| {
            [
                "client.committed",
                "net.delivered",
                "poly.installed_items",
                "txn.polytransactions",
            ]
            .map(|c| r.registry.counter(c))
        };
        assert_eq!(counts(&run), counts(&again));
        assert_eq!(run.prompt, again.prompt);
        let mut report = report::sim_end_to_end(&[report::SimDigest::from(&run)]);
        report.check_against(report::END_TO_END);
        assert!(report.correct(), "{:?}", report.violations);
    }
}
