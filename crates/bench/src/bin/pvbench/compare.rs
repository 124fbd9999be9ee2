//! `pvbench compare A.json B.json`: applies the bounds fixed in
//! `BENCHMARK.json` to two result files written by `pvbench all --out`.
//!
//! One row per pairing of end-to-end metric and workload that `BENCHMARK.json`
//! lists (a workload it leaves out carries no bound), with the verdict
//! `better`, `within`, `worse` or `unresolved` — the last when the
//! run-to-run spread of either side is wider than the bound, so the numbers
//! cannot tell a regression from noise (`setup_s` excepted, as in the driver).

use crate::json::Json;
use crate::stats::{median, spread};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric's rule, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The values of `metric` across result lines.
pub fn metric_values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Judges side `b` against side `a` (each the metric's values over that
/// side's runs). Returns the verdict with the relative change of the medians
/// (positive = worse) and the wider of the two spreads, when defined.
pub fn judge(a: &[f64], b: &[f64], rule: &Bound) -> (Verdict, Option<f64>, Option<f64>) {
    let (ma, mb) = (median(a), median(b));
    let noise = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    if a.is_empty() || b.is_empty() {
        return (Verdict::Unresolved, None, noise);
    }
    if ma == 0.0 {
        let verdict = if mb == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
        return (verdict, None, noise);
    }
    let change = (mb - ma) / ma.abs();
    let worse_by = if rule.lower_is_better {
        change
    } else {
        -change
    };
    // Like the driver, judge `setup_s` on its medians alone: a set-up takes
    // milliseconds, and its spread says little about the code.
    let verdict = if rule.name != "setup_s" && noise.is_some_and(|n| n > rule.bound) {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else if worse_by < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, Some(worse_by), noise)
}

/// Reads the end-to-end rules out of a parsed `BENCHMARK.json`.
pub fn bounds(bench: &Json) -> Result<Vec<Bound>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The workloads a parsed `BENCHMARK.json` lists: the ones its bounds govern.
pub fn gated_workloads(bench: &Json) -> Result<Vec<String>, String> {
    bench
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Json::as_str);
            Ok(name.ok_or("workload without a name")?.to_owned())
        })
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn runs_of<'a>(file: &'a Json, workload: &str) -> &'a [Json] {
    file.get("end_to_end")
        .and_then(|w| w.get(workload))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

pub fn run(a_path: &str, b_path: &str, bench_path: &str) -> ExitCode {
    let loaded = load(a_path).and_then(|a| {
        let b = load(b_path)?;
        let bench = load(bench_path)?;
        Ok((a, b, bounds(&bench)?, gated_workloads(&bench)?))
    });
    let (a, b, rules, workloads) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("pvbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let pct = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{:+.1}%", v * 100.0));
    let mut bad = 0;
    for name in &workloads {
        let (ra, rb) = (runs_of(&a, name), runs_of(&b, name));
        for rule in &rules {
            let (va, vb) = (metric_values(ra, &rule.name), metric_values(rb, &rule.name));
            let (verdict, worse_by, noise) = judge(&va, &vb, rule);
            bad += u32::from(matches!(verdict, Verdict::Worse | Verdict::Unresolved));
            println!(
                "{name:<15} {:<22} {:>14.4} {:>14.4} {:>9} {:>8} {:>6.0}%  {}",
                rule.name,
                median(&va),
                median(&vb),
                pct(worse_by),
                pct(noise),
                rule.bound * 100.0,
                verdict.label()
            );
        }
    }
    if bad == 0 {
        println!("every pairing is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("{bad} pairings are worse or unresolved");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |k: f64| base.map(|v| v * k);
        // Latency-like metric: lower is better.
        assert_eq!(judge(&base, &shifted(1.05), &rule(true)).0, Verdict::Within);
        assert_eq!(judge(&base, &shifted(1.20), &rule(true)).0, Verdict::Worse);
        assert_eq!(judge(&base, &shifted(0.80), &rule(true)).0, Verdict::Better);
        // Throughput-like metric: the same moves read the other way round.
        assert_eq!(
            judge(&base, &shifted(1.20), &rule(false)).0,
            Verdict::Better
        );
        assert_eq!(judge(&base, &shifted(0.80), &rule(false)).0, Verdict::Worse);
        // A spread wider than the bound on either side resolves nothing.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&base, &noisy, &rule(true)).0, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &base, &rule(true)).0, Verdict::Unresolved);
        // Single runs have no spread; the medians alone decide.
        let (verdict, worse_by, noise) = judge(&[100.0], &[125.0], &rule(true));
        assert_eq!((verdict, noise), (Verdict::Worse, None));
        assert!((worse_by.unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(judge(&[], &[1.0], &rule(true)).0, Verdict::Unresolved);
        assert_eq!(judge(&[0.0], &[0.0], &rule(true)).0, Verdict::Within);
        // `setup_s` is exempt from the spread rule, as it is in the driver.
        let setup = Bound {
            name: "setup_s".into(),
            ..rule(true)
        };
        assert_eq!(judge(&noisy, &noisy, &setup).0, Verdict::Within);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let bench = Json::parse(
            r#"{"workloads": [{"name": "hit", "why": "x"}, {"name": "miss", "why": "y"}],
                "end_to_end": [
                {"name": "commit_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "throughput_tps", "unit": "1/s", "better": "higher", "bound": 0.15}]}"#,
        )
        .unwrap();
        let rules = bounds(&bench).unwrap();
        assert_eq!(rules.len(), 2);
        assert!(rules[0].lower_is_better && !rules[1].lower_is_better);
        assert_eq!(rules[1].bound, 0.15);
        assert_eq!(gated_workloads(&bench).unwrap(), ["hit", "miss"]);
        assert!(bounds(&Json::parse("{}").unwrap()).is_err());

        let line = Json::parse(r#"{"metrics": {"commit_p50_ms": {"value": 0.84, "unit": "ms"}}}"#)
            .unwrap();
        assert_eq!(
            metric_values(&[line.clone(), line], "commit_p50_ms"),
            [0.84, 0.84]
        );
    }
}
