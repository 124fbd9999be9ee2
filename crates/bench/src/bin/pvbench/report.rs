//! The metric catalogue (the names `BENCHMARK.json` declares) and the
//! one-line result the driver reads.

use crate::json::Json;
use crate::netload::NetOutcome;
use crate::simload::SimRun;
use crate::stats::{self, best_quartile, median, percentile};
use pv_simnet::Metrics;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
///
/// Every workload reports every metric. Where a workload has no operation of
/// the metric's kind, the metric takes the workload's closest reading (see
/// the README's table): the read metrics repeat the commit metrics on
/// workloads without a read stream, and `prompt_ratio` is the share of
/// operations acknowledged on fault-free workloads. Tail latencies and CPU
/// time per operation are per-layer metrics (`client.*_p99_ms`,
/// `client.cpu_us_per_op`): their run-to-run spread on a small shared box is
/// wider than any bound an end-to-end metric may carry.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_tps", "1/s"),
    ("commit_p50_ms", "ms"),
    ("read_throughput_ops", "1/s"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("prompt_ratio", "ratio"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Layers are named
/// after the repository's modules; the README says which end-to-end metric
/// each one should move, and on which workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.bytes_per_commit", "B"),
    ("net.wire.frames_per_commit", "count"),
    ("net.wire.self_us_per_commit", "us"),
    ("net.node.idle_wakeups_per_s", "1/s"),
    ("net.node.client_minus_site_p50_ms", "ms"),
    ("net.node.loopback_rtt_us", "us"),
    ("net.node.critical_path_hops", "count"),
    ("net.node.critical_path_syncs", "count"),
    ("net.node.commit_p50_over_floor", "ratio"),
    ("protocol.machine.step_ns", "ns"),
    ("protocol.machine.steps_per_commit", "count"),
    ("protocol.machine.self_us_per_commit", "us"),
    ("protocol.machine.msgs_per_commit", "count"),
    ("protocol.phase.submit_prepared_p50_ms", "ms"),
    ("protocol.phase.prepared_decided_p50_ms", "ms"),
    ("protocol.locks.conflicts_per_kop", "count"),
    ("protocol.locks.acquire_release_ns", "ns"),
    ("core.poly.installed_per_kcommit", "count"),
    ("core.poly.polytxn_per_kcommit", "count"),
    ("core.poly.alternatives_mean", "count"),
    ("core.poly.depth_max", "count"),
    ("core.poly.lifetime_p50_ms", "ms"),
    ("core.cond.assign_ns", "ns"),
    ("core.entry.assemble_ns", "ns"),
    ("store.wal.append_ns", "ns"),
    ("store.wal.sync_us", "us"),
    ("store.wal.self_us_per_commit", "us"),
    ("store.wal.appends_per_commit", "count"),
    ("store.wal.syncs_per_commit", "count"),
    ("store.wal.bytes_per_commit", "B"),
    ("store.codec.encode_record_ns", "ns"),
    ("store.codec.decode_record_ns", "ns"),
    ("store.lsm.put_ns", "ns"),
    ("store.lsm.get_at_ns", "ns"),
    ("store.lsm.snapshot_read_us", "us"),
    ("store.lsm.flushes_per_kcommit", "count"),
    ("store.lsm.compactions_per_kcommit", "count"),
    ("store.lsm.gc_dropped_per_kcommit", "count"),
    ("store.lsm.runs", "count"),
    ("store.lsm.mvcc_versions", "count"),
    ("store.recover_ms", "ms"),
    ("store.recover_records", "count"),
    ("engine.sim.msgs_per_wall_s", "1/s"),
    ("client.samples", "count"),
    ("client.commit_p99_ms", "ms"),
    ("client.read_p99_ms", "ms"),
    ("client.commit_max_ms", "ms"),
    ("client.failed_ratio", "ratio"),
    ("client.rss_kb_per_kcommit", "KiB"),
    ("client.cpu_us_per_op", "us"),
    ("trace.pump_us_per_commit", "us"),
    ("trace.budget_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_us_per_commit", "us"),
];

/// What one run of one workload found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Checks the run reported exactly the catalogue's metrics, each a
    /// finite number; anything else is a bug in the benchmark itself.
    pub fn check_against(&mut self, catalogue: &[(&str, &str)]) {
        for (name, _) in catalogue {
            match self.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.violations.push(format!("metric {name} is {v}")),
                None => self
                    .violations
                    .push(format!("metric {name} was not measured")),
            }
        }
        for (name, _) in &self.metrics {
            if !catalogue.iter().any(|(n, _)| n == name) {
                self.violations
                    .push(format!("metric {name} is not in the catalogue"));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Json {
        let metrics = catalogue.iter().filter_map(|(name, unit)| {
            let value = self.get(name)?;
            Some((
                *name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
            ))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// `q`-percentile of a registry histogram, scaled by `scale`; 0 when absent.
pub fn hist_q(m: &Metrics, name: &str, q: f64, scale: f64) -> f64 {
    let mut v = m
        .histogram(name)
        .map(|h| h.values().to_vec())
        .unwrap_or_default();
    v.sort_by(|a, b| a.partial_cmp(b).expect("observations are never NaN"));
    percentile(&v, q) * scale
}

/// End-to-end metrics of a networked workload.
pub fn net_end_to_end(out: &NetOutcome) -> Report {
    let mut r = Report {
        attempted: out.attempted,
        failed: out.failed,
        violations: out.violations.clone(),
        ..Report::default()
    };
    if out.commits.count() == 0 {
        r.violations
            .push("no transfer completed inside the interval".into());
    }
    let commits = &out.commits;
    // A workload without a read stream reports its commits as its reads.
    let reads = if out.reads.count() > 0 {
        &out.reads
    } else {
        commits
    };
    r.set("setup_s", median(&out.setup_s));
    r.set("throughput_tps", commits.throughput(&out.steal_ticks));
    r.set("commit_p50_ms", commits.latency(0.5));
    r.set("read_throughput_ops", reads.throughput(&out.steal_ticks));
    r.set("read_p50_ms", reads.latency(0.5));
    r.set("peak_rss_mb", out.setup_rss_mb);
    r.set(
        "prompt_ratio",
        (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64,
    );
    r
}

/// What the end-to-end metrics need of one simulation. An untraced run keeps
/// only this of each, so that its peak memory is one simulated cluster's and
/// not that of hundreds of registries the harness holds on to.
#[derive(Debug, Clone)]
pub struct SimDigest {
    pub setup_s: f64,
    pub wall_s: f64,
    pub committed: u64,
    pub submitted: u64,
    pub prompt: u64,
    /// Median client-observed commit latency, in simulated ms.
    pub latency_p50_ms: f64,
    pub violations: Vec<String>,
}

impl From<&SimRun> for SimDigest {
    fn from(run: &SimRun) -> Self {
        SimDigest {
            setup_s: run.setup_s,
            wall_s: run.wall_s,
            committed: run.committed(),
            submitted: run.submitted,
            prompt: run.prompt,
            latency_p50_ms: hist_q(&run.registry, "client.latency", 0.5, 1e3),
            violations: run.violations.clone(),
        }
    }
}

/// End-to-end metrics of the simulated workload.
///
/// The operation counted in `attempted`/`failed` is one seeded simulation,
/// which fails when its gates do; transfers the simulated clients abandon
/// under faults are the workload's *result* and show in `prompt_ratio`.
/// Latencies are simulated milliseconds (deterministic per seed); throughput
/// is wall-clock, with each simulation in the role a one-second window plays
/// on the other workloads.
pub fn sim_end_to_end(runs: &[SimDigest]) -> Report {
    let mut r = Report {
        attempted: runs.len() as u64,
        failed: runs.iter().filter(|s| !s.violations.is_empty()).count() as u64,
        violations: runs
            .iter()
            .flat_map(|s| s.violations.iter().cloned())
            .collect(),
        ..Report::default()
    };
    let per_sim = |f: &dyn Fn(&SimDigest) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    // Simulated latency is exact per seed: the median over the seeds. The
    // wall-clock figures treat each simulation as a window (best quartile).
    let p50 = median(&per_sim(&|s| s.latency_p50_ms));
    let tps = best_quartile(&per_sim(&|s| s.committed as f64 / s.wall_s.max(1e-9)), true);
    r.set("setup_s", median(&per_sim(&|s| s.setup_s)));
    r.set("throughput_tps", tps);
    r.set("commit_p50_ms", p50);
    r.set("read_throughput_ops", tps);
    r.set("read_p50_ms", p50);
    r.set("peak_rss_mb", stats::status_mb("VmHWM"));
    let submitted: u64 = runs.iter().map(|s| s.submitted).sum();
    let prompt: u64 = runs.iter().map(|s| s.prompt).sum();
    r.set("prompt_ratio", prompt as f64 / submitted.max(1) as f64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|m| *m == ("setup_s", "s")));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.check_against(END_TO_END);
        assert!(r.correct());
        let line = r.to_json(END_TO_END);
        let keys = |j: &Json| match j {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(keys(line.get("metrics").unwrap()).len(), END_TO_END.len());

        r.set("made_up", 1.0);
        r.metrics.retain(|(n, _)| *n != "setup_s");
        r.check_against(END_TO_END);
        assert_eq!(r.violations.len(), 2);
        assert_eq!(
            r.to_json(END_TO_END).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
