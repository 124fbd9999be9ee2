//! The traced pass: per-layer metrics of one workload.
//!
//! Three sources feed the table (the README says which metric comes from
//! which): the sites' own counters and phase histograms, fetched from outside
//! through `NetClient::metrics` or read off the simulated world ("registry");
//! spans the benchmark records around calls into public functions, in the
//! pump and the single-layer measurements ("traced"); and the load
//! generator's own samples. End-to-end metrics never come from here.

use crate::micro;
use crate::netload::{self, NetOutcome, RunOpts};
use crate::pump::{self, PumpOpts, PumpResult};
use crate::report::{hist_q, Report};
use crate::scratch;
use crate::simload::{self, SimRun, StorageFactory};
use crate::stats::median;
use crate::timed::TimedStorage;
use crate::trace::{self, Clock, StorageLog, Tracer};
use crate::workload::{NetSpec, SimSpec, Transfer, TransferStream};
use pv_simnet::Metrics;
use pv_store::MemStorage;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Transfers the traced pump replays at most (about 45 spans each).
const PUMP_COMMITS: u64 = 5_000;

/// Simulations run under `TimedStorage` (about 9,000 spans each).
const TRACED_SIMS: usize = 8;

/// Transfers replayed through the lock-table and keyspace measurements.
const MICRO_TRANSFERS: usize = 20_000;

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn hist_mean(m: &Metrics, name: &str) -> f64 {
    m.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0)
}

/// Mean duration (ns) and count of the spans called `name`.
fn span_mean_ns(tracer: &Tracer, name: &str) -> (f64, u64) {
    let (total, n) = tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(t, n), s| (t + s.duration_ns(), n + 1));
    (per(total as f64, n), n)
}

/// Metrics every workload derives the same way from a finished trace: the
/// WAL call costs and the layer budget. Returns the CPU the layers account
/// for per commit (µs) — their self times without `wal.sync`, which on disk
/// is time blocked in `fsync`, not time on a processor — for the caller to
/// set against the real run's `cpu_us_per_op`.
fn trace_metrics(r: &mut Report, tracer: &Tracer, root: &'static str, commits: u64) -> f64 {
    let (append_ns, appends) = span_mean_ns(tracer, trace::WAL_APPEND);
    let (sync_ns, _) = span_mean_ns(tracer, trace::WAL_SYNC);
    // `MemStorage` flushes on every append, so all its calls are syncs; the
    // append cost is then the cost of those calls.
    r.set(
        "store.wal.append_ns",
        if appends > 0 { append_ns } else { sync_ns },
    );
    r.set("store.wal.sync_us", sync_ns / 1e3);

    let budget = trace::self_times(&tracer.spans, &[trace::TXN]);
    let self_us = |names: &[&str]| {
        let ns: u64 = names.iter().filter_map(|n| budget.get(n)).sum();
        per(ns as f64 / 1e3, commits)
    };
    let wire = self_us(&[trace::ENCODE, trace::DECODE]);
    let step = self_us(&[trace::STEP]);
    r.set("net.wire.self_us_per_commit", wire);
    r.set("protocol.machine.self_us_per_commit", step);
    r.set(
        "store.wal.self_us_per_commit",
        self_us(&[trace::WAL_APPEND, trace::WAL_SYNC]),
    );
    let roots: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.duration_ns())
        .sum();
    r.set(
        "trace.budget_coverage",
        per(budget.values().sum::<u64>() as f64, roots),
    );
    wire + step + self_us(&[trace::WAL_APPEND])
}

fn write_trace(name: &str, tracer: &Tracer) -> Result<(), String> {
    let path = scratch::dir().join(format!("trace-{name}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "pvbench: {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}

/// Registry-derived metrics shared by the networked and simulated passes.
/// `m` covers exactly `commits` commits out of `attempted` submissions.
fn registry_metrics(
    r: &mut Report,
    m: &Metrics,
    counter: &dyn Fn(&str) -> u64,
    commits: u64,
    attempted: u64,
) {
    let per_commit = |name: &str| per(counter(name) as f64, commits);
    let per_k = |name: &str| per_commit(name) * 1e3;
    r.set(
        "protocol.phase.submit_prepared_p50_ms",
        hist_q(m, "phase.submit_prepared", 0.5, 1e3),
    );
    r.set(
        "protocol.phase.prepared_decided_p50_ms",
        hist_q(m, "phase.prepared_decided", 0.5, 1e3),
    );
    r.set(
        "protocol.locks.conflicts_per_kop",
        per(counter("lock.conflicts") as f64, attempted) * 1e3,
    );
    r.set(
        "core.poly.installed_per_kcommit",
        per_k("poly.installed_items"),
    );
    r.set(
        "core.poly.polytxn_per_kcommit",
        per_k("txn.polytransactions"),
    );
    r.set(
        "core.poly.alternatives_mean",
        hist_mean(m, "txn.alternatives"),
    );
    r.set(
        "core.poly.lifetime_p50_ms",
        hist_q(m, "poly.lifetime", 0.5, 1e3),
    );
    r.set("store.wal.appends_per_commit", per_commit("wal.appends"));
    r.set("store.wal.syncs_per_commit", per_commit("wal.syncs"));
    r.set("store.wal.bytes_per_commit", per_commit("wal.bytes"));
    r.set("store.lsm.flushes_per_kcommit", per_k("store.flushes"));
    r.set(
        "store.lsm.compactions_per_kcommit",
        per_k("store.compactions"),
    );
    r.set(
        "store.lsm.gc_dropped_per_kcommit",
        per_k("store.gc_dropped"),
    );
}

/// Single-layer measurements over the workload's own inputs.
fn micro_metrics(
    r: &mut Report,
    accounts: u64,
    thresholds: (usize, usize),
    stream: TransferStream,
) {
    let transfers: Vec<Transfer> = stream.take(MICRO_TRANSFERS).collect();
    r.set(
        "protocol.locks.acquire_release_ns",
        micro::lock_cycle_ns(&transfers),
    );
    let lsm = micro::lsm_costs(accounts, thresholds, &transfers);
    r.set("store.lsm.put_ns", lsm.put_ns);
    r.set("store.lsm.get_at_ns", lsm.get_at_ns);
    r.set("store.lsm.snapshot_read_us", lsm.snapshot_read_us);
}

/// The traced pass of a networked workload: a shorter real run for the
/// registry and the client's view, the traced and untraced pump, and the
/// single-layer measurements.
pub fn trace_net(name: &str, spec: &NetSpec, seed: u64, secs: u64) -> Result<Report, String> {
    let data = crate::data_root(spec.disk)?;
    let root = data.as_ref().map(|d| d.path());
    let opts = RunOpts {
        seed,
        secs: (secs / 2).max(2),
        warmup: crate::WARMUP,
        setup_reps: 1,
        fetch_registry: true,
    };
    let real: NetOutcome = netload::run(spec, &opts, root.map(|d| d.join("real")).as_deref());
    for note in &real.notes {
        eprintln!("pvbench: failed operation: {note}");
    }

    let budget = Duration::from_secs_f64(secs as f64 / 6.0);
    let traced: PumpResult = pump::run(
        spec,
        &PumpOpts {
            seed,
            traced: true,
            max_commits: PUMP_COMMITS,
            budget,
        },
        root.map(|d| d.join("pump-traced")).as_deref(),
    )?;
    // The untraced pump replays exactly the transfers the traced one did.
    let untraced: PumpResult = pump::run(
        spec,
        &PumpOpts {
            seed,
            traced: false,
            max_commits: traced.commits + traced.failed,
            budget: 4 * budget,
        },
        root.map(|d| d.join("pump-untraced")).as_deref(),
    )?;

    let mut r = Report {
        attempted: real.attempted,
        failed: real.failed,
        ..Report::default()
    };
    r.violations.extend(real.violations.iter().cloned());
    r.violations.extend(traced.violations.iter().cloned());
    r.violations.extend(untraced.violations.iter().cloned());
    if untraced.commits != traced.commits {
        r.violations.push(format!(
            "the untraced pump committed {} transfers, the traced one {}",
            untraced.commits, traced.commits
        ));
    }
    let (_, registry) = real
        .registry
        .as_ref()
        .ok_or_else(|| format!("no registry: {:?}", real.violations))?;
    let tracer = traced
        .tracer
        .as_ref()
        .expect("the traced pump keeps its spans");
    let commits = traced.commits;

    // Traced: the pump.
    r.set(
        "net.wire.encode_ns",
        per(traced.encode_ns as f64, traced.frames),
    );
    r.set(
        "net.wire.decode_ns",
        per(traced.decode_ns as f64, traced.frames),
    );
    r.set(
        "net.wire.bytes_per_commit",
        per(traced.frame_bytes as f64, commits),
    );
    r.set(
        "net.wire.frames_per_commit",
        per(traced.frames as f64, commits),
    );
    r.set(
        "protocol.machine.step_ns",
        per(traced.step_ns as f64, traced.steps),
    );
    r.set(
        "protocol.machine.steps_per_commit",
        per(traced.steps as f64, commits),
    );
    r.set(
        "protocol.machine.msgs_per_commit",
        per(traced.sends as f64, commits),
    );
    let layers_us = trace_metrics(&mut r, tracer, trace::PUMP, commits);
    let traced_us = per(traced.wall_ns as f64 / 1e3, commits);
    r.set("trace.pump_us_per_commit", traced_us);
    r.set(
        "trace.overhead_ratio",
        traced_us / per(untraced.wall_ns as f64 / 1e3, untraced.commits).max(1e-9),
    );
    r.set("client.cpu_us_per_op", real.cpu_us_per_op());
    r.set(
        "trace.unattributed_us_per_commit",
        real.cpu_us_per_op() - layers_us,
    );
    let (encode, decode) = micro::codec_ns(&traced.wal_sample);
    r.set("store.codec.encode_record_ns", encode);
    r.set("store.codec.decode_record_ns", decode);
    let thresholds = spec.lsm.unwrap_or_else(|| {
        let engine = spec.topology(None).engine;
        (engine.memtable_threshold, engine.run_threshold)
    });
    micro_metrics(&mut r, spec.accounts, thresholds, spec.transfers(seed, 0));
    let (recover_ms, recover_records) = match &real.site_dir {
        Some(dir) => micro::recover(dir)?,
        None => (0.0, 0),
    };
    r.set("store.recover_ms", recover_ms);
    r.set("store.recover_records", recover_records as f64);

    // Registry: the real sites' counters over the loaded span.
    registry_metrics(
        &mut r,
        registry,
        &|c| real.counter(c),
        real.committed_total,
        real.attempted,
    );
    r.set(
        "net.node.idle_wakeups_per_s",
        real.counter("net.idle_wakeups") as f64 / real.registry_span_s.max(1e-9),
    );
    r.set("core.poly.depth_max", 0.0); // gauges do not travel in `MetricsResp`
    r.set("store.lsm.runs", real.lsm_runs as f64);
    r.set("store.lsm.mvcc_versions", real.mvcc_versions as f64);

    // The client's view, and the floor under it.
    let commit_p50_ms = real.commits.latency(0.5);
    r.set(
        "net.node.client_minus_site_p50_ms",
        commit_p50_ms - hist_q(registry, "phase.submit_decided", 0.5, 1e3),
    );
    let rtt_us = micro::loopback_rtt_us(5_000)?;
    r.set("net.node.loopback_rtt_us", rtt_us);
    r.set("net.node.critical_path_hops", f64::from(traced.probe.hops));
    r.set(
        "net.node.critical_path_syncs",
        f64::from(traced.probe.syncs),
    );
    let sync_us = r.get("store.wal.sync_us").unwrap_or(0.0);
    let floor_ms = (f64::from(traced.probe.hops) * rtt_us / 2.0
        + f64::from(traced.probe.syncs) * sync_us)
        / 1e3;
    r.set(
        "net.node.commit_p50_over_floor",
        commit_p50_ms / floor_ms.max(1e-9),
    );
    r.set("client.samples", real.commits.count() as f64);
    let commit_p99_ms = real.commits.latency(0.99);
    r.set("client.commit_p99_ms", commit_p99_ms);
    r.set(
        "client.read_p99_ms",
        if real.reads.count() > 0 {
            real.reads.latency(0.99)
        } else {
            commit_p99_ms
        },
    );
    r.set("client.commit_max_ms", real.commits.max());
    r.set(
        "client.failed_ratio",
        per(real.failed as f64, real.attempted),
    );
    let (rss_before, rss_after) = real.interval_rss_mb;
    r.set(
        "client.rss_kb_per_kcommit",
        per(
            (rss_after - rss_before) * 1024.0 * 1e3,
            real.commits.count(),
        ),
    );

    // Only the simulation installs polyvalues or runs on a simulated network.
    r.set("core.cond.assign_ns", 0.0);
    r.set("core.entry.assemble_ns", 0.0);
    r.set("engine.sim.msgs_per_wall_s", 0.0);

    write_trace(name, tracer)?;
    Ok(r)
}

/// The traced pass of the simulated workload: the untraced simulations for
/// the registry, then the first few seeds again under `TimedStorage`.
pub fn trace_sim(name: &str, spec: &SimSpec, seed: u64, secs: u64) -> Result<Report, String> {
    // Half the untraced pass's seeds: the rest of the time goes to tracing.
    let seeds = simload::seeds(spec, seed, (secs / 2).max(1));
    let runs: Vec<SimRun> = seeds
        .clone()
        .map(|s| simload::run_one(spec, s, None))
        .collect();

    let clock = Clock::start();
    let log: StorageLog = Arc::new(Mutex::new(Vec::new()));
    let mut tracer = Tracer::new(clock);
    let factory: StorageFactory = {
        let log = log.clone();
        Arc::new(move |_site| Box::new(TimedStorage::new(MemStorage::new(), clock, log.clone())))
    };
    let mut traced_wall_s = 0.0;
    let mut traced_commits = 0;
    let mut untraced_wall_s = 0.0;
    for (s, plain) in seeds.zip(&runs).take(TRACED_SIMS) {
        let start = clock.now_ns();
        let run = simload::run_one(spec, s, Some(factory.clone()));
        let root = tracer.record(trace::SIM, start, clock.now_ns(), None, s);
        for (call, from, to) in log.lock().expect("storage log").drain(..) {
            tracer.record(call, from, to, Some(root), s);
        }
        if run.registry.counter("client.committed") != plain.committed() {
            return Err(format!(
                "seed {s}: the traced simulation diverged from the untraced one"
            ));
        }
        traced_wall_s += run.wall_s;
        traced_commits += run.committed();
        untraced_wall_s += plain.wall_s;
    }

    let mut r = Report {
        attempted: runs.len() as u64,
        failed: runs.iter().filter(|s| !s.violations.is_empty()).count() as u64,
        violations: runs
            .iter()
            .flat_map(|s| s.violations.iter().cloned())
            .collect(),
        ..Report::default()
    };
    let mut merged = Metrics::new();
    for run in &runs {
        merged.merge(&run.registry);
    }
    let commits: u64 = runs.iter().map(SimRun::committed).sum();
    let submitted: u64 = runs.iter().map(|s| s.submitted).sum();
    let wall_s: f64 = runs.iter().map(|s| s.wall_s).sum();

    // Registry: exact for a given seed.
    registry_metrics(&mut r, &merged, &|c| merged.counter(c), commits, submitted);
    r.set(
        "protocol.machine.msgs_per_commit",
        per(merged.counter("net.delivered") as f64, commits),
    );
    r.set(
        "core.poly.depth_max",
        merged
            .gauge_series("poly.depth")
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0, f64::max),
    );
    r.set(
        "store.lsm.runs",
        merged.gauge_last("store.runs").unwrap_or(0.0),
    );
    r.set(
        "store.lsm.mvcc_versions",
        merged.gauge_last("store.mvcc_versions").unwrap_or(0.0),
    );
    r.set(
        "engine.sim.msgs_per_wall_s",
        merged.counter("net.delivered") as f64 / wall_s.max(1e-9),
    );
    r.set("client.samples", commits as f64);
    let commit_p99_ms = hist_q(&merged, "client.latency", 0.99, 1e3);
    r.set("client.commit_p99_ms", commit_p99_ms);
    r.set("client.read_p99_ms", commit_p99_ms);
    r.set(
        "client.commit_max_ms",
        hist_q(&merged, "client.latency", 1.0, 1e3),
    );
    let abandoned: u64 = runs.iter().map(SimRun::abandoned).sum();
    r.set("client.failed_ratio", per(abandoned as f64, submitted));
    r.set("client.rss_kb_per_kcommit", 0.0); // each simulation frees its cluster

    // Traced: the WAL under the simulation, and the condition algebra over
    // the polyvalues the runs actually held at the chaos horizon.
    let layers_us = trace_metrics(&mut r, &tracer, trace::SIM, traced_commits);
    let traced_us = per(traced_wall_s * 1e6, traced_commits);
    r.set("trace.pump_us_per_commit", traced_us);
    r.set(
        "trace.overhead_ratio",
        traced_wall_s / untraced_wall_s.max(1e-9),
    );
    let wall_us_per_commit = median(
        &runs
            .iter()
            .map(|s| s.wall_s * 1e6 / s.committed().max(1) as f64)
            .collect::<Vec<_>>(),
    );
    r.set("client.cpu_us_per_op", wall_us_per_commit);
    r.set(
        "trace.unattributed_us_per_commit",
        wall_us_per_commit - layers_us,
    );
    let harvested: Vec<_> = runs
        .iter()
        .flat_map(|s| s.harvested.iter().cloned())
        .collect();
    let (assign, assemble) = micro::poly_algebra_ns(&harvested);
    r.set("core.cond.assign_ns", assign);
    r.set("core.entry.assemble_ns", assemble);
    let records: Vec<_> = runs
        .iter()
        .flat_map(|s| s.wal_sample.iter().cloned())
        .collect();
    let (encode, decode) = micro::codec_ns(&records);
    r.set("store.codec.encode_record_ns", encode);
    r.set("store.codec.decode_record_ns", decode);
    let engine = pv_engine::EngineConfig::default();
    micro_metrics(
        &mut r,
        spec.accounts,
        (engine.memtable_threshold, engine.run_threshold),
        TransferStream::new(seed, 0, 1, spec.accounts, 4),
    );

    // No wire, no sockets, no restart in the simulation.
    for name in [
        "net.wire.encode_ns",
        "net.wire.decode_ns",
        "net.wire.bytes_per_commit",
        "net.wire.frames_per_commit",
        "net.node.idle_wakeups_per_s",
        "net.node.client_minus_site_p50_ms",
        "net.node.loopback_rtt_us",
        "net.node.critical_path_hops",
        "net.node.critical_path_syncs",
        "net.node.commit_p50_over_floor",
        "protocol.machine.step_ns",
        "protocol.machine.steps_per_commit",
        "store.recover_ms",
        "store.recover_records",
    ] {
        r.set(name, 0.0);
    }

    write_trace(name, &tracer)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;
    use crate::workload::{by_name, Workload};

    /// Both traced passes, on shrunken workloads: every per-layer metric of
    /// the catalogue is measured, the gates pass, and a trace file appears.
    #[test]
    fn traced_passes_report_every_per_layer_metric() {
        let Some(Workload::Net(mut net)) = by_name("net_pipelined") else {
            panic!("net_pipelined is a net workload");
        };
        net.accounts = 2048;
        let mut report = trace_net("unit-net", &net, 5, 2).unwrap();
        report.check_against(PER_LAYER);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.get("net.node.critical_path_hops"), Some(6.0));
        let coverage = report.get("trace.budget_coverage").unwrap();
        assert!((coverage - 1.0).abs() <= 0.05, "coverage {coverage}");
        assert!(report.get("protocol.machine.steps_per_commit").unwrap() > 8.0);
        assert!(scratch::dir().join("trace-unit-net.jsonl").is_file());

        let Some(Workload::Sim(mut sim)) = by_name("sim_faulty") else {
            panic!("sim_faulty is a sim workload");
        };
        sim.per_client = 40;
        sim.sims_per_second = 4;
        let mut report = trace_sim("unit-sim", &sim, 5, 2).unwrap();
        report.check_against(PER_LAYER);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.get("net.wire.frames_per_commit"), Some(0.0));
        assert!(report.get("protocol.machine.msgs_per_commit").unwrap() > 0.0);
        assert!(scratch::dir().join("trace-unit-sim.jsonl").is_file());
    }
}
