//! Closed-loop load against the in-process `NetCluster`, plus the
//! correctness gates every networked workload must pass.
//!
//! The cluster under test is exactly what `pv-node` deploys — the same
//! `Node::run` loop over real loopback TCP, one thread per site — hosted on
//! threads of this process so that `cpu_us_per_op` and `peak_rss_mb` cover
//! clients and sites together. The load generator adds one thread per
//! connection.

use crate::stats::{self, Windows};
use crate::workload::{NetSpec, Transfer, TransferStream, BALANCE, READ_BATCH};
use pv_core::{ItemId, Value};
use pv_engine::EngineError;
use pv_net::{NetClient, NetCluster};
use pv_simnet::{Metrics, SimRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long a client waits for any one reply before the run is declared
/// failed; far above every latency a healthy run shows.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// How long the cluster may take to drain to zero polyvalues after the load.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Measured interval, in whole seconds (one throughput window each).
    pub secs: u64,
    /// Excluded warm-up before the interval.
    pub warmup: Duration,
    /// How many times the cluster is set up; the last one carries the load
    /// and `setup_s` is the median over all of them.
    pub setup_reps: usize,
    /// Fetch every site's metrics registry after the gates (traced pass).
    pub fetch_registry: bool,
}

#[derive(Debug, Default)]
pub struct NetOutcome {
    pub setup_s: Vec<f64>,
    pub commits: Windows,
    pub reads: Windows,
    /// Operations submitted, warm-up included.
    pub attempted: u64,
    /// Errors + timeouts + aborts + refused guards + malformed reads.
    pub failed: u64,
    /// Transfers committed under load, warm-up included — the per-commit
    /// denominator of the registry counters, which cover the same span.
    pub committed_total: u64,
    /// Process CPU time (µs) spent inside each one-second window.
    pub cpu_us: Vec<f64>,
    /// Clock ticks the hypervisor stole from this machine in each window.
    pub steal_ticks: Vec<f64>,
    /// Peak resident memory (MiB) once every set-up is done, before any load:
    /// what a seeded, connected cluster occupies. (Memory under load grows
    /// with every commit, so a peak taken after the interval would rise with
    /// throughput and read a faster commit path as a regression.)
    pub setup_rss_mb: f64,
    /// Resident memory (MiB) when the measured interval began and ended.
    pub interval_rss_mb: (f64, f64),
    /// The sites' merged registries when the load began and after the gates,
    /// and the wall time between the two fetches.
    pub registry: Option<(Metrics, Metrics)>,
    pub registry_span_s: f64,
    /// Sorted runs and MVCC versions the sites' keyspaces held at shutdown.
    pub lsm_runs: u64,
    pub mvcc_versions: u64,
    /// Every gate violation; empty means the outputs were correct.
    pub violations: Vec<String>,
    /// The first few failed operations of each connection, for diagnosis.
    pub notes: Vec<String>,
    /// One site's WAL directory as the run left it (under the caller's data
    /// root), for the traced pass to time a recovery from.
    pub site_dir: Option<PathBuf>,
}

impl NetOutcome {
    /// Process CPU time per completed operation (commits + reads): the best
    /// quartile of the windows' own ratios, like every other timing.
    pub fn cpu_us_per_op(&self) -> f64 {
        let ops = self.commits.counts().into_iter().zip(self.reads.counts());
        let per_window: Vec<f64> = self
            .cpu_us
            .iter()
            .zip(ops)
            .filter(|(_, (commits, reads))| commits + reads > 0.0)
            .map(|(cpu, (commits, reads))| cpu / (commits + reads))
            .collect();
        stats::best_quartile(&per_window, false)
    }

    /// How far a site counter advanced under load (0 without a registry).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.as_ref().map_or(0, |(before, after)| {
            after.counter(name) - before.counter(name)
        })
    }
}

/// A cluster that is up, connected and has served one transfer per writer.
struct Rig {
    cluster: NetCluster,
    writers: Vec<(NetClient, TransferStream)>,
    /// Net balance change of every account touched by a committed transfer.
    deltas: HashMap<u64, i64>,
}

fn apply(deltas: &mut HashMap<u64, i64>, t: &Transfer) {
    *deltas.entry(t.from).or_default() -= t.amount;
    *deltas.entry(t.to).or_default() += t.amount;
}

/// Starts the cluster, seeds it, connects every client and commits one
/// transfer through each writer connection (which also proves the
/// site-to-site links are up). The elapsed time is one `setup_s` sample.
fn setup(spec: &NetSpec, seed: u64, data_dir: Option<&Path>) -> Result<(Rig, f64), EngineError> {
    let started = Instant::now();
    let cluster = NetCluster::from_topology(spec.topology(data_dir))?;
    let mut rig = Rig {
        cluster,
        writers: Vec::new(),
        deltas: HashMap::new(),
    };
    for lane in 0..spec.writers {
        let client = rig.cluster.client(lane as u32 % spec.sites)?;
        rig.writers.push((client, spec.transfers(seed, lane)));
    }
    for (client, stream) in &mut rig.writers {
        let first = stream.next().expect("streams are endless");
        let result = client.submit(&first.spec(), REPLY_DEADLINE)?;
        if !result.fully_granted() {
            return Err(EngineError::Io(format!(
                "set-up transfer not committed: {result:?}"
            )));
        }
        apply(&mut rig.deltas, &first);
    }
    let elapsed = started.elapsed().as_secs_f64();
    Ok((rig, elapsed))
}

#[derive(Debug, Default)]
struct LaneResult {
    commits: Windows,
    reads: Windows,
    attempted: u64,
    failed: u64,
    committed: u64,
    deltas: HashMap<u64, i64>,
    /// An operation ended without a verdict (timeout, broken connection), so
    /// the exact per-account audit cannot be applied.
    indeterminate: bool,
    notes: Vec<String>,
}

impl LaneResult {
    fn note(&mut self, what: String) {
        if self.notes.len() < 5 {
            self.notes.push(what);
        }
    }
}

/// What one connection needs to issue snapshot reads between transfers.
struct ReadPlan {
    /// Reads after each transfer.
    per_transfer: usize,
    /// The accounts homed at the connection's site, in sampling order.
    pool: Vec<ItemId>,
    rng: SimRng,
    last_snapshot: u64,
}

/// One connection: keeps `window` guarded transfers in flight until `t_end`,
/// then collects the stragglers. With a read plan (window 1 only), every
/// transfer's reply is followed by the plan's snapshot reads, one at a time.
fn run_lane(
    client: &mut NetClient,
    stream: &mut TransferStream,
    window: usize,
    mut reads: Option<ReadPlan>,
    t_start: Instant,
    t_end: Instant,
    secs: u64,
) -> LaneResult {
    let mut lane = LaneResult {
        commits: Windows::new(secs),
        reads: Windows::new(secs),
        ..LaneResult::default()
    };
    let mut inflight: HashMap<u64, (Instant, Transfer)> = HashMap::with_capacity(2 * window);
    loop {
        while inflight.len() < window && Instant::now() < t_end {
            let transfer = stream.next().expect("streams are endless");
            let spec = transfer.spec();
            lane.attempted += 1;
            let sent = Instant::now();
            match client.submit_async(&spec) {
                Ok(req) => {
                    inflight.insert(req, (sent, transfer));
                }
                Err(e) => {
                    lane.failed += 1;
                    lane.indeterminate = true;
                    lane.note(format!("submit: {e}"));
                    return lane;
                }
            }
        }
        if inflight.is_empty() {
            return lane;
        }
        match client.recv_reply(REPLY_DEADLINE) {
            Ok((req, result)) => {
                let done = Instant::now();
                let Some((sent, transfer)) = inflight.remove(&req) else {
                    continue;
                };
                if result.fully_granted() {
                    lane.committed += 1;
                    apply(&mut lane.deltas, &transfer);
                    if let Some(at) = done.checked_duration_since(t_start) {
                        lane.commits.record(at, done - sent);
                    }
                } else {
                    lane.failed += 1;
                    lane.note(format!("{transfer:?}: {result:?}"));
                }
            }
            Err(e) => {
                lane.failed += inflight.len() as u64;
                lane.indeterminate = true;
                lane.note(format!("reply: {e}"));
                return lane;
            }
        }
        if let Some(plan) = &mut reads {
            for _ in 0..plan.per_transfer {
                if !read_once(client, plan, &mut lane, t_start) {
                    return lane;
                }
            }
        }
    }
}

/// One snapshot read of `READ_BATCH` random items homed at the connection's
/// site. The view must hold exactly the requested items as settled integers,
/// at a snapshot no older than the previous one. `false` = connection lost.
fn read_once(
    client: &mut NetClient,
    plan: &mut ReadPlan,
    lane: &mut LaneResult,
    t_start: Instant,
) -> bool {
    // Partial Fisher-Yates: the first READ_BATCH slots become the sample.
    let batch = READ_BATCH.min(plan.pool.len());
    for i in 0..batch {
        let j = i + plan.rng.below((plan.pool.len() - i) as u64) as usize;
        plan.pool.swap(i, j);
    }
    let items = &plan.pool[..batch];
    lane.attempted += 1;
    let sent = Instant::now();
    match client.snapshot_read(items, REPLY_DEADLINE) {
        Ok((snapshot, entries)) => {
            let done = Instant::now();
            let well_formed = snapshot >= plan.last_snapshot
                && entries.len() == items.len()
                && entries.iter().zip(items).all(|((item, entry), want)| {
                    item == want && entry.as_simple().and_then(Value::as_int).is_some()
                });
            plan.last_snapshot = plan.last_snapshot.max(snapshot);
            if well_formed {
                if let Some(at) = done.checked_duration_since(t_start) {
                    lane.reads.record(at, done - sent);
                }
            } else {
                lane.failed += 1;
                lane.note(format!("bad view at snapshot {snapshot}: {entries:?}"));
            }
            true
        }
        Err(e) => {
            lane.failed += 1;
            lane.indeterminate = true;
            lane.note(format!("snapshot read: {e}"));
            false
        }
    }
}

/// The gate: the cluster drains to zero polyvalues, conserves the seeded
/// total, and — when every operation got a verdict — every account holds
/// exactly its opening balance plus the transfers acknowledged as committed.
fn audit(
    cluster: &NetCluster,
    expected_total: i64,
    deltas: Option<&HashMap<u64, i64>>,
    stage: &str,
) -> Vec<String> {
    let deadline = Duration::from_secs(5);
    let limit = Instant::now() + DRAIN_DEADLINE;
    let snapshots = loop {
        let snaps: Result<Vec<_>, _> = (0..cluster.site_count() as u32)
            .map(|s| cluster.inspect(s, deadline))
            .collect();
        let snaps = match snaps {
            Ok(s) => s,
            Err(e) => return vec![format!("{stage}: inspect failed: {e}")],
        };
        let polys: u64 = snaps.iter().map(|s| s.poly_count).sum();
        if polys == 0 && snaps.iter().all(|s| s.quiescent) {
            break snaps;
        }
        if Instant::now() > limit {
            return vec![format!(
                "{stage}: cluster did not drain ({polys} polyvalues left)"
            )];
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut violations = Vec::new();
    let mut total = 0i64;
    let mut wrong = 0u64;
    for snap in &snapshots {
        for (item, entry) in &snap.items {
            let Some(v) = entry.as_simple().and_then(Value::as_int) else {
                violations.push(format!("{stage}: {item} is not a settled integer"));
                continue;
            };
            total += v;
            if let Some(deltas) = deltas {
                let want = BALANCE + deltas.get(&item.0).copied().unwrap_or(0);
                if v != want {
                    wrong += 1;
                    if wrong <= 3 {
                        violations.push(format!("{stage}: {item} holds {v}, acknowledged {want}"));
                    }
                }
            }
        }
    }
    if wrong > 3 {
        violations.push(format!(
            "{stage}: {wrong} accounts differ from the acknowledged history"
        ));
    }
    if total != expected_total {
        violations.push(format!("{stage}: total {total}, seeded {expected_total}"));
    }
    violations
}

/// Runs one networked workload end to end. A disk-backed workload keeps its
/// data under `data_root`, which the caller owns (and removes).
pub fn run(spec: &NetSpec, opts: &RunOpts, data_root: Option<&Path>) -> NetOutcome {
    let mut out = NetOutcome::default();
    if let Err(e) = run_inner(spec, opts, data_root, &mut out) {
        out.violations.push(format!("run aborted: {e}"));
    }
    out
}

fn run_inner(
    spec: &NetSpec,
    opts: &RunOpts,
    data_root: Option<&Path>,
    out: &mut NetOutcome,
) -> Result<(), EngineError> {
    assert_eq!(
        spec.disk,
        data_root.is_some(),
        "a disk workload needs a data root"
    );
    let rep_dir = |rep: usize| data_root.map(|root| root.join(format!("rep-{rep}")));

    // Set up several times so `setup_s` is a median, not one draw; only the
    // last cluster carries the load.
    let reps = opts.setup_reps.max(1);
    let mut rig = None;
    for rep in 0..reps {
        if let Some(Rig { cluster, .. }) = rig.take() {
            cluster.shutdown()?;
            // A discarded set-up's files must not sit dirty in the page
            // cache while the measured cluster calls fsync.
            if let Some(stale) = rep_dir(rep - 1) {
                let _ = std::fs::remove_dir_all(stale);
            }
        }
        let (next, elapsed) = setup(spec, opts.seed, rep_dir(rep).as_deref())?;
        out.setup_s.push(elapsed);
        rig = Some(next);
    }
    let Rig {
        cluster,
        mut writers,
        mut deltas,
    } = rig.expect("at least one set-up");
    out.setup_rss_mb = stats::status_mb("VmHWM");
    let expected_total = spec.topology(None).seeded_int_total();
    let mut baseline = None;
    if opts.fetch_registry {
        // A site folds its store's counters (seeding included) into its
        // registry inside engine callbacks; one snapshot read per site makes
        // sure that has happened before the baseline is taken.
        for site in 0..spec.sites {
            cluster.snapshot_read(site, &[ItemId(u64::from(site))], REPLY_DEADLINE)?;
        }
        baseline = Some((cluster.metrics(REPLY_DEADLINE)?, Instant::now()));
    }

    let t_start = Instant::now() + opts.warmup;
    let t_end = t_start + Duration::from_secs(opts.secs);
    let mut lanes: Vec<LaneResult> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = writers
            .iter_mut()
            .enumerate()
            .map(|(lane, (client, stream))| {
                assert!(spec.reads_per_transfer == 0 || spec.window == 1);
                let reads = (spec.reads_per_transfer > 0).then(|| ReadPlan {
                    per_transfer: spec.reads_per_transfer,
                    pool: spec.accounts_at(lane as u32 % spec.sites),
                    rng: SimRng::new(opts.seed).fork(0x5EAD + lane as u64),
                    last_snapshot: 0,
                });
                scope.spawn(move || {
                    run_lane(
                        client,
                        stream,
                        spec.window,
                        reads,
                        t_start,
                        t_end,
                        opts.secs,
                    )
                })
            })
            .collect();
        // The measuring thread only sleeps: CPU time and memory are sampled
        // exactly at the windows' edges.
        let mut edge = t_start;
        std::thread::sleep(edge.saturating_duration_since(Instant::now()));
        let mut cpu = stats::process_cpu_us();
        let mut stolen = stats::steal_ticks();
        out.interval_rss_mb.0 = stats::status_mb("VmRSS");
        for _ in 0..opts.secs {
            edge += Duration::from_secs(1);
            std::thread::sleep(edge.saturating_duration_since(Instant::now()));
            let now = stats::process_cpu_us();
            out.cpu_us.push(now - cpu);
            cpu = now;
            let now = stats::steal_ticks();
            out.steal_ticks.push(now - stolen);
            stolen = now;
        }
        out.interval_rss_mb.1 = stats::status_mb("VmRSS");
        lanes = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
    });

    out.commits = Windows::new(opts.secs);
    out.reads = Windows::new(opts.secs);
    let mut exact = true;
    out.attempted = spec.writers as u64; // the set-up transfers
    for lane in &lanes {
        out.attempted += lane.attempted;
        out.failed += lane.failed;
        exact &= !lane.indeterminate;
        out.notes.extend(lane.notes.iter().cloned());
        out.commits.merge(&lane.commits);
        out.reads.merge(&lane.reads);
        out.committed_total += lane.committed;
        for (account, delta) in &lane.deltas {
            *deltas.entry(*account).or_default() += delta;
        }
    }

    let deltas = exact.then_some(&deltas);
    out.violations
        .extend(audit(&cluster, expected_total, deltas, "after load"));
    if let Some((before, since)) = baseline {
        out.registry = Some((before, cluster.metrics(Duration::from_secs(30))?));
        out.registry_span_s = since.elapsed().as_secs_f64();
    }
    drop(writers);
    for site in cluster.shutdown()? {
        out.lsm_runs += site.store().lsm_runs() as u64;
        out.mvcc_versions += site.store().mvcc_versions() as u64;
    }

    if let Some(dir) = rep_dir(reps - 1) {
        // Durability: a second incarnation of every site recovers from the
        // same data directory and must hold every acknowledged write.
        let reopened = NetCluster::from_topology(spec.topology(Some(&dir)))?;
        out.violations
            .extend(audit(&reopened, expected_total, deltas, "after restart"));
        reopened.shutdown()?;
        out.site_dir = Some(dir.join("site-0"));
    }
    Ok(())
}
