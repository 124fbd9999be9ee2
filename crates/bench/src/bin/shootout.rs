//! The commit-protocol **availability shootout**: the three §2 protocols
//! (polyvalue, blocking 2PC, relaxed) and Paxos Commit under the same seeded
//! transfer workload across a sweep of crash rates — the repository's one
//! simulated protocol sweep.
//!
//! Each cell reports the fraction of requests committed *promptly* (by the
//! end of the failure window), lock conflicts, blocking stalls, relaxed's
//! atomicity violations and whether money was conserved, plus the
//! quantities the protocols trade against each other:
//!
//! * **blocked time** — the `phase.prepared_decided` histogram: how long a
//!   committing transaction sat between its last vote and its decision.
//!   Blocking 2PC pays here when a coordinator dies mid-protocol; Paxos
//!   Commit bounds it by electing a takeover leader.
//! * **polyvalue count** — `poly.installed_items`: the paper's availability
//!   currency. Only the polyvalue protocol spends it; Paxos Commit buys the
//!   same non-blocking behaviour with acceptor messages instead.
//! * **message cost** — `net.delivered` per committed transaction. Paxos
//!   Commit's 2F+1 acceptors make its fault-free round trip strictly more
//!   expensive; the shootout quantifies by how much.
//!
//! The table goes to stdout and to `results/shootout.json` (the committed
//! artifact behind EXPERIMENTS.md's protocol table). The run ends with one
//! traced polyvalue run reported in full: the trace digest, the phase table
//! and both metric exports. It exits 1 if an atomic protocol fails to
//! conserve money.
//!
//! Run with `cargo run --release -p pv-bench --bin shootout [--seed N]`.

use pv_core::ItemId;
use pv_engine::{
    ClientConfig, Cluster, ClusterBuilder, CommitProtocol, Directory, EngineConfig, RandomTransfers,
};
use pv_simnet::{FailureConfig, FailurePlan, NetConfig, SimRng, SimTime};
use std::fmt::Write as _;
use std::path::Path;

const SITES: u32 = 4;
const ACCOUNTS: u64 = 24;
const INITIAL: i64 = 1_000;
const CLIENTS: u32 = 3;
const PER_CLIENT: u64 = 250;
const CHAOS_SECS: u64 = 15;
const CRASH_RATES: [f64; 4] = [0.0, 0.1, 0.2, 0.4];
const OUT: &str = "results/shootout.json";

struct Cell {
    protocol: &'static str,
    crash_rate: f64,
    prompt_frac: f64,
    committed: u64,
    in_doubt: u64,
    stalls: u64,
    conflicts: u64,
    violations: u64,
    takeovers: u64,
    polyvalue_items: u64,
    messages: u64,
    msgs_per_commit: f64,
    blocked_ms_mean: f64,
    blocked_ms_p99: f64,
    blocked_ms_max: f64,
    conserved: bool,
}

fn run(protocol: CommitProtocol, crash_rate: f64, seed: u64, trace: bool) -> (Cell, Cluster) {
    let mut builder = ClusterBuilder::new(SITES, Directory::Mod(SITES))
        .seed(seed)
        .net(NetConfig::default())
        .engine(EngineConfig::with_protocol(protocol))
        .uniform_items(ACCOUNTS, INITIAL);
    if trace {
        builder = builder.collect_trace();
    }
    for _ in 0..CLIENTS {
        builder = builder.client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 20.0, 50).with_limit(PER_CLIENT)),
        );
    }
    let mut cluster: Cluster = builder.build();
    let plan = FailurePlan::poisson(
        FailureConfig {
            crash_rate_per_sec: crash_rate,
            mean_downtime_secs: 0.8,
            horizon: SimTime::from_secs(CHAOS_SECS),
        },
        SITES,
        &mut SimRng::new(seed ^ 0xC4A5),
    );
    plan.apply(&mut cluster.world);
    // Link partitions at the same intensity: both endpoints stay alive, but
    // cross-site commits through the cut link are left in doubt — the
    // polyvalue mechanism's home turf, and exactly where Paxos Commit's
    // takeover path earns its message overhead.
    let mut prng = SimRng::new(seed ^ 0x9A27);
    if crash_rate > 0.0 {
        let mut t = 0.0f64;
        loop {
            t += prng.exponential(1.0 / (crash_rate * f64::from(SITES)));
            if t >= CHAOS_SECS as f64 {
                break;
            }
            let a = prng.below(u64::from(SITES)) as u32;
            let mut b = prng.below(u64::from(SITES)) as u32;
            if a == b {
                b = (b + 1) % SITES;
            }
            let start = SimTime::from_millis((t * 1000.0) as u64);
            let dur = prng.exponential(0.8).max(0.05);
            let end = start + pv_simnet::SimDuration::from_secs_f64(dur);
            cluster
                .world
                .schedule_partition(start, pv_simnet::NodeId(a), pv_simnet::NodeId(b));
            cluster
                .world
                .schedule_heal(end, pv_simnet::NodeId(a), pv_simnet::NodeId(b));
        }
    }
    cluster.run_until(SimTime::from_secs(CHAOS_SECS));
    let prompt = cluster.world.metrics().counter("client.committed");
    cluster.run_until(SimTime::from_secs(CHAOS_SECS + 25));
    let m = cluster.world.metrics();
    let committed = m.counter("client.committed");
    let messages = m.counter("net.delivered");
    let blocked = m.histogram("phase.prepared_decided");
    let ms = |v: Option<f64>| v.map_or(0.0, |s| s * 1000.0);
    let conserved = cluster.total_poly_count() == 0
        && cluster.sum_items((0..ACCOUNTS).map(ItemId)) == Ok(ACCOUNTS as i64 * INITIAL);
    let cell = Cell {
        protocol: protocol.label(),
        crash_rate,
        prompt_frac: prompt as f64 / (u64::from(CLIENTS) * PER_CLIENT) as f64,
        committed,
        in_doubt: m.counter("txn.in_doubt"),
        stalls: m.counter("blocking.stalls"),
        conflicts: m.counter("lock.conflicts"),
        violations: m.counter("relaxed.violations"),
        takeovers: m.counter("pc.takeovers"),
        polyvalue_items: m.counter("poly.installed_items"),
        messages,
        msgs_per_commit: if committed > 0 {
            messages as f64 / committed as f64
        } else {
            0.0
        },
        blocked_ms_mean: ms(blocked.and_then(|h| h.mean())),
        blocked_ms_p99: ms(blocked.and_then(|h| h.quantile(0.99))),
        blocked_ms_max: ms(blocked.and_then(|h| h.max())),
        conserved,
    };
    (cell, cluster)
}

fn protocols() -> [CommitProtocol; 4] {
    [
        CommitProtocol::Polyvalue,
        CommitProtocol::Blocking2pc,
        CommitProtocol::Relaxed { complete_prob: 0.5 },
        CommitProtocol::PaxosCommit,
    ]
}

fn to_json(seed: u64, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"four-way commit-protocol availability shootout\",\n");
    out.push_str("  \"invocation\": \"cargo run --release -p pv-bench --bin shootout\",\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"seed\": {seed}, \"sites\": {SITES}, \"accounts\": {ACCOUNTS}, \
         \"clients\": {CLIENTS}, \"transfers_per_client\": {PER_CLIENT}, \"chaos_secs\": {CHAOS_SECS}}},"
    );
    out.push_str("  \"rows\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"crash_rate\": {:.2}, \"prompt_frac\": {:.4}, \
             \"committed\": {}, \"in_doubt\": {}, \"stalls\": {}, \"conflicts\": {}, \
             \"violations\": {}, \"takeovers\": {}, \
             \"polyvalue_items\": {}, \"messages\": {}, \"msgs_per_commit\": {:.2}, \
             \"blocked_ms_mean\": {:.3}, \"blocked_ms_p99\": {:.3}, \"blocked_ms_max\": {:.3}, \
             \"conserved\": {}}}",
            c.protocol,
            c.crash_rate,
            c.prompt_frac,
            c.committed,
            c.in_doubt,
            c.stalls,
            c.conflicts,
            c.violations,
            c.takeovers,
            c.polyvalue_items,
            c.messages,
            c.msgs_per_commit,
            c.blocked_ms_mean,
            c.blocked_ms_p99,
            c.blocked_ms_max,
            c.conserved,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let seed = pv_bench::seed_from_args(1979);
    println!(
        "shootout: {CLIENTS} clients x {PER_CLIENT} transfers, {SITES} sites, {ACCOUNTS} accounts, \
         {CHAOS_SECS}s failure window, seed {seed}"
    );
    println!("'prompt' = fraction of requests committed within the failure window.");
    println!();
    println!(
        "{:<13} {:>7} {:>7} {:>9} {:>7} {:>10} {:>11} {:>9} {:>10} {:>9} {:>10} {:>10} {:>9}",
        "protocol",
        "crash/s",
        "prompt",
        "in-doubt",
        "stalls",
        "conflicts",
        "violations",
        "takeover",
        "polyitems",
        "msg/cmt",
        "blk-mean",
        "blk-p99",
        "conserved"
    );
    let mut cells = Vec::new();
    let mut bad = false;
    for &crash_rate in &CRASH_RATES {
        for protocol in protocols() {
            let (cell, _) = run(protocol, crash_rate, seed, false);
            println!(
                "{:<13} {:>7.2} {:>6.1}% {:>9} {:>7} {:>10} {:>11} {:>9} {:>10} {:>9.1} {:>8.1}ms {:>8.1}ms {:>9}",
                cell.protocol,
                cell.crash_rate,
                cell.prompt_frac * 100.0,
                cell.in_doubt,
                cell.stalls,
                cell.conflicts,
                cell.violations,
                cell.takeovers,
                cell.polyvalue_items,
                cell.msgs_per_commit,
                cell.blocked_ms_mean,
                cell.blocked_ms_p99,
                if cell.conserved { "yes" } else { "NO" },
            );
            // Every protocol except relaxed guarantees conservation; a NO
            // there is a bug, not a data point.
            if !cell.conserved && cell.protocol != "relaxed" {
                bad = true;
            }
            cells.push(cell);
        }
        println!();
    }
    println!("Expected shape: prompt fraction degrades fastest for blocking-2pc as the");
    println!("crash rate rises; polyvalue keeps processing (in-doubt > 0, conserved);");
    println!("relaxed stays available but may print conserved = NO with violations > 0;");
    println!("paxos-commit conserves with no polyvalue, paying more messages per commit.");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join(OUT), to_json(seed, &cells)).expect("write shootout json");
    println!("wrote {OUT}");

    // One traced polyvalue run at a representative crash rate, reported in
    // full: phase latencies, the trace digest, and both metric exports.
    println!();
    println!("== observability: polyvalue @ 0.2 crash/s, seed {seed} ==");
    println!();
    let (_, cluster) = run(CommitProtocol::Polyvalue, 0.2, seed, true);
    println!("{}", pv_bench::report::trace_summary(cluster.trace()));
    pv_bench::report::print_observability(cluster.world.metrics());
    if bad {
        eprintln!("shootout: conservation violated by an atomic protocol");
        std::process::exit(1);
    }
}
