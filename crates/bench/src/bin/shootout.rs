//! Four-way commit-protocol **availability shootout**: Polyvalue, blocking
//! 2PC, relaxed, and Paxos Commit under the same seeded transfer workload
//! across a sweep of crash rates.
//!
//! Where `availability` prints a human-readable table over the three §2
//! protocols, this binary measures the quantities the protocols actually
//! trade against each other and writes them to `results/shootout.json`:
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
//! Modes:
//!
//! * default — full sweep, writes `results/shootout.json` (the committed
//!   artifact behind EXPERIMENTS.md's four-protocol table);
//! * `--test` — CI smoke: a reduced workload, written to
//!   `target/shootout-smoke/shootout.json`, never the committed file;
//! * `--seed N` — override the workload seed.

use pv_core::ItemId;
use pv_engine::{
    ClientConfig, Cluster, ClusterBuilder, CommitProtocol, Directory, EngineConfig, RandomTransfers,
};
use pv_simnet::{FailureConfig, FailurePlan, NetConfig, SimRng, SimTime};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const SITES: u32 = 4;
const ACCOUNTS: u64 = 24;
const INITIAL: i64 = 1_000;
const CRASH_RATES: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

/// Workload scale; the smoke run shrinks it so CI finishes in seconds.
#[derive(Clone, Copy)]
struct Scale {
    clients: u32,
    per_client: u64,
    chaos_secs: u64,
}

const FULL: Scale = Scale {
    clients: 3,
    per_client: 250,
    chaos_secs: 15,
};
const SMOKE: Scale = Scale {
    clients: 2,
    per_client: 40,
    chaos_secs: 5,
};

struct Cell {
    protocol: &'static str,
    crash_rate: f64,
    prompt_frac: f64,
    committed: u64,
    in_doubt: u64,
    stalls: u64,
    takeovers: u64,
    polyvalue_items: u64,
    messages: u64,
    msgs_per_commit: f64,
    blocked_ms_mean: f64,
    blocked_ms_p99: f64,
    blocked_ms_max: f64,
    conserved: bool,
}

fn run(protocol: CommitProtocol, crash_rate: f64, seed: u64, scale: Scale) -> Cell {
    let label = protocol.label();
    let mut builder = ClusterBuilder::new(SITES, Directory::Mod(SITES))
        .seed(seed)
        .net(NetConfig::default())
        .engine(EngineConfig::with_protocol(protocol))
        .uniform_items(ACCOUNTS, INITIAL);
    for _ in 0..scale.clients {
        builder = builder.client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, 20.0, 50).with_limit(scale.per_client)),
        );
    }
    let mut cluster: Cluster = builder.build();
    let plan = FailurePlan::poisson(
        FailureConfig {
            crash_rate_per_sec: crash_rate,
            mean_downtime_secs: 0.8,
            horizon: SimTime::from_secs(scale.chaos_secs),
        },
        SITES,
        &mut SimRng::new(seed ^ 0xC4A5),
    );
    plan.apply(&mut cluster.world);
    // Link partitions at the same intensity (same schedule as the
    // `availability` bench): cross-site commits through the cut link are
    // left in doubt — the polyvalue mechanism's home turf, and exactly
    // where Paxos Commit's takeover path earns its message overhead.
    let mut prng = SimRng::new(seed ^ 0x9A27);
    if crash_rate > 0.0 {
        let mut t = 0.0f64;
        loop {
            t += prng.exponential(1.0 / (crash_rate * f64::from(SITES)));
            if t >= scale.chaos_secs as f64 {
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
    cluster.run_until(SimTime::from_secs(scale.chaos_secs));
    let prompt = cluster.world.metrics().counter("client.committed");
    cluster.run_until(SimTime::from_secs(scale.chaos_secs + 25));
    let m = cluster.world.metrics();
    let committed = m.counter("client.committed");
    let messages = m.counter("net.delivered");
    let blocked = m.histogram("phase.prepared_decided");
    let ms = |v: Option<f64>| v.map_or(0.0, |s| s * 1000.0);
    let conserved = cluster.total_poly_count() == 0
        && cluster.sum_items((0..ACCOUNTS).map(ItemId)) == Ok(ACCOUNTS as i64 * INITIAL);
    Cell {
        protocol: label,
        crash_rate,
        prompt_frac: prompt as f64 / (u64::from(scale.clients) * scale.per_client) as f64,
        committed,
        in_doubt: m.counter("txn.in_doubt"),
        stalls: m.counter("blocking.stalls"),
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
    }
}

fn protocols() -> [CommitProtocol; 4] {
    [
        CommitProtocol::Polyvalue,
        CommitProtocol::Blocking2pc,
        CommitProtocol::Relaxed { complete_prob: 0.5 },
        CommitProtocol::PaxosCommit,
    ]
}

fn to_json(seed: u64, scale: Scale, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"four-way commit-protocol availability shootout\",\n");
    out.push_str("  \"invocation\": \"cargo run --release -p pv-bench --bin shootout\",\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"seed\": {seed}, \"sites\": {SITES}, \"accounts\": {ACCOUNTS}, \
         \"clients\": {}, \"transfers_per_client\": {}, \"chaos_secs\": {}}},",
        scale.clients, scale.per_client, scale.chaos_secs
    );
    out.push_str("  \"rows\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"crash_rate\": {:.2}, \"prompt_frac\": {:.4}, \
             \"committed\": {}, \"in_doubt\": {}, \"stalls\": {}, \"takeovers\": {}, \
             \"polyvalue_items\": {}, \"messages\": {}, \"msgs_per_commit\": {:.2}, \
             \"blocked_ms_mean\": {:.3}, \"blocked_ms_p99\": {:.3}, \"blocked_ms_max\": {:.3}, \
             \"conserved\": {}}}",
            c.protocol,
            c.crash_rate,
            c.prompt_frac,
            c.committed,
            c.in_doubt,
            c.stalls,
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

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let seed = pv_bench::seed_from_args(1979);
    let scale = if test_mode { SMOKE } else { FULL };
    let out_path = if test_mode {
        let d = repo_root().join("target/shootout-smoke");
        std::fs::create_dir_all(&d).expect("create shootout-smoke dir");
        d.join("shootout.json")
    } else {
        repo_root().join("results/shootout.json")
    };

    println!(
        "shootout: {} clients x {} transfers, {SITES} sites, {}s failure window, seed {seed}{}",
        scale.clients,
        scale.per_client,
        scale.chaos_secs,
        if test_mode { " (smoke)" } else { "" }
    );
    println!();
    println!(
        "{:<13} {:>7} {:>7} {:>9} {:>9} {:>9} {:>10} {:>9} {:>10} {:>10} {:>9}",
        "protocol",
        "crash/s",
        "prompt",
        "in-doubt",
        "stalls",
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
            let cell = run(protocol, crash_rate, seed, scale);
            println!(
                "{:<13} {:>7.2} {:>6.1}% {:>9} {:>9} {:>9} {:>10} {:>9.1} {:>8.1}ms {:>8.1}ms {:>9}",
                cell.protocol,
                cell.crash_rate,
                cell.prompt_frac * 100.0,
                cell.in_doubt,
                cell.stalls,
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
    std::fs::write(&out_path, to_json(seed, scale, &cells)).expect("write shootout json");
    println!("wrote {}", out_path.display());
    if bad {
        eprintln!("shootout: conservation violated by an atomic protocol");
        std::process::exit(1);
    }
}
