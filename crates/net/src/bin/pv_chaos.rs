//! Kill/restart survival harness for a real `pv-node` process cluster.
//!
//! ```text
//! pv-chaos [--scenario NAME|all] [--seed N] [--sites 3] [--out verdict.json]
//! ```
//!
//! The harness spawns one OS process per site through [`ProcCluster`]
//! (`--data-dir` disk WALs, the same fast engine config the benches use),
//! fronts every site→site link with a fault-injecting [`ChaosNet`] proxy,
//! drives a funds-transfer load, and then does what the Polyvalues paper is
//! about: kills coordinators mid-prepare, kills participants after Ready,
//! partitions the cluster during the decision phase, restarts everything at
//! once, and rolls restarts through the cluster under live load. After
//! every scenario heals it asserts the §3/§3.3 recovery story end to end:
//!
//! * **conservation** — total funds across all sites equal the seeded total;
//! * **agreement** — the final balances are explained by some commit/abort
//!   assignment of the transactions whose outcome the client never learned
//!   (enumerated exhaustively; every reply the client *did* receive is
//!   pinned to its observed outcome);
//! * **collapse** — in-doubt polyvalues observed while sites were down are
//!   gone after recovery (the §3.3 inquiry protocol resolved them);
//! * **quiescence** — no site still carries protocol state.
//!
//! The `paxos-commit-kill` scenario replays the coordinator kill with every
//! node running `--protocol paxos-commit` and inverts the collapse check:
//! no polyvalue may ever appear, and at least one ballot takeover must have
//! resolved the dead coordinator's transactions.
//!
//! Kill timing, restart order, and partition timing all derive from one
//! seeded [`SimRng`], so a scenario replays the same schedule for the same
//! seed. Each scenario prints a one-line JSON verdict; `--out` additionally
//! writes the collected verdicts as a JSON array. Exit status is 0 iff
//! every scenario's assertions held.

use pv_core::TransactionSpec;
use pv_engine::{CommitProtocol, EngineError};
use pv_net::backoff::Backoff;
use pv_net::chaos::{ChaosNet, LinkFaults};
use pv_net::client::NetClient;
use pv_net::proc::{balances, sibling_node_bin, ProcCluster, ProcSpec};
use pv_simnet::SimRng;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const ACCOUNTS: u64 = 9;
const BALANCE: i64 = 100;
/// How long a healed cluster gets to reach quiescence with no polyvalues.
const SETTLE: Duration = Duration::from_secs(30);

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn usage() -> ! {
    eprintln!(
        "usage: pv-chaos [--scenario coordinator-kill|participant-kill|partition|\
         restart-storm|rolling-restart|paxos-commit-kill|all] [--seed N] [--sites N] [--out PATH]"
    );
    std::process::exit(2);
}

struct Args {
    scenario: String,
    seed: u64,
    sites: u32,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: "all".into(),
        seed: 42,
        sites: 3,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--scenario" => args.scenario = value("--scenario"),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--sites" => args.sites = value("--sites").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value("--out")),
            _ => usage(),
        }
    }
    if args.sites < 2 {
        usage();
    }
    args
}

/// What the submitting client learned about one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Committed,
    Aborted,
    /// The reply never arrived (coordinator died, partition, timeout): the
    /// transaction may have gone either way. Agreement is checked over every
    /// assignment of these.
    Unknown,
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    from: u64,
    to: u64,
    amount: i64,
    outcome: Outcome,
}

/// One scenario's worth of cluster: real `pv-node` processes behind chaos
/// proxies with disk WALs, the transfers submitted to it, and the seeded
/// RNG behind every schedule decision.
struct Harness {
    rng: SimRng,
    cluster: ProcCluster,
    txns: Vec<Txn>,
}

impl Harness {
    fn start(
        sites: u32,
        seed: u64,
        tag: &str,
        protocol: CommitProtocol,
    ) -> Result<Harness, EngineError> {
        let data_dir = std::env::temp_dir().join(format!(
            "pv-chaos-{tag}-{seed}-{}",
            std::process::id()
        ));
        let cluster = ProcCluster::spawn(ProcSpec {
            accounts: ACCOUNTS,
            balance: BALANCE,
            protocol,
            data_dir: Some(data_dir),
            // Patient: scenarios leave sites dead for hundreds of
            // milliseconds, and peers and probes must wait them out.
            backoff: Backoff::patient(),
            chaos_seed: Some(seed),
            ..ProcSpec::new(sibling_node_bin()?, sites)
        })?;
        Ok(Harness {
            rng: SimRng::new(seed ^ 0xC4A0_5EED),
            cluster,
            txns: Vec::new(),
        })
    }

    fn sites(&self) -> u32 {
        self.cluster.sites()
    }

    fn chaos(&self) -> &ChaosNet {
        self.cluster.chaos().expect("the harness always runs chaos proxies")
    }

    /// A fresh transfer between two accounts on *different* sites (adjacent
    /// account ids live on different sites under `Directory::Mod`).
    fn pick_transfer(&mut self, home: Option<u32>) -> (u64, u64, i64) {
        let from = match home {
            // An account homed at `site`: ids ≡ site (mod sites).
            Some(site) => {
                let span = ACCOUNTS / u64::from(self.sites());
                u64::from(site) + u64::from(self.sites()) * self.rng.below(span.max(1))
            }
            None => self.rng.below(ACCOUNTS),
        };
        let to = (from + 1) % ACCOUNTS;
        let amount = 1 + self.rng.below(5) as i64;
        (from, to, amount)
    }

    /// Pipelines `n` transfers through one connection to `coordinator` and
    /// returns the client plus (request id → txn index) bookkeeping; every
    /// transfer starts `Unknown` and is upgraded as replies arrive.
    fn submit_batch(
        &mut self,
        coordinator: u32,
        n: usize,
        home: Option<u32>,
    ) -> Result<(NetClient, Vec<(u64, usize)>), EngineError> {
        let mut client = self.cluster.client(coordinator)?;
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let (from, to, amount) = self.pick_transfer(home);
            self.submit_one(&mut client, from, to, amount, &mut pending)?;
        }
        Ok((client, pending))
    }

    /// Pipelines one transfer per account pair. Scenarios that need every
    /// transfer to reach the Prepare phase (where polyvalues get staged)
    /// pass pairwise-disjoint pairs, so no transfer aborts early on a lock
    /// conflict with a batch-mate.
    fn submit_pairs(
        &mut self,
        coordinator: u32,
        pairs: &[(u64, u64)],
    ) -> Result<(NetClient, Vec<(u64, usize)>), EngineError> {
        let mut client = self.cluster.client(coordinator)?;
        let mut pending = Vec::with_capacity(pairs.len());
        for &(from, to) in pairs {
            let amount = 1 + self.rng.below(5) as i64;
            self.submit_one(&mut client, from, to, amount, &mut pending)?;
        }
        Ok((client, pending))
    }

    fn submit_one(
        &mut self,
        client: &mut NetClient,
        from: u64,
        to: u64,
        amount: i64,
        pending: &mut Vec<(u64, usize)>,
    ) -> Result<(), EngineError> {
        let idx = self.txns.len();
        self.txns.push(Txn {
            from,
            to,
            amount,
            outcome: Outcome::Unknown,
        });
        let req = client.submit_async(&TransactionSpec::transfer(from, to, amount))?;
        pending.push((req, idx));
        Ok(())
    }

    /// Collects replies for `window` (see [`collect_replies`]) while a
    /// second thread polls the sites `watch` for in-doubt polyvalues for
    /// `poll_window`; returns whether it saw one. Polling concurrently with
    /// reply collection matters: a stranded polyvalue can collapse within
    /// tens of milliseconds of the outcome landing, so a poll that starts
    /// after the reply window has already missed it.
    fn collect_watching(
        &mut self,
        client: &mut NetClient,
        pending: &mut Vec<(u64, usize)>,
        window: Duration,
        watch: &[u32],
        poll_window: Duration,
    ) -> bool {
        let Harness { cluster, txns, .. } = self;
        std::thread::scope(|scope| {
            let poller = scope.spawn(|| saw_polyvalue(cluster, watch, poll_window));
            collect_replies(txns, client, pending, window);
            poller.join().unwrap_or(false)
        })
    }

    /// Conservation + agreement over everything submitted so far.
    fn verify_funds(&self) -> Result<(), EngineError> {
        let snaps = self.cluster.settle(SETTLE)?;
        let final_balances: Vec<i64> = balances(&snaps)?.into_values().collect();
        let total: i64 = final_balances.iter().sum();
        let expected = ACCOUNTS as i64 * BALANCE;
        if total != expected {
            return Err(EngineError::Io(format!(
                "CONSERVATION VIOLATION: total {total}, expected {expected}"
            )));
        }
        let committed: Vec<&Txn> = self
            .txns
            .iter()
            .filter(|t| t.outcome == Outcome::Committed)
            .collect();
        let unknown: Vec<&Txn> = self
            .txns
            .iter()
            .filter(|t| t.outcome == Outcome::Unknown)
            .collect();
        let mut base = vec![BALANCE; ACCOUNTS as usize];
        for t in &committed {
            base[t.from as usize] -= t.amount;
            base[t.to as usize] += t.amount;
        }
        if unknown.len() > 20 {
            return Err(EngineError::Io(format!(
                "{} unknown outcomes exceed the enumeration cap",
                unknown.len()
            )));
        }
        for mask in 0u32..(1u32 << unknown.len()) {
            let mut v = base.clone();
            for (i, t) in unknown.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    v[t.from as usize] -= t.amount;
                    v[t.to as usize] += t.amount;
                }
            }
            if v == final_balances {
                return Ok(());
            }
        }
        Err(EngineError::Io(format!(
            "AGREEMENT VIOLATION: no commit assignment of {} unknown txns explains \
             the final balances {final_balances:?} (observed commits applied: {base:?})",
            unknown.len()
        )))
    }

    fn outcome_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for t in &self.txns {
            match t.outcome {
                Outcome::Committed => c.0 += 1,
                Outcome::Aborted => c.1 += 1,
                Outcome::Unknown => c.2 += 1,
            }
        }
        c
    }

}

/// Collects whatever replies arrive within `window` into `txns`; the rest
/// stay `Unknown`. Disconnects and timeouts are expected here — the
/// scenarios kill the very process that owes the replies.
fn collect_replies(
    txns: &mut [Txn],
    client: &mut NetClient,
    pending: &mut Vec<(u64, usize)>,
    window: Duration,
) {
    let limit = Instant::now() + window;
    while !pending.is_empty() {
        let remaining = limit.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        match client.recv_reply(remaining) {
            Ok((req, result)) => {
                if let Some(pos) = pending.iter().position(|&(r, _)| r == req) {
                    let (_, idx) = pending.swap_remove(pos);
                    txns[idx].outcome = if result.is_committed() {
                        Outcome::Committed
                    } else {
                        Outcome::Aborted
                    };
                }
            }
            Err(_) => break, // killed/partitioned: the rest stay Unknown
        }
    }
}

/// Polls `sites` until one reports an in-doubt polyvalue (true) or
/// `window` ends (false).
fn saw_polyvalue(cluster: &ProcCluster, sites: &[u32], window: Duration) -> bool {
    let limit = Instant::now() + window;
    loop {
        for &s in sites {
            let snap = cluster.client(s).and_then(|mut c| c.inspect(Duration::from_secs(2)));
            if snap.is_ok_and(|snap| snap.poly_count > 0) {
                return true;
            }
        }
        if Instant::now() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One scenario's verdict, rendered as a JSON object.
struct Verdict {
    scenario: &'static str,
    seed: u64,
    ok: bool,
    committed: usize,
    aborted: usize,
    unknown: usize,
    polys_observed: bool,
    recover_ms: f64,
    detail: String,
}

impl Verdict {
    fn json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"seed\":{},\"ok\":{},\"committed\":{},\"aborted\":{},\
             \"unknown\":{},\"polys_observed\":{},\"recover_ms\":{:.1},\"detail\":\"{}\"}}",
            self.scenario,
            self.seed,
            self.ok,
            self.committed,
            self.aborted,
            self.unknown,
            self.polys_observed,
            self.recover_ms,
            self.detail.replace('"', "'").replace('\n', " "),
        )
    }
}

type ScenarioFn = fn(&mut Harness) -> Result<(bool, Duration), EngineError>;

/// Kill the coordinator while a pipelined batch is mid-prepare; participants
/// time out into in-doubt polyvalues; the restarted coordinator's recovery +
/// §3.3 inquiries must collapse them.
fn coordinator_kill(h: &mut Harness) -> Result<(bool, Duration), EngineError> {
    // 40ms per hop stretches the protocol so the kill lands in a knowable
    // phase: ReadResp arrives ~80ms, Prepare is delivered ~120ms, Decisions
    // land ~200ms. Killing at 135-165ms catches the coordinator after
    // participants staged but before every Decision went out; the stranded
    // participants' wait timers (80ms after staging) then install in-doubt
    // polyvalues that only the restarted coordinator can resolve.
    h.chaos().set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let (mut client, mut pending) = h.submit_batch(0, 8, None)?;
    std::thread::sleep(Duration::from_millis(135 + h.rng.below(30)));
    h.cluster.kill(0);
    let kill_at = Instant::now();
    let survivors: Vec<u32> = (1..h.sites()).collect();
    let polys = h.collect_watching(&mut client, &mut pending, ms(300), &survivors, ms(1500));
    std::thread::sleep(Duration::from_millis(300 + h.rng.below(300)));
    h.cluster.restart(0)?;
    h.cluster.settle(SETTLE)?;
    Ok((polys, kill_at.elapsed()))
}

/// Kill a participant after it is (likely) Ready; the coordinator either
/// decides without it or the participant recovers into in-doubt state that
/// the outcome table resolves.
fn participant_kill(h: &mut Harness) -> Result<(bool, Duration), EngineError> {
    // Localhost 2PC finishes in microseconds; stretch it with 40ms/hop
    // injected latency so the kill reliably lands after site 1 staged
    // (Prepare delivered ~120ms) but before its Ready reaches the
    // coordinator (~160ms). The surviving participant (site 2) then
    // wait-times-out into in-doubt polyvalues while the coordinator waits
    // out its ready timeout. Disjoint account pairs homed at sites 1→2
    // keep every transfer clear of batch-mate lock conflicts.
    h.chaos().set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let pairs: Vec<(u64, u64)> = (0..3).map(|i| (1 + 3 * i, 2 + 3 * i)).collect();
    let (mut client, mut pending) = h.submit_pairs(0, &pairs)?;
    std::thread::sleep(Duration::from_millis(125 + h.rng.below(30)));
    h.cluster.kill(1);
    let kill_at = Instant::now();
    let polys = h.collect_watching(&mut client, &mut pending, ms(800), &[0, 2], ms(1500));
    std::thread::sleep(Duration::from_millis(200 + h.rng.below(300)));
    h.cluster.restart(1)?;
    h.cluster.settle(SETTLE)?;
    Ok((polys, kill_at.elapsed()))
}

/// Partition the coordinator away from its participants during the decision
/// window; after healing, outcomes must propagate and the backoff metrics
/// must show paced (not thundering) reconnects.
fn partition(h: &mut Harness) -> Result<(bool, Duration), EngineError> {
    // As in `participant_kill`: stretch the protocol with 40ms/hop so the
    // cut lands after Prepare was delivered to the remote participants
    // (~120ms) and before the Decision reaches them (~200ms). Their wait
    // timers then install in-doubt polyvalues that stay stranded for the
    // whole partition — the cut also drops any frames still in flight, just
    // like a real partition eats packets.
    h.chaos().set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let pairs = [(0, 1), (2, 3), (4, 5), (6, 7)];
    let (mut client, mut pending) = h.submit_pairs(0, &pairs)?;
    std::thread::sleep(Duration::from_millis(140 + h.rng.below(40)));
    let rest: Vec<u32> = (1..h.sites()).collect();
    h.chaos().partition(&[0], &rest);
    let polys = h.collect_watching(&mut client, &mut pending, ms(1200), &rest, ms(2500));
    std::thread::sleep(Duration::from_millis(500 + h.rng.below(500)));
    h.chaos().heal();
    let heal_at = Instant::now();
    h.cluster.settle(SETTLE)?;
    let heal_to_quiesce = heal_at.elapsed();

    // Backoff observability: the cut links must have tripped circuits, the
    // healed links must have reconnected, and the open intervals must have
    // grown past the base delay (paced rejoin, not a thundering herd).
    let m = h.cluster.metrics(Duration::from_secs(5))?;
    if m.counter("net.circuit_open") == 0 {
        return Err(EngineError::Io("partition never tripped a circuit".into()));
    }
    if m.counter("net.reconnects") == 0 {
        return Err(EngineError::Io("healed links never reconnected".into()));
    }
    let grew = m
        .histogram("net.backoff.wait_ms")
        .and_then(|hist| hist.max())
        .is_some_and(|max| max > 25.0);
    if !grew {
        return Err(EngineError::Io(
            "backoff never grew past the base delay during the partition".into(),
        ));
    }
    Ok((polys, heal_to_quiesce))
}

/// Kill every site at once mid-load, restart all from their WALs in a
/// seeded order: cold recovery on every site, then collective resolution.
fn restart_storm(h: &mut Harness) -> Result<(bool, Duration), EngineError> {
    let (mut c0, mut p0) = h.submit_batch(0, 6, None)?;
    let (mut c1, mut p1) = h.submit_batch(1 % h.sites(), 6, None)?;
    std::thread::sleep(Duration::from_millis(h.rng.below(10)));
    let mut order: Vec<u32> = (0..h.sites()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, h.rng.below(i as u64 + 1) as usize);
    }
    for &s in &order {
        h.cluster.kill(s);
    }
    let kill_at = Instant::now();
    collect_replies(&mut h.txns, &mut c0, &mut p0, Duration::from_millis(100));
    collect_replies(&mut h.txns, &mut c1, &mut p1, Duration::from_millis(100));
    std::thread::sleep(Duration::from_millis(200 + h.rng.below(200)));
    for i in (1..order.len()).rev() {
        order.swap(i, h.rng.below(i as u64 + 1) as usize);
    }
    for &s in &order.clone() {
        h.cluster.restart(s)?;
    }
    h.cluster.settle(SETTLE)?;
    let m = h.cluster.metrics(Duration::from_secs(5))?;
    if m.counter("net.cold_recoveries") < u64::from(h.sites()) {
        return Err(EngineError::Io(format!(
            "expected {} cold recoveries, saw {}",
            h.sites(),
            m.counter("net.cold_recoveries")
        )));
    }
    Ok((true, kill_at.elapsed()))
}

/// Roll a kill+restart through every site while a background load keeps
/// submitting; the cluster must absorb each loss and end consistent.
fn rolling_restart(h: &mut Harness) -> Result<(bool, Duration), EngineError> {
    let stop = AtomicBool::new(false);
    let load_seed = h.rng.below(u64::MAX);
    let Harness { rng, cluster, txns } = h;
    let rolled = std::thread::scope(|scope| {
        let loader = scope.spawn(|| load(cluster, load_seed, &stop));
        let roll_start = Instant::now();
        let rolled = (0..cluster.sites()).try_for_each(|s| {
            std::thread::sleep(Duration::from_millis(150 + rng.below(200)));
            cluster.kill(s);
            std::thread::sleep(Duration::from_millis(150 + rng.below(200)));
            cluster.restart(s)
        });
        let rolled = rolled.map(|()| roll_start.elapsed());
        stop.store(true, Ordering::SeqCst);
        txns.extend(loader.join().expect("load thread panicked"));
        rolled
    })?;
    cluster.settle(SETTLE)?;
    Ok((true, rolled))
}

/// `rolling_restart`'s background load: short closed-loop bursts against
/// each site in turn, until `stop`. A connection dials with
/// [`Backoff::fast_fail`], so a killed site costs a few refused dials.
fn load(cluster: &ProcCluster, seed: u64, stop: &AtomicBool) -> Vec<Txn> {
    let mut rng = SimRng::new(seed);
    let mut txns = Vec::new();
    let mut target = 0u32;
    while !stop.load(Ordering::SeqCst) {
        target = (target + 1) % cluster.sites();
        let Ok(mut client) = cluster.client_with(target, Backoff::fast_fail()) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        for _ in 0..4 {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let from = rng.below(ACCOUNTS);
            let to = (from + 1) % ACCOUNTS;
            let amount = 1 + rng.below(5) as i64;
            let mut txn = Txn {
                from,
                to,
                amount,
                outcome: Outcome::Unknown,
            };
            let spec = TransactionSpec::transfer(from, to, amount);
            match client.submit(&spec, Duration::from_secs(2)) {
                Ok(result) => {
                    txn.outcome = if result.is_committed() {
                        Outcome::Committed
                    } else {
                        Outcome::Aborted
                    };
                    txns.push(txn);
                }
                Err(EngineError::Timeout) | Err(EngineError::Disconnected) => {
                    txns.push(txn); // submitted, outcome unknown
                    break;
                }
                Err(_) => break, // connect-level failure: nothing submitted
            }
        }
    }
    txns
}

/// The coordinator-kill schedule replayed under Paxos Commit: the same hard
/// SIGKILL mid-prepare, but the stranded participants must *not* install
/// polyvalues — their wait timeouts elect a takeover leader whose ballot
/// closes the transaction against the surviving acceptor majority, with the
/// coordinator still dead. The restarted coordinator then learns the
/// outcomes from its acceptor log and the inquiry tick.
fn paxos_commit_kill(h: &mut Harness) -> Result<(bool, Duration), EngineError> {
    // Same 40ms/hop stretch as `coordinator_kill`: the kill lands after the
    // participants staged and broadcast their ballot-0 votes, before every
    // Decision went out.
    h.chaos().set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let (mut client, mut pending) = h.submit_batch(0, 8, None)?;
    std::thread::sleep(Duration::from_millis(135 + h.rng.below(30)));
    h.cluster.kill(0);
    let kill_at = Instant::now();
    let survivors: Vec<u32> = (1..h.sites()).collect();
    let polys = h.collect_watching(&mut client, &mut pending, ms(300), &survivors, ms(1500));
    if polys {
        return Err(EngineError::Io(
            "paxos-commit installed a polyvalue; the protocol never should".into(),
        ));
    }
    std::thread::sleep(Duration::from_millis(300 + h.rng.below(300)));
    h.cluster.restart(0)?;
    h.cluster.settle(SETTLE)?;
    // The non-blocking path must actually have run: a dead coordinator with
    // in-flight transactions forces at least one ballot takeover somewhere.
    let m = h.cluster.metrics(Duration::from_secs(5))?;
    if m.counter("pc.takeovers") == 0 {
        return Err(EngineError::Io(
            "coordinator died mid-commit yet no site ever started a takeover".into(),
        ));
    }
    Ok((false, kill_at.elapsed()))
}

fn run_scenario(
    name: &'static str,
    sites: u32,
    seed: u64,
    protocol: CommitProtocol,
    f: ScenarioFn,
) -> Verdict {
    let mut verdict = Verdict {
        scenario: name,
        seed,
        ok: false,
        committed: 0,
        aborted: 0,
        unknown: 0,
        polys_observed: false,
        recover_ms: 0.0,
        detail: String::new(),
    };
    let mut harness = match Harness::start(sites, seed, name, protocol) {
        Ok(h) => h,
        Err(e) => {
            verdict.detail = format!("harness start failed: {e}");
            return verdict;
        }
    };
    let result = f(&mut harness).and_then(|(polys, recover)| {
        verdict.polys_observed = polys;
        verdict.recover_ms = recover.as_secs_f64() * 1e3;
        harness.verify_funds()
    });
    let (committed, aborted, unknown) = harness.outcome_counts();
    verdict.committed = committed;
    verdict.aborted = aborted;
    verdict.unknown = unknown;
    match result.and_then(|()| harness.cluster.shutdown()) {
        Ok(()) => {
            verdict.ok = true;
            verdict.detail = "conservation, agreement, collapse, quiescence".into();
        }
        Err(e) => verdict.detail = e.to_string(),
    }
    verdict
}

fn main() -> ExitCode {
    let args = parse_args();
    use CommitProtocol::{PaxosCommit, Polyvalue};
    let all: [(&'static str, CommitProtocol, ScenarioFn); 6] = [
        ("coordinator-kill", Polyvalue, coordinator_kill),
        ("participant-kill", Polyvalue, participant_kill),
        ("partition", Polyvalue, partition),
        ("restart-storm", Polyvalue, restart_storm),
        ("rolling-restart", Polyvalue, rolling_restart),
        ("paxos-commit-kill", PaxosCommit, paxos_commit_kill),
    ];
    let picked: Vec<_> = all
        .iter()
        .filter(|(name, _, _)| args.scenario == "all" || args.scenario == *name)
        .collect();
    if picked.is_empty() {
        eprintln!("unknown scenario: {}", args.scenario);
        usage();
    }
    let mut verdicts = Vec::new();
    for (name, protocol, f) in picked {
        let verdict = run_scenario(name, args.sites, args.seed, *protocol, *f);
        println!("{}", verdict.json());
        verdicts.push(verdict);
    }
    let mut ok = verdicts.iter().all(|v| v.ok);
    // A full run that never stranded a single polyvalue did not exercise
    // the §3.3 machinery at all — that's a harness failure, not a pass.
    if args.scenario == "all" && !verdicts.iter().any(|v| v.polys_observed) {
        eprintln!("pv-chaos: no scenario ever observed an in-doubt polyvalue");
        ok = false;
    }
    if let Some(path) = &args.out {
        let body = format!(
            "[\n  {}\n]\n",
            verdicts
                .iter()
                .map(Verdict::json)
                .collect::<Vec<_>>()
                .join(",\n  ")
        );
        if let Err(e) =
            std::fs::File::create(path).and_then(|mut f| f.write_all(body.as_bytes()))
        {
            eprintln!("write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
