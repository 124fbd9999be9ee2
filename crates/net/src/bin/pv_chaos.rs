//! Kill/restart survival harness for a real `pv-node` process cluster.
//!
//! ```text
//! pv-chaos [--scenario NAME|all] [--seed N] [--sites 3] [--out verdict.json]
//! ```
//!
//! The harness spawns one OS process per site (`--data-dir` disk WALs, the
//! same fast engine config the benches use), fronts every site→site link
//! with a fault-injecting [`ChaosNet`] proxy, drives a funds-transfer load,
//! and then does what the Polyvalues paper is about: kills coordinators
//! mid-prepare, kills participants after Ready, partitions the cluster
//! during the decision phase, restarts everything at once, and rolls
//! restarts through the cluster under live load. After every scenario heals
//! it asserts the §3/§3.3 recovery story end to end:
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

use pv_core::{Expr, ItemId, TransactionSpec};
use pv_engine::EngineError;
use pv_net::backoff::Backoff;
use pv_net::chaos::{ChaosNet, LinkFaults};
use pv_net::client::NetClient;
use pv_simnet::{Metrics, SimRng};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ACCOUNTS: u64 = 9;
const BALANCE: i64 = 100;

/// Harness-side reconnect policy: patient, because scenarios deliberately
/// leave sites dead for hundreds of milliseconds.
fn harness_backoff() -> Backoff {
    Backoff::patient()
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

fn transfer(from: u64, to: u64, amount: i64) -> TransactionSpec {
    let (f, t) = (ItemId(from), ItemId(to));
    TransactionSpec::new()
        .guard(Expr::read(f).ge(Expr::int(amount)))
        .update(f, Expr::read(f).sub(Expr::int(amount)))
        .update(t, Expr::read(t).add(Expr::int(amount)))
}

struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn free_addr() -> Result<SocketAddr, EngineError> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| EngineError::Io(format!("reserve port: {e}")))
}

/// One scenario's worth of cluster: real `pv-node` processes behind chaos
/// proxies, disk WALs under a scratch directory, seeded RNG for every
/// schedule decision.
struct Harness {
    rng: SimRng,
    sites: u32,
    /// The commit protocol every spawned node runs (`pv-node --protocol`).
    protocol: &'static str,
    /// Current real (listen) address of each site; changes on restart.
    reals: Arc<Mutex<Vec<SocketAddr>>>,
    chaos: ChaosNet,
    children: Vec<Option<ChildGuard>>,
    data_dir: PathBuf,
    node_bin: PathBuf,
    next_client: Arc<AtomicU32>,
    txns: Vec<Txn>,
}

impl Harness {
    fn start(
        sites: u32,
        seed: u64,
        tag: &str,
        protocol: &'static str,
    ) -> Result<Harness, EngineError> {
        let me =
            std::env::current_exe().map_err(|e| EngineError::Io(format!("current_exe: {e}")))?;
        let node_bin = me
            .parent()
            .map(|d| d.join("pv-node"))
            .filter(|p| p.exists())
            .ok_or_else(|| {
                EngineError::Io("pv-node binary not found next to pv-chaos (build both)".into())
            })?;
        let data_dir = std::env::temp_dir().join(format!(
            "pv-chaos-{tag}-{seed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| EngineError::Io(format!("mkdir {}: {e}", data_dir.display())))?;
        let reals: Vec<SocketAddr> = (0..sites)
            .map(|_| free_addr())
            .collect::<Result<_, _>>()?;
        let chaos = ChaosNet::new(seed, &reals)?;
        let mut harness = Harness {
            rng: SimRng::new(seed ^ 0xC4A0_5EED),
            sites,
            protocol,
            reals: Arc::new(Mutex::new(reals)),
            chaos,
            children: (0..sites).map(|_| None).collect(),
            data_dir,
            node_bin,
            next_client: Arc::new(AtomicU32::new(sites + 100)),
            txns: Vec::new(),
        };
        for s in 0..sites {
            harness.spawn_site(s)?;
        }
        for s in 0..sites {
            harness.wait_ready(s)?;
        }
        Ok(harness)
    }

    fn real(&self, s: u32) -> SocketAddr {
        self.reals.lock().expect("reals lock")[s as usize]
    }

    fn spawn_site(&mut self, s: u32) -> Result<(), EngineError> {
        let proxies = self
            .chaos
            .proxy_addrs()
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let listen = self.real(s);
        let child = Command::new(&self.node_bin)
            .args([
                "--site",
                &s.to_string(),
                "--addrs",
                &proxies,
                "--listen",
                &listen.to_string(),
                "--accounts",
                &ACCOUNTS.to_string(),
                "--balance",
                &BALANCE.to_string(),
                "--data-dir",
                &self.data_dir.display().to_string(),
                "--protocol",
                self.protocol,
                "--fast",
                // Patient reconnects: peers stay dead for a while on purpose.
                "--attempts",
                "100000",
                "--delay-ms",
                "25",
                "--max-delay-ms",
                "500",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| EngineError::Io(format!("spawn pv-node: {e}")))?;
        self.children[s as usize] = Some(ChildGuard(child));
        Ok(())
    }

    /// Polls until site `s` accepts a client connection.
    fn wait_ready(&self, s: u32) -> Result<(), EngineError> {
        let addr = self.real(s);
        let limit = Instant::now() + Duration::from_secs(10);
        loop {
            match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Ok(_) => return Ok(()),
                Err(e) => {
                    if Instant::now() > limit {
                        return Err(EngineError::Io(format!("site {s} never came up: {e}")));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Kills site `s` hard (SIGKILL): no WAL flush, no goodbye to peers.
    fn kill(&mut self, s: u32) {
        if let Some(mut guard) = self.children[s as usize].take() {
            let _ = guard.0.kill();
            let _ = guard.0.wait();
        }
    }

    /// Restarts site `s` from its surviving data directory, on a fresh port
    /// (the old one may be stuck in TIME_WAIT); peers keep dialing the same
    /// proxy address, which is re-targeted at the reborn process.
    fn restart(&mut self, s: u32) -> Result<(), EngineError> {
        let fresh = free_addr()?;
        self.reals.lock().expect("reals lock")[s as usize] = fresh;
        self.chaos.retarget(s, fresh);
        self.spawn_site(s)?;
        self.wait_ready(s)
    }

    fn client(&self, s: u32) -> Result<NetClient, EngineError> {
        let node = self.next_client.fetch_add(1, Ordering::Relaxed);
        NetClient::connect(self.real(s), node, harness_backoff())
    }

    /// A fresh transfer between two accounts on *different* sites (adjacent
    /// account ids live on different sites under `Directory::Mod`).
    fn pick_transfer(&mut self, home: Option<u32>) -> (u64, u64, i64) {
        let from = match home {
            // An account homed at `site`: ids ≡ site (mod sites).
            Some(site) => {
                let span = ACCOUNTS / u64::from(self.sites);
                u64::from(site) + u64::from(self.sites) * self.rng.below(span.max(1))
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
        let mut client = self.client(coordinator)?;
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
        let mut client = self.client(coordinator)?;
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
        let req = client.submit_async(&transfer(from, to, amount))?;
        pending.push((req, idx));
        Ok(())
    }

    /// Collects whatever replies arrive within `window`; the rest stay
    /// `Unknown`. Disconnects and timeouts are expected here — the scenarios
    /// kill the very process that owes the replies.
    fn collect_replies(
        &mut self,
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
                        self.txns[idx].outcome = if result.is_committed() {
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

    /// Spawns a background thread that polls the listed sites for in-doubt
    /// polyvalues; join the handle for the verdict. Polling concurrently
    /// with reply collection matters: a stranded polyvalue can collapse
    /// within tens of milliseconds of the outcome landing, so a poll that
    /// starts after the reply window has already missed it.
    fn spawn_poly_poller(
        &self,
        sites: &[u32],
        window: Duration,
    ) -> std::thread::JoinHandle<bool> {
        let addrs: Vec<SocketAddr> = sites.iter().map(|&s| self.real(s)).collect();
        let next = Arc::clone(&self.next_client);
        std::thread::Builder::new()
            .name("pv-chaos-poller".into())
            .spawn(move || {
                let limit = Instant::now() + window;
                loop {
                    for &addr in &addrs {
                        let node = next.fetch_add(1, Ordering::Relaxed);
                        if let Ok(mut c) = NetClient::connect(addr, node, harness_backoff()) {
                            if let Ok(snap) = c.inspect(Duration::from_secs(2)) {
                                if snap.poly_count > 0 {
                                    return true;
                                }
                            }
                        }
                    }
                    if Instant::now() > limit {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
            .expect("spawn poly poller")
    }

    /// Waits until every site is quiescent with zero polyvalues; returns
    /// how long that took.
    fn await_quiescence(&self, limit: Duration) -> Result<Duration, EngineError> {
        let start = Instant::now();
        let deadline = start + limit;
        loop {
            let mut polys = 0u64;
            let mut quiescent = true;
            let mut err = None;
            for s in 0..self.sites {
                match self
                    .client(s)
                    .and_then(|mut c| c.inspect(Duration::from_secs(3)))
                {
                    Ok(snap) => {
                        polys += snap.poly_count;
                        quiescent &= snap.quiescent;
                    }
                    Err(e) => err = Some(e),
                }
            }
            if err.is_none() && polys == 0 && quiescent {
                return Ok(start.elapsed());
            }
            if Instant::now() > deadline {
                return Err(EngineError::Io(format!(
                    "no quiescence within {limit:?}: {polys} polyvalues left, last error {err:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Final balances, indexed by account id.
    fn balances(&self) -> Result<Vec<i64>, EngineError> {
        let mut out = vec![0i64; ACCOUNTS as usize];
        for s in 0..self.sites {
            let snap = self.client(s)?.inspect(Duration::from_secs(3))?;
            for (item, entry) in &snap.items {
                let v = entry
                    .as_simple()
                    .and_then(pv_core::Value::as_int)
                    .ok_or_else(|| {
                        EngineError::Io(format!("item {item:?} unsettled after drain"))
                    })?;
                out[item.0 as usize] = v;
            }
        }
        Ok(out)
    }

    /// Every site's metrics registry, merged.
    fn merged_metrics(&self) -> Result<Metrics, EngineError> {
        let mut merged = Metrics::new();
        for s in 0..self.sites {
            merged.merge(&self.client(s)?.metrics(Duration::from_secs(3))?);
        }
        Ok(merged)
    }

    /// Conservation + agreement over everything submitted so far.
    fn verify_funds(&self) -> Result<(), EngineError> {
        let final_balances = self.balances()?;
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

    /// Clean shutdown: every surviving process flushes and exits 0.
    fn shutdown(mut self) -> Result<(), EngineError> {
        for s in 0..self.sites {
            if self.children[s as usize].is_some() {
                self.client(s)?.shutdown()?;
            }
        }
        for slot in self.children.iter_mut() {
            if let Some(mut guard) = slot.take() {
                let status = guard
                    .0
                    .wait()
                    .map_err(|e| EngineError::Io(format!("wait pv-node: {e}")))?;
                if !status.success() {
                    return Err(EngineError::Io(format!(
                        "pv-node exited with {status} after shutdown"
                    )));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
        Ok(())
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
    h.chaos.set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let (mut client, mut pending) = h.submit_batch(0, 8, None)?;
    std::thread::sleep(Duration::from_millis(135 + h.rng.below(30)));
    h.kill(0);
    let kill_at = Instant::now();
    let survivors: Vec<u32> = (1..h.sites).collect();
    let poller = h.spawn_poly_poller(&survivors, Duration::from_millis(1500));
    h.collect_replies(&mut client, &mut pending, Duration::from_millis(300));
    let polys = poller.join().unwrap_or(false);
    std::thread::sleep(Duration::from_millis(300 + h.rng.below(300)));
    h.restart(0)?;
    h.await_quiescence(Duration::from_secs(30))?;
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
    h.chaos.set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let pairs: Vec<(u64, u64)> = (0..3).map(|i| (1 + 3 * i, 2 + 3 * i)).collect();
    let (mut client, mut pending) = h.submit_pairs(0, &pairs)?;
    std::thread::sleep(Duration::from_millis(125 + h.rng.below(30)));
    h.kill(1);
    let kill_at = Instant::now();
    let poller = h.spawn_poly_poller(&[0, 2], Duration::from_millis(1500));
    h.collect_replies(&mut client, &mut pending, Duration::from_millis(800));
    let polys = poller.join().unwrap_or(false);
    std::thread::sleep(Duration::from_millis(200 + h.rng.below(300)));
    h.restart(1)?;
    h.await_quiescence(Duration::from_secs(30))?;
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
    h.chaos.set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let pairs = [(0, 1), (2, 3), (4, 5), (6, 7)];
    let (mut client, mut pending) = h.submit_pairs(0, &pairs)?;
    std::thread::sleep(Duration::from_millis(140 + h.rng.below(40)));
    let rest: Vec<u32> = (1..h.sites).collect();
    h.chaos.partition(&[0], &rest);
    let poller = h.spawn_poly_poller(&rest, Duration::from_millis(2500));
    h.collect_replies(&mut client, &mut pending, Duration::from_millis(1200));
    let polys = poller.join().unwrap_or(false);
    std::thread::sleep(Duration::from_millis(500 + h.rng.below(500)));
    h.chaos.heal();
    let heal_at = Instant::now();
    h.await_quiescence(Duration::from_secs(30))?;
    let heal_to_quiesce = heal_at.elapsed();

    // Backoff observability: the cut links must have tripped circuits, the
    // healed links must have reconnected, and the open intervals must have
    // grown past the base delay (paced rejoin, not a thundering herd).
    let m = h.merged_metrics()?;
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
    let (mut c1, mut p1) = h.submit_batch(1 % h.sites, 6, None)?;
    std::thread::sleep(Duration::from_millis(h.rng.below(10)));
    let mut order: Vec<u32> = (0..h.sites).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, h.rng.below(i as u64 + 1) as usize);
    }
    for &s in &order {
        h.kill(s);
    }
    let kill_at = Instant::now();
    h.collect_replies(&mut c0, &mut p0, Duration::from_millis(100));
    h.collect_replies(&mut c1, &mut p1, Duration::from_millis(100));
    std::thread::sleep(Duration::from_millis(200 + h.rng.below(200)));
    for i in (1..order.len()).rev() {
        order.swap(i, h.rng.below(i as u64 + 1) as usize);
    }
    for &s in &order.clone() {
        h.restart(s)?;
    }
    h.await_quiescence(Duration::from_secs(30))?;
    let m = h.merged_metrics()?;
    if m.counter("net.cold_recoveries") < u64::from(h.sites) {
        return Err(EngineError::Io(format!(
            "expected {} cold recoveries, saw {}",
            h.sites,
            m.counter("net.cold_recoveries")
        )));
    }
    Ok((true, kill_at.elapsed()))
}

/// Roll a kill+restart through every site while a background load keeps
/// submitting; the cluster must absorb each loss and end consistent.
fn rolling_restart(h: &mut Harness) -> Result<(bool, Duration), EngineError> {
    let stop = Arc::new(AtomicBool::new(false));
    let reals = Arc::clone(&h.reals);
    let next_client = Arc::clone(&h.next_client);
    let sites = h.sites;
    let load_seed = h.rng.below(u64::MAX);
    let stop2 = Arc::clone(&stop);
    let loader = std::thread::spawn(move || -> Vec<Txn> {
        let mut rng = SimRng::new(load_seed);
        let mut txns = Vec::new();
        let mut target = 0u32;
        while !stop2.load(Ordering::SeqCst) {
            target = (target + 1) % sites;
            let addr = reals.lock().expect("reals lock")[target as usize];
            let node = next_client.fetch_add(1, Ordering::Relaxed);
            let Ok(mut client) = NetClient::connect(addr, node, Backoff::fast_fail()) else {
                std::thread::sleep(Duration::from_millis(50));
                continue;
            };
            for _ in 0..4 {
                if stop2.load(Ordering::SeqCst) {
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
                match client.submit(&transfer(from, to, amount), Duration::from_secs(2)) {
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
    });

    let roll_start = Instant::now();
    for s in 0..h.sites {
        std::thread::sleep(Duration::from_millis(150 + h.rng.below(200)));
        h.kill(s);
        std::thread::sleep(Duration::from_millis(150 + h.rng.below(200)));
        h.restart(s)?;
    }
    let rolled = roll_start.elapsed();
    stop.store(true, Ordering::SeqCst);
    let load_txns = loader.join().expect("load thread panicked");
    h.txns.extend(load_txns);
    h.await_quiescence(Duration::from_secs(30))?;
    Ok((true, rolled))
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
    h.chaos.set_default(LinkFaults {
        delay: Duration::from_millis(40),
        ..LinkFaults::default()
    });
    let (mut client, mut pending) = h.submit_batch(0, 8, None)?;
    std::thread::sleep(Duration::from_millis(135 + h.rng.below(30)));
    h.kill(0);
    let kill_at = Instant::now();
    let survivors: Vec<u32> = (1..h.sites).collect();
    let poller = h.spawn_poly_poller(&survivors, Duration::from_millis(1500));
    h.collect_replies(&mut client, &mut pending, Duration::from_millis(300));
    let polys = poller.join().unwrap_or(false);
    if polys {
        return Err(EngineError::Io(
            "paxos-commit installed a polyvalue; the protocol never should".into(),
        ));
    }
    std::thread::sleep(Duration::from_millis(300 + h.rng.below(300)));
    h.restart(0)?;
    h.await_quiescence(Duration::from_secs(30))?;
    // The non-blocking path must actually have run: a dead coordinator with
    // in-flight transactions forces at least one ballot takeover somewhere.
    let m = h.merged_metrics()?;
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
    protocol: &'static str,
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
    match result.and_then(|()| harness.shutdown()) {
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
    let all: [(&'static str, &'static str, ScenarioFn); 6] = [
        ("coordinator-kill", "polyvalue", coordinator_kill),
        ("participant-kill", "polyvalue", participant_kill),
        ("partition", "polyvalue", partition),
        ("restart-storm", "polyvalue", restart_storm),
        ("rolling-restart", "polyvalue", rolling_restart),
        ("paxos-commit-kill", "paxos-commit", paxos_commit_kill),
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
        let verdict = run_scenario(name, args.sites, args.seed, protocol, *f);
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
