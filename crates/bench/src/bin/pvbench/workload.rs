//! The five workloads and their seeded inputs.
//!
//! A workload is a cluster shape plus a transaction stream; the stream is a
//! pure function of `--seed`, and the system under test only ever sees the
//! generated [`Topology`] and [`TransactionSpec`]s, never a workload name.

use pv_core::{Expr, ItemId, TransactionSpec};
use pv_engine::{CommitProtocol, Directory, EngineConfig, Topology};
use pv_simnet::{SimDuration, SimRng};
use pv_store::FsyncPolicy;
use std::collections::VecDeque;
use std::path::Path;

/// Every workload, in the order `pvbench all` runs them.
pub const NAMES: [&str; 5] = [
    "net_closed",
    "net_pipelined",
    "disk_pipelined",
    "snapshot_mix",
    "sim_faulty",
];

/// Opening balance of every account: large enough that no guarded transfer
/// of 1..=5 is ever refused, so a refusal is a failure and not noise.
pub const BALANCE: i64 = 1_000_000;

/// Items per snapshot read in `snapshot_mix`.
pub const READ_BATCH: usize = 8;

/// Snapshot reads `snapshot_mix` issues after each transfer.
pub const READS_PER_TRANSFER: usize = 8;

/// A networked workload: 3 sites of the in-process [`pv_net::NetCluster`]
/// (real loopback TCP, one thread per site) under closed-loop load.
#[derive(Debug, Clone)]
pub struct NetSpec {
    pub sites: u32,
    /// Accounts `0..accounts`, placed `account mod sites`.
    pub accounts: u64,
    /// Outstanding transfers per writer connection.
    pub window: usize,
    /// Connections that submit transfers (connection `c` dials site `c`).
    pub writers: usize,
    /// Snapshot reads each writer connection issues after every transfer
    /// (0 = transfers only). Reads and transfers alternate on one connection
    /// rather than run on two: five busy threads on this box's two cores
    /// measured the scheduler, not the store.
    pub reads_per_transfer: usize,
    /// `DiskWal` under `FsyncPolicy::PerDecision` instead of `MemStorage`.
    pub disk: bool,
    /// Keyspace `(memtable_threshold, run_threshold)` override.
    pub lsm: Option<(usize, usize)>,
}

/// The simulated workload: the paper's funds transfer under Poisson crashes
/// and link partitions (the `shootout` schedule), no sockets, no threads.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub sites: u32,
    pub accounts: u64,
    pub clients: u32,
    pub per_client: u64,
    pub rate_per_sec: f64,
    pub crash_rate: f64,
    /// Simulated seconds of chaos; commits acknowledged by then are prompt.
    pub chaos_secs: u64,
    /// Simulated seconds allowed for the cluster to drain afterwards.
    pub drain_secs: u64,
    /// Seeded simulations per second of `--seconds`, fixed so that the set
    /// of seeds (and therefore every count) depends on the arguments alone.
    /// One simulation costs about 56 ms on the 2-core reference box.
    pub sims_per_second: u64,
}

#[derive(Debug, Clone)]
pub enum Workload {
    Net(NetSpec),
    Sim(SimSpec),
}

pub fn by_name(name: &str) -> Option<Workload> {
    let base = NetSpec {
        sites: 3,
        accounts: 65_536,
        window: 1,
        writers: 2,
        reads_per_transfer: 0,
        disk: false,
        lsm: None,
    };
    Some(match name {
        "net_closed" => Workload::Net(base),
        "net_pipelined" => Workload::Net(NetSpec { window: 16, ..base }),
        "disk_pipelined" => Workload::Net(NetSpec {
            window: 16,
            disk: true,
            ..base
        }),
        "snapshot_mix" => Workload::Net(NetSpec {
            accounts: 64,
            writers: 1,
            reads_per_transfer: READS_PER_TRANSFER,
            lsm: Some((64, 4)),
            ..base
        }),
        "sim_faulty" => Workload::Sim(SimSpec {
            sites: 4,
            accounts: 32,
            clients: 6,
            per_client: 250,
            rate_per_sec: 20.0,
            crash_rate: 0.2,
            chaos_secs: 15,
            drain_secs: 25,
            sims_per_second: 16,
        }),
        _ => return None,
    })
}

/// Failure-detection timeouts of the networked workloads. No site fails in
/// them, so a timeout can only fire when the shared host stalls the whole
/// process; `pv-node --fast`'s 80–200 ms did so a few dozen times per million
/// transfers, each an aborted (failed) operation. Two seconds outlasts every
/// stall seen, and the benchmark's workloads are ones on which nothing fails.
pub fn patient_config() -> EngineConfig {
    EngineConfig {
        read_timeout: SimDuration::from_secs(2),
        ready_timeout: SimDuration::from_secs(2),
        wait_timeout: SimDuration::from_secs(2),
        read_lease: SimDuration::from_secs(5),
        inquire_interval: SimDuration::from_millis(100),
        ..EngineConfig::with_protocol(CommitProtocol::Polyvalue)
    }
}

impl NetSpec {
    /// The cluster description handed to the runtime under test.
    pub fn topology(&self, data_dir: Option<&Path>) -> Topology {
        let mut topo = Topology::new(self.sites, Directory::Mod(self.sites))
            .engine(patient_config())
            .uniform_items(self.accounts, BALANCE);
        if let Some((memtable, runs)) = self.lsm {
            topo = topo.memtable_threshold(memtable).run_threshold(runs);
        }
        if let Some(dir) = data_dir {
            topo = topo.data_dir(dir).fsync_policy(FsyncPolicy::PerDecision);
        }
        topo
    }

    /// The transfer stream of writer connection `lane`.
    pub fn transfers(&self, seed: u64, lane: usize) -> TransferStream {
        TransferStream::new(
            seed,
            lane as u64,
            self.writers as u64,
            self.accounts,
            4 * self.window,
        )
    }

    /// Accounts homed at `site`, for the snapshot reads of its connection.
    pub fn accounts_at(&self, site: u32) -> Vec<ItemId> {
        (0..self.accounts)
            .filter(|a| a % u64::from(self.sites) == u64::from(site))
            .map(ItemId)
            .collect()
    }
}

/// One guarded transfer of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub from: u64,
    pub to: u64,
    pub amount: i64,
}

impl Transfer {
    pub fn spec(&self) -> TransactionSpec {
        let (f, t) = (ItemId(self.from), ItemId(self.to));
        TransactionSpec::new()
            .guard(Expr::read(f).ge(Expr::int(self.amount)))
            .update(f, Expr::read(f).sub(Expr::int(self.amount)))
            .update(t, Expr::read(t).add(Expr::int(self.amount)))
    }
}

/// Uniform random pairs over one lane's share of the accounts.
///
/// Lane `l` of `n` draws only accounts `≡ l (mod n)`, and any `distinct_run`
/// consecutive transfers touch pairwise different accounts. Together these
/// make the workload conflict-free by construction — a connection never has
/// two transfers in flight on one account and never meets another
/// connection's — so every lock conflict or abort the run sees is a failure.
#[derive(Debug, Clone)]
pub struct TransferStream {
    rng: SimRng,
    lane: u64,
    lanes: u64,
    per_lane: u64,
    distinct_run: usize,
    recent: VecDeque<[u64; 2]>,
}

impl TransferStream {
    pub fn new(seed: u64, lane: u64, lanes: u64, accounts: u64, distinct_run: usize) -> Self {
        let per_lane = accounts / lanes;
        assert!(
            per_lane >= 2 * (distinct_run as u64 + 1),
            "{per_lane} accounts per lane cannot keep {distinct_run} transfers disjoint"
        );
        TransferStream {
            rng: SimRng::new(seed).fork(0x7A4E_0000 + lane),
            lane,
            lanes,
            per_lane,
            distinct_run,
            recent: VecDeque::with_capacity(distinct_run + 1),
        }
    }

    fn draw(&mut self, other: Option<u64>) -> u64 {
        loop {
            let a = self.rng.below(self.per_lane) * self.lanes + self.lane;
            if Some(a) != other && !self.recent.iter().any(|pair| pair.contains(&a)) {
                return a;
            }
        }
    }
}

impl Iterator for TransferStream {
    type Item = Transfer;

    fn next(&mut self) -> Option<Transfer> {
        let from = self.draw(None);
        let to = self.draw(Some(from));
        let amount = 1 + self.rng.below(5) as i64;
        if self.recent.len() == self.distinct_run {
            self.recent.pop_front();
        }
        self.recent.push_back([from, to]);
        Some(Transfer { from, to, amount })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists() {
        for name in NAMES {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn streams_are_seeded_lane_disjoint_and_locally_conflict_free() {
        let Some(Workload::Net(spec)) = by_name("net_pipelined") else {
            panic!("net workload");
        };
        let a: Vec<Transfer> = spec.transfers(7, 0).take(500).collect();
        let again: Vec<Transfer> = spec.transfers(7, 0).take(500).collect();
        let other_seed: Vec<Transfer> = spec.transfers(8, 0).take(500).collect();
        let b: Vec<Transfer> = spec.transfers(7, 1).take(500).collect();
        assert_eq!(a, again);
        assert_ne!(a, other_seed);
        assert!(a
            .iter()
            .all(|t| t.from % 2 == 0 && t.to % 2 == 0 && t.from != t.to));
        assert!(b.iter().all(|t| t.from % 2 == 1 && t.to % 2 == 1));
        assert!(a
            .iter()
            .all(|t| (1..=5).contains(&t.amount) && t.to < spec.accounts));
        // Any 64 consecutive transfers (4 × window) touch 128 distinct accounts.
        for run in a.windows(4 * spec.window) {
            let mut seen = std::collections::BTreeSet::new();
            assert!(run.iter().all(|t| seen.insert(t.from) && seen.insert(t.to)));
        }
    }

    #[test]
    fn hot_set_stream_fits_its_sixty_four_accounts() {
        let Some(Workload::Net(spec)) = by_name("snapshot_mix") else {
            panic!("net workload");
        };
        assert!(spec
            .transfers(1, 0)
            .take(1000)
            .all(|t| t.from < 64 && t.to < 64));
        assert_eq!(spec.accounts_at(1).len(), 21);
        let topo = spec.topology(None);
        assert_eq!(topo.seeded_int_total(), 64 * BALANCE);
        assert_eq!(
            (topo.engine.memtable_threshold, topo.engine.run_threshold),
            (64, 4)
        );
    }
}
