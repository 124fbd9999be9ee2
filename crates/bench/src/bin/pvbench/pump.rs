//! The traced run's engine: a single-threaded pump that replays a workload's
//! seeded transfer stream through the same layers the networked cluster uses,
//! calling each through its public functions and recording a span around
//! every call.
//!
//! The pump holds one `SiteMachine` + `SiteStore` per site. Every
//! `Output::Send` to another node goes `wire::frame_bytes` →
//! `wire::decode_frame` → `Input::Msg`; a site's messages to itself skip the
//! wire, as they do in `pv_net::Node`. Timers are virtual (the clock advances
//! a fixed amount per delivered input). A connection's window is emulated by
//! how many transfers the pump admits at a time. Nothing here sleeps or
//! touches a socket, so what the pump measures is the layers' own work; the
//! difference to the real run's `cpu_us_per_op` is what the trace does not
//! explain (event loop, syscalls, scheduler).

use crate::timed::TimedStorage;
use crate::trace::{self, Clock, SpanId, StorageLog, Tracer};
use crate::workload::{NetSpec, Transfer, TransferStream, BALANCE};
use pv_core::{TxnId, Value};
use pv_net::wire::{decode_frame, frame_bytes, Frame};
use pv_protocol::{Input, Msg, Output, SiteMachine, TimerKey};
use pv_simnet::{NodeId, SimTime};
use pv_store::{DiskWal, FsyncPolicy, MemStorage, Record, SiteStore, Storage, StoreStats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual microseconds the clock advances per delivered input. At the real
/// cluster's rate of a few microseconds per step this keeps every protocol
/// timeout (80 ms and up) thousands of steps away, so no transfer ever times
/// out in the pump; the armed timers still fire, as stale no-ops, like they
/// do in the real loop.
const STEP_US: u64 = 10;

/// WAL records kept from site 0 for the codec measurements.
const WAL_SAMPLE: usize = 4096;

#[derive(Debug, Clone)]
pub struct PumpOpts {
    pub seed: u64,
    /// Record spans (and wrap storage in `TimedStorage`).
    pub traced: bool,
    /// Stop admitting after this many transfers…
    pub max_commits: u64,
    /// …or after this much wall time, whichever comes first.
    pub budget: Duration,
}

/// The critical path of one transfer, read off its causal chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// One-way network hops from the client's submit to its reply.
    pub hops: u32,
    /// Flushes to stable storage on that chain.
    pub syncs: u32,
}

#[derive(Debug, Default)]
pub struct PumpResult {
    /// Wall time from the first admission to the last reply.
    pub wall_ns: u64,
    pub commits: u64,
    pub failed: u64,
    pub steps: u64,
    pub step_ns: u64,
    /// Every `Output::Send`, self-sends and replies included.
    pub sends: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub tracer: Option<Tracer>,
    /// Storage and keyspace counters summed over the sites.
    pub stats: StoreStats,
    pub lsm_runs: u64,
    pub mvcc_versions: u64,
    /// Critical path of the probe: the first transfer, run alone, with the
    /// coordinator at site 0 and one account on each of the other sites.
    pub probe: CriticalPath,
    pub wal_sample: Vec<Record>,
    pub violations: Vec<String>,
}

/// The protocol transaction a message belongs to (fault-free vocabulary).
fn txn_of(msg: &Msg) -> Option<TxnId> {
    match msg {
        Msg::ReadReq { txn, .. }
        | Msg::ReadResp { txn, .. }
        | Msg::ReadNack { txn }
        | Msg::Prepare { txn, .. }
        | Msg::Ready { txn }
        | Msg::PrepareNack { txn }
        | Msg::Decision { txn, .. }
        | Msg::Inquire { txn }
        | Msg::OutcomeNotify { txn, .. } => Some(*txn),
        _ => None,
    }
}

fn timer_txn(key: TimerKey) -> Option<TxnId> {
    match key {
        TimerKey::CoordRead(t)
        | TimerKey::CoordReady(t)
        | TimerKey::PartWait(t)
        | TimerKey::ReadLease(t)
        | TimerKey::QueueExpire(t) => Some(t),
        TimerKey::Inquire => None,
    }
}

struct PumpSite {
    machine: SiteMachine,
    store: SiteStore,
}

/// A framed message in flight between two nodes.
struct InFlight {
    to: u32,
    bytes: Vec<u8>,
    /// The pump's own transaction number (0 = none), for span grouping.
    seq: u64,
    path: CriticalPath,
}

struct Lane {
    node: u32,
    site: u32,
    stream: TransferStream,
    next_req: u64,
    inflight: HashMap<u64, (Transfer, u64)>,
}

struct Pump<'a> {
    spec: &'a NetSpec,
    sites: Vec<PumpSite>,
    lanes: Vec<Lane>,
    queue: VecDeque<InFlight>,
    timers: BinaryHeap<Reverse<(u64, u64, u32, u64)>>,
    timer_seq: u64,
    now_us: u64,
    clock: Clock,
    tracer: Option<Tracer>,
    root: Option<SpanId>,
    log: StorageLog,
    /// Pump transaction number → its open `txn` span.
    txn_span: HashMap<u64, SpanId>,
    /// Protocol transaction id → pump transaction number.
    seq_of: HashMap<TxnId, u64>,
    next_seq: u64,
    deltas: HashMap<u64, i64>,
    last_reply_path: CriticalPath,
    out: PumpResult,
}

fn open_storage(
    spec: &NetSpec,
    site: u32,
    dir: Option<&Path>,
    timing: Option<(Clock, StorageLog)>,
) -> Result<Box<dyn Storage>, String> {
    fn wrap<S: Storage + 'static>(s: S, timing: Option<(Clock, StorageLog)>) -> Box<dyn Storage> {
        match timing {
            Some((clock, log)) => Box::new(TimedStorage::new(s, clock, log)),
            None => Box::new(s),
        }
    }
    if spec.disk {
        let dir = dir.ok_or("a disk workload needs a data directory")?;
        let wal = DiskWal::open(dir.join(format!("site-{site}")), FsyncPolicy::PerDecision)
            .map_err(|e| format!("open WAL: {e}"))?;
        Ok(wrap(wal, timing))
    } else {
        Ok(wrap(MemStorage::new(), timing))
    }
}

impl<'a> Pump<'a> {
    fn new(spec: &'a NetSpec, opts: &PumpOpts, dir: Option<&Path>) -> Result<Self, String> {
        let clock = Clock::start();
        let log: StorageLog = Arc::new(Mutex::new(Vec::new()));
        let topo = spec.topology(None);
        let mut sites = Vec::new();
        for s in 0..spec.sites {
            let timing = opts.traced.then(|| (clock, log.clone()));
            // Same construction as `pv_engine::Site::with_store`.
            let mut store = SiteStore::with_storage(open_storage(spec, s, dir, timing)?)
                .with_compact_threshold(topo.engine.compact_threshold)
                .with_lsm_thresholds(topo.engine.memtable_threshold, topo.engine.run_threshold);
            for (item, value) in &topo.items {
                if topo.directory.site_of(*item) == Some(s) {
                    store.seed_item(*item, value.clone());
                }
            }
            store.sync();
            store.take_stats(); // seeding is set-up, not load
            sites.push(PumpSite {
                machine: SiteMachine::new(s, topo.engine.clone(), topo.directory.clone()),
                store,
            });
        }
        log.lock().expect("storage log").clear();
        let lanes = (0..spec.writers)
            .map(|l| Lane {
                node: spec.sites + 1 + l as u32,
                site: l as u32 % spec.sites,
                stream: spec.transfers(opts.seed, l),
                next_req: 1,
                inflight: HashMap::new(),
            })
            .collect();
        Ok(Pump {
            spec,
            sites,
            lanes,
            queue: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            now_us: 0,
            clock,
            tracer: opts.traced.then(|| Tracer::new(clock)),
            root: None,
            log,
            txn_span: HashMap::new(),
            seq_of: HashMap::new(),
            next_seq: 1,
            deltas: HashMap::new(),
            last_reply_path: CriticalPath::default(),
            out: PumpResult::default(),
        })
    }

    fn span_parent(&self, seq: u64) -> Option<SpanId> {
        self.txn_span.get(&seq).copied().or(self.root)
    }

    /// `wire::frame_bytes` under an encode span.
    fn encode(&mut self, from: u32, to: u32, msg: Msg, seq: u64, path: CriticalPath) {
        let frame = Frame::Proto { from, msg };
        let t0 = self.clock.now_ns();
        let bytes = frame_bytes(&frame).expect("protocol messages fit a frame");
        let t1 = self.clock.now_ns();
        self.out.encode_ns += t1 - t0;
        self.out.frames += 1;
        self.out.frame_bytes += bytes.len() as u64;
        let parent = self.span_parent(seq);
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(trace::ENCODE, t0, t1, parent, seq);
        }
        self.queue.push_back(InFlight {
            to,
            bytes,
            seq,
            path,
        });
    }

    /// `wire::decode_frame` under a decode span.
    fn decode(&mut self, bytes: &[u8], seq: u64) -> (u32, Msg) {
        let t0 = self.clock.now_ns();
        let decoded = decode_frame(bytes);
        let t1 = self.clock.now_ns();
        self.out.decode_ns += t1 - t0;
        let parent = self.span_parent(seq);
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(trace::DECODE, t0, t1, parent, seq);
        }
        match decoded {
            Ok(Some((Frame::Proto { from, msg }, used))) if used == bytes.len() => (from, msg),
            other => panic!("the pump's own frame failed to decode: {other:?}"),
        }
    }

    /// Admits the lane's next transfer: the client side of a submit.
    fn admit(&mut self, lane: usize, transfer: Transfer) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let root = self.root;
        if let Some(tr) = self.tracer.as_mut() {
            self.txn_span.insert(seq, tr.open(trace::TXN, root, seq));
        }
        let l = &mut self.lanes[lane];
        let req_id = l.next_req;
        l.next_req += 1;
        l.inflight.insert(req_id, (transfer, seq));
        let (node, site) = (l.node, l.site);
        let msg = Msg::Submit {
            req_id,
            spec: transfer.spec(),
        };
        self.encode(node, site, msg, seq, CriticalPath { hops: 1, syncs: 0 });
    }

    /// One `SiteMachine::step` under a step span, then its outputs: self-sends
    /// loop straight back (in order, before anything else), remote sends are
    /// framed, timers are armed on the virtual clock.
    fn step(&mut self, site: u32, input: Input, seq: u64, path: CriticalPath) {
        let mut local: VecDeque<(Input, u64, CriticalPath)> = VecDeque::from([(input, seq, path)]);
        while let Some((input, seq, path)) = local.pop_front() {
            let now = SimTime(self.now_us);
            self.now_us += STEP_US;
            let mut outputs = Vec::new();
            let s = &mut self.sites[site as usize];
            let t0 = self.clock.now_ns();
            s.machine.step(now, input, &mut s.store, &mut outputs);
            let t1 = self.clock.now_ns();
            self.out.steps += 1;
            self.out.step_ns += t1 - t0;

            // A submit's outputs are the first to name its protocol txn id.
            if seq != 0 {
                for o in &outputs {
                    if let Output::Send { msg, .. } = o {
                        if let Some(txn) = txn_of(msg) {
                            self.seq_of.entry(txn).or_insert(seq);
                        }
                    }
                }
            }
            let mut syncs = 0;
            let parent = self.span_parent(seq);
            if let Some(tr) = self.tracer.as_mut() {
                let calls = std::mem::take(&mut *self.log.lock().expect("storage log"));
                let step = tr.record(trace::STEP, t0, t1, parent, seq);
                for (name, start, end) in calls {
                    syncs += u32::from(name == trace::WAL_SYNC);
                    tr.record(name, start, end, Some(step), seq);
                }
            }
            let path = CriticalPath {
                hops: path.hops,
                syncs: path.syncs + syncs,
            };
            for o in outputs {
                match o {
                    Output::Send { to, msg } => {
                        self.out.sends += 1;
                        let seq = txn_of(&msg)
                            .and_then(|t| self.seq_of.get(&t).copied())
                            .unwrap_or(seq);
                        if to.0 == site {
                            let from = NodeId(site);
                            local.push_back((Input::Msg { from, msg }, seq, path));
                        } else {
                            let hop = CriticalPath {
                                hops: path.hops + 1,
                                ..path
                            };
                            self.encode(site, to.0, msg, seq, hop);
                        }
                    }
                    Output::ArmTimer { delay, key } => {
                        self.timer_seq += 1;
                        let due = self.now_us + delay.as_micros();
                        self.timers
                            .push(Reverse((due, self.timer_seq, site, key.encode())));
                    }
                    Output::NeedCoin { .. } => {
                        unreachable!("only the relaxed protocol flips coins")
                    }
                    Output::Trace(_) | Output::Metric(_) => {}
                }
            }
        }
    }

    /// Delivers one framed message: to a site's machine, or to the client
    /// lane that owns the destination node id.
    fn deliver(&mut self, m: InFlight) {
        let (from, msg) = self.decode(&m.bytes, m.seq);
        if m.to < self.spec.sites {
            let from = NodeId(from);
            self.step(m.to, Input::Msg { from, msg }, m.seq, m.path);
            return;
        }
        let lane = self
            .lanes
            .iter()
            .position(|l| l.node == m.to)
            .expect("replies go to a lane's node");
        let Msg::Reply { req_id, result } = msg else {
            panic!("a client received {msg:?}");
        };
        let Some((transfer, seq)) = self.lanes[lane].inflight.remove(&req_id) else {
            return;
        };
        if result.fully_granted() {
            self.out.commits += 1;
            *self.deltas.entry(transfer.from).or_default() -= transfer.amount;
            *self.deltas.entry(transfer.to).or_default() += transfer.amount;
        } else {
            self.out.failed += 1;
            self.out
                .violations
                .push(format!("pump: {transfer:?} ended {result:?}"));
        }
        self.last_reply_path = m.path;
        if let (Some(tr), Some(span)) = (self.tracer.as_mut(), self.txn_span.remove(&seq)) {
            tr.close(span);
        }
    }

    fn fire_due_timers(&mut self) {
        while let Some(&Reverse((due, _, site, raw))) = self.timers.peek() {
            if due > self.now_us {
                break;
            }
            self.timers.pop();
            let key = TimerKey::decode(raw).expect("the pump encoded this key");
            let seq = timer_txn(key)
                .and_then(|t| self.seq_of.remove(&t))
                .unwrap_or(0);
            self.step(site, Input::Timer(key), seq, CriticalPath::default());
        }
    }

    /// Runs until every admitted transfer has been answered.
    fn drain(&mut self) {
        while let Some(m) = self.queue.pop_front() {
            self.deliver(m);
            self.fire_due_timers();
        }
    }

    fn in_flight(&self, lane: usize) -> usize {
        self.lanes[lane].inflight.len()
    }

    fn run(mut self, opts: &PumpOpts) -> PumpResult {
        let started = Instant::now();
        let t0 = self.clock.now_ns();
        self.root = self.tracer.as_mut().map(|tr| tr.open(trace::PUMP, None, 0));

        // The probe: one transfer alone in the system, coordinator site 0,
        // accounts homed at sites 1 and 2 (both in lane 0's share).
        let lanes = self.spec.writers as u64;
        let sites = u64::from(self.spec.sites);
        let homed =
            |site: u64| (0..self.spec.accounts).find(|a| a % lanes == 0 && a % sites == site);
        if let (Some(from), Some(to)) = (homed(1), homed(2)) {
            self.admit(
                0,
                Transfer {
                    from,
                    to,
                    amount: 1,
                },
            );
            self.drain();
            self.out.probe = self.last_reply_path;
        }

        let mut admitted = 1; // the probe
        loop {
            if started.elapsed() < opts.budget {
                for lane in 0..self.lanes.len() {
                    while admitted < opts.max_commits && self.in_flight(lane) < self.spec.window {
                        let next = self.lanes[lane].stream.next().expect("streams are endless");
                        self.admit(lane, next);
                        admitted += 1;
                    }
                }
            }
            match self.queue.pop_front() {
                Some(m) => {
                    self.deliver(m);
                    self.fire_due_timers();
                }
                None => break,
            }
        }
        if let (Some(tr), Some(root)) = (self.tracer.as_mut(), self.root) {
            tr.close(root);
        }
        self.out.wall_ns = self.clock.now_ns() - t0;
        self.finish()
    }

    /// The pump's own gate, then the counters the layers kept.
    fn finish(mut self) -> PumpResult {
        let mut total = 0i64;
        for s in &mut self.sites {
            for (item, entry) in s.store.iter_items() {
                match entry.as_simple().and_then(Value::as_int) {
                    Some(v) => {
                        total += v;
                        let want = BALANCE + self.deltas.get(&item.0).copied().unwrap_or(0);
                        if v != want && self.out.violations.len() < 5 {
                            self.out
                                .violations
                                .push(format!("pump: {item} holds {v}, acknowledged {want}"));
                        }
                    }
                    None => self
                        .out
                        .violations
                        .push(format!("pump: {item} is not settled")),
                }
            }
            if s.store.poly_count() != 0 || !s.store.pending_txns().is_empty() {
                self.out
                    .violations
                    .push(format!("pump: site {} did not drain", s.machine.id()));
            }
            let stats = s.store.take_stats();
            let sum = &mut self.out.stats;
            sum.wal_bytes += stats.wal_bytes;
            sum.wal_appends += stats.wal_appends;
            sum.wal_syncs += stats.wal_syncs;
            sum.lsm_flushes += stats.lsm_flushes;
            sum.lsm_compactions += stats.lsm_compactions;
            sum.lsm_gc_dropped += stats.lsm_gc_dropped;
            self.out.lsm_runs += s.store.lsm_runs() as u64;
            self.out.mvcc_versions += s.store.mvcc_versions() as u64;
        }
        let seeded = self.spec.accounts as i64 * BALANCE;
        if total != seeded {
            self.out
                .violations
                .push(format!("pump: total {total}, seeded {seeded}"));
        }
        let wal = self.sites[0].store.wal();
        self.out.wal_sample = wal
            .iter()
            .skip(wal.len().saturating_sub(WAL_SAMPLE))
            .cloned()
            .collect();
        self.out.tracer = self.tracer.take();
        self.out
    }
}

/// Replays the workload's stream through the pump. A disk workload keeps its
/// WAL segments under `dir`.
pub fn run(spec: &NetSpec, opts: &PumpOpts, dir: Option<&Path>) -> Result<PumpResult, String> {
    Ok(Pump::new(spec, opts, dir)?.run(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, Workload};

    fn spec(name: &str) -> NetSpec {
        match by_name(name) {
            Some(Workload::Net(mut s)) => {
                s.accounts = s.accounts.min(4096); // keep debug-build seeding quick
                s
            }
            _ => panic!("{name} is a net workload"),
        }
    }

    fn opts(traced: bool, max_commits: u64) -> PumpOpts {
        PumpOpts {
            seed: 3,
            traced,
            max_commits,
            budget: Duration::from_secs(30),
        }
    }

    #[test]
    fn pump_commits_every_transfer_and_passes_its_gate() {
        for (name, commits) in [
            ("net_closed", 200),
            ("net_pipelined", 600),
            ("snapshot_mix", 300),
        ] {
            let r = run(&spec(name), &opts(false, commits), None).unwrap();
            assert_eq!(r.violations, Vec::<String>::new(), "{name}");
            assert_eq!((r.commits, r.failed), (commits, 0), "{name}");
            assert!(r.tracer.is_none());
            assert!(r.steps > 8 * commits && r.frames > 6 * commits, "{name}");
            assert!(r.stats.wal_appends >= 4 * commits, "{name}");
        }
    }

    #[test]
    fn probe_reads_six_hops_off_a_transfer_with_two_remote_accounts() {
        let r = run(&spec("net_closed"), &opts(true, 50), None).unwrap();
        // submit, read request, read response, prepare, ready, reply.
        assert_eq!(r.probe.hops, 6);
        // In memory every append is flushed at once; a participant's staging
        // and the coordinator's decision are both on the chain.
        assert!(r.probe.syncs >= 2, "{:?}", r.probe);
    }

    #[test]
    fn traced_spans_nest_and_their_self_times_sum_to_the_wall_time() {
        let r = run(&spec("net_pipelined"), &opts(true, 400), None).unwrap();
        assert_eq!(r.violations, Vec::<String>::new());
        let tracer = r.tracer.expect("traced");
        let spans = &tracer.spans;
        assert_eq!(spans[0].name, trace::PUMP);
        assert_eq!(spans.iter().filter(|s| s.name == trace::TXN).count(), 400);
        // Hierarchy: txn → step → wal.*, txn → wire.*; every txn closed.
        for s in spans.iter().skip(1) {
            let parent = &spans[s.parent.expect("only the root has no parent") as usize];
            match s.name {
                trace::TXN => assert_eq!(parent.name, trace::PUMP),
                trace::WAL_APPEND | trace::WAL_SYNC => assert_eq!(parent.name, trace::STEP),
                trace::STEP | trace::ENCODE | trace::DECODE => {
                    assert!(parent.name == trace::TXN || parent.name == trace::PUMP)
                }
                other => panic!("unexpected span {other}"),
            }
            assert!(s.end_ns >= s.start_ns && s.end_ns <= spans[0].end_ns);
            if s.name == trace::TXN {
                assert!(s.end_ns > s.start_ns, "txn {} never closed", s.txn);
            }
        }
        let budget = trace::self_times(spans, &[trace::TXN]);
        let sum: u64 = budget.values().sum();
        let wall = spans[0].duration_ns();
        assert!(
            sum.abs_diff(wall) * 20 <= wall,
            "self times {sum} vs wall {wall}"
        );
        assert!(budget[trace::STEP] > 0 && budget[trace::ENCODE] > 0 && budget[trace::DECODE] > 0);
    }

    #[test]
    fn disk_pump_flushes_at_least_once_per_commit() {
        let dir = crate::scratch::TempDir::new("pump-unit").unwrap();
        let mut s = spec("disk_pipelined");
        s.accounts = 512;
        let r = run(&s, &opts(true, 40), Some(dir.path())).unwrap();
        assert_eq!(r.violations, Vec::<String>::new());
        assert_eq!(r.commits, 40);
        assert!(r.stats.wal_syncs >= 40, "{} syncs", r.stats.wal_syncs);
        assert!(r.probe.syncs >= 2);
        assert!(dir.path().join("site-0").is_dir());
    }
}
