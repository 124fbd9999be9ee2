//! The per-site storage engine.
//!
//! A [`SiteStore`] owns one site's durable state: the item table, staged
//! wait-phase transactions, the §3.3 outcome-dependency table, and (when the
//! site acts as coordinator) decided outcomes. Every mutation is logged to
//! stable storage (a pluggable [`Storage`] backend) first;
//! [`SiteStore::crash_and_recover`] discards the materialised state and
//! rebuilds it by replaying whatever image survived the crash, which is
//! exactly what the engine's sites do when the failure injector crashes them.

use crate::lsm::{Keyspace, KeyspaceStats, SeqNo};
use crate::outcomes::{DepEntry, OutcomeTable};
use crate::storage::{MemStorage, Storage, StorageStats};
use crate::wal::{Record, SiteId, Wal};
use pv_core::expr::ReadSource;
use pv_core::{Entry, ItemId, TxnId, Value};
use std::collections::BTreeMap;

/// What a snapshot read returns: the pinned sequence number and the
/// `(item, entry)` pairs observed at exactly that point in time.
pub type SnapshotView = (SeqNo, Vec<(ItemId, Entry<Value>)>);

/// A transaction staged in the wait phase: values computed, outcome unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTxn {
    /// The coordinator to ask about the outcome.
    pub coordinator: SiteId,
    /// The writes this site will install if the transaction completes.
    pub writes: Vec<(ItemId, Entry<Value>)>,
}

/// Durable Paxos Commit acceptor state for one transaction: the ballot-0
/// votes this acceptor has accepted, its phase-1 promise, and the
/// highest-ballot phase-2 verdict it has accepted. Rebuilt from
/// `PaxosVote`/`PaxosPromise`/`PaxosAccept` records on recovery; discarded by
/// `PaxosForgotten` once the decision is durable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PaxosState {
    /// Highest ballot promised in phase 1 (0 = none; ballot 0 needs no
    /// promise — it belongs to the participants themselves).
    pub promised: u64,
    /// Accepted ballot-0 votes, per participant.
    pub votes: BTreeMap<SiteId, bool>,
    /// The registered participant set (carried by every vote).
    pub parts: Vec<SiteId>,
    /// The highest-ballot verdict accepted in phase 2, as
    /// `(ballot, completed)`.
    pub accepted: Option<(u64, bool)>,
}

/// Storage and recovery activity since the last [`SiteStore::take_stats`]
/// call — the bridge from the storage layer to the metrics registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStats {
    /// Framed bytes appended to the log.
    pub wal_bytes: u64,
    /// Records appended to the log.
    pub wal_appends: u64,
    /// Effective storage syncs.
    pub wal_syncs: u64,
    /// Segments created (rotations and compaction targets).
    pub wal_segments: u64,
    /// Compactions performed.
    pub wal_compactions: u64,
    /// Records written by those compactions: over `wal_appends` it is the
    /// log's write amplification.
    pub wal_checkpoint_records: u64,
    /// Records replayed by recoveries.
    pub recovery_replay_records: u64,
    /// Recoveries that had to truncate a torn or corrupt tail.
    pub recovery_truncations: u64,
    /// Wall-clock duration of each recovery, in seconds.
    pub recovery_durations: Vec<f64>,
    /// Keyspace memtable flushes (each produced a sorted run).
    pub lsm_flushes: u64,
    /// Keyspace size-tiered compactions.
    pub lsm_compactions: u64,
    /// Versions garbage-collected by keyspace compactions.
    pub lsm_gc_dropped: u64,
    /// Snapshot read transactions served.
    pub snapshot_reads: u64,
}

impl StoreStats {
    /// Whether anything happened since the last drain.
    pub fn is_empty(&self) -> bool {
        *self == StoreStats::default()
    }
}

/// Durable per-site storage with WAL-based crash recovery.
///
/// # Examples
///
/// ```
/// use pv_store::SiteStore;
/// use pv_core::{Entry, ItemId, TxnId, Value};
///
/// let mut store = SiteStore::new();
/// store.seed_item(ItemId(1), Value::Int(100));
/// // Stage a wait-phase transaction, then time out into a polyvalue:
/// store.stage(TxnId(7), 0, vec![(ItemId(1), Entry::Simple(Value::Int(90)))]);
/// store.install_in_doubt(TxnId(7));
/// assert_eq!(store.poly_count(), 1);
/// // A crash loses nothing: state is rebuilt from the WAL.
/// store.crash_and_recover();
/// assert_eq!(store.poly_count(), 1);
/// // Learning the outcome collapses the polyvalue.
/// store.apply_decision(TxnId(7), true);
/// assert_eq!(store.get(ItemId(1)), Some(Entry::Simple(Value::Int(90))));
/// assert_eq!(store.poly_count(), 0);
/// ```
#[derive(Debug)]
pub struct SiteStore {
    storage: Box<dyn Storage>,
    /// In-memory mirror of the appended records (may run ahead of what the
    /// backend has made durable; recovery re-reads the backend).
    wal: Wal,
    /// The materialised table: a partitioned LSM keyspace of MVCC version
    /// chains, derived state rebuilt from the WAL on every recovery.
    keyspace: Keyspace,
    pending: BTreeMap<TxnId, PendingTxn>,
    outcomes: OutcomeTable,
    decisions: BTreeMap<TxnId, bool>,
    paxos: BTreeMap<TxnId, PaxosState>,
    epoch: u32,
    /// Floor of the checkpoint rule, see [`SiteStore::maybe_compact`].
    compact_threshold: usize,
    /// Records in the image the log was last rebuilt from: what the last
    /// [`SiteStore::compact`] wrote, or what the last recovery replayed.
    last_checkpoint: usize,
    /// Monotonic count of records ever appended; unlike the WAL length it is
    /// never reset by compaction, so it names crash points stably.
    append_seq: u64,
    /// Storage counters at the last [`SiteStore::take_stats`] drain.
    drained: StorageStats,
    /// Keyspace counters at the last [`SiteStore::take_stats`] drain.
    drained_lsm: KeyspaceStats,
    /// Snapshot reads served since the last drain.
    snapshot_reads: u64,
    /// Recovery activity since the last drain.
    recovery: StoreStats,
}

impl Default for SiteStore {
    fn default() -> Self {
        SiteStore::new()
    }
}

impl Clone for SiteStore {
    /// Clones snapshot into a fresh, fully-synced in-memory backend: clones
    /// serve inspection and tests, never share a disk, and carry no pending
    /// fault state.
    fn clone(&self) -> Self {
        let image = crate::codec::encode_wal(&self.wal);
        SiteStore {
            storage: Box::new(MemStorage::from_image(image.to_vec())),
            wal: self.wal.clone(),
            keyspace: self.keyspace.clone(),
            pending: self.pending.clone(),
            outcomes: self.outcomes.clone(),
            decisions: self.decisions.clone(),
            paxos: self.paxos.clone(),
            epoch: self.epoch,
            compact_threshold: self.compact_threshold,
            last_checkpoint: self.last_checkpoint,
            append_seq: self.append_seq,
            drained: StorageStats::default(),
            drained_lsm: KeyspaceStats::default(),
            snapshot_reads: 0,
            recovery: StoreStats::default(),
        }
    }
}

impl SiteStore {
    /// An empty store over an always-durable in-memory backend.
    pub fn new() -> Self {
        SiteStore::with_storage(Box::new(MemStorage::new()))
    }

    /// An empty store over an arbitrary storage backend.
    pub fn with_storage(storage: Box<dyn Storage>) -> Self {
        SiteStore {
            storage,
            wal: Wal::new(),
            keyspace: Keyspace::default(),
            pending: BTreeMap::new(),
            outcomes: OutcomeTable::new(),
            decisions: BTreeMap::new(),
            paxos: BTreeMap::new(),
            epoch: 0,
            compact_threshold: 4096,
            last_checkpoint: 0,
            append_seq: 0,
            drained: StorageStats::default(),
            drained_lsm: KeyspaceStats::default(),
            snapshot_reads: 0,
            recovery: StoreStats::default(),
        }
    }

    /// Opens a store over a backend that may already hold a log image (a
    /// site restarting from its data directory): the image is replayed —
    /// dropping any torn tail — and the materialised state rebuilt.
    pub fn open(storage: Box<dyn Storage>) -> Self {
        let mut store = SiteStore::with_storage(storage);
        store.recover_from_storage();
        store
    }

    /// Sets the floor of the checkpoint rule: the fewest records appended
    /// since the last checkpoint at which [`SiteStore::maybe_compact`] runs
    /// one (default 4,096).
    pub fn with_compact_threshold(mut self, threshold: usize) -> Self {
        self.compact_threshold = threshold;
        self
    }

    /// Sets the keyspace's memtable flush threshold (entries per partition
    /// memtable) and run-compaction threshold (runs per partition).
    pub fn with_lsm_thresholds(mut self, memtable_max_entries: usize, run_threshold: usize) -> Self {
        self.keyspace.set_thresholds(memtable_max_entries, run_threshold);
        self
    }

    /// Appends a record to stable storage and mirrors it in memory.
    ///
    /// # Panics
    /// On a real I/O failure of the backend: the protocol has no story for a
    /// site whose stable storage is broken (the paper assumes it reliable).
    fn log(&mut self, record: Record) {
        self.storage
            .append(&record)
            .expect("stable storage append failed");
        self.wal.append(record);
        self.append_seq += 1;
    }

    /// Forces everything appended so far to stable storage. Called
    /// internally at protocol-critical points; public so owners can sync on
    /// clean shutdown.
    pub fn sync(&mut self) {
        self.storage.sync().expect("stable storage sync failed");
    }

    /// Monotonic count of records ever appended (never reset by
    /// compaction) — the crash-point coordinate system.
    pub fn append_seq(&self) -> u64 {
        self.append_seq
    }

    /// Drains storage and recovery activity since the last call.
    pub fn take_stats(&mut self) -> StoreStats {
        let now = self.storage.stats();
        let lsm = self.keyspace.stats();
        let mut out = std::mem::take(&mut self.recovery);
        out.wal_bytes = now.bytes_appended - self.drained.bytes_appended;
        out.wal_appends = now.appends - self.drained.appends;
        out.wal_syncs = now.syncs - self.drained.syncs;
        out.wal_segments = now.segments_created - self.drained.segments_created;
        out.wal_compactions = now.compactions - self.drained.compactions;
        out.wal_checkpoint_records = now.checkpoint_records - self.drained.checkpoint_records;
        out.lsm_flushes = lsm.flushes - self.drained_lsm.flushes;
        out.lsm_compactions = lsm.compactions - self.drained_lsm.compactions;
        out.lsm_gc_dropped = lsm.gc_dropped - self.drained_lsm.gc_dropped;
        out.snapshot_reads = std::mem::take(&mut self.snapshot_reads);
        self.drained = now;
        self.drained_lsm = lsm;
        out
    }

    // ---- items -----------------------------------------------------------

    /// Creates an item with an initial simple value (bypasses no protocol:
    /// used to load the database before a run).
    pub fn seed_item(&mut self, item: ItemId, value: Value) {
        self.set_entry(item, Entry::Simple(value));
    }

    /// Durably installs `entry` as the current value of `item`, maintaining
    /// the outcome-dependency table.
    pub fn set_entry(&mut self, item: ItemId, entry: Entry<Value>) {
        self.log(Record::SetItem {
            item,
            entry: entry.clone(),
        });
        self.materialise_set(item, entry);
    }

    /// The current (newest-version) entry of `item`.
    pub fn get(&self, item: ItemId) -> Option<Entry<Value>> {
        self.keyspace.latest(item).cloned()
    }

    /// Makes room for at least `additional` more items, so seeding a known
    /// population sizes the keyspace's index once.
    pub fn reserve_items(&mut self, additional: usize) {
        self.keyspace.reserve(additional);
    }

    /// Whether this site holds `item`.
    pub fn contains(&self, item: ItemId) -> bool {
        self.keyspace.contains(item)
    }

    /// Number of items held.
    pub fn item_count(&self) -> usize {
        self.keyspace.len()
    }

    /// Number of items currently holding polyvalues (the paper's `P(t)`
    /// restricted to this site).
    pub fn poly_count(&self) -> usize {
        self.keyspace.poly_count()
    }

    /// Iterates over `(item, entry)` pairs in item order, yielding the
    /// newest version of each item.
    pub fn iter_items(&self) -> impl Iterator<Item = (ItemId, Entry<Value>)> + '_ {
        self.keyspace.iter_latest().map(|(i, e)| (i, e.clone()))
    }

    // ---- MVCC snapshots ----------------------------------------------------

    /// The entry of `item` visible at snapshot `snap` (the newest version
    /// with sequence number at or below it).
    pub fn get_at(&self, item: ItemId, snap: SeqNo) -> Option<Entry<Value>> {
        self.keyspace.get_at(item, snap).cloned()
    }

    /// The sequence number of the most recent versioned write.
    pub fn current_seq(&self) -> SeqNo {
        self.keyspace.current_seq()
    }

    /// Pins the current sequence number for a read-only transaction;
    /// compaction will not GC any version the pin can see. Pair with
    /// [`SiteStore::snapshot_release`].
    pub fn snapshot_acquire(&mut self) -> SeqNo {
        self.keyspace.snapshot_acquire()
    }

    /// Releases one pin on `snap`.
    pub fn snapshot_release(&mut self, snap: SeqNo) {
        self.keyspace.snapshot_release(snap);
    }

    /// Serves a coordination-free read-only transaction: acquires a
    /// snapshot, reads every requested item (all of them if `items` is
    /// empty) at that single point in time, releases the pin, and returns
    /// `(snapshot, entries)`. Touches no lock table, stages nothing, and
    /// appends nothing to the WAL.
    pub fn snapshot_read(&mut self, items: &[ItemId]) -> SnapshotView {
        let snap = self.keyspace.snapshot_acquire();
        let entries = if items.is_empty() {
            self.keyspace
                .iter_latest()
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
                .into_iter()
                .filter_map(|i| self.keyspace.get_at(i, snap).cloned().map(|e| (i, e)))
                .collect()
        } else {
            items
                .iter()
                .filter_map(|&i| self.keyspace.get_at(i, snap).cloned().map(|e| (i, e)))
                .collect()
        };
        self.keyspace.snapshot_release(snap);
        self.snapshot_reads += 1;
        (snap, entries)
    }

    /// Total MVCC versions held across memtables and runs.
    pub fn mvcc_versions(&self) -> usize {
        self.keyspace.version_count()
    }

    /// Sorted runs currently held across all keyspace partitions.
    pub fn lsm_runs(&self) -> usize {
        self.keyspace.run_count()
    }

    /// How many writes the oldest live snapshot lags the present by.
    pub fn snapshot_age(&self) -> u64 {
        self.keyspace.snapshot_age()
    }

    /// The keyspace's flush/compaction operation counter — the LSM
    /// crash-point coordinate, analogous to [`SiteStore::append_seq`].
    pub fn lsm_op_seq(&self) -> u64 {
        self.keyspace.op_seq()
    }

    /// The keyspace's activity counters (lifetime totals, not deltas).
    pub fn keyspace_stats(&self) -> KeyspaceStats {
        self.keyspace.stats()
    }

    // ---- wait-phase staging (§3.1) ----------------------------------------

    /// Stages the writes of a transaction entering the wait phase.
    ///
    /// Synced before returning under every fsync policy: the site is about
    /// to send `Ready`, and a coordinator may commit on the strength of it —
    /// the staged writes must not be lost to a crash after that.
    pub fn stage(&mut self, txn: TxnId, coordinator: SiteId, writes: Vec<(ItemId, Entry<Value>)>) {
        self.log(Record::PendingPrepare {
            txn,
            coordinator,
            writes: writes.clone(),
        });
        self.sync();
        self.pending.insert(
            txn,
            PendingTxn {
                coordinator,
                writes,
            },
        );
    }

    /// The staged transaction, if any.
    pub fn pending(&self, txn: TxnId) -> Option<&PendingTxn> {
        self.pending.get(&txn)
    }

    /// All staged transactions, in id order.
    pub fn pending_txns(&self) -> Vec<TxnId> {
        self.pending.keys().copied().collect()
    }

    /// §3.1 timeout path: converts a staged transaction into in-doubt
    /// polyvalues `{⟨new, T⟩, ⟨old, ¬T⟩}` for each staged write and releases
    /// the staging. Returns the items updated.
    pub fn install_in_doubt(&mut self, txn: TxnId) -> Vec<ItemId> {
        let Some(p) = self.pending.remove(&txn) else {
            return Vec::new();
        };
        self.log(Record::PendingResolved { txn });
        let mut installed = Vec::with_capacity(p.writes.len());
        for (item, new) in p.writes {
            let old = self
                .keyspace
                .latest(item)
                .expect("staged writes target existing items")
                .clone();
            let entry = Entry::in_doubt(new, old, txn);
            self.set_entry(item, entry);
            installed.push(item);
        }
        installed
    }

    // ---- outcomes (§3.3) ---------------------------------------------------

    /// This site learns the outcome of `txn`: installs or discards any staged
    /// writes, reduces every dependent polyvalue, and forgets the §3.3 table
    /// entry. Returns the entry's `sent_to` set so the caller can forward the
    /// outcome.
    pub fn apply_decision(&mut self, txn: TxnId, completed: bool) -> DepEntry {
        // Resolve staging first: a late Decision may arrive before (or
        // instead of) the in-doubt timeout.
        if let Some(p) = self.pending.remove(&txn) {
            self.log(Record::PendingResolved { txn });
            if completed {
                for (item, entry) in p.writes {
                    self.set_entry(item, entry);
                }
            }
        }
        // Reduce dependent polyvalues and forget the table entry.
        let Some(dep) = self.outcomes.take(txn) else {
            return DepEntry::default();
        };
        self.log(Record::DepForgotten { txn });
        for &item in &dep.items {
            let Some(entry) = self.keyspace.latest(item) else {
                continue;
            };
            if entry.deps().contains(&txn) {
                let reduced = entry.assign_outcome(txn, completed);
                self.set_entry(item, reduced);
            }
        }
        dep
    }

    /// Records that a polyvalue dependent on `txn` was sent to `site`, so the
    /// outcome can be forwarded there later (§3.3).
    pub fn note_sent(&mut self, txn: TxnId, site: SiteId) {
        self.log(Record::DepSent { txn, site });
        self.outcomes.note_sent(txn, site);
    }

    /// The transactions whose outcomes this site is waiting to learn.
    pub fn tracked_txns(&self) -> Vec<TxnId> {
        self.outcomes.pending().collect()
    }

    /// The §3.3 entry for `txn`, if tracked.
    pub fn dep_entry(&self, txn: TxnId) -> Option<&DepEntry> {
        self.outcomes.get(txn)
    }

    /// Whether the site still tracks any in-doubt transaction (bounded-state
    /// check: after full recovery this must be false).
    pub fn has_tracked_txns(&self) -> bool {
        !self.outcomes.is_empty()
    }

    // ---- epochs --------------------------------------------------------------

    /// The current epoch (0 until the first [`SiteStore::bump_epoch`]).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Durably starts a new epoch and returns it. Called by the site on
    /// every recovery so freshly minted transaction ids cannot collide with
    /// pre-crash ones. Synced under every fsync policy — losing an epoch
    /// bump could reissue a transaction id.
    pub fn bump_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.log(Record::Epoch { epoch: self.epoch });
        self.sync();
        self.epoch
    }

    // ---- coordinator decisions ---------------------------------------------

    /// Durably records this site's decision as coordinator of `txn`.
    ///
    /// Synced before returning under every fsync policy: participants act
    /// irreversibly on `Decision` messages, and a recovered coordinator
    /// answers inquiries by presumed abort — so a completion it once
    /// announced must never be lost.
    pub fn record_decision(&mut self, txn: TxnId, completed: bool) {
        self.log(Record::Decision { txn, completed });
        self.sync();
        self.decisions.insert(txn, completed);
    }

    /// The recorded decision for `txn`, if this site coordinated it.
    pub fn decision_of(&self, txn: TxnId) -> Option<bool> {
        self.decisions.get(&txn).copied()
    }

    // ---- Paxos Commit acceptor state ---------------------------------------
    //
    // Every mutation here is synced before returning: the protocol's safety
    // rests on acknowledged acceptor state surviving crashes. An acceptor
    // that replied, crashed, and forgot would let a ballot-0 vote and a
    // higher-ballot takeover both "win" with disjoint-looking quorums.

    /// Durably accepts `part`'s ballot-0 vote for `txn` (phase 2 of that
    /// participant's own Paxos instance). Synced before returning; the
    /// caller replies `PcVoteAck` only afterwards.
    pub fn pc_record_vote(&mut self, txn: TxnId, part: SiteId, parts: Vec<SiteId>, prepared: bool) {
        self.log(Record::PaxosVote {
            txn,
            part,
            parts: parts.clone(),
            prepared,
        });
        self.sync();
        self.materialise_paxos_vote(txn, part, parts, prepared);
    }

    /// Durably promises ballot `ballot` for `txn`'s verdict instance. Synced
    /// before returning; the caller replies `PcPhase1b` only afterwards.
    pub fn pc_promise(&mut self, txn: TxnId, ballot: u64) {
        self.log(Record::PaxosPromise { txn, ballot });
        self.sync();
        let st = self.paxos.entry(txn).or_default();
        st.promised = st.promised.max(ballot);
    }

    /// Durably accepts the verdict `completed` at `ballot` for `txn` (which
    /// implies the promise). Synced before returning; the caller replies
    /// `PcPhase2b` only afterwards.
    pub fn pc_accept(&mut self, txn: TxnId, ballot: u64, completed: bool) {
        self.log(Record::PaxosAccept {
            txn,
            ballot,
            completed,
        });
        self.sync();
        let st = self.paxos.entry(txn).or_default();
        st.promised = st.promised.max(ballot);
        if st.accepted.is_none_or(|(b, _)| b <= ballot) {
            st.accepted = Some((ballot, completed));
        }
    }

    /// Drops the acceptor state for a decided transaction. Not synced — the
    /// decision record preceding it is, and replaying a lost `PaxosForgotten`
    /// merely re-creates prunable state.
    pub fn pc_forget(&mut self, txn: TxnId) {
        if self.paxos.remove(&txn).is_some() {
            self.log(Record::PaxosForgotten { txn });
        }
    }

    /// The acceptor state for `txn`, if any survives.
    pub fn pc_state(&self, txn: TxnId) -> Option<&PaxosState> {
        self.paxos.get(&txn)
    }

    /// Transactions with live acceptor state, in id order (bounded-state
    /// check: quiescent clusters must have pruned them all).
    pub fn pc_txns(&self) -> Vec<TxnId> {
        self.paxos.keys().copied().collect()
    }

    fn materialise_paxos_vote(&mut self, txn: TxnId, part: SiteId, parts: Vec<SiteId>, prepared: bool) {
        let st = self.paxos.entry(txn).or_default();
        st.votes.insert(part, prepared);
        for p in parts {
            if !st.parts.contains(&p) {
                st.parts.push(p);
            }
        }
        st.parts.sort_unstable();
    }

    // ---- crash recovery & compaction ---------------------------------------

    /// Simulates a crash: the storage backend applies its crash semantics
    /// (losing un-synced appends, possibly injecting faults), then all
    /// materialised state is discarded and rebuilt from the surviving image.
    pub fn crash_and_recover(&mut self) {
        self.storage.crash();
        self.recover_from_storage();
    }

    /// Rebuilds every table from the backend's current image, truncating
    /// storage at the first torn or corrupt frame.
    fn recover_from_storage(&mut self) {
        let started = std::time::Instant::now();
        let image = self
            .storage
            .read_image()
            .expect("stable storage read failed");
        let (wal, consumed, error) = crate::codec::decode_wal_prefix(&image);
        if consumed < image.len() {
            self.storage
                .truncate(consumed as u64)
                .expect("stable storage truncate failed");
        }
        self.keyspace.clear();
        self.pending.clear();
        self.outcomes = OutcomeTable::new();
        self.decisions.clear();
        self.paxos.clear();
        self.epoch = 0;
        for record in wal.iter() {
            self.replay(record.clone());
        }
        // A durable decision makes the acceptor state for that transaction
        // dead weight: `pc_forget` is logged un-synced (see its doc), so a
        // crash can keep the synced decision yet lose the forget. Re-prune
        // here — otherwise the leftover entry keeps the recovered site
        // arming inquiry ticks for a transaction that is already settled.
        let decisions = &self.decisions;
        self.paxos.retain(|txn, _| !decisions.contains_key(txn));
        self.recovery.recovery_replay_records += wal.len() as u64;
        if error.is_some() {
            self.recovery.recovery_truncations += 1;
        }
        self.recovery
            .recovery_durations
            .push(started.elapsed().as_secs_f64());
        self.last_checkpoint = wal.len();
        self.wal = wal;
    }

    fn replay(&mut self, record: Record) {
        match record {
            Record::SetItem { item, entry } => self.materialise_set(item, entry),
            Record::PendingPrepare {
                txn,
                coordinator,
                writes,
            } => {
                self.pending.insert(
                    txn,
                    PendingTxn {
                        coordinator,
                        writes,
                    },
                );
            }
            Record::PendingResolved { txn } => {
                self.pending.remove(&txn);
            }
            Record::DepNoted { txn, item } => self.outcomes.note_item(txn, item),
            Record::DepSent { txn, site } => self.outcomes.note_sent(txn, site),
            Record::DepForgotten { txn } => {
                self.outcomes.take(txn);
            }
            Record::Decision { txn, completed } => {
                self.decisions.insert(txn, completed);
            }
            Record::Epoch { epoch } => self.epoch = self.epoch.max(epoch),
            Record::PaxosVote {
                txn,
                part,
                parts,
                prepared,
            } => self.materialise_paxos_vote(txn, part, parts, prepared),
            Record::PaxosPromise { txn, ballot } => {
                let st = self.paxos.entry(txn).or_default();
                st.promised = st.promised.max(ballot);
            }
            Record::PaxosAccept {
                txn,
                ballot,
                completed,
            } => {
                let st = self.paxos.entry(txn).or_default();
                st.promised = st.promised.max(ballot);
                if st.accepted.is_none_or(|(b, _)| b <= ballot) {
                    st.accepted = Some((ballot, completed));
                }
            }
            Record::PaxosForgotten { txn } => {
                self.paxos.remove(&txn);
            }
        }
    }

    /// Checkpoints the WAL ([`SiteStore::compact`]) once the log has doubled:
    /// when the records appended since the last checkpoint reach the number
    /// that checkpoint wrote, and at least the `compact_threshold` floor.
    /// Returns whether a checkpoint ran.
    ///
    /// A checkpoint rewrites the whole live state, so a fixed period would
    /// cost O(state) every `compact_threshold` appends; waiting for the log
    /// to double makes it amortised O(1) per append (a checkpoint holds at
    /// most the previous one plus what was appended since, so checkpoints
    /// write no more than two records per record appended) and keeps the
    /// log — what a recovery replays — within twice the last checkpoint plus
    /// the floor.
    pub fn maybe_compact(&mut self) -> bool {
        let due = self.compact_threshold.max(self.last_checkpoint);
        if self.wal.appended_since_compaction() < due {
            return false;
        }
        self.compact();
        true
    }

    /// Unconditionally rewrites the WAL as a snapshot of the current state.
    pub fn compact(&mut self) {
        let mut records = Vec::new();
        for (item, entry) in self.keyspace.iter_latest() {
            records.push(Record::SetItem {
                item,
                entry: entry.clone(),
            });
        }
        for txn in self.outcomes.pending() {
            let entry = self.outcomes.get(txn).expect("pending txn has entry");
            // Items are re-derived from SetItem replay; only sent_to needs
            // explicit records.
            for &site in &entry.sent_to {
                records.push(Record::DepSent { txn, site });
            }
        }
        for (txn, p) in &self.pending {
            records.push(Record::PendingPrepare {
                txn: *txn,
                coordinator: p.coordinator,
                writes: p.writes.clone(),
            });
        }
        for (&txn, &completed) in &self.decisions {
            records.push(Record::Decision { txn, completed });
        }
        for (&txn, st) in &self.paxos {
            for (&part, &prepared) in &st.votes {
                records.push(Record::PaxosVote {
                    txn,
                    part,
                    parts: st.parts.clone(),
                    prepared,
                });
            }
            if st.promised > 0 {
                records.push(Record::PaxosPromise {
                    txn,
                    ballot: st.promised,
                });
            }
            if let Some((ballot, completed)) = st.accepted {
                records.push(Record::PaxosAccept {
                    txn,
                    ballot,
                    completed,
                });
            }
        }
        if self.epoch > 0 {
            records.push(Record::Epoch { epoch: self.epoch });
        }
        self.storage
            .reset(&records)
            .expect("stable storage compaction failed");
        self.last_checkpoint = records.len();
        self.wal.replace_with(records);
    }

    /// Read access to the WAL mirror (tests and diagnostics).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Deterministic view of the materialised (replayed) state, for model
    /// checkers that deduplicate states. Two stores whose logs differ only
    /// in the order of independent records replay to the same tables and so
    /// render identically here, while the raw log bytes would not. Excludes
    /// the log itself, compaction bookkeeping, and stats counters — none of
    /// which affect future protocol-visible behaviour.
    pub fn logical_view(&self) -> impl std::fmt::Debug + '_ {
        // Render only the *latest* visible entry per item, never sequence
        // numbers or the physical memtable/run layout: different record
        // interleavings assign different SeqNos yet materialise identical
        // latest-entry maps, and deduplication must treat them as equal.
        let items: BTreeMap<ItemId, Entry<Value>> = self
            .keyspace
            .iter_latest()
            .map(|(i, e)| (i, e.clone()))
            .collect();
        (
            items,
            &self.pending,
            &self.outcomes,
            &self.decisions,
            &self.paxos,
            self.epoch,
        )
    }

    /// Serialises the WAL to its binary on-disk form.
    pub fn export_wal(&self) -> Vec<u8> {
        crate::codec::encode_wal(&self.wal)
    }

    /// Rebuilds a store from a binary WAL image (strict: the image must
    /// parse completely). Use [`SiteStore::import_wal_lossy`] for a
    /// possibly-torn image from a crashed disk.
    pub fn import_wal(data: &[u8]) -> Result<SiteStore, crate::codec::CodecError> {
        crate::codec::decode_wal(data)?;
        Ok(SiteStore::open(Box::new(MemStorage::from_image(
            data.to_vec(),
        ))))
    }

    /// Rebuilds a store from a possibly-torn WAL image, dropping the torn
    /// tail (the crash-recovery contract of a real log).
    pub fn import_wal_lossy(data: &[u8]) -> (SiteStore, Option<crate::codec::CodecError>) {
        let (_, _, err) = crate::codec::decode_wal_prefix(data);
        let store = SiteStore::open(Box::new(MemStorage::from_image(data.to_vec())));
        (store, err)
    }

    /// Applies a `SetItem` to the materialised state, keeping the outcome
    /// table consistent: the item's dependencies are recomputed from the new
    /// entry.
    fn materialise_set(&mut self, item: ItemId, entry: Entry<Value>) {
        self.outcomes.clear_item(item);
        for txn in entry.deps() {
            self.outcomes.note_item(txn, item);
        }
        self.keyspace.put(item, entry);
    }
}

impl ReadSource for SiteStore {
    fn read_entry(&self, item: ItemId) -> Option<Entry<Value>> {
        self.keyspace.latest(item).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{DiskWal, FaultConfig, FaultyStorage, FsyncPolicy};

    fn simple(v: i64) -> Entry<Value> {
        Entry::Simple(Value::Int(v))
    }

    fn store_with_item(item: u64, v: i64) -> SiteStore {
        let mut s = SiteStore::new();
        s.seed_item(ItemId(item), Value::Int(v));
        s
    }

    #[test]
    fn seed_and_get() {
        let s = store_with_item(1, 100);
        assert_eq!(s.get(ItemId(1)), Some(simple(100)));
        assert!(s.contains(ItemId(1)));
        assert_eq!(s.item_count(), 1);
        assert_eq!(s.poly_count(), 0);
        assert_eq!(s.read_entry(ItemId(1)), Some(simple(100)));
        assert_eq!(s.read_entry(ItemId(9)), None);
    }

    #[test]
    fn stage_complete_installs_writes() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        assert!(s.pending(TxnId(5)).is_some());
        assert_eq!(s.pending_txns(), vec![TxnId(5)]);
        s.apply_decision(TxnId(5), true);
        assert_eq!(s.get(ItemId(1)), Some(simple(90)));
        assert!(s.pending(TxnId(5)).is_none());
    }

    #[test]
    fn stage_abort_discards_writes() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.apply_decision(TxnId(5), false);
        assert_eq!(s.get(ItemId(1)), Some(simple(100)));
        assert!(s.pending(TxnId(5)).is_none());
    }

    #[test]
    fn in_doubt_then_complete() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        let installed = s.install_in_doubt(TxnId(5));
        assert_eq!(installed, vec![ItemId(1)]);
        assert_eq!(s.poly_count(), 1);
        assert!(s.pending(TxnId(5)).is_none());
        assert_eq!(s.tracked_txns(), vec![TxnId(5)]);
        // Late decision reduces the polyvalue through the same path.
        s.apply_decision(TxnId(5), true);
        assert_eq!(s.get(ItemId(1)), Some(simple(90)));
        assert_eq!(s.poly_count(), 0);
        assert!(!s.has_tracked_txns());
    }

    #[test]
    fn in_doubt_then_abort() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.install_in_doubt(TxnId(5));
        s.apply_decision(TxnId(5), false);
        assert_eq!(s.get(ItemId(1)), Some(simple(100)));
        assert_eq!(s.poly_count(), 0);
    }

    #[test]
    fn install_in_doubt_without_staging_is_noop() {
        let mut s = store_with_item(1, 100);
        assert!(s.install_in_doubt(TxnId(9)).is_empty());
        assert_eq!(s.poly_count(), 0);
    }

    #[test]
    fn apply_decision_returns_sent_to() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.install_in_doubt(TxnId(5));
        s.note_sent(TxnId(5), 7);
        s.note_sent(TxnId(5), 8);
        let dep = s.apply_decision(TxnId(5), true);
        assert_eq!(dep.sent_to.into_iter().collect::<Vec<_>>(), vec![7, 8]);
        // Applying again yields nothing (entry forgotten, §3.3).
        let dep2 = s.apply_decision(TxnId(5), true);
        assert!(dep2.is_empty());
    }

    #[test]
    fn overwriting_poly_with_simple_clears_dependency() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.install_in_doubt(TxnId(5));
        assert_eq!(s.dep_entry(TxnId(5)).unwrap().items.len(), 1);
        // A later transaction writes a simple value (Y in the paper's model):
        // the dependency entry empties out and is pruned (§3.3 cleanup).
        s.set_entry(ItemId(1), simple(55));
        assert_eq!(s.poly_count(), 0);
        assert!(s.dep_entry(TxnId(5)).is_none());
        // Learning the outcome now changes nothing.
        s.apply_decision(TxnId(5), true);
        assert_eq!(s.get(ItemId(1)), Some(simple(55)));
    }

    #[test]
    fn crash_recovery_rebuilds_everything() {
        let mut s = store_with_item(1, 100);
        s.seed_item(ItemId(2), Value::Int(200));
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.install_in_doubt(TxnId(5));
        s.note_sent(TxnId(5), 7);
        s.stage(TxnId(6), 3, vec![(ItemId(2), simple(42))]);
        s.record_decision(TxnId(9), true);

        let before_items: Vec<_> = s.iter_items().map(|(i, e)| (i, e.clone())).collect();
        let before_pending = s.pending_txns();
        let before_tracked = s.tracked_txns();

        s.crash_and_recover();

        let after_items: Vec<_> = s.iter_items().map(|(i, e)| (i, e.clone())).collect();
        assert_eq!(before_items, after_items);
        assert_eq!(before_pending, s.pending_txns());
        assert_eq!(before_tracked, s.tracked_txns());
        assert_eq!(s.dep_entry(TxnId(5)).unwrap().sent_to.len(), 1);
        assert_eq!(s.decision_of(TxnId(9)), Some(true));
        assert_eq!(s.decision_of(TxnId(5)), None);
        assert_eq!(s.poly_count(), 1);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.install_in_doubt(TxnId(5));
        s.crash_and_recover();
        let once: Vec<_> = s.iter_items().map(|(i, e)| (i, e.clone())).collect();
        s.crash_and_recover();
        let twice: Vec<_> = s.iter_items().map(|(i, e)| (i, e.clone())).collect();
        assert_eq!(once, twice);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let mut s = SiteStore::new().with_compact_threshold(8);
        s.seed_item(ItemId(1), Value::Int(0));
        for i in 0..20 {
            s.set_entry(ItemId(1), simple(i));
        }
        assert!(s.wal().len() > 8);
        assert!(s.maybe_compact());
        assert_eq!(s.wal().len(), 1);
        s.crash_and_recover();
        assert_eq!(s.get(ItemId(1)), Some(simple(19)));
        // Below threshold → no compaction.
        assert!(!s.maybe_compact());
    }

    /// The doubling rule's three promises, on a site-sized store: a seeded
    /// table, then transfers this site takes part in, a third of which it
    /// also coordinates (so the checkpointed state grows, as `decisions`
    /// does).
    #[test]
    fn checkpoint_write_amplification_is_bounded() {
        const SEED: u64 = 10_000;
        const FLOOR: usize = 64;
        let mut store = SiteStore::new().with_compact_threshold(FLOOR);
        let mut twin = SiteStore::new();
        for s in [&mut store, &mut twin] {
            for item in 0..SEED {
                s.seed_item(ItemId(item), Value::Int(100));
            }
        }
        let mut last_checkpoint = 0;
        for n in 0..100_000u64 {
            let (txn, item) = (TxnId(n), ItemId(n * 7919 % SEED));
            for s in [&mut store, &mut twin] {
                s.stage(txn, 1, vec![(item, simple(n as i64))]);
                if n % 3 == 0 {
                    s.record_decision(txn, true);
                }
                s.apply_decision(txn, true);
            }
            if store.maybe_compact() {
                last_checkpoint = store.wal().len();
            }
            assert!(
                store.wal().len() <= 2 * last_checkpoint + FLOOR,
                "log of {} records after a checkpoint of {last_checkpoint}",
                store.wal().len()
            );
        }
        let stats = store.take_stats();
        assert!(stats.wal_compactions > 0);
        assert!(
            stats.wal_checkpoint_records <= 2 * stats.wal_appends + SEED,
            "{} records rewritten for {} appended",
            stats.wal_checkpoint_records,
            stats.wal_appends
        );
        let view = |s: &SiteStore| format!("{:?}", s.logical_view());
        assert_eq!(view(&store), view(&twin));
        store.crash_and_recover();
        twin.crash_and_recover();
        assert_eq!(view(&store), view(&twin));
        // The recovered image counts as the last checkpoint: the next one
        // waits for the log to double again.
        let replayed = store.take_stats().recovery_replay_records as usize;
        assert!(replayed <= 2 * last_checkpoint + FLOOR);
        assert!(!store.maybe_compact());
    }

    #[test]
    fn checkpoint_waits_for_the_log_to_double() {
        let mut s = SiteStore::new().with_compact_threshold(4);
        for item in 0..10 {
            s.seed_item(ItemId(item), Value::Int(0));
        }
        // The floor decides while nothing has been checkpointed yet.
        assert!(s.maybe_compact());
        assert_eq!(s.wal().len(), 10);
        // From then on the last checkpoint's size does: 9 overwrites leave
        // the log at 19 records, the 10th doubles it.
        for i in 0..9 {
            s.set_entry(ItemId(0), simple(i));
            assert!(!s.maybe_compact(), "after {} appends", i + 1);
        }
        s.set_entry(ItemId(0), simple(9));
        assert!(s.maybe_compact());
        assert_eq!(s.wal().len(), 10);
        // A recovery's image is a checkpoint too.
        for i in 0..5 {
            s.set_entry(ItemId(1), simple(i));
        }
        s.crash_and_recover();
        for i in 0..14 {
            s.set_entry(ItemId(1), simple(i));
            assert!(!s.maybe_compact());
        }
        s.set_entry(ItemId(1), simple(14));
        assert!(s.maybe_compact());
        assert_eq!(s.take_stats().wal_checkpoint_records, 30);
    }

    #[test]
    fn compaction_keeps_pending_and_outcomes() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.install_in_doubt(TxnId(5));
        s.note_sent(TxnId(5), 7);
        s.stage(TxnId(6), 3, vec![(ItemId(1), simple(1))]);
        s.record_decision(TxnId(9), false);
        s.compact();
        s.crash_and_recover();
        assert_eq!(s.poly_count(), 1);
        assert_eq!(s.pending_txns(), vec![TxnId(6)]);
        assert_eq!(s.dep_entry(TxnId(5)).unwrap().sent_to.len(), 1);
        assert!(s.dep_entry(TxnId(5)).unwrap().items.contains(&ItemId(1)));
        assert_eq!(s.decision_of(TxnId(9)), Some(false));
    }

    #[test]
    fn epoch_bumps_survive_recovery_and_compaction() {
        let mut s = SiteStore::new();
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.bump_epoch(), 1);
        assert_eq!(s.bump_epoch(), 2);
        s.crash_and_recover();
        assert_eq!(s.epoch(), 2);
        s.compact();
        s.crash_and_recover();
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn export_import_round_trip() {
        let mut s = store_with_item(1, 100);
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.install_in_doubt(TxnId(5));
        s.note_sent(TxnId(5), 7);
        s.record_decision(TxnId(9), true);
        s.bump_epoch();
        let image = s.export_wal();
        let restored = SiteStore::import_wal(&image).unwrap();
        assert_eq!(
            restored
                .iter_items()
                .map(|(i, e)| (i, e.clone()))
                .collect::<Vec<_>>(),
            s.iter_items()
                .map(|(i, e)| (i, e.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(restored.tracked_txns(), s.tracked_txns());
        assert_eq!(restored.decision_of(TxnId(9)), Some(true));
        assert_eq!(restored.epoch(), s.epoch());
        // A torn image keeps the intact prefix.
        let torn = &image[..image.len() - 3];
        let (partial, err) = SiteStore::import_wal_lossy(torn);
        assert!(err.is_some());
        assert!(partial.wal().len() < s.wal().len());
    }

    #[test]
    fn decision_recording() {
        let mut s = SiteStore::new();
        assert_eq!(s.decision_of(TxnId(1)), None);
        s.record_decision(TxnId(1), true);
        assert_eq!(s.decision_of(TxnId(1)), Some(true));
    }

    #[test]
    fn poly_write_from_polytransaction_tracks_all_deps() {
        // A staged write that is itself a polyvalue (computed by a
        // polytransaction) must register dependencies on its conditions too.
        let mut s = store_with_item(1, 100);
        let poly_write = Entry::in_doubt(simple(1), simple(2), TxnId(3));
        s.stage(TxnId(5), 2, vec![(ItemId(1), poly_write)]);
        s.install_in_doubt(TxnId(5));
        let tracked = s.tracked_txns();
        assert!(tracked.contains(&TxnId(3)));
        assert!(tracked.contains(&TxnId(5)));
        // Resolving the outer transaction leaves dependency on the inner.
        s.apply_decision(TxnId(5), true);
        assert_eq!(s.tracked_txns(), vec![TxnId(3)]);
        s.apply_decision(TxnId(3), false);
        assert_eq!(s.get(ItemId(1)), Some(simple(2)));
        assert!(!s.has_tracked_txns());
    }

    #[test]
    fn paxos_state_survives_recovery_and_compaction() {
        let mut s = SiteStore::new();
        s.pc_record_vote(TxnId(5), 0, vec![0, 1], true);
        s.pc_record_vote(TxnId(5), 1, vec![0, 1], false);
        s.pc_promise(TxnId(5), (2 << 16) | 1);
        s.pc_accept(TxnId(5), (2 << 16) | 1, false);
        let before = s.pc_state(TxnId(5)).unwrap().clone();
        assert!(before.votes[&0]);
        assert!(!before.votes[&1]);
        assert_eq!(before.parts, vec![0, 1]);
        assert_eq!(before.promised, (2 << 16) | 1);
        assert_eq!(before.accepted, Some(((2 << 16) | 1, false)));

        s.crash_and_recover();
        assert_eq!(s.pc_state(TxnId(5)), Some(&before));
        s.compact();
        s.crash_and_recover();
        assert_eq!(s.pc_state(TxnId(5)), Some(&before));
        assert_eq!(s.pc_txns(), vec![TxnId(5)]);

        s.pc_forget(TxnId(5));
        assert!(s.pc_state(TxnId(5)).is_none());
        s.crash_and_recover();
        assert!(s.pc_state(TxnId(5)).is_none());
        assert!(s.pc_txns().is_empty());
        // Forgetting twice is a no-op and logs nothing.
        let len = s.wal().len();
        s.pc_forget(TxnId(5));
        assert_eq!(s.wal().len(), len);
    }

    #[test]
    fn paxos_promise_and_accept_keep_maxima() {
        let mut s = SiteStore::new();
        s.pc_promise(TxnId(1), 100);
        s.pc_promise(TxnId(1), 50); // stale: ignored
        assert_eq!(s.pc_state(TxnId(1)).unwrap().promised, 100);
        s.pc_accept(TxnId(1), 200, true);
        let st = s.pc_state(TxnId(1)).unwrap();
        assert_eq!(st.promised, 200);
        assert_eq!(st.accepted, Some((200, true)));
        s.pc_accept(TxnId(1), 150, false); // lower ballot: accepted stays
        assert_eq!(s.pc_state(TxnId(1)).unwrap().accepted, Some((200, true)));
    }

    #[test]
    fn paxos_vote_is_synced_under_lax_policy() {
        // Like staging: an acknowledged vote must survive a crash even when
        // the background fsync policy would not have flushed it yet.
        let mut s = SiteStore::with_storage(Box::new(MemStorage::with_policy(
            FsyncPolicy::EveryN(10_000),
        )));
        s.pc_record_vote(TxnId(5), 1, vec![0, 1], true);
        s.pc_promise(TxnId(6), 7);
        s.pc_accept(TxnId(6), 7, true);
        s.crash_and_recover();
        assert!(s.pc_state(TxnId(5)).unwrap().votes[&1]);
        assert_eq!(s.pc_state(TxnId(6)).unwrap().accepted, Some((7, true)));
    }

    // ---- storage-backend integration ----------------------------------------

    #[test]
    fn append_seq_is_monotonic_across_compaction() {
        let mut s = store_with_item(1, 0);
        for i in 0..10 {
            s.set_entry(ItemId(1), simple(i));
        }
        let before = s.append_seq();
        s.compact();
        assert_eq!(s.append_seq(), before, "compaction appends nothing");
        s.set_entry(ItemId(1), simple(99));
        assert_eq!(s.append_seq(), before + 1);
    }

    #[test]
    fn periodic_policy_staging_survives_crash_via_explicit_sync() {
        // Under a lax policy, background appends can be lost — but a staged
        // wait-phase transaction never is, because stage() syncs explicitly.
        let mut s = SiteStore::with_storage(Box::new(MemStorage::with_policy(
            FsyncPolicy::EveryN(10_000),
        )));
        s.seed_item(ItemId(1), Value::Int(100));
        s.sync();
        s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
        s.record_decision(TxnId(8), true);
        s.crash_and_recover();
        assert_eq!(s.pending_txns(), vec![TxnId(5)]);
        assert_eq!(s.decision_of(TxnId(8)), Some(true));
    }

    #[test]
    fn periodic_policy_can_lose_background_appends() {
        let mut s = SiteStore::with_storage(Box::new(MemStorage::with_policy(
            FsyncPolicy::EveryN(10_000),
        )));
        s.seed_item(ItemId(1), Value::Int(100));
        s.sync();
        s.set_entry(ItemId(1), simple(55)); // background: not synced
        s.crash_and_recover();
        assert_eq!(s.get(ItemId(1)), Some(simple(100)));
    }

    #[test]
    fn faulty_storage_recovery_never_panics_and_keeps_prefix() {
        for seed in 0..50 {
            let storage = FaultyStorage::with_policy(
                FaultConfig {
                    seed,
                    torn_tail_prob: 0.8,
                    bit_flip_prob: 0.4,
                },
                FsyncPolicy::EveryN(3),
            );
            let mut s = SiteStore::with_storage(Box::new(storage));
            s.seed_item(ItemId(1), Value::Int(100));
            for i in 0..6 {
                s.set_entry(ItemId(1), simple(i));
                if i % 2 == 0 {
                    s.crash_and_recover();
                }
            }
            s.crash_and_recover();
            // Whatever survived is a coherent prefix of what was written:
            // the recovered mirror decodes strictly (the corrupt tail was
            // truncated away), and any surviving value is one we wrote.
            crate::codec::decode_wal(&s.export_wal()).expect("recovered image is clean");
            if let Some(entry) = s.get(ItemId(1)) {
                let legal: Vec<Entry<Value>> = (0..6)
                    .map(simple)
                    .chain(std::iter::once(simple(100)))
                    .collect();
                assert!(legal.contains(&entry), "unexpected survivor {entry:?}");
            }
        }
    }

    #[test]
    fn disk_backed_store_recovers_across_instances() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/storage-tests/site-store-disk");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let storage = DiskWal::open(&dir, FsyncPolicy::PerDecision).unwrap();
            let mut s = SiteStore::open(Box::new(storage));
            s.seed_item(ItemId(1), Value::Int(100));
            s.stage(TxnId(5), 2, vec![(ItemId(1), simple(90))]);
            s.install_in_doubt(TxnId(5));
            s.note_sent(TxnId(5), 7);
            s.record_decision(TxnId(9), true);
            s.sync();
        }
        let storage = DiskWal::open(&dir, FsyncPolicy::PerDecision).unwrap();
        let s = SiteStore::open(Box::new(storage));
        assert_eq!(s.poly_count(), 1);
        assert_eq!(s.tracked_txns(), vec![TxnId(5)]);
        assert_eq!(s.dep_entry(TxnId(5)).unwrap().sent_to.len(), 1);
        assert_eq!(s.decision_of(TxnId(9)), Some(true));
    }

    #[test]
    fn take_stats_reports_deltas() {
        let mut s = store_with_item(1, 100);
        let first = s.take_stats();
        assert!(first.wal_bytes > 0);
        assert_eq!(first.wal_appends, 1);
        let quiet = s.take_stats();
        assert!(quiet.is_empty());
        s.set_entry(ItemId(1), simple(1));
        s.crash_and_recover();
        s.compact();
        let busy = s.take_stats();
        assert!(busy.wal_bytes > 0);
        assert_eq!(busy.wal_compactions, 1);
        assert_eq!(busy.wal_checkpoint_records, 1);
        assert_eq!(busy.recovery_replay_records, 2);
        assert_eq!(busy.recovery_durations.len(), 1);
    }
}
