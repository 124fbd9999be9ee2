//! Pluggable stable-storage backends for the write-ahead log.
//!
//! The paper assumes every site owns *stable storage* that survives crashes
//! (§3.3); [`Storage`] is that assumption as a trait. Three backends ship:
//!
//! * [`MemStorage`] — the historical in-memory log, now split into a synced
//!   and an un-synced byte region so fsync policies are meaningful even in
//!   the simulator;
//! * [`DiskWal`] — a real file-backed log: append-only segments framed by
//!   the [`crate::codec`] format, segment rotation, and compaction that
//!   rewrites the state into a fresh segment with an atomic rename;
//! * [`FaultyStorage`] — an adversarial in-memory backend that injects
//!   torn tails at byte granularity, bit flips, and loss of the un-synced
//!   suffix at crash time, deterministically from a seed.
//!
//! All backends speak bytes in the codec's framed format, so recovery is the
//! same everywhere: read the image, decode the longest valid prefix, truncate
//! the rest.

use crate::codec;
use crate::wal::Record;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// When a backend forces appended records to stable storage on its own.
///
/// Independent of the policy, [`SiteStore`](crate::SiteStore) explicitly
/// syncs at the protocol-critical points (staging before `Ready`, decisions
/// before `Decision` messages, epoch bumps) — the policy only governs how
/// long *background* records (item installs, §3.3 bookkeeping) may sit in
/// the un-synced tail, which is exactly the state a crash can lose.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FsyncPolicy {
    /// Sync after every append (the historical always-durable behaviour).
    #[default]
    PerAppend,
    /// Sync only when a decision or epoch record is appended.
    PerDecision,
    /// Sync once every `n` appends.
    EveryN(usize),
}

impl FsyncPolicy {
    /// Whether appending `record` with `unsynced_appends` already pending
    /// should trigger an automatic sync.
    fn wants_sync(self, record: &Record, unsynced_appends: usize) -> bool {
        match self {
            FsyncPolicy::PerAppend => true,
            FsyncPolicy::PerDecision => {
                matches!(record, Record::Decision { .. } | Record::Epoch { .. })
            }
            FsyncPolicy::EveryN(n) => unsynced_appends >= n.max(1),
        }
    }
}

/// A storage-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An I/O error from a file-backed backend.
    Io(String),
    /// The stable image failed to decode where a decode was required.
    Codec(codec::CodecError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Codec(e) => write!(f, "storage codec error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// Cumulative I/O counters a backend maintains; consumers read deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Framed bytes appended to the log.
    pub bytes_appended: u64,
    /// Records appended.
    pub appends: u64,
    /// Effective syncs (calls that actually flushed un-synced bytes).
    pub syncs: u64,
    /// Segments created (initial, rotations, and compaction targets).
    pub segments_created: u64,
    /// Compactions performed ([`Storage::reset`] calls).
    pub compactions: u64,
    /// Records written by those compactions.
    pub checkpoint_records: u64,
}

/// One site's stable storage: an append-only, checksummed-framed log.
///
/// The contract mirrors a production WAL: [`Storage::append`] may buffer,
/// [`Storage::sync`] makes everything appended so far durable,
/// [`Storage::crash`] discards whatever a real power loss would discard, and
/// [`Storage::read_image`] returns the surviving bytes for replay.
pub trait Storage: Send + fmt::Debug {
    /// Appends one record to the log. Durability is governed by the
    /// backend's fsync policy until [`Storage::sync`] is called.
    fn append(&mut self, record: &Record) -> Result<(), StorageError>;

    /// Forces every appended record to stable storage.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Applies crash semantics: un-synced appends may be lost (backends may
    /// also inject corruption here). Infallible — a crash cannot fail.
    fn crash(&mut self);

    /// The current log image (synced prefix plus any surviving un-synced
    /// tail). Recovery decodes the longest valid prefix of this.
    fn read_image(&mut self) -> Result<Vec<u8>, StorageError>;

    /// Truncates the log to its first `len` bytes (recovery drops a torn or
    /// corrupt tail).
    fn truncate(&mut self, len: u64) -> Result<(), StorageError>;

    /// Atomically replaces the whole log with a snapshot (compaction).
    fn reset(&mut self, records: &[Record]) -> Result<(), StorageError>;

    /// Cumulative I/O statistics.
    fn stats(&self) -> StorageStats;
}

// ---- in-memory backend ------------------------------------------------------

/// The in-memory backend: a synced byte region plus an un-synced tail.
///
/// Under [`FsyncPolicy::PerAppend`] (the default) every append is immediately
/// durable, which reproduces the original simulator semantics exactly.
#[derive(Debug, Default)]
pub struct MemStorage {
    synced: Vec<u8>,
    unsynced: Vec<u8>,
    policy: FsyncPolicy,
    unsynced_appends: usize,
    stats: StorageStats,
}

impl MemStorage {
    /// An empty always-durable in-memory log.
    pub fn new() -> Self {
        MemStorage::with_policy(FsyncPolicy::PerAppend)
    }

    /// An empty in-memory log with the given fsync policy.
    pub fn with_policy(policy: FsyncPolicy) -> Self {
        MemStorage {
            policy,
            stats: StorageStats {
                segments_created: 1,
                ..StorageStats::default()
            },
            ..MemStorage::default()
        }
    }

    /// A log whose synced region already holds `image` (restore path).
    pub fn from_image(image: Vec<u8>) -> Self {
        MemStorage {
            synced: image,
            ..MemStorage::with_policy(FsyncPolicy::PerAppend)
        }
    }

    /// Bytes currently in the un-synced tail.
    pub fn unsynced_len(&self) -> usize {
        self.unsynced.len()
    }

    /// Bytes currently in the synced region.
    pub fn synced_len(&self) -> usize {
        self.synced.len()
    }

    /// Moves the first `n` un-synced bytes into the synced region and drops
    /// the rest — the torn-tail primitive: a crash caught part of the tail
    /// on its way to the platter.
    pub fn promote_unsynced_prefix(&mut self, n: usize) {
        let n = n.min(self.unsynced.len());
        self.synced.extend_from_slice(&self.unsynced[..n]);
        self.unsynced.clear();
        self.unsynced_appends = 0;
    }

    /// Flips one bit of the synced image (media-corruption primitive).
    pub fn flip_bit(&mut self, bit: u64) {
        let byte = (bit / 8) as usize;
        if byte < self.synced.len() {
            self.synced[byte] ^= 1 << (bit % 8);
        }
    }
}

impl Storage for MemStorage {
    fn append(&mut self, record: &Record) -> Result<(), StorageError> {
        let before = self.unsynced.len();
        codec::encode_record(record, &mut self.unsynced);
        self.stats.bytes_appended += (self.unsynced.len() - before) as u64;
        self.stats.appends += 1;
        self.unsynced_appends += 1;
        if self.policy.wants_sync(record, self.unsynced_appends) {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if !self.unsynced.is_empty() {
            self.synced.append(&mut self.unsynced);
            self.stats.syncs += 1;
        }
        self.unsynced_appends = 0;
        Ok(())
    }

    fn crash(&mut self) {
        self.unsynced.clear();
        self.unsynced_appends = 0;
    }

    fn read_image(&mut self) -> Result<Vec<u8>, StorageError> {
        let mut image = self.synced.clone();
        image.extend_from_slice(&self.unsynced);
        Ok(image)
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        let len = len as usize;
        if len <= self.synced.len() {
            self.synced.truncate(len);
            self.unsynced.clear();
            self.unsynced_appends = 0;
        } else {
            self.unsynced.truncate(len - self.synced.len());
        }
        Ok(())
    }

    fn reset(&mut self, records: &[Record]) -> Result<(), StorageError> {
        self.synced.clear();
        for record in records {
            codec::encode_record(record, &mut self.synced);
        }
        self.unsynced.clear();
        self.unsynced_appends = 0;
        self.stats.compactions += 1;
        self.stats.checkpoint_records += records.len() as u64;
        self.stats.segments_created += 1;
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

// ---- file-backed backend ----------------------------------------------------

/// Default segment-rotation threshold for [`DiskWal`].
pub const DEFAULT_SEGMENT_BYTES: u64 = 256 * 1024;

/// A file-backed WAL: append-only segment files under one directory.
///
/// Segments are named `wal-NNNNNN.seg` and replayed in index order; only the
/// highest-indexed segment is appended to. Rotation seals the active segment
/// (after a final sync) and opens the next index. Compaction writes the
/// state snapshot to a temporary file, syncs it, atomically renames it into
/// place as the next segment, and deletes every older segment.
///
/// [`Storage::crash`] models losing the OS write-back cache: the active
/// segment is truncated to its last synced length.
#[derive(Debug)]
pub struct DiskWal {
    dir: PathBuf,
    file: fs::File,
    active_index: u64,
    active_len: u64,
    synced_len: u64,
    /// Earlier, fully-synced segments: `(index, length)` in replay order.
    sealed: Vec<(u64, u64)>,
    max_segment_bytes: u64,
    policy: FsyncPolicy,
    unsynced_appends: usize,
    stats: StorageStats,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

fn parse_segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

impl DiskWal {
    /// Opens (or creates) a log under `dir` with the default segment size.
    pub fn open(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, StorageError> {
        DiskWal::open_with_segment_bytes(dir, policy, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens (or creates) a log under `dir`, rotating segments at
    /// `max_segment_bytes`.
    pub fn open_with_segment_bytes(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
        max_segment_bytes: u64,
    ) -> Result<Self, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut indices: Vec<u64> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_index(&e.file_name().to_string_lossy()))
            .collect();
        indices.sort_unstable();
        let mut stats = StorageStats::default();
        let (active_index, sealed) = match indices.last() {
            Some(&last) => {
                let mut sealed = Vec::with_capacity(indices.len() - 1);
                for &idx in &indices[..indices.len() - 1] {
                    let len = fs::metadata(segment_path(&dir, idx))?.len();
                    sealed.push((idx, len));
                }
                (last, sealed)
            }
            None => {
                stats.segments_created = 1;
                (0, Vec::new())
            }
        };
        let path = segment_path(&dir, active_index);
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let active_len = file.metadata()?.len();
        Ok(DiskWal {
            dir,
            file,
            active_index,
            active_len,
            // Whatever a previous process left on disk is, by definition,
            // what stable storage holds now.
            synced_len: active_len,
            sealed,
            max_segment_bytes: max_segment_bytes.max(1),
            policy,
            unsynced_appends: 0,
            stats,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        self.synced_len = self.active_len;
        self.sealed.push((self.active_index, self.active_len));
        self.active_index += 1;
        let path = segment_path(&self.dir, self.active_index);
        self.file = fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.active_len = 0;
        self.synced_len = 0;
        self.stats.segments_created += 1;
        sync_dir(&self.dir);
        Ok(())
    }

    /// Re-opens the active segment for appending (after a truncate).
    fn reopen_active(&mut self) -> Result<(), StorageError> {
        let path = segment_path(&self.dir, self.active_index);
        self.file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(())
    }
}

/// Best-effort directory fsync so renames and creations are durable. Errors
/// are ignored: not every filesystem supports it, and the data files
/// themselves are already synced.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Storage for DiskWal {
    fn append(&mut self, record: &Record) -> Result<(), StorageError> {
        let mut frame = Vec::new();
        codec::encode_record(record, &mut frame);
        if self.active_len > 0 && self.active_len + frame.len() as u64 > self.max_segment_bytes {
            self.rotate()?;
        }
        self.file.write_all(&frame)?;
        self.active_len += frame.len() as u64;
        self.unsynced_appends += 1;
        self.stats.bytes_appended += frame.len() as u64;
        self.stats.appends += 1;
        if self.policy.wants_sync(record, self.unsynced_appends) {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if self.synced_len < self.active_len {
            self.file.sync_data()?;
            self.synced_len = self.active_len;
            self.stats.syncs += 1;
        }
        self.unsynced_appends = 0;
        Ok(())
    }

    fn crash(&mut self) {
        // Model the loss of the OS write-back cache: everything after the
        // last sync is gone. Truncation failure leaves the un-synced tail in
        // place, which recovery tolerates anyway (it decodes a prefix).
        if self.synced_len < self.active_len && self.file.set_len(self.synced_len).is_ok() {
            self.active_len = self.synced_len;
        }
        self.unsynced_appends = 0;
    }

    fn read_image(&mut self) -> Result<Vec<u8>, StorageError> {
        let mut image = Vec::new();
        for &(idx, _) in &self.sealed {
            image.extend_from_slice(&fs::read(segment_path(&self.dir, idx))?);
        }
        image.extend_from_slice(&fs::read(segment_path(&self.dir, self.active_index))?);
        Ok(image)
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        // Map the global image offset onto the segment chain: keep segments
        // wholly before the cut, shorten the one containing it, delete the
        // rest.
        let mut segments = self.sealed.clone();
        segments.push((self.active_index, self.active_len));
        let mut cum = 0u64;
        let mut cut = None;
        for (pos, &(_, seg_len)) in segments.iter().enumerate() {
            if len <= cum + seg_len {
                cut = Some((pos, len - cum));
                break;
            }
            cum += seg_len;
        }
        let Some((pos, local)) = cut else {
            return Ok(()); // len beyond the image: nothing to drop
        };
        for &(idx, _) in &segments[pos + 1..] {
            let _ = fs::remove_file(segment_path(&self.dir, idx));
        }
        let (idx, _) = segments[pos];
        let f = fs::OpenOptions::new()
            .write(true)
            .open(segment_path(&self.dir, idx))?;
        f.set_len(local)?;
        f.sync_data()?;
        self.sealed = segments[..pos].to_vec();
        self.active_index = idx;
        self.active_len = local;
        self.synced_len = local;
        self.reopen_active()?;
        sync_dir(&self.dir);
        Ok(())
    }

    fn reset(&mut self, records: &[Record]) -> Result<(), StorageError> {
        let mut image = Vec::new();
        for record in records {
            codec::encode_record(record, &mut image);
        }
        let next = self.active_index + 1;
        let tmp = self.dir.join(format!("wal-{next:06}.seg.tmp"));
        let final_path = segment_path(&self.dir, next);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &final_path)?;
        sync_dir(&self.dir);
        // The snapshot is durably in place; the old segments are garbage.
        for &(idx, _) in &self.sealed {
            let _ = fs::remove_file(segment_path(&self.dir, idx));
        }
        let _ = fs::remove_file(segment_path(&self.dir, self.active_index));
        self.sealed.clear();
        self.active_index = next;
        self.active_len = image.len() as u64;
        self.synced_len = self.active_len;
        self.unsynced_appends = 0;
        self.reopen_active()?;
        self.stats.compactions += 1;
        self.stats.checkpoint_records += records.len() as u64;
        self.stats.segments_created += 1;
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

// ---- fault-injecting backend ------------------------------------------------

/// What [`FaultyStorage`] may do to the log at crash time.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed for the backend's private deterministic RNG.
    pub seed: u64,
    /// Probability that a crash keeps a *random byte-length prefix* of the
    /// un-synced tail instead of dropping it whole (a torn write).
    pub torn_tail_prob: f64,
    /// Probability that a crash flips one random bit of the surviving image
    /// (media corruption; recovery must truncate at the corrupt frame).
    pub bit_flip_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            torn_tail_prob: 0.0,
            bit_flip_prob: 0.0,
        }
    }
}

/// An in-memory backend that injects storage faults at crash time,
/// deterministically under [`FaultConfig::seed`].
///
/// Between crashes it behaves exactly like [`MemStorage`]; every crash may
/// tear the un-synced tail at an arbitrary byte boundary and/or flip a bit
/// in the surviving image. Recovery must cope by decoding the longest valid
/// prefix — never by panicking.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: MemStorage,
    config: FaultConfig,
    rng_state: u64,
    torn_tails: u64,
    bit_flips: u64,
}

impl FaultyStorage {
    /// A faulty log over the always-durable policy (faults only bite the
    /// window between appends and crashes, so pair this with a laxer policy
    /// for interesting runs).
    pub fn new(config: FaultConfig) -> Self {
        FaultyStorage::with_policy(config, FsyncPolicy::PerAppend)
    }

    /// A faulty log with an explicit fsync policy.
    pub fn with_policy(config: FaultConfig, policy: FsyncPolicy) -> Self {
        FaultyStorage {
            inner: MemStorage::with_policy(policy),
            rng_state: config.seed,
            config,
            torn_tails: 0,
            bit_flips: 0,
        }
    }

    /// How many crashes tore the tail instead of dropping it whole.
    pub fn injected_torn_tails(&self) -> u64 {
        self.torn_tails
    }

    /// How many crashes flipped a bit in the surviving image.
    pub fn injected_bit_flips(&self) -> u64 {
        self.bit_flips
    }

    /// splitmix64: tiny, seedable, and good enough for fault placement.
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl Storage for FaultyStorage {
    fn append(&mut self, record: &Record) -> Result<(), StorageError> {
        self.inner.append(record)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }

    fn crash(&mut self) {
        let tail = self.inner.unsynced_len();
        if tail > 0 && self.chance(self.config.torn_tail_prob) {
            // Keep an arbitrary byte-length prefix of the tail, as if the
            // crash caught the write partway to the platter.
            let keep = (self.next_u64() % (tail as u64 + 1)) as usize;
            self.inner.promote_unsynced_prefix(keep);
            self.torn_tails += 1;
        }
        self.inner.crash();
        if self.chance(self.config.bit_flip_prob) {
            let bits = self.inner.synced_len() as u64 * 8;
            if bits > 0 {
                let bit = self.next_u64() % bits;
                self.inner.flip_bit(bit);
                self.bit_flips += 1;
            }
        }
    }

    fn read_image(&mut self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_image()
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(len)
    }

    fn reset(&mut self, records: &[Record]) -> Result<(), StorageError> {
        self.inner.reset(records)
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::{Entry, ItemId, TxnId, Value};

    fn set(item: u64, v: i64) -> Record {
        Record::SetItem {
            item: ItemId(item),
            entry: Entry::Simple(Value::Int(v)),
        }
    }

    fn decision(txn: u64) -> Record {
        Record::Decision {
            txn: TxnId(txn),
            completed: true,
        }
    }

    fn decode(image: &[u8]) -> Vec<Record> {
        codec::decode_wal(image)
            .expect("image decodes")
            .iter()
            .cloned()
            .collect()
    }

    /// A scratch directory inside the repo's target tree (never /tmp).
    fn scratch(name: &str) -> PathBuf {
        let base = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/storage-tests")
            .join(name);
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        base
    }

    #[test]
    fn mem_per_append_is_always_durable() {
        let mut s = MemStorage::new();
        s.append(&set(1, 10)).unwrap();
        s.append(&set(1, 11)).unwrap();
        s.crash();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 10), set(1, 11)]);
    }

    #[test]
    fn mem_periodic_policy_loses_unsynced_tail_on_crash() {
        let mut s = MemStorage::with_policy(FsyncPolicy::EveryN(100));
        s.append(&set(1, 10)).unwrap();
        s.sync().unwrap();
        s.append(&set(1, 11)).unwrap();
        s.append(&set(1, 12)).unwrap();
        assert!(s.unsynced_len() > 0);
        s.crash();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 10)]);
    }

    #[test]
    fn mem_per_decision_syncs_on_decisions_only() {
        let mut s = MemStorage::with_policy(FsyncPolicy::PerDecision);
        s.append(&set(1, 10)).unwrap();
        assert!(s.unsynced_len() > 0);
        s.append(&decision(7)).unwrap();
        assert_eq!(s.unsynced_len(), 0);
        s.crash();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 10), decision(7)]);
    }

    #[test]
    fn mem_every_n_syncs_at_interval() {
        let mut s = MemStorage::with_policy(FsyncPolicy::EveryN(3));
        s.append(&set(1, 1)).unwrap();
        s.append(&set(1, 2)).unwrap();
        assert!(s.unsynced_len() > 0);
        s.append(&set(1, 3)).unwrap();
        assert_eq!(s.unsynced_len(), 0);
    }

    #[test]
    fn mem_reset_and_truncate() {
        let mut s = MemStorage::new();
        for i in 0..10 {
            s.append(&set(1, i)).unwrap();
        }
        s.reset(&[set(1, 9)]).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 9)]);
        assert_eq!(s.stats().compactions, 1);
        s.truncate(0).unwrap();
        assert!(s.read_image().unwrap().is_empty());
    }

    #[test]
    fn disk_round_trips_across_reopen() {
        let dir = scratch("reopen");
        {
            let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
            s.append(&set(1, 10)).unwrap();
            s.append(&decision(3)).unwrap();
        }
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 10), decision(3)]);
        s.append(&set(2, 20)).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()).len(), 3);
    }

    #[test]
    fn disk_crash_drops_unsynced_suffix() {
        let dir = scratch("crash");
        let mut s = DiskWal::open(&dir, FsyncPolicy::EveryN(100)).unwrap();
        s.append(&set(1, 10)).unwrap();
        s.sync().unwrap();
        s.append(&set(1, 11)).unwrap();
        s.crash();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 10)]);
        // The log keeps working after the crash truncation.
        s.append(&set(1, 12)).unwrap();
        s.sync().unwrap();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 10), set(1, 12)]);
    }

    #[test]
    fn disk_rotates_segments_and_replays_in_order() {
        let dir = scratch("rotate");
        let mut s = DiskWal::open_with_segment_bytes(&dir, FsyncPolicy::PerAppend, 64).unwrap();
        for i in 0..20 {
            s.append(&set(1, i)).unwrap();
        }
        assert!(s.segment_count() > 1, "expected rotation at 64-byte segments");
        let records = decode(&s.read_image().unwrap());
        assert_eq!(records.len(), 20);
        assert_eq!(records[19], set(1, 19));
        // Reopen sees the same chain.
        drop(s);
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()).len(), 20);
    }

    #[test]
    fn disk_reset_leaves_one_fresh_segment() {
        let dir = scratch("reset");
        let mut s = DiskWal::open_with_segment_bytes(&dir, FsyncPolicy::PerAppend, 64).unwrap();
        for i in 0..20 {
            s.append(&set(1, i)).unwrap();
        }
        s.reset(&[set(1, 19)]).unwrap();
        assert_eq!(s.segment_count(), 1);
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 19)]);
        // No stray files: exactly one segment, no tmp leftovers.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "dir should hold one segment, got {names:?}");
        assert!(names[0].ends_with(".seg"));
        // And the snapshot survives a reopen.
        drop(s);
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 19)]);
    }

    #[test]
    fn disk_truncate_across_segments() {
        let dir = scratch("truncate");
        let mut s = DiskWal::open_with_segment_bytes(&dir, FsyncPolicy::PerAppend, 64).unwrap();
        for i in 0..20 {
            s.append(&set(1, i)).unwrap();
        }
        let image = s.read_image().unwrap();
        // Cut to the first two frames (they live in the first segment).
        let two = codec::encode_wal(&crate::wal::Wal::from_records(vec![set(1, 0), set(1, 1)]));
        s.truncate(two.len() as u64).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 0), set(1, 1)]);
        assert!(s.read_image().unwrap().len() < image.len());
        // Appends continue from the cut.
        s.append(&set(2, 2)).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()).len(), 3);
    }

    #[test]
    fn faulty_torn_tail_keeps_a_byte_prefix() {
        let mut hit_partial = false;
        for seed in 0..64 {
            let mut s = FaultyStorage::with_policy(
                FaultConfig {
                    seed,
                    torn_tail_prob: 1.0,
                    bit_flip_prob: 0.0,
                },
                FsyncPolicy::EveryN(100),
            );
            s.append(&set(1, 10)).unwrap();
            s.sync().unwrap();
            let synced = s.read_image().unwrap().len();
            s.append(&set(1, 11)).unwrap();
            s.crash();
            assert_eq!(s.injected_torn_tails(), 1);
            let image = s.read_image().unwrap();
            assert!(image.len() >= synced);
            // The decoded prefix never panics and never invents records.
            let (wal, _) = codec::decode_wal_lossy(&image);
            assert!(wal.len() <= 2);
            if image.len() > synced {
                hit_partial = true;
            }
        }
        assert!(hit_partial, "some seed should tear mid-frame");
    }

    #[test]
    fn faulty_bit_flip_truncates_cleanly() {
        let mut flipped = 0;
        for seed in 0..32 {
            let mut s = FaultyStorage::new(FaultConfig {
                seed,
                torn_tail_prob: 0.0,
                bit_flip_prob: 1.0,
            });
            for i in 0..8 {
                s.append(&set(1, i)).unwrap();
            }
            s.crash();
            flipped += s.injected_bit_flips();
            let image = s.read_image().unwrap();
            // Decoding the corrupt image must not panic; every record it does
            // return is a valid record from the prefix before the flip.
            let (wal, _) = codec::decode_wal_lossy(&image);
            assert!(wal.len() <= 8);
        }
        assert!(flipped >= 32);
    }

    #[test]
    fn faulty_is_deterministic_under_seed() {
        let run = |seed| {
            let mut s = FaultyStorage::with_policy(
                FaultConfig {
                    seed,
                    torn_tail_prob: 0.7,
                    bit_flip_prob: 0.3,
                },
                FsyncPolicy::EveryN(3),
            );
            for i in 0..6 {
                s.append(&set(1, i)).unwrap();
                if i == 2 {
                    s.crash();
                }
            }
            s.crash();
            s.read_image().unwrap()
        };
        assert_eq!(run(42), run(42));
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn storage_error_display() {
        assert!(StorageError::Io("boom".into()).to_string().contains("boom"));
        assert!(StorageError::Codec(codec::CodecError::Truncated)
            .to_string()
            .contains("truncated"));
    }
}
