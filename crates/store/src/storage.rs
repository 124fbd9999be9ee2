//! Pluggable stable-storage backends for the write-ahead log.
//!
//! The paper assumes every site owns *stable storage* that survives crashes
//! (§3.3); [`Storage`] is that assumption as a trait. Three backends ship:
//!
//! * [`MemStorage`] — the in-memory log, split into a synced and an
//!   un-synced byte region so a per-decision log (the crash-point sweep's)
//!   can lose its tail;
//! * [`DiskWal`] — a real file-backed log: one append-only file per site,
//!   `wal.log`, framed by the [`crate::codec`] format; a checkpoint writes
//!   the state to `wal.log.tmp` and renames it over `wal.log` in one atomic
//!   step;
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
/// before `Decision` messages, epoch bumps) — the policy only governs
/// whether *background* records (item installs, §3.3 bookkeeping) sit in
/// the un-synced tail, which is exactly the state a crash can lose.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FsyncPolicy {
    /// Sync after every append (the historical always-durable behaviour).
    #[default]
    PerAppend,
    /// Sync only when a decision or epoch record is appended.
    PerDecision,
}

impl FsyncPolicy {
    /// Whether appending `record` should trigger an automatic sync.
    fn wants_sync(self, record: &Record) -> bool {
        match self {
            FsyncPolicy::PerAppend => true,
            FsyncPolicy::PerDecision => {
                matches!(record, Record::Decision { .. } | Record::Epoch { .. })
            }
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
/// Under [`FsyncPolicy::PerAppend`] (the default, and every in-memory
/// site's) every append is immediately durable, so a crash loses nothing
/// written; under [`FsyncPolicy::PerDecision`] a crash drops the un-synced
/// tail.
#[derive(Debug, Default)]
pub struct MemStorage {
    synced: Vec<u8>,
    unsynced: Vec<u8>,
    policy: FsyncPolicy,
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
    fn unsynced_len(&self) -> usize {
        self.unsynced.len()
    }

    /// Bytes currently in the synced region.
    fn synced_len(&self) -> usize {
        self.synced.len()
    }

    /// Moves the first `n` un-synced bytes into the synced region and drops
    /// the rest — the torn-tail primitive: a crash caught part of the tail
    /// on its way to the platter.
    fn promote_unsynced_prefix(&mut self, n: usize) {
        let n = n.min(self.unsynced.len());
        self.synced.extend_from_slice(&self.unsynced[..n]);
        self.unsynced.clear();
    }

    /// Flips one bit of the synced image (media-corruption primitive).
    fn flip_bit(&mut self, bit: u64) {
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
        if self.policy.wants_sync(record) {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if !self.unsynced.is_empty() {
            self.synced.append(&mut self.unsynced);
            self.stats.syncs += 1;
        }
        Ok(())
    }

    fn crash(&mut self) {
        self.unsynced.clear();
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
        self.stats.compactions += 1;
        self.stats.checkpoint_records += records.len() as u64;
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

// ---- file-backed backend ----------------------------------------------------

/// A file-backed WAL: one append-only file, `wal.log`, under the site's
/// directory.
///
/// Appends go to the end of the file. A checkpoint ([`Storage::reset`])
/// writes the snapshot to `wal.log.tmp`, syncs it, renames it over
/// `wal.log` and syncs the directory. The rename is the commit point: a
/// crash leaves either the old log or the complete new one, never both.
///
/// [`Storage::crash`] models losing the OS write-back cache: the file is
/// truncated to its last synced length.
#[derive(Debug)]
pub struct DiskWal {
    dir: PathBuf,
    file: fs::File,
    len: u64,
    synced_len: u64,
    policy: FsyncPolicy,
    stats: StorageStats,
}

const LOG: &str = "wal.log";
const LOG_TMP: &str = "wal.log.tmp";

fn open_log(dir: &Path) -> Result<fs::File, StorageError> {
    Ok(fs::OpenOptions::new().create(true).append(true).open(dir.join(LOG))?)
}

impl DiskWal {
    /// Opens (or creates) the log under `dir`. A `wal.log.tmp` left by a
    /// checkpoint that crashed before its rename is deleted: the log it was
    /// to replace is still whole. A directory holding `wal-*.seg` files
    /// from the earlier segmented layout is refused, so an old site never
    /// comes up empty.
    pub fn open(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.starts_with("wal-") && name.ends_with(".seg") {
                segments.push(name);
            }
        }
        if !segments.is_empty() {
            segments.sort_unstable();
            return Err(StorageError::Io(format!(
                "{} holds segmented-WAL files ({}); this version reads only wal.log",
                dir.display(),
                segments.join(", ")
            )));
        }
        let tmp = dir.join(LOG_TMP);
        if tmp.exists() {
            fs::remove_file(tmp)?;
        }
        let file = open_log(&dir)?;
        sync_dir(&dir);
        let len = file.metadata()?.len();
        Ok(DiskWal {
            dir,
            file,
            len,
            // Whatever a previous process left on disk is, by definition,
            // what stable storage holds now.
            synced_len: len,
            policy,
            stats: StorageStats::default(),
        })
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
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.stats.bytes_appended += frame.len() as u64;
        self.stats.appends += 1;
        if self.policy.wants_sync(record) {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if self.synced_len < self.len {
            self.file.sync_data()?;
            self.synced_len = self.len;
            self.stats.syncs += 1;
        }
        Ok(())
    }

    fn crash(&mut self) {
        // Model the loss of the OS write-back cache: everything after the
        // last sync is gone. Truncation failure leaves the un-synced tail in
        // place, which recovery tolerates anyway (it decodes a prefix).
        if self.synced_len < self.len && self.file.set_len(self.synced_len).is_ok() {
            self.len = self.synced_len;
        }
    }

    fn read_image(&mut self) -> Result<Vec<u8>, StorageError> {
        Ok(fs::read(self.dir.join(LOG))?)
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        // The file is opened for appending, so later writes land at the cut.
        let len = len.min(self.len);
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.len = len;
        self.synced_len = len;
        Ok(())
    }

    fn reset(&mut self, records: &[Record]) -> Result<(), StorageError> {
        let mut image = Vec::new();
        for record in records {
            codec::encode_record(record, &mut image);
        }
        let tmp = self.dir.join(LOG_TMP);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(LOG))?;
        sync_dir(&self.dir);
        self.file = open_log(&self.dir)?;
        self.len = image.len() as u64;
        self.synced_len = self.len;
        self.stats.compactions += 1;
        self.stats.checkpoint_records += records.len() as u64;
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
    /// window between appends and crashes, so pair this with
    /// [`FsyncPolicy::PerDecision`] through [`FaultyStorage::with_policy`]
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
    fn mem_per_decision_loses_unsynced_tail_on_crash() {
        let mut s = MemStorage::with_policy(FsyncPolicy::PerDecision);
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
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerDecision).unwrap();
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

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn disk_directory_holds_only_the_log() {
        let dir = scratch("one-file");
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerDecision).unwrap();
        s.append(&set(1, 10)).unwrap();
        assert_eq!(file_names(&dir), [LOG]);
        s.reset(&[set(1, 19), set(2, 20)]).unwrap();
        assert_eq!(file_names(&dir), [LOG]);
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 19), set(2, 20)]);
        let one = codec::encode_wal(&crate::wal::Wal::from_records(vec![set(1, 19)]));
        s.truncate(one.len() as u64).unwrap();
        assert_eq!(file_names(&dir), [LOG]);
        s.append(&set(3, 30)).unwrap();
        s.crash();
        assert_eq!(file_names(&dir), [LOG]);
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 19)]);
        // The checkpoint survives a reopen.
        drop(s);
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 19)]);
    }

    #[test]
    fn disk_open_discards_an_unrenamed_checkpoint() {
        let dir = scratch("leftover-tmp");
        {
            let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
            s.append(&set(1, 10)).unwrap();
            s.append(&decision(3)).unwrap();
        }
        // A checkpoint that crashed before its rename left a whole snapshot.
        let snapshot = codec::encode_wal(&crate::wal::Wal::from_records(vec![set(9, 9)]));
        fs::write(dir.join(LOG_TMP), snapshot).unwrap();
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
        assert_eq!(file_names(&dir), [LOG]);
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 10), decision(3)]);
    }

    #[test]
    fn disk_open_refuses_the_segmented_layout() {
        let dir = scratch("old-layout");
        let old = codec::encode_wal(&crate::wal::Wal::from_records(vec![set(1, 10)]));
        fs::write(dir.join("wal-000000.seg"), old).unwrap();
        match DiskWal::open(&dir, FsyncPolicy::PerAppend) {
            Err(StorageError::Io(msg)) => assert!(msg.contains("wal-000000.seg"), "{msg}"),
            other => panic!("expected an I/O error naming the segment, got {other:?}"),
        }
        assert_eq!(file_names(&dir), ["wal-000000.seg"], "a refused directory is left as found");
    }

    #[test]
    fn disk_truncate_keeps_the_cut_across_reopen() {
        let dir = scratch("truncate");
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerDecision).unwrap();
        for i in 0..5 {
            s.append(&set(1, i)).unwrap();
        }
        let two = codec::encode_wal(&crate::wal::Wal::from_records(vec![set(1, 0), set(1, 1)]));
        s.truncate(two.len() as u64).unwrap();
        // A cut is durable: a crash right after it loses nothing before it.
        s.crash();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 0), set(1, 1)]);
        // Appends continue from the cut.
        s.append(&set(2, 2)).unwrap();
        s.sync().unwrap();
        drop(s);
        let mut s = DiskWal::open(&dir, FsyncPolicy::PerAppend).unwrap();
        assert_eq!(decode(&s.read_image().unwrap()), vec![set(1, 0), set(1, 1), set(2, 2)]);
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
                FsyncPolicy::PerDecision,
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
            let (wal, _, _) = codec::decode_wal_prefix(&image);
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
            let (wal, _, _) = codec::decode_wal_prefix(&image);
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
                FsyncPolicy::PerDecision,
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
