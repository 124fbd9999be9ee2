//! Property tests: the store's recovery contract.
//!
//! Whatever sequence of operations a site performs, (1) a crash-and-replay
//! reproduces exactly the same materialised state, (2) the binary codec
//! round-trips the log bit-exactly, and (3) compaction never changes
//! observable state.

use proptest::prelude::*;
use pv_core::{Entry, ItemId, TxnId, Value};
use pv_store::codec::{decode_wal, decode_wal_prefix, encode_wal};
use pv_store::{FaultConfig, FaultyStorage, FsyncPolicy, MemStorage, SiteStore};

/// Operations a site can perform against its store.
#[derive(Debug, Clone)]
enum Op {
    Set { item: u64, value: i64 },
    Stage { txn: u64, item: u64, value: i64 },
    InstallInDoubt { txn: u64 },
    Decide { txn: u64, completed: bool },
    NoteSent { txn: u64, site: u32 },
    RecordDecision { txn: u64, completed: bool },
    BumpEpoch,
    Compact,
    PcVote { txn: u64, part: u32, prepared: bool },
    PcPromise { txn: u64, ballot: u64 },
    PcAccept { txn: u64, ballot: u64, completed: bool },
    PcForget { txn: u64 },
}

const ITEMS: u64 = 4;
const TXNS: u64 = 6;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ITEMS, -50i64..50).prop_map(|(item, value)| Op::Set { item, value }),
        (0..TXNS, 0..ITEMS, -50i64..50).prop_map(|(txn, item, value)| Op::Stage {
            txn,
            item,
            value
        }),
        (0..TXNS).prop_map(|txn| Op::InstallInDoubt { txn }),
        (0..TXNS, any::<bool>()).prop_map(|(txn, completed)| Op::Decide { txn, completed }),
        (0..TXNS, 0..5u32).prop_map(|(txn, site)| Op::NoteSent { txn, site }),
        (0..TXNS, any::<bool>()).prop_map(|(txn, completed)| Op::RecordDecision { txn, completed }),
        Just(Op::BumpEpoch),
        Just(Op::Compact),
        (0..TXNS, 0..3u32, any::<bool>()).prop_map(|(txn, part, prepared)| Op::PcVote {
            txn,
            part,
            prepared
        }),
        // Ballot 0 belongs to the participants and is never promised.
        (0..TXNS, 1..4u64).prop_map(|(txn, ballot)| Op::PcPromise { txn, ballot }),
        (0..TXNS, 0..4u64, any::<bool>()).prop_map(|(txn, ballot, completed)| Op::PcAccept {
            txn,
            ballot,
            completed
        }),
        (0..TXNS).prop_map(|txn| Op::PcForget { txn }),
    ]
}

/// Applies an op; staging is only legal for not-currently-staged txns whose
/// items exist, so the driver filters as a real site would.
///
/// Acceptor ops run in protocol order: only while the transaction has no
/// decision, and a decision is followed by `pc_forget`, as a Paxos Commit
/// site's is (a recovery prunes a decided transaction's acceptor state
/// anyway). A forget may also come before any decision: the store does not
/// check that rule, and only there is the forget's own record what keeps it
/// across a crash.
fn apply(store: &mut SiteStore, op: &Op) {
    let undecided = |store: &SiteStore, txn: u64| store.decision_of(TxnId(txn)).is_none();
    match op {
        Op::Set { item, value } => {
            store.set_entry(ItemId(*item), Entry::Simple(Value::Int(*value)));
        }
        Op::Stage { txn, item, value } => {
            if store.pending(TxnId(*txn)).is_none() && store.contains(ItemId(*item)) {
                store.stage(
                    TxnId(*txn),
                    0,
                    vec![(ItemId(*item), Entry::Simple(Value::Int(*value)))],
                );
            }
        }
        Op::InstallInDoubt { txn } => {
            store.install_in_doubt(TxnId(*txn));
        }
        Op::Decide { txn, completed } => {
            store.apply_decision(TxnId(*txn), *completed);
        }
        Op::NoteSent { txn, site } => store.note_sent(TxnId(*txn), *site),
        Op::RecordDecision { txn, completed } => {
            if undecided(store, *txn) {
                store.record_decision(TxnId(*txn), *completed);
                store.pc_forget(TxnId(*txn));
            }
        }
        Op::BumpEpoch => {
            store.bump_epoch();
        }
        Op::Compact => store.compact(),
        Op::PcVote { txn, part, prepared } if undecided(store, *txn) => {
            store.pc_record_vote(TxnId(*txn), *part, (0..=*part).collect(), *prepared);
        }
        Op::PcPromise { txn, ballot } if undecided(store, *txn) => {
            store.pc_promise(TxnId(*txn), *ballot);
        }
        Op::PcAccept { txn, ballot, completed } if undecided(store, *txn) => {
            store.pc_accept(TxnId(*txn), *ballot, *completed);
        }
        Op::PcForget { txn } if undecided(store, *txn) => store.pc_forget(TxnId(*txn)),
        Op::PcVote { .. } | Op::PcPromise { .. } | Op::PcAccept { .. } | Op::PcForget { .. } => {}
    }
}

/// The observable state of a store, for equality checks.
fn observe(store: &SiteStore) -> impl PartialEq + std::fmt::Debug {
    (
        store
            .iter_items()
            .map(|(i, e)| (i, e.clone()))
            .collect::<Vec<_>>(),
        store.pending_txns(),
        store.tracked_txns(),
        store
            .tracked_txns()
            .iter()
            .map(|&t| store.dep_entry(t).cloned())
            .collect::<Vec<_>>(),
        (0..TXNS)
            .map(|t| store.decision_of(TxnId(t)))
            .collect::<Vec<_>>(),
        store.epoch(),
        store.poly_count(),
        store.pc_txns(),
        store
            .pc_txns()
            .iter()
            .map(|&t| store.pc_state(t).cloned())
            .collect::<Vec<_>>(),
    )
}

fn seeded_store() -> SiteStore {
    let mut store = SiteStore::new();
    for item in 0..ITEMS {
        store.seed_item(ItemId(item), Value::Int(item as i64));
    }
    store
}

/// Replays of the shrunk inputs recorded in
/// `prop_store.proptest-regressions`. The vendored proptest shim does not
/// read that file, so the historical failure cases are reconstructed here as
/// plain tests — they run in CI regardless of `PROPTEST_CASES`.
mod regressions {
    use super::*;

    /// Runs one op sequence through the replay and compaction invariants the
    /// property suite checks.
    fn replay_and_compact(ops: &[Op]) {
        let mut store = seeded_store();
        for op in ops {
            apply(&mut store, op);
        }
        let before = observe(&store);
        store.crash_and_recover();
        assert_eq!(&before, &observe(&store), "replay must reproduce state");
        store.crash_and_recover();
        assert_eq!(&before, &observe(&store), "replay must be idempotent");
        let mut compacted = store.clone();
        compacted.compact();
        assert_eq!(&before, &observe(&compacted), "compaction must be invisible");
        compacted.crash_and_recover();
        assert_eq!(&before, &observe(&compacted), "compacted log must replay");
    }

    /// Shrunk input: ops = [Stage{txn:1, item:1, value:2},
    /// InstallInDoubt{txn:1}, Set{item:1, value:0}] — a direct overwrite of
    /// an item holding an in-doubt polyvalue.
    #[test]
    fn overwrite_of_in_doubt_item() {
        replay_and_compact(&[
            Op::Stage {
                txn: 1,
                item: 1,
                value: 2,
            },
            Op::InstallInDoubt { txn: 1 },
            Op::Set { item: 1, value: 0 },
        ]);
    }

    /// Shrunk input: ops = [Stage{txn:5, item:1, value:0},
    /// InstallInDoubt{txn:5}, Set{item:1, value:0}, Compact] — the same
    /// overwrite followed by a compaction of the still-tracked transaction.
    #[test]
    fn compaction_with_tracked_overwritten_txn() {
        replay_and_compact(&[
            Op::Stage {
                txn: 5,
                item: 1,
                value: 0,
            },
            Op::InstallInDoubt { txn: 5 },
            Op::Set { item: 1, value: 0 },
            Op::Compact,
        ]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Crash-and-replay at the end of any op sequence is a no-op on
    /// observable state.
    #[test]
    fn replay_reproduces_state(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let mut store = seeded_store();
        for op in &ops {
            apply(&mut store, op);
        }
        let before = observe(&store);
        store.crash_and_recover();
        prop_assert_eq!(&before, &observe(&store));
        // And replay is idempotent.
        store.crash_and_recover();
        prop_assert_eq!(&before, &observe(&store));
    }

    /// Crashing after every single prefix also reproduces that prefix's
    /// state (the WAL never lags the materialised state).
    #[test]
    fn replay_at_every_prefix(ops in prop::collection::vec(op_strategy(), 0..16)) {
        for cut in 0..=ops.len() {
            let mut store = seeded_store();
            for op in &ops[..cut] {
                apply(&mut store, op);
            }
            let before = observe(&store);
            store.crash_and_recover();
            prop_assert_eq!(before, observe(&store), "prefix {}", cut);
        }
    }

    /// The binary codec round-trips any reachable store exactly.
    #[test]
    fn codec_round_trips(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let mut store = seeded_store();
        for op in &ops {
            apply(&mut store, op);
        }
        let image = store.export_wal().expect("the image reads");
        let decoded = decode_wal(&image).expect("intact image decodes");
        // Re-encoding is byte-identical (encoding is deterministic).
        prop_assert_eq!(&encode_wal(&decoded), &image);
        let restored = SiteStore::open(Box::new(MemStorage::from_image(image)));
        prop_assert_eq!(observe(&store), observe(&restored));
    }

    /// Truncating the image anywhere never panics, and the image a store
    /// recovers from it holds a prefix of the original records and nothing
    /// else: the torn tail is cut off the backend.
    #[test]
    fn torn_images_recover_a_prefix(
        ops in prop::collection::vec(op_strategy(), 0..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut store = seeded_store();
        for op in &ops {
            apply(&mut store, op);
        }
        let image = store.export_wal().expect("the image reads");
        let cut = ((image.len() as f64) * cut_frac) as usize;
        let mut partial = SiteStore::open(Box::new(MemStorage::from_image(image[..cut].to_vec())));
        let recovered = partial.export_wal().expect("the image reads");
        let recovered = decode_wal(&recovered).expect("the recovered image is clean");
        let full = decode_wal(&image).expect("intact image decodes");
        prop_assert!(recovered.len() <= full.len());
        for (got, want) in recovered.iter().zip(full.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    /// Arbitrarily truncated AND bit-flipped images never panic the decoder
    /// and always yield a valid prefix: the consumed bytes re-decode
    /// strictly, and importing the corrupt image into a store is safe.
    #[test]
    fn corrupted_images_never_panic(
        ops in prop::collection::vec(op_strategy(), 0..20),
        cut_frac in 0.0f64..1.0,
        flips in prop::collection::vec((any::<usize>(), 0u32..8), 0..4),
    ) {
        let mut store = seeded_store();
        for op in &ops {
            apply(&mut store, op);
        }
        let image = store.export_wal().expect("the image reads");
        let cut = ((image.len() as f64) * cut_frac) as usize;
        let mut bytes = image[..cut].to_vec();
        for &(pos, bit) in &flips {
            if !bytes.is_empty() {
                let i = pos % bytes.len();
                bytes[i] ^= 1 << bit;
            }
        }
        let (wal, consumed, _err) = decode_wal_prefix(&bytes);
        prop_assert!(consumed <= bytes.len());
        // The consumed prefix is itself a fully valid image.
        let strict = decode_wal(&bytes[..consumed]);
        prop_assert!(strict.is_ok());
        prop_assert_eq!(strict.unwrap().len(), wal.len());
        // And a store rebuilt from the corrupt image never panics.
        let recovered = SiteStore::open(Box::new(MemStorage::from_image(bytes)));
        prop_assert_eq!(recovered.log_len(), wal.len());
    }

    /// Any op sequence over `FaultyStorage` — crashes with torn tails and
    /// bit flips interleaved — never panics, and every recovery leaves a
    /// strictly-decodable image behind.
    #[test]
    fn faulty_storage_ops_never_panic(
        ops in prop::collection::vec(op_strategy(), 0..24),
        seed in any::<u64>(),
    ) {
        let storage = FaultyStorage::with_policy(
            FaultConfig { seed, torn_tail_prob: 0.5, bit_flip_prob: 0.25 },
            FsyncPolicy::PerDecision,
        );
        let mut store = SiteStore::with_storage(Box::new(storage));
        for item in 0..ITEMS {
            store.seed_item(ItemId(item), Value::Int(item as i64));
        }
        for (i, op) in ops.iter().enumerate() {
            apply(&mut store, op);
            if i % 5 == 4 {
                store.crash_and_recover();
            }
        }
        store.crash_and_recover();
        let image = store.export_wal().expect("the image reads");
        prop_assert!(decode_wal(&image).is_ok());
    }

    /// Compaction preserves observable state and shrinks (or keeps) the log.
    #[test]
    fn compaction_preserves_state(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let mut store = seeded_store();
        for op in &ops {
            apply(&mut store, op);
        }
        let before = observe(&store);
        let mut compacted = store.clone();
        compacted.compact();
        prop_assert_eq!(&before, &observe(&compacted));
        compacted.crash_and_recover();
        prop_assert_eq!(&before, &observe(&compacted));
    }

    /// The same sequences with every `Compact` left to the checkpoint rule
    /// (floor 1): it runs exactly when the appends since the last checkpoint
    /// reach what that checkpoint wrote, and whether it ran is invisible.
    #[test]
    fn checkpoint_rule_is_invisible(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let mut plain = seeded_store();
        let mut ruled = seeded_store().with_compact_threshold(1);
        let (mut last_checkpoint, mut appended_at) = (0, 0);
        for op in &ops {
            apply(&mut plain, op);
            if !matches!(op, Op::Compact) {
                apply(&mut ruled, op);
                continue;
            }
            let appended = ruled.append_seq() - appended_at;
            let ran = ruled.maybe_compact();
            prop_assert_eq!(ran, appended >= last_checkpoint.max(1));
            if ran {
                last_checkpoint = ruled.log_len() as u64;
                appended_at = ruled.append_seq();
            }
            prop_assert_eq!(observe(&plain), observe(&ruled));
        }
        ruled.crash_and_recover();
        prop_assert_eq!(observe(&plain), observe(&ruled));
    }
}
