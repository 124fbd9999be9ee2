//! Property tests: the store's recovery contract.
//!
//! Whatever sequence of operations a site performs, (1) a crash-and-replay
//! reproduces exactly the same materialised state, (2) the binary codec
//! round-trips the log bit-exactly, and (3) compaction never changes
//! observable state.

use proptest::prelude::*;
use pv_core::{Entry, ItemId, TxnId, Value};
use pv_store::{FaultConfig, FaultyStorage, FsyncPolicy, SiteStore};

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
    ]
}

/// Applies an op; staging is only legal for not-currently-staged txns whose
/// items exist, so the driver filters as a real site would.
fn apply(store: &mut SiteStore, op: &Op) {
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
            if store.decision_of(TxnId(*txn)).is_none() {
                store.record_decision(TxnId(*txn), *completed);
            }
        }
        Op::BumpEpoch => {
            store.bump_epoch();
        }
        Op::Compact => store.compact(),
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
            let mut direct = seeded_store();
            for op in &ops[..cut] {
                apply(&mut direct, op);
            }
            let mut replayed = direct.clone();
            replayed.crash_and_recover();
            prop_assert_eq!(observe(&direct), observe(&replayed), "prefix {}", cut);
        }
    }

    /// The binary codec round-trips any reachable store exactly.
    #[test]
    fn codec_round_trips(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let mut store = seeded_store();
        for op in &ops {
            apply(&mut store, op);
        }
        let image = store.export_wal();
        let restored = SiteStore::import_wal(&image).expect("intact image decodes");
        prop_assert_eq!(observe(&store), observe(&restored));
        // A second export is byte-identical (encoding is deterministic).
        prop_assert_eq!(image, restored.export_wal());
    }

    /// Truncating the image anywhere never panics and yields a prefix of
    /// the original records.
    #[test]
    fn torn_images_recover_a_prefix(
        ops in prop::collection::vec(op_strategy(), 0..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut store = seeded_store();
        for op in &ops {
            apply(&mut store, op);
        }
        let image = store.export_wal();
        let cut = ((image.len() as f64) * cut_frac) as usize;
        let (partial, _err) = SiteStore::import_wal_lossy(&image[..cut]);
        prop_assert!(partial.wal().len() <= store.wal().len());
        for (got, want) in partial.wal().iter().zip(store.wal().iter()) {
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
        let image = store.export_wal();
        let cut = ((image.len() as f64) * cut_frac) as usize;
        let mut bytes = image[..cut].to_vec();
        for &(pos, bit) in &flips {
            if !bytes.is_empty() {
                let i = pos % bytes.len();
                bytes[i] ^= 1 << bit;
            }
        }
        let (wal, consumed, _err) = pv_store::codec::decode_wal_prefix(&bytes);
        prop_assert!(consumed <= bytes.len());
        // The consumed prefix is itself a fully valid image.
        let strict = pv_store::codec::decode_wal(&bytes[..consumed]);
        prop_assert!(strict.is_ok());
        prop_assert_eq!(strict.unwrap().len(), wal.len());
        // And a store rebuilt from the corrupt image never panics.
        let (recovered, _) = SiteStore::import_wal_lossy(&bytes);
        prop_assert_eq!(recovered.wal().len(), wal.len());
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
            FsyncPolicy::EveryN(4),
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
        prop_assert!(pv_store::codec::decode_wal(&store.export_wal()).is_ok());
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
                last_checkpoint = ruled.wal().len() as u64;
                appended_at = ruled.append_seq();
            }
            prop_assert_eq!(observe(&plain), observe(&ruled));
        }
        ruled.crash_and_recover();
        prop_assert_eq!(observe(&plain), observe(&ruled));
    }
}
