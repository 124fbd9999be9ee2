//! MVCC property tests: any interleaving of versioned writes, held-open
//! snapshots, memtable flushes, size-tiered compactions, and
//! crash-recoveries yields reads consistent with the serial order of the
//! writes.
//!
//! The driver is single-threaded, so the serial order is the program
//! order; the property under test is that every snapshot observes exactly
//! the prefix of writes that preceded its acquisition — no more, no less —
//! regardless of how the keyspace reorganised itself (flush, compaction,
//! GC) or crashed and replayed in between. A snapshot that stays pinned
//! across compactions must keep resolving to the same values: the GC
//! horizon may never overtake a live pin.

use proptest::prelude::*;
use pv_core::{Entry, ItemId, Value};
use pv_store::{Keyspace, KeyspaceConfig, SeqNo, SiteStore};
use std::collections::BTreeMap;

const ITEMS: u64 = 5;

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Install a new version (tiny thresholds make this flush/compact
    /// frequently as a side effect).
    Write { item: u64, value: i64 },
    /// Pin a snapshot and remember the model state it should observe.
    Acquire,
    /// Re-read every item through the oldest still-held snapshot and
    /// compare against the state remembered at its acquisition.
    ReadOldest,
    /// Release the oldest held snapshot (advances the GC horizon).
    ReleaseOldest,
    /// Crash and recover the store (WAL replay rebuilds the keyspace).
    /// Only meaningful in the `SiteStore` property; a bare keyspace is
    /// derived state with no log of its own, so there it is a no-op.
    Crash,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // The vendored proptest has no weighted oneof; repeating the write arm
    // biases interleavings toward writes so flushes and compactions fire.
    prop_oneof![
        (0..ITEMS, -99i64..100).prop_map(|(item, value)| Step::Write { item, value }),
        (0..ITEMS, 100i64..299).prop_map(|(item, value)| Step::Write { item, value }),
        Just(Step::Acquire),
        Just(Step::ReadOldest),
        Just(Step::ReleaseOldest),
        Just(Step::Crash),
    ]
}

/// Tiny thresholds: flush every 2 versions per partition, compact at 2
/// runs — reorganisation happens constantly under the interleavings.
fn tiny_keyspace() -> Keyspace {
    Keyspace::new(KeyspaceConfig {
        partitions: 2,
        memtable_max_entries: 2,
        run_threshold: 2,
    })
}

/// Checks one held snapshot against the model state captured when it was
/// acquired: every item written before the pin reads back its value as of
/// the pin; items first written after the pin are invisible through it.
fn check_snapshot(ks: &Keyspace, snap: SeqNo, expected: &BTreeMap<u64, i64>) {
    for item in 0..ITEMS {
        let got = ks
            .get_at(ItemId(item), snap)
            .and_then(|e| e.as_simple())
            .and_then(|v| v.as_int());
        assert_eq!(
            got,
            expected.get(&item).copied(),
            "item {item} at snapshot {snap} diverged from serial order"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure keyspace MVCC: snapshots held open across any interleaving of
    /// writes, flushes, and compactions keep observing the exact write
    /// prefix that preceded them.
    #[test]
    fn held_snapshots_observe_their_write_prefix(
        steps in prop::collection::vec(step_strategy(), 0..60),
    ) {
        let mut ks = tiny_keyspace();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        // Held pins, oldest first: (snapshot seq, model at acquisition).
        let mut held: Vec<(SeqNo, BTreeMap<u64, i64>)> = Vec::new();
        for step in &steps {
            match step {
                Step::Write { item, value } => {
                    ks.put(ItemId(*item), Entry::Simple(Value::Int(*value)));
                    model.insert(*item, *value);
                }
                Step::Acquire => {
                    let snap = ks.snapshot_acquire();
                    held.push((snap, model.clone()));
                }
                Step::ReadOldest | Step::Crash => {
                    // A bare keyspace has no WAL to crash-replay; both
                    // steps validate the oldest pin here.
                    if let Some((snap, expected)) = held.first() {
                        check_snapshot(&ks, *snap, expected);
                    }
                }
                Step::ReleaseOldest => {
                    if !held.is_empty() {
                        let (snap, _) = held.remove(0);
                        ks.snapshot_release(snap);
                    }
                }
            }
        }
        // Every pin must still resolve correctly at the end, after all the
        // reorganisation the trailing writes triggered.
        for (snap, expected) in &held {
            check_snapshot(&ks, *snap, expected);
        }
        // And the latest view is the full serial state.
        for (item, value) in &model {
            prop_assert_eq!(
                ks.latest(ItemId(*item)).and_then(|e| e.as_simple()).and_then(|v| v.as_int()),
                Some(*value)
            );
        }
    }

    /// The newest-version map is the read path and history sits behind it:
    /// `latest` is the last write, a read at the current seq agrees with
    /// it, `iter_latest` is strictly item-ordered, and once every pin is
    /// released a full compaction leaves exactly one version per item.
    #[test]
    fn newest_version_map_agrees_with_history(
        steps in prop::collection::vec(step_strategy(), 0..80),
    ) {
        let mut ks = tiny_keyspace();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        let mut held: Vec<SeqNo> = Vec::new();
        for step in &steps {
            match step {
                Step::Write { item, value } => {
                    ks.put(ItemId(*item), Entry::Simple(Value::Int(*value)));
                    model.insert(*item, *value);
                }
                Step::Acquire => held.push(ks.snapshot_acquire()),
                Step::ReleaseOldest => {
                    if !held.is_empty() {
                        ks.snapshot_release(held.remove(0));
                    }
                }
                Step::ReadOldest | Step::Crash => {}
            }
            let now = ks.current_seq();
            for (item, value) in &model {
                let latest = ks.latest(ItemId(*item));
                prop_assert_eq!(latest.and_then(|e| e.as_simple()).and_then(|v| v.as_int()), Some(*value));
                prop_assert_eq!(ks.get_at(ItemId(*item), now), latest);
            }
            let order: Vec<u64> = ks.iter_latest().map(|(i, _)| i.0).collect();
            prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "iter_latest out of order: {order:?}");
            prop_assert_eq!(order.len(), model.len());
        }
        for snap in held {
            ks.snapshot_release(snap);
        }
        ks.compact_all();
        prop_assert_eq!(ks.version_count(), ks.len());
    }

    /// Store-level MVCC with crashes: `snapshot_read` always returns the
    /// serial-order state, including immediately after a WAL replay
    /// rebuilt the keyspace from scratch.
    #[test]
    fn snapshot_reads_survive_crash_replay(
        steps in prop::collection::vec(step_strategy(), 0..40),
    ) {
        let mut store = SiteStore::new().with_lsm_thresholds(2, 2);
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        let mut last_snap = 0u64;
        for step in &steps {
            match step {
                Step::Write { item, value } => {
                    store.set_entry(ItemId(*item), Entry::Simple(Value::Int(*value)));
                    model.insert(*item, *value);
                }
                Step::Crash => {
                    store.crash_and_recover();
                    // Replay re-installs every surviving write; snapshot
                    // sequence numbers restart with the rebuilt keyspace.
                    last_snap = 0;
                }
                // The remaining steps all reduce to "read now" against a
                // store whose pins never outlive the call.
                Step::Acquire | Step::ReadOldest | Step::ReleaseOldest => {
                    let (snap, entries) = store.snapshot_read(&[]);
                    prop_assert!(
                        snap >= last_snap,
                        "snapshot seq regressed without a crash: {snap} < {last_snap}"
                    );
                    last_snap = snap;
                    let got: BTreeMap<u64, i64> = entries
                        .iter()
                        .filter_map(|(i, e)| {
                            e.as_simple().and_then(|v| v.as_int()).map(|n| (i.0, n))
                        })
                        .collect();
                    prop_assert_eq!(&got, &model, "snapshot read diverged from serial order");
                }
            }
        }
        // Terminal check: one last full-scan read equals the model.
        let (_, entries) = store.snapshot_read(&[]);
        let got: BTreeMap<u64, i64> = entries
            .iter()
            .filter_map(|(i, e)| e.as_simple().and_then(|v| v.as_int()).map(|n| (i.0, n)))
            .collect();
        prop_assert_eq!(got, model);
    }
}
