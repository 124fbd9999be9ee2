//! Traced measurements of single layers that the pump does not reach on its
//! own: the loopback floor, the lock table, the record codec, the LSM
//! keyspace, recovery, and the condition algebra. Each times calls into a
//! public function over inputs taken from the workload being traced.

use crate::workload::{Transfer, BALANCE, READ_BATCH};
use pv_core::{Condition, Entry, ItemId, TxnId, Value};
use pv_protocol::LockTable;
use pv_store::{codec, DiskWal, FsyncPolicy, Keyspace, KeyspaceConfig, Record, SiteStore, Wal};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Median round trip of a 64-byte ping-pong over loopback TCP with
/// `TCP_NODELAY`, between two threads of this process — the floor under
/// every hop of a commit. Microseconds.
pub fn loopback_rtt_us(rounds: usize) -> Result<f64, String> {
    let err = |e: std::io::Error| format!("loopback ping-pong: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        while peer.read_exact(&mut buf).is_ok() {
            peer.write_all(&buf)?;
        }
        Ok(())
    });
    let mut rtts = Vec::with_capacity(rounds);
    {
        let mut stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        let mut buf = [7u8; 64];
        for i in 0..rounds + rounds / 10 {
            let t0 = Instant::now();
            stream.write_all(&buf).map_err(err)?;
            stream.read_exact(&mut buf).map_err(err)?;
            if i >= rounds / 10 {
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    } // closing the stream ends the echo thread's loop
    echo.join().expect("echo thread panicked").map_err(err)?;
    Ok(crate::stats::median(&rtts))
}

/// What a participant does to the lock table per transfer: two exclusive
/// acquisitions and one release. Nanoseconds per cycle.
pub fn lock_cycle_ns(transfers: &[Transfer]) -> f64 {
    let mut table = LockTable::new();
    let t0 = Instant::now();
    for (i, t) in transfers.iter().enumerate() {
        let txn = TxnId(i as u64 + 1);
        black_box(table.try_write(txn, ItemId(t.from)));
        black_box(table.try_write(txn, ItemId(t.to)));
        black_box(table.release_all(txn));
    }
    t0.elapsed().as_nanos() as f64 / transfers.len().max(1) as f64
}

/// `(encode, decode)` nanoseconds per WAL record, over records the pump's
/// stores actually logged: `codec::encode_wal` (a loop of `encode_record`)
/// and `codec::decode_wal_prefix` (the recovery path's decoder).
pub fn codec_ns(records: &[Record]) -> (f64, f64) {
    if records.is_empty() {
        return (0.0, 0.0);
    }
    let wal = Wal::from_records(records.to_vec());
    let n = records.len() as f64;
    let t0 = Instant::now();
    let image = black_box(codec::encode_wal(black_box(&wal)));
    let encode = t0.elapsed().as_nanos() as f64 / n;
    let t1 = Instant::now();
    let (decoded, used, error) = black_box(codec::decode_wal_prefix(black_box(&image)));
    let decode = t1.elapsed().as_nanos() as f64 / n;
    assert!(
        error.is_none() && used == image.len() && decoded.len() == records.len(),
        "the codec must round-trip its own output"
    );
    (encode, decode)
}

/// Per-call costs of the LSM keyspace under the workload's write stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct LsmCosts {
    pub put_ns: f64,
    pub get_at_ns: f64,
    pub snapshot_read_us: f64,
}

/// Replays the stream's writes into a `Keyspace` at the workload's
/// thresholds (timing `put`), reads them back at a pinned snapshot (timing
/// `get_at`), and serves `READ_BATCH`-item snapshot reads from a `SiteStore`
/// that took the same writes.
pub fn lsm_costs(accounts: u64, thresholds: (usize, usize), transfers: &[Transfer]) -> LsmCosts {
    let mut keyspace = Keyspace::new(KeyspaceConfig::default());
    keyspace.set_thresholds(thresholds.0, thresholds.1);
    let mut store = SiteStore::new().with_lsm_thresholds(thresholds.0, thresholds.1);
    for a in 0..accounts {
        keyspace.put(ItemId(a), Entry::Simple(Value::Int(BALANCE)));
        store.seed_item(ItemId(a), Value::Int(BALANCE));
    }
    let writes: Vec<(ItemId, Entry<Value>)> = transfers
        .iter()
        .flat_map(|t| {
            [
                (
                    ItemId(t.from),
                    Entry::Simple(Value::Int(BALANCE - t.amount)),
                ),
                (ItemId(t.to), Entry::Simple(Value::Int(BALANCE + t.amount))),
            ]
        })
        .collect();
    if writes.is_empty() {
        return LsmCosts::default();
    }
    for (item, entry) in &writes {
        store.set_entry(*item, entry.clone());
    }
    let t0 = Instant::now();
    for (item, entry) in &writes {
        black_box(keyspace.put(*item, entry.clone()));
    }
    let put_ns = t0.elapsed().as_nanos() as f64 / writes.len() as f64;

    let snap = keyspace.snapshot_acquire();
    let t1 = Instant::now();
    for (item, _) in &writes {
        black_box(keyspace.get_at(*item, snap));
    }
    let get_at_ns = t1.elapsed().as_nanos() as f64 / writes.len() as f64;
    keyspace.snapshot_release(snap);

    let batches: Vec<Vec<ItemId>> = writes
        .chunks(READ_BATCH)
        .map(|c| c.iter().map(|(item, _)| *item).collect())
        .collect();
    let t2 = Instant::now();
    for batch in &batches {
        black_box(store.snapshot_read(batch));
    }
    let snapshot_read_us = t2.elapsed().as_secs_f64() * 1e6 / batches.len() as f64;
    LsmCosts {
        put_ns,
        get_at_ns,
        snapshot_read_us,
    }
}

/// Reopens a site's WAL directory the way a restarting node does —
/// `SiteStore::open(DiskWal::open(..))` — and returns `(milliseconds,
/// records replayed)`.
pub fn recover(site_dir: &Path) -> Result<(f64, u64), String> {
    let t0 = Instant::now();
    let wal = DiskWal::open(site_dir, FsyncPolicy::PerDecision)
        .map_err(|e| format!("reopen {}: {e}", site_dir.display()))?;
    let mut store = SiteStore::open(Box::new(wal));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((ms, store.take_stats().recovery_replay_records))
}

/// `(Condition::assign, Entry::assemble)` nanoseconds per call, over the
/// polyvalued entries harvested from the simulated run: every condition is
/// assigned each outcome of each transaction it depends on, and every
/// entry is reassembled from its own alternatives.
pub fn poly_algebra_ns(harvested: &[Entry<Value>]) -> (f64, f64) {
    if harvested.is_empty() {
        return (0.0, 0.0);
    }
    let alternatives: Vec<Vec<(Value, Condition)>> =
        harvested.iter().map(Entry::alternatives).collect();
    let mut assigns = 0u64;
    let t0 = Instant::now();
    for (entry, alts) in harvested.iter().zip(&alternatives) {
        for txn in entry.deps() {
            for (_, cond) in alts {
                black_box(cond.assign(txn, true));
                black_box(cond.assign(txn, false));
                assigns += 2;
            }
        }
    }
    let assign_ns = t0.elapsed().as_nanos() as f64 / assigns.max(1) as f64;

    let inputs: Vec<Vec<(Entry<Value>, Condition)>> = alternatives
        .iter()
        .map(|alts| {
            alts.iter()
                .map(|(v, c)| (Entry::Simple(v.clone()), c.clone()))
                .collect()
        })
        .collect();
    let n = inputs.len();
    let t1 = Instant::now();
    for alts in inputs {
        black_box(Entry::assemble(alts).expect("an entry's own alternatives reassemble"));
    }
    let assemble_ns = t1.elapsed().as_nanos() as f64 / n.max(1) as f64;
    (assign_ns, assemble_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, Workload};

    fn transfers(n: usize) -> Vec<Transfer> {
        let Some(Workload::Net(spec)) = by_name("snapshot_mix") else {
            panic!("net workload")
        };
        spec.transfers(5, 0).take(n).collect()
    }

    #[test]
    fn ping_pong_measures_a_positive_round_trip() {
        let rtt = loopback_rtt_us(200).unwrap();
        assert!(rtt > 0.0 && rtt < 100_000.0, "{rtt} us");
    }

    #[test]
    fn single_layer_timings_are_positive_on_real_inputs() {
        let stream = transfers(500);
        assert!(lock_cycle_ns(&stream) > 0.0);
        let costs = lsm_costs(64, (64, 4), &stream);
        assert!(costs.put_ns > 0.0 && costs.get_at_ns > 0.0 && costs.snapshot_read_us > 0.0);
        let records: Vec<Record> = stream
            .iter()
            .map(|t| Record::SetItem {
                item: ItemId(t.from),
                entry: Entry::Simple(Value::Int(t.amount)),
            })
            .collect();
        let (encode, decode) = codec_ns(&records);
        assert!(encode > 0.0 && decode > 0.0);
        assert_eq!(codec_ns(&[]), (0.0, 0.0));
    }

    #[test]
    fn recovery_replays_what_a_disk_store_logged() {
        let dir = crate::scratch::TempDir::new("micro-unit").unwrap();
        let site = dir.path().join("site-0");
        {
            let wal = DiskWal::open(&site, FsyncPolicy::PerDecision).unwrap();
            let mut store = SiteStore::open(Box::new(wal));
            for a in 0..20 {
                store.seed_item(ItemId(a), Value::Int(1));
            }
            store.sync();
        }
        let (ms, records) = recover(&site).unwrap();
        assert!(ms > 0.0);
        assert_eq!(records, 20);
    }

    #[test]
    fn algebra_timings_cover_in_doubt_entries() {
        let poly = Entry::in_doubt(
            Entry::Simple(Value::Int(90)),
            Entry::Simple(Value::Int(100)),
            TxnId(7),
        );
        let (assign, assemble) = poly_algebra_ns(&[poly.clone(), poly]);
        assert!(assign > 0.0 && assemble > 0.0);
        assert_eq!(poly_algebra_ns(&[]), (0.0, 0.0));
    }
}
