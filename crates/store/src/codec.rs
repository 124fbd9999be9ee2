//! Binary serialisation of the write-ahead log.
//!
//! The simulated stable storage keeps records as structured values; this
//! codec is the on-disk format a real deployment would use. Each record is
//! framed as
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [checksum: u32 LE over payload]
//! ```
//!
//! so a torn write (power loss mid-append) truncates cleanly: decoding stops
//! at the first incomplete or corrupt frame and returns everything before
//! it, exactly the recovery contract of a production WAL.

use crate::wal::{Record, Wal};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pv_core::cond::{Condition, Literal, Product};
use pv_core::{Entry, ItemId, TxnId, Value};
use std::fmt;

/// Errors detected while decoding a WAL image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The data ended inside a frame (torn write).
    Truncated,
    /// A frame's checksum did not match its payload.
    BadChecksum,
    /// An unknown record or value tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A decoded polyvalue violated the §3 invariant.
    BadPolyvalue,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "log image truncated mid-frame"),
            CodecError::BadChecksum => write!(f, "frame checksum mismatch"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::BadPolyvalue => write!(f, "decoded polyvalue violates invariant"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a, 32-bit: fast, dependency-free integrity check for frames. (A
/// production log would use CRC32C; the recovery semantics are identical.)
///
/// Public because the network transport (`pv-net`) frames its wire messages
/// with the same checksum discipline as the WAL — one integrity story for
/// bytes at rest and bytes in flight.
pub fn checksum(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in data {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

// ---- value / condition / entry encoding -----------------------------------
//
// These primitives are public: they are the single binary vocabulary for
// values, conditions, and entries, shared between the WAL framing here and
// the network wire format in `pv-net::wire`. Both sides framing differently
// (the WAL has no header; wire frames carry magic/version/kind) but agreeing
// on payload encoding is what lets a staged write read from disk and a
// `Prepare` read from a socket decode through the same code path.

/// Encodes a [`Value`] (tagged: int/bool/str).
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(n) => {
            buf.put_u8(0);
            buf.put_i64_le(*n);
        }
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Str(s) => {
            buf.put_u8(2);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

/// Decodes a [`Value`] encoded by [`put_value`].
pub fn get_value(buf: &mut &[u8]) -> Result<Value, CodecError> {
    let tag = get_u8(buf)?;
    match tag {
        0 => Ok(Value::Int(get_i64(buf)?)),
        1 => Ok(Value::Bool(get_u8(buf)? != 0)),
        2 => {
            let len = get_u32(buf)? as usize;
            if buf.len() < len {
                return Err(CodecError::Truncated);
            }
            let (s, rest) = buf.split_at(len);
            *buf = rest;
            String::from_utf8(s.to_vec())
                .map(Value::Str)
                .map_err(|_| CodecError::BadUtf8)
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encodes a DNF [`Condition`] (products of transaction-outcome literals).
pub fn put_condition(buf: &mut BytesMut, c: &Condition) {
    buf.put_u32_le(c.products().len() as u32);
    for p in c.products() {
        buf.put_u32_le(p.len() as u32);
        for lit in p.literals() {
            buf.put_u64_le(lit.txn().raw());
            buf.put_u8(u8::from(lit.is_positive()));
        }
    }
}

/// Decodes a [`Condition`] encoded by [`put_condition`].
pub fn get_condition(buf: &mut &[u8]) -> Result<Condition, CodecError> {
    let n_products = get_u32(buf)? as usize;
    let mut products = Vec::with_capacity(n_products);
    for _ in 0..n_products {
        let n_lits = get_u32(buf)? as usize;
        let mut lits = Vec::with_capacity(n_lits);
        for _ in 0..n_lits {
            let txn = TxnId(get_u64(buf)?);
            let positive = get_u8(buf)? != 0;
            lits.push(if positive {
                Literal::positive(txn)
            } else {
                Literal::negative(txn)
            });
        }
        let product = Product::from_literals(lits).ok_or(CodecError::BadPolyvalue)?;
        products.push(product);
    }
    Ok(Condition::from_products(products))
}

/// Encodes an [`Entry`] — a simple value or a polyvalue with its conditions.
pub fn put_entry(buf: &mut BytesMut, e: &Entry<Value>) {
    match e {
        Entry::Simple(v) => {
            buf.put_u8(0);
            put_value(buf, v);
        }
        Entry::Poly(p) => {
            buf.put_u8(1);
            buf.put_u32_le(p.len() as u32);
            for (v, c) in p.pairs() {
                put_value(buf, v);
                put_condition(buf, c);
            }
        }
    }
}

/// Decodes an [`Entry`] encoded by [`put_entry`], re-checking the §3
/// polyvalue invariant via [`Entry::assemble`].
pub fn get_entry(buf: &mut &[u8]) -> Result<Entry<Value>, CodecError> {
    match get_u8(buf)? {
        0 => Ok(Entry::Simple(get_value(buf)?)),
        1 => {
            let n = get_u32(buf)? as usize;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let v = get_value(buf)?;
                let c = get_condition(buf)?;
                pairs.push((Entry::Simple(v), c));
            }
            // Assembling re-checks the §3 invariant, so a corrupted-but-
            // checksum-colliding image cannot smuggle in a bad polyvalue.
            Entry::assemble(pairs).map_err(|_| CodecError::BadPolyvalue)
        }
        t => Err(CodecError::BadTag(t)),
    }
}

// ---- primitive readers ------------------------------------------------------

/// Reads one byte, or [`CodecError::Truncated`].
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    if buf.is_empty() {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Reads a little-endian `u32`, or [`CodecError::Truncated`].
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    if buf.len() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `u64`, or [`CodecError::Truncated`].
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    if buf.len() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u64_le())
}

/// Reads a little-endian `i64`, or [`CodecError::Truncated`].
pub fn get_i64(buf: &mut &[u8]) -> Result<i64, CodecError> {
    if buf.len() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_i64_le())
}

// ---- record framing ---------------------------------------------------------

/// Encodes one record into its framed wire form.
pub fn encode_record(record: &Record, out: &mut BytesMut) {
    let mut payload = BytesMut::new();
    match record {
        Record::SetItem { item, entry } => {
            payload.put_u8(1);
            payload.put_u64_le(item.0);
            put_entry(&mut payload, entry);
        }
        Record::PendingPrepare {
            txn,
            coordinator,
            writes,
        } => {
            payload.put_u8(2);
            payload.put_u64_le(txn.raw());
            payload.put_u32_le(*coordinator);
            payload.put_u32_le(writes.len() as u32);
            for (item, entry) in writes {
                payload.put_u64_le(item.0);
                put_entry(&mut payload, entry);
            }
        }
        Record::PendingResolved { txn } => {
            payload.put_u8(3);
            payload.put_u64_le(txn.raw());
        }
        Record::DepNoted { txn, item } => {
            payload.put_u8(4);
            payload.put_u64_le(txn.raw());
            payload.put_u64_le(item.0);
        }
        Record::DepSent { txn, site } => {
            payload.put_u8(5);
            payload.put_u64_le(txn.raw());
            payload.put_u32_le(*site);
        }
        Record::DepForgotten { txn } => {
            payload.put_u8(6);
            payload.put_u64_le(txn.raw());
        }
        Record::Decision { txn, completed } => {
            payload.put_u8(7);
            payload.put_u64_le(txn.raw());
            payload.put_u8(u8::from(*completed));
        }
        Record::Epoch { epoch } => {
            payload.put_u8(8);
            payload.put_u32_le(*epoch);
        }
        Record::PaxosVote {
            txn,
            part,
            parts,
            prepared,
        } => {
            payload.put_u8(9);
            payload.put_u64_le(txn.raw());
            payload.put_u32_le(*part);
            payload.put_u32_le(parts.len() as u32);
            for p in parts {
                payload.put_u32_le(*p);
            }
            payload.put_u8(u8::from(*prepared));
        }
        Record::PaxosPromise { txn, ballot } => {
            payload.put_u8(10);
            payload.put_u64_le(txn.raw());
            payload.put_u64_le(*ballot);
        }
        Record::PaxosAccept {
            txn,
            ballot,
            completed,
        } => {
            payload.put_u8(11);
            payload.put_u64_le(txn.raw());
            payload.put_u64_le(*ballot);
            payload.put_u8(u8::from(*completed));
        }
        Record::PaxosForgotten { txn } => {
            payload.put_u8(12);
            payload.put_u64_le(txn.raw());
        }
    }
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(checksum(&payload));
    out.put_slice(&payload);
}

/// Decodes one framed record from the front of `data`; advances `data`.
fn decode_record(data: &mut &[u8]) -> Result<Record, CodecError> {
    let len = get_u32(data)? as usize;
    let sum = get_u32(data)?;
    if data.len() < len {
        return Err(CodecError::Truncated);
    }
    let (payload, rest) = data.split_at(len);
    if checksum(payload) != sum {
        return Err(CodecError::BadChecksum);
    }
    *data = rest;
    let mut p = payload;
    let record = match get_u8(&mut p)? {
        1 => Record::SetItem {
            item: ItemId(get_u64(&mut p)?),
            entry: get_entry(&mut p)?,
        },
        2 => {
            let txn = TxnId(get_u64(&mut p)?);
            let coordinator = get_u32(&mut p)?;
            let n = get_u32(&mut p)? as usize;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                let item = ItemId(get_u64(&mut p)?);
                writes.push((item, get_entry(&mut p)?));
            }
            Record::PendingPrepare {
                txn,
                coordinator,
                writes,
            }
        }
        3 => Record::PendingResolved {
            txn: TxnId(get_u64(&mut p)?),
        },
        4 => Record::DepNoted {
            txn: TxnId(get_u64(&mut p)?),
            item: ItemId(get_u64(&mut p)?),
        },
        5 => Record::DepSent {
            txn: TxnId(get_u64(&mut p)?),
            site: get_u32(&mut p)?,
        },
        6 => Record::DepForgotten {
            txn: TxnId(get_u64(&mut p)?),
        },
        7 => Record::Decision {
            txn: TxnId(get_u64(&mut p)?),
            completed: get_u8(&mut p)? != 0,
        },
        8 => Record::Epoch {
            epoch: get_u32(&mut p)?,
        },
        9 => {
            let txn = TxnId(get_u64(&mut p)?);
            let part = get_u32(&mut p)?;
            let n = get_u32(&mut p)? as usize;
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(get_u32(&mut p)?);
            }
            Record::PaxosVote {
                txn,
                part,
                parts,
                prepared: get_u8(&mut p)? != 0,
            }
        }
        10 => Record::PaxosPromise {
            txn: TxnId(get_u64(&mut p)?),
            ballot: get_u64(&mut p)?,
        },
        11 => Record::PaxosAccept {
            txn: TxnId(get_u64(&mut p)?),
            ballot: get_u64(&mut p)?,
            completed: get_u8(&mut p)? != 0,
        },
        12 => Record::PaxosForgotten {
            txn: TxnId(get_u64(&mut p)?),
        },
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(record)
}

/// Serialises a whole log.
pub fn encode_wal(wal: &Wal) -> Bytes {
    let mut out = BytesMut::new();
    for record in wal.iter() {
        encode_record(record, &mut out);
    }
    out.freeze()
}

/// Deserialises a log image, requiring every byte to parse.
pub fn decode_wal(mut data: &[u8]) -> Result<Wal, CodecError> {
    let mut records = Vec::new();
    while !data.is_empty() {
        records.push(decode_record(&mut data)?);
    }
    Ok(Wal::from_records(records))
}

/// Deserialises a possibly torn log image: returns every intact record and
/// the error that stopped decoding (if any). This is the crash-recovery
/// path — a torn tail is expected, not fatal.
pub fn decode_wal_lossy(data: &[u8]) -> (Wal, Option<CodecError>) {
    let (wal, _, error) = decode_wal_prefix(data);
    (wal, error)
}

/// Like [`decode_wal_lossy`], but also reports how many bytes the valid
/// prefix spans, so recovery can truncate stable storage at exactly the
/// first torn or corrupt frame.
pub fn decode_wal_prefix(data: &[u8]) -> (Wal, usize, Option<CodecError>) {
    let mut rest = data;
    let mut records = Vec::new();
    let mut error = None;
    while !rest.is_empty() {
        let before = rest;
        match decode_record(&mut rest) {
            Ok(r) => records.push(r),
            Err(e) => {
                error = Some(e);
                rest = before;
                break;
            }
        }
    }
    let consumed = data.len() - rest.len();
    (Wal::from_records(records), consumed, error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::Entry;

    fn sample_records() -> Vec<Record> {
        let poly = Entry::in_doubt(
            Entry::Simple(Value::Int(90)),
            Entry::in_doubt(
                Entry::Simple(Value::Str("busy".into())),
                Entry::Simple(Value::Str("idle".into())),
                TxnId(2),
            ),
            TxnId(1),
        );
        vec![
            Record::SetItem {
                item: ItemId(1),
                entry: Entry::Simple(Value::Int(-5)),
            },
            Record::SetItem {
                item: ItemId(2),
                entry: Entry::Simple(Value::Bool(true)),
            },
            Record::SetItem {
                item: ItemId(3),
                entry: poly.clone(),
            },
            Record::PendingPrepare {
                txn: TxnId(9),
                coordinator: 3,
                writes: vec![(ItemId(1), Entry::Simple(Value::Int(7))), (ItemId(3), poly)],
            },
            Record::PendingResolved { txn: TxnId(9) },
            Record::DepNoted {
                txn: TxnId(1),
                item: ItemId(3),
            },
            Record::DepSent {
                txn: TxnId(1),
                site: 2,
            },
            Record::DepForgotten { txn: TxnId(1) },
            Record::Decision {
                txn: TxnId(9),
                completed: true,
            },
            Record::Decision {
                txn: TxnId(10),
                completed: false,
            },
            Record::Epoch { epoch: 4 },
            Record::PaxosVote {
                txn: TxnId(11),
                part: 1,
                parts: vec![0, 1, 2],
                prepared: true,
            },
            Record::PaxosVote {
                txn: TxnId(11),
                part: 2,
                parts: vec![0, 1, 2],
                prepared: false,
            },
            Record::PaxosPromise {
                txn: TxnId(11),
                ballot: (2u64 << 16) | 1,
            },
            Record::PaxosAccept {
                txn: TxnId(11),
                ballot: (2u64 << 16) | 1,
                completed: false,
            },
            Record::PaxosForgotten { txn: TxnId(11) },
        ]
    }

    fn wal_of(records: Vec<Record>) -> Wal {
        Wal::from_records(records)
    }

    #[test]
    fn round_trip_every_record_kind() {
        let wal = wal_of(sample_records());
        let bytes = encode_wal(&wal);
        let decoded = decode_wal(&bytes).unwrap();
        assert_eq!(
            decoded.iter().collect::<Vec<_>>(),
            wal.iter().collect::<Vec<_>>()
        );
    }

    /// Pins the WAL format: every sample record encodes to exactly its line
    /// of `results/wire_golden.txt` and every line decodes to exactly its
    /// sample — the only test that can tell "same format" from "encoder and
    /// decoder changed together". A deliberate format change (or a new record
    /// kind) is made by editing the fixture; the failure prints the line.
    #[test]
    fn golden_bytes_are_pinned() {
        let fixture: Vec<(&str, &str)> = include_str!("../../../results/wire_golden.txt")
            .lines()
            .filter(|l| l.starts_with("record."))
            .map(|l| l.split_once(' ').expect("`name hex` line"))
            .collect();
        let samples = sample_records();
        assert_eq!(fixture.len(), samples.len(), "one fixture line per sample");
        for (i, (record, (name, hex))) in samples.iter().zip(&fixture).enumerate() {
            let variant: String = format!("{record:?}")
                .chars()
                .take_while(|c| c.is_alphanumeric())
                .collect();
            assert_eq!(*name, format!("record.{i:02}.{variant}"));
            let mut out = BytesMut::new();
            encode_record(record, &mut out);
            let encoded: String = out.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(
                &encoded, hex,
                "encoding changed; fixture line would be `{name} {encoded}`"
            );
            let bytes: Vec<u8> = (0..hex.len() / 2)
                .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
                .collect();
            let decoded = decode_wal(&bytes).expect("fixture line decodes");
            assert_eq!(decoded.iter().collect::<Vec<_>>(), vec![record], "{name}");
        }
    }

    #[test]
    fn empty_wal_round_trips() {
        let bytes = encode_wal(&Wal::new());
        assert!(bytes.is_empty());
        assert_eq!(decode_wal(&bytes).unwrap().len(), 0);
    }

    #[test]
    fn torn_tail_is_recovered_lossily() {
        let wal = wal_of(sample_records());
        let bytes = encode_wal(&wal);
        // Chop the image at every possible byte boundary: decoding never
        // panics and never yields more records than were fully written.
        for cut in 0..bytes.len() {
            let (recovered, err) = decode_wal_lossy(&bytes[..cut]);
            assert!(recovered.len() <= wal.len());
            if cut < bytes.len() {
                // Anything but the exact full image should usually stop with
                // Truncated; intermediate frame boundaries decode cleanly.
                if recovered.len() < wal.len() && cut > 0 {
                    // If decoding stopped early mid-frame there must be an
                    // error; at an exact boundary there is none.
                    let consumed_exactly = err.is_none();
                    if !consumed_exactly {
                        assert_eq!(err, Some(CodecError::Truncated));
                    }
                }
                // Every record that did decode matches the original prefix.
                for (got, want) in recovered.iter().zip(wal.iter()) {
                    assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn prefix_decode_reports_consumed_bytes() {
        let wal = wal_of(sample_records());
        let bytes = encode_wal(&wal);
        let (full, consumed, err) = decode_wal_prefix(&bytes);
        assert_eq!(consumed, bytes.len());
        assert!(err.is_none());
        assert_eq!(full.len(), wal.len());
        // A torn tail: consumed stops at the last intact frame boundary, and
        // re-decoding exactly that prefix is clean.
        let torn = &bytes[..bytes.len() - 2];
        let (some, consumed, err) = decode_wal_prefix(torn);
        assert!(err.is_some());
        assert!(consumed < torn.len());
        let (again, consumed2, err2) = decode_wal_prefix(&torn[..consumed]);
        assert_eq!(consumed2, consumed);
        assert!(err2.is_none());
        assert_eq!(again.len(), some.len());
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let wal = wal_of(sample_records());
        let bytes = encode_wal(&wal);
        let mut corrupt = bytes.to_vec();
        // Flip a byte inside the first frame's payload.
        corrupt[9] ^= 0xFF;
        let (recovered, err) = decode_wal_lossy(&corrupt);
        assert_eq!(recovered.len(), 0);
        assert_eq!(err, Some(CodecError::BadChecksum));
        assert!(decode_wal(&corrupt).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // Hand-craft a frame with tag 99 and a valid checksum.
        let mut out = BytesMut::new();
        let payload = [99u8];
        out.put_u32_le(1);
        out.put_u32_le(checksum(&payload));
        out.put_slice(&payload);
        assert!(matches!(decode_wal(&out), Err(CodecError::BadTag(99))));
    }

    #[test]
    fn strict_decode_fails_on_any_trailing_garbage() {
        let wal = wal_of(vec![Record::Epoch { epoch: 1 }]);
        let mut bytes = encode_wal(&wal).to_vec();
        bytes.push(0x01);
        assert!(decode_wal(&bytes).is_err());
        let (recovered, err) = decode_wal_lossy(&bytes);
        assert_eq!(recovered.len(), 1);
        assert_eq!(err, Some(CodecError::Truncated));
    }

    #[test]
    fn invalid_polyvalue_images_are_rejected() {
        // Encode a "polyvalue" whose single pair is conditioned on T1 only —
        // incomplete, so assembly must refuse it.
        let mut payload = BytesMut::new();
        payload.put_u8(1); // SetItem
        payload.put_u64_le(1); // item
        payload.put_u8(1); // Entry::Poly
        payload.put_u32_le(1); // one pair
        put_value(&mut payload, &Value::Int(5));
        put_condition(&mut payload, &Condition::var(TxnId(1)));
        let mut out = BytesMut::new();
        out.put_u32_le(payload.len() as u32);
        out.put_u32_le(checksum(&payload));
        out.put_slice(&payload);
        assert!(matches!(decode_wal(&out), Err(CodecError::BadPolyvalue)));
    }

    #[test]
    fn error_display() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::BadChecksum.to_string().contains("checksum"));
        assert!(CodecError::BadTag(7).to_string().contains('7'));
        assert!(CodecError::BadUtf8.to_string().contains("UTF-8"));
        assert!(CodecError::BadPolyvalue.to_string().contains("invariant"));
    }
}
