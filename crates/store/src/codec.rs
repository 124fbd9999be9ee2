//! The binary vocabulary of the system, and the write-ahead log's framing.
//!
//! **One declaration per type.** Everything that is ever written to stable
//! storage or to a socket implements [`Wire`]: `put` appends the type's
//! bytes, `get` reads them back. Containers do not write the two directions
//! by hand — a [`wire_table!`](crate::wire_table) invocation lists a struct's
//! fields, or an enum's `tag => Variant { fields }` lines, once, and both
//! directions are generated from that list (so they cannot drift apart, a
//! forgotten variant fails the generated exhaustive `match`, and a reused tag
//! fails `#[deny(unreachable_patterns)]`). The [`Record`] table below *is*
//! the WAL format; `pv-protocol`'s `Msg` table and `pv-net`'s `Frame` table
//! are the wire format. [`Condition`], [`Entry`] and [`Expr`] keep hand-written
//! impls because decoding them re-checks an invariant.
//!
//! **Framing.** Each WAL record is
//!
//! ```text
//! [len: u32 LE] [checksum: u32 LE over payload] [payload: len bytes]
//! ```
//!
//! so a torn write (power loss mid-append) truncates cleanly: decoding stops
//! at the first incomplete or corrupt frame and returns everything before
//! it, exactly the recovery contract of a production WAL.

use crate::wal::{Record, Wal};
use pv_core::cond::{Condition, Literal, Product};
use pv_core::expr::BinOp;
use pv_core::{CmpOp, Entry, Expr, ItemId, TransactionSpec, TxnId, Value};
use std::fmt;

/// Errors detected while decoding.
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
    /// An expression nested deeper than [`MAX_EXPR_DEPTH`].
    TooDeep,
    /// A float field was NaN or infinite.
    NonFinite,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "log image truncated mid-frame"),
            CodecError::BadChecksum => write!(f, "frame checksum mismatch"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::BadPolyvalue => write!(f, "decoded polyvalue violates invariant"),
            CodecError::TooDeep => write!(f, "expression nests deeper than {MAX_EXPR_DEPTH}"),
            CodecError::NonFinite => write!(f, "float field is not finite"),
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

// ---- the Wire trait and its table macro -------------------------------------

/// A type with exactly one binary encoding, shared by the WAL and the
/// network: a staged write read from disk and a `Prepare` read from a socket
/// decode through the same impl.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Decodes one value from the front of `buf`, advancing it. Hostile
    /// input is an `Err`, never a panic or an oversized allocation.
    fn get(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

/// An enum declared by [`wire_table!`](crate::wire_table). Its [`Wire`] form
/// is the tag byte followed by the variant's fields; the halves are exposed
/// separately for a framing that carries the tag in its own header (the
/// `pv-net` frame kind).
pub trait Tagged: Sized {
    /// The variant's tag byte.
    fn tag(&self) -> u8;
    /// Appends the variant's fields, without the tag.
    fn put_fields(&self, buf: &mut Vec<u8>);
    /// Decodes the fields of the variant `tag` names; `Ok(None)` when it
    /// names none.
    fn get_fields(tag: u8, buf: &mut &[u8]) -> Result<Option<Self>, CodecError>;
}

impl<T: Tagged> Wire for T {
    fn put(&self, buf: &mut Vec<u8>) {
        self.tag().put(buf);
        self.put_fields(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = u8::get(buf)?;
        T::get_fields(tag, buf)?.ok_or(CodecError::BadTag(tag))
    }
}

/// Declares a type's binary layout once and generates both directions.
///
/// `struct T { a, b }` encodes the named fields in the order listed (a tuple
/// struct names its fields `0`, `1`, …). `enum T { 1 => A { x, y }, 2 => B(x),
/// 3 => C }` encodes a tag byte then the variant's fields in the order
/// listed, and implements [`Tagged`](crate::codec::Tagged). Every field type
/// must itself be [`Wire`](crate::codec::Wire). Adding a variant is one line
/// here (plus a line in `results/wire_golden.txt`).
///
/// ```
/// use pv_store::codec::Wire;
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
/// }
/// pv_store::wire_table! { enum Shape { 0 => Dot, 1 => Circle(r), 2 => Rect { w, h } } }
///
/// let mut buf = Vec::new();
/// Shape::Rect { w: 2, h: 3 }.put(&mut buf);
/// assert_eq!(buf, [2, 2, 0, 0, 0, 3, 0, 0, 0]);
/// assert_eq!(Shape::get(&mut &buf[..]), Ok(Shape::Rect { w: 2, h: 3 }));
/// ```
///
/// A variant missing from the table, or a tag used twice, does not compile:
///
/// ```compile_fail
/// enum Bit { Zero, One }
/// pv_store::wire_table! { enum Bit { 0 => Zero } }
/// ```
///
/// ```compile_fail
/// enum Bit { Zero, One }
/// pv_store::wire_table! { enum Bit { 0 => Zero, 0 => One } }
/// ```
#[macro_export]
macro_rules! wire_table {
    (struct $ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $( $crate::codec::Wire::put(&self.$field, buf); )*
            }

            fn get(buf: &mut &[u8]) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty { $( $field: $crate::codec::Wire::get(buf)? ),* })
            }
        }
    };
    (enum $ty:ident { $(
        $tag:literal => $var:ident $( { $($f:ident),* } )? $( ( $($t:ident),* ) )?
    ),* $(,)? }) => {
        impl $crate::codec::Tagged for $ty {
            fn tag(&self) -> u8 {
                match self { $( $ty::$var { .. } => $tag, )* }
            }

            #[allow(unused_variables)]
            fn put_fields(&self, buf: &mut Vec<u8>) {
                match self { $(
                    $ty::$var $( { $($f),* } )? $( ( $($t),* ) )? => {
                        $( $( $crate::codec::Wire::put($f, buf); )* )?
                        $( $( $crate::codec::Wire::put($t, buf); )* )?
                    }
                )* }
            }

            #[allow(unused_variables)]
            #[deny(unreachable_patterns)]
            fn get_fields(
                tag: u8,
                buf: &mut &[u8],
            ) -> Result<Option<Self>, $crate::codec::CodecError> {
                Ok(Some(match tag {
                    $( $tag => {
                        $( $( let $f = $crate::codec::Wire::get(buf)?; )* )?
                        $( $( let $t = $crate::codec::Wire::get(buf)?; )* )?
                        $ty::$var $( { $($f),* } )? $( ( $($t),* ) )?
                    } )*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

// ---- primitives and containers ----------------------------------------------

macro_rules! wire_le_int {
    ($($int:ty),*) => { $(
        impl Wire for $int {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
                let (head, rest) = buf.split_first_chunk().ok_or(CodecError::Truncated)?;
                *buf = rest;
                Ok(<$int>::from_le_bytes(*head))
            }
        }
    )* };
}

wire_le_int!(u8, u32, u64, i64);

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(u8::get(buf)? != 0)
    }
}

/// The bit pattern as a `u64`; only finite values decode.
impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let value = f64::from_bits(u64::get(buf)?);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(CodecError::NonFinite)
        }
    }
}

/// `u32` byte length, then UTF-8.
impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::get(buf)? as usize;
        let (s, rest) = buf.split_at_checked(len).ok_or(CodecError::Truncated)?;
        *buf = rest;
        String::from_utf8(s.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::get(buf)?, B::get(buf)?))
    }
}

/// A presence byte (0 or 1), then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => 0u8.put(buf),
            Some(value) => {
                1u8.put(buf);
                value.put(buf);
            }
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// Most elements a decoder reserves room for on the word of a length prefix.
/// A longer sequence still decodes (the vector grows as elements actually
/// arrive); a hostile count costs an `Err` at the first missing element
/// instead of a giant allocation. Every sequence in both formats decodes
/// through [`Vec`]'s impl, so this is the only place the rule lives.
const MAX_PREALLOC: usize = 1024;

/// `u32` element count, then the elements.
fn put_seq<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).put(buf);
    for item in items {
        item.put(buf);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(self, buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let n = u32::get(buf)? as usize;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

// ---- pv-core types ----------------------------------------------------------
//
// The trait is this crate's, so the orphan rule puts every impl for a
// `pv-core` type here — including the ones only the network ever ships.

wire_table! { struct ItemId { 0 } }
wire_table! { struct TxnId { 0 } }

wire_table! {
    enum Value {
        0 => Int(n),
        1 => Bool(b),
        2 => Str(s),
    }
}

impl Wire for Literal {
    fn put(&self, buf: &mut Vec<u8>) {
        self.txn().put(buf);
        self.is_positive().put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let txn = TxnId::get(buf)?;
        Ok(if bool::get(buf)? {
            Literal::positive(txn)
        } else {
            Literal::negative(txn)
        })
    }
}

impl Wire for Product {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for literal in self.literals() {
            literal.put(buf);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Product::from_literals(Vec::<Literal>::get(buf)?).ok_or(CodecError::BadPolyvalue)
    }
}

/// A DNF condition: its products, each a list of `(txn, polarity)` literals.
impl Wire for Condition {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(self.products(), buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Condition::from_products(Vec::<Product>::get(buf)?))
    }
}

/// A simple value (tag 0) or a polyvalue's `(value, condition)` pairs
/// (tag 1).
impl Wire for Entry<Value> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Entry::Simple(v) => {
                0u8.put(buf);
                v.put(buf);
            }
            Entry::Poly(p) => {
                1u8.put(buf);
                put_seq(p.pairs(), buf);
            }
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::get(buf)? {
            0 => Ok(Entry::Simple(Value::get(buf)?)),
            1 => {
                let pairs = Vec::<(Value, Condition)>::get(buf)?;
                // Assembling re-checks the §3 invariant, so a corrupted-but-
                // checksum-colliding image cannot smuggle in a bad polyvalue.
                Entry::assemble(
                    pairs
                        .into_iter()
                        .map(|(v, c)| (Entry::Simple(v), c))
                        .collect(),
                )
                .map_err(|_| CodecError::BadPolyvalue)
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
}

wire_table! {
    enum BinOp {
        0 => Add,
        1 => Sub,
        2 => Mul,
        3 => Div,
        4 => Min,
        5 => Max,
        6 => And,
        7 => Or,
    }
}

wire_table! {
    enum CmpOp {
        0 => Eq,
        1 => Ne,
        2 => Lt,
        3 => Le,
        4 => Gt,
        5 => Ge,
    }
}

/// Maximum expression nesting accepted by the decoder. Deeper input is
/// rejected with [`CodecError::TooDeep`] rather than recursing toward a
/// stack overflow on untrusted bytes.
pub const MAX_EXPR_DEPTH: u32 = 200;

impl Wire for Expr {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Expr::Const(v) => {
                0u8.put(buf);
                v.put(buf);
            }
            Expr::Read(item) => {
                1u8.put(buf);
                item.put(buf);
            }
            Expr::Bin(op, l, r) => {
                2u8.put(buf);
                op.put(buf);
                l.put(buf);
                r.put(buf);
            }
            Expr::Cmp(op, l, r) => {
                3u8.put(buf);
                op.put(buf);
                l.put(buf);
                r.put(buf);
            }
            Expr::Neg(inner) => {
                4u8.put(buf);
                inner.put(buf);
            }
            Expr::Not(inner) => {
                5u8.put(buf);
                inner.put(buf);
            }
            Expr::If(c, t, f) => {
                6u8.put(buf);
                c.put(buf);
                t.put(buf);
                f.put(buf);
            }
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        get_expr(buf, 0)
    }
}

fn get_expr(buf: &mut &[u8], depth: u32) -> Result<Expr, CodecError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let sub = |buf: &mut &[u8]| get_expr(buf, depth + 1).map(Box::new);
    Ok(match u8::get(buf)? {
        0 => Expr::Const(Value::get(buf)?),
        1 => Expr::Read(ItemId::get(buf)?),
        2 => Expr::Bin(BinOp::get(buf)?, sub(buf)?, sub(buf)?),
        3 => Expr::Cmp(CmpOp::get(buf)?, sub(buf)?, sub(buf)?),
        4 => Expr::Neg(sub(buf)?),
        5 => Expr::Not(sub(buf)?),
        6 => Expr::If(sub(buf)?, sub(buf)?, sub(buf)?),
        t => return Err(CodecError::BadTag(t)),
    })
}

wire_table! { struct TransactionSpec { guard, updates, outputs } }

// ---- the WAL format ---------------------------------------------------------

wire_table! {
    enum Record {
        1 => SetItem { item, entry },
        2 => PendingPrepare { txn, coordinator, writes },
        3 => PendingResolved { txn },
        4 => DepNoted { txn, item },
        5 => DepSent { txn, site },
        6 => DepForgotten { txn },
        7 => Decision { txn, completed },
        8 => Epoch { epoch },
        9 => PaxosVote { txn, part, parts, prepared },
        10 => PaxosPromise { txn, ballot },
        11 => PaxosAccept { txn, ballot, completed },
        12 => PaxosForgotten { txn },
    }
}

/// Bytes of a record frame before its payload: length, then checksum.
const RECORD_HEADER_LEN: usize = 8;

/// Appends one record to `out` in its framed form. The payload is encoded
/// where it will stay; the header in front of it is filled in afterwards.
pub fn encode_record(record: &Record, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    record.put(out);
    let (header, payload) = out[start..].split_at_mut(RECORD_HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&checksum(payload).to_le_bytes());
}

/// Decodes one framed record from the front of `data`; advances `data`.
fn decode_record(data: &mut &[u8]) -> Result<Record, CodecError> {
    let len = u32::get(data)? as usize;
    let sum = u32::get(data)?;
    let (mut payload, rest) = data.split_at_checked(len).ok_or(CodecError::Truncated)?;
    if checksum(payload) != sum {
        return Err(CodecError::BadChecksum);
    }
    *data = rest;
    Record::get(&mut payload)
}

/// Serialises a whole log.
pub fn encode_wal(wal: &Wal) -> Vec<u8> {
    let mut out = Vec::new();
    for record in wal.iter() {
        encode_record(record, &mut out);
    }
    out
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

    /// A hand-made frame around `payload`, its checksum valid.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let len = payload.len() as u32;
        [&len.to_le_bytes()[..], &checksum(payload).to_le_bytes(), payload].concat()
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
            let mut out = Vec::new();
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
        let mut corrupt = bytes;
        // Flip a byte inside the first frame's payload.
        corrupt[9] ^= 0xFF;
        let (recovered, err) = decode_wal_lossy(&corrupt);
        assert_eq!(recovered.len(), 0);
        assert_eq!(err, Some(CodecError::BadChecksum));
        assert!(decode_wal(&corrupt).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(matches!(decode_wal(&framed(&[99])), Err(CodecError::BadTag(99))));
    }

    #[test]
    fn strict_decode_fails_on_any_trailing_garbage() {
        let wal = wal_of(vec![Record::Epoch { epoch: 1 }]);
        let mut bytes = encode_wal(&wal);
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
        let mut payload = Vec::new();
        1u8.put(&mut payload); // SetItem
        1u64.put(&mut payload); // item
        1u8.put(&mut payload); // Entry::Poly
        1u32.put(&mut payload); // one pair
        Value::Int(5).put(&mut payload);
        Condition::var(TxnId(1)).put(&mut payload);
        assert!(matches!(decode_wal(&framed(&payload)), Err(CodecError::BadPolyvalue)));
    }

    /// A length prefix is the writer's claim, not a fact: a count the record
    /// cannot back must stop recovery with an error, never allocate that many
    /// elements (which aborts the process). One case per nesting level of a
    /// polyvalue, plus the two plain lists a record can hold.
    #[test]
    fn hostile_counts_are_errors_not_allocations() {
        let le32 = |n: u32| n.to_le_bytes().to_vec();
        let le64 = |n: u64| n.to_le_bytes().to_vec();
        // SetItem { item: 1, entry: Poly [ .. up to the pair count
        let pairs = [vec![1], le64(1), vec![1]].concat();
        // .. one pair, its value Int(5), up to the product count
        let products = [&pairs[..], &le32(1), &[0], &le64(5)].concat();
        let literals = [&products[..], &le32(1)].concat();
        for (what, prefix) in [
            ("polyvalue pair count", pairs),
            ("condition product count", products),
            ("product literal count", literals),
            (
                "PendingPrepare writes count",
                [vec![2], le64(9), le32(0)].concat(),
            ),
            (
                "PaxosVote parts count",
                [vec![9], le64(9), le32(1)].concat(),
            ),
        ] {
            let payload = [prefix, le32(u32::MAX)].concat();
            let (wal, consumed, err) = decode_wal_prefix(&framed(&payload));
            assert_eq!((wal.len(), consumed), (0, 0), "{what}");
            assert_eq!(err, Some(CodecError::Truncated), "{what}");
        }
    }

    #[test]
    fn error_display() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::BadChecksum.to_string().contains("checksum"));
        assert!(CodecError::BadTag(7).to_string().contains('7'));
        assert!(CodecError::BadUtf8.to_string().contains("UTF-8"));
        assert!(CodecError::BadPolyvalue.to_string().contains("invariant"));
        assert!(CodecError::TooDeep.to_string().contains("deeper"));
        assert!(CodecError::NonFinite.to_string().contains("finite"));
    }
}
