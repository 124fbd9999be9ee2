//! The versioned binary wire format of the socket runtime.
//!
//! Every frame on a `pv-net` connection is
//!
//! ```text
//! [magic: u32 LE] [version: u8] [kind: u8] [reserved: u16 = 0]
//! [len: u32 LE]   [checksum: u32 LE over header prefix and payload]
//! [payload: len bytes]
//! ```
//!
//! a 16-byte header followed by the payload. The checksum is the same FNV-1a
//! the WAL uses ([`pv_store::codec::checksum`]), computed over the twelve
//! header bytes before the checksum field XORed with the payload's own
//! digest — a single flipped bit anywhere in the frame (including the kind
//! and length fields) fails validation. The payload is the [`Wire`] encoding
//! of the frame's fields: values, conditions and entries through the very
//! impls the WAL uses ([`pv_store::codec`]), protocol messages through the
//! `Msg` table in `pv_protocol::messages` — one binary vocabulary for bytes
//! at rest and bytes in flight. What this module adds is the framing
//! (magic/version/kind so a peer can reject foreign or future traffic before
//! parsing) and the [`Frame`] table, whose tag byte travels in the header as
//! the frame kind.
//!
//! Decoding is incremental: [`decode_frame`] returns `Ok(None)` while the
//! buffer holds less than one whole frame, so a reader can append socket
//! bytes and retry. Every malformed input — bad magic, wrong version, torn
//! length, checksum mismatch, unknown tags, over-deep expressions, element
//! counts the payload cannot back — is a typed [`DecodeError`], never a
//! panic or an allocation sized by the sender.

use pv_core::{Entry, ItemId, Value};
use pv_engine::messages::Msg;
use pv_engine::EngineError;
use pv_simnet::Metrics;
use pv_store::codec::{checksum, CodecError, Tagged, Wire};
use pv_store::wire_table;
use std::fmt;

pub use pv_store::codec::MAX_EXPR_DEPTH;

/// Leading magic of every frame: `"PVW1"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"PVW1");

/// Current wire-format version. Bump on any incompatible payload change;
/// a node answers a foreign version with a clean [`DecodeError::BadVersion`]
/// instead of misparsing.
pub const VERSION: u8 = 1;

/// Bytes in a frame header.
pub const HEADER_LEN: usize = 16;

/// Bytes of the header covered by the frame checksum (everything before
/// the checksum field itself: magic, version, kind, reserved, length).
const HEADER_PREFIX_LEN: usize = 12;

/// Upper bound on a frame payload. Far above any legitimate message (specs
/// and entry lists are small); its real job is to stop a corrupt or hostile
/// length field from forcing a giant allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Why encoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The encoded payload exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// The payload size that was attempted.
        len: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds frame limit {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

impl From<EncodeError> for EngineError {
    fn from(e: EncodeError) -> Self {
        EngineError::Encode(e.to_string())
    }
}

/// Why decoding failed. These are all *fatal* for the connection; "not
/// enough bytes yet" is not an error but [`decode_frame`]'s `Ok(None)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The header does not start with [`MAGIC`] — not a pv-net peer.
    BadMagic(u32),
    /// The peer speaks a different wire-format version.
    BadVersion(u8),
    /// The header's kind byte names no known frame kind.
    BadKind(u8),
    /// The header's length field exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The payload checksum did not match (corruption in flight).
    BadChecksum,
    /// The payload ended inside a field, or had bytes left over, despite
    /// the header's length — the frame is internally inconsistent.
    Malformed,
    /// A payload field failed to decode (an unknown tag, bad UTF-8, a
    /// polyvalue breaking the §3 invariant, an expression nested too deep).
    Payload(CodecError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            DecodeError::BadVersion(v) => {
                write!(f, "wire version {v} (this build speaks {VERSION})")
            }
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::TooLarge(n) => {
                write!(f, "declared payload of {n} bytes exceeds limit {MAX_FRAME_LEN}")
            }
            DecodeError::BadChecksum => write!(f, "payload checksum mismatch"),
            DecodeError::Malformed => write!(f, "payload length inconsistent with content"),
            DecodeError::Payload(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for EngineError {
    fn from(e: DecodeError) -> Self {
        EngineError::Decode(e.to_string())
    }
}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> Self {
        match e {
            // Inside a length-delimited payload, "truncated" means the
            // header lied about the length — the frame is malformed.
            CodecError::Truncated => DecodeError::Malformed,
            CodecError::BadChecksum => DecodeError::BadChecksum,
            e => DecodeError::Payload(e),
        }
    }
}

/// A point-in-time view of one networked site, answering
/// [`Frame::InspectReq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The site's id.
    pub site: u32,
    /// Items the site holds.
    pub items: Vec<(ItemId, Entry<Value>)>,
    /// Items currently holding polyvalues.
    pub poly_count: u64,
    /// Whether any protocol state is still in flight.
    pub quiescent: bool,
}

wire_table! { struct NodeSnapshot { site, items, poly_count, quiescent } }

/// A site's metrics registry in wire form: counters plus every histogram's
/// raw observations (as `f64` bit patterns), so the load generator can
/// [`Metrics::merge`] per-site registries without losing distribution shape.
/// Gauge series are wall-clock-indexed and site-local; they do not ship.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireMetrics {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Histogram names with raw observations as `f64::to_bits` values.
    pub histograms: Vec<(String, Vec<u64>)>,
}

wire_table! { struct WireMetrics { counters, histograms } }

impl WireMetrics {
    /// Captures a registry for the wire.
    pub fn from_metrics(m: &Metrics) -> Self {
        WireMetrics {
            counters: m.counters().map(|(k, v)| (k.to_owned(), v)).collect(),
            histograms: m
                .histograms()
                .map(|(k, h)| (k.to_owned(), h.values().iter().map(|v| v.to_bits()).collect()))
                .collect(),
        }
    }

    /// Replays this capture into a fresh [`Metrics`] registry.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        for (k, v) in &self.counters {
            m.inc_by(k, *v);
        }
        for (k, bits) in &self.histograms {
            for &b in bits {
                m.observe(k, f64::from_bits(b));
            }
        }
        m
    }
}

/// Everything that can travel on a `pv-net` connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on every connection: who is dialing. A site identifies
    /// itself so the receiver can route subsequent [`Frame::Proto`] traffic;
    /// a client receives `Reply` frames on the same connection. Node ids
    /// below the site count are sites.
    Hello {
        /// The dialer's node id (site id, or a client's node id).
        node: u32,
    },
    /// A protocol message between nodes — the entire [`Msg`] vocabulary of
    /// §3.1/§3.3, carried verbatim.
    Proto {
        /// The sending node (site id, or a client node id for `Submit`).
        from: u32,
        /// The protocol message.
        msg: Msg,
    },
    /// Control: ask the site for a state snapshot.
    InspectReq,
    /// Control: the snapshot.
    InspectResp(NodeSnapshot),
    /// Control: ask the site for its metrics registry.
    MetricsReq,
    /// Control: the metrics.
    MetricsResp(WireMetrics),
    /// Control: ask the site process to flush its WAL and exit cleanly.
    Shutdown,
}

// The tag is the header's kind byte; the fields are the payload.
wire_table! {
    enum Frame {
        0 => Hello { node },
        1 => Proto { from, msg },
        2 => InspectReq,
        3 => InspectResp(snapshot),
        4 => MetricsReq,
        5 => MetricsResp(metrics),
        6 => Shutdown,
    }
}

/// Appends one whole frame (header + payload) to `out`. The payload is
/// encoded where it will stay and the header's length and checksum are
/// filled in afterwards; a payload over [`MAX_FRAME_LEN`] leaves `out` as it
/// was.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    frame.put_fields(out);
    let (header, payload) = out[start..].split_at_mut(HEADER_LEN);
    let len = payload.len();
    if len > MAX_FRAME_LEN as usize {
        out.truncate(start);
        return Err(EncodeError::TooLarge { len });
    }
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = VERSION;
    header[5] = frame.tag();
    header[8..HEADER_PREFIX_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    // The checksum covers the header prefix as well as the payload, so a
    // flipped kind or length byte can never pass as a valid frame.
    let sum = checksum(&header[..HEADER_PREFIX_LEN]) ^ checksum(payload);
    header[HEADER_PREFIX_LEN..].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Encodes a frame into a fresh buffer (convenience over [`encode_frame`]).
pub fn frame_bytes(frame: &Frame) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out)?;
    Ok(out)
}

/// Whether `buf` starts with a whole frame: a header and as many payload
/// bytes as it declares. Only the length field is read; [`decode_frame`]
/// validates the rest.
pub(crate) fn holds_frame(buf: &[u8]) -> bool {
    let Some(len) = buf.get(8..HEADER_PREFIX_LEN) else {
        return false;
    };
    let len = u32::from_le_bytes(len.try_into().expect("four bytes")) as usize;
    buf.len() >= HEADER_LEN + len
}

/// Tries to decode one frame from the front of `buf`.
///
/// Returns `Ok(Some((frame, consumed)))` when a whole valid frame is
/// present (`consumed` = header + payload bytes to drain), `Ok(None)` when
/// more bytes are needed, and `Err` when the stream is unrecoverably
/// malformed (the connection should be dropped).
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut h = buf;
    let magic = u32::get(&mut h).expect("header length checked");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = u8::get(&mut h).expect("header length checked");
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = u8::get(&mut h).expect("header length checked");
    // Reserved bytes must be zero in v1, so corruption there is caught and
    // a future version can assign them meaning without ambiguity.
    let reserved = (
        u8::get(&mut h).expect("header length checked"),
        u8::get(&mut h).expect("header length checked"),
    );
    if reserved != (0, 0) {
        return Err(DecodeError::Malformed);
    }
    let len = u32::get(&mut h).expect("header length checked");
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::TooLarge(len));
    }
    let sum = u32::get(&mut h).expect("header length checked");
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let mut payload = &buf[HEADER_LEN..total];
    if checksum(&buf[..HEADER_PREFIX_LEN]) ^ checksum(payload) != sum {
        return Err(DecodeError::BadChecksum);
    }
    let frame = Frame::get_fields(kind, &mut payload)?.ok_or(DecodeError::BadKind(kind))?;
    if !payload.is_empty() {
        return Err(DecodeError::Malformed);
    }
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::{Expr, TransactionSpec, TxnId};
    use pv_engine::messages::TxnResult;

    fn roundtrip(frame: Frame) {
        let bytes = frame_bytes(&frame).unwrap();
        let (decoded, consumed) = decode_frame(&bytes).unwrap().expect("whole frame");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn hello_and_control_frames_round_trip() {
        roundtrip(Frame::Hello { node: 7 });
        roundtrip(Frame::Hello { node: 42 });
        roundtrip(Frame::InspectReq);
        roundtrip(Frame::MetricsReq);
        roundtrip(Frame::Shutdown);
    }

    #[test]
    fn proto_frames_round_trip() {
        let spec = TransactionSpec::new()
            .guard(Expr::read(ItemId(0)).ge(Expr::int(40)))
            .update(ItemId(0), Expr::read(ItemId(0)).sub(Expr::int(40)))
            .output("granted", Expr::read(ItemId(0)).ge(Expr::int(40)));
        roundtrip(Frame::Proto {
            from: 3,
            msg: Msg::Submit { req_id: 9, spec },
        });
        let poly = Entry::in_doubt(
            Entry::Simple(Value::Int(60)),
            Entry::Simple(Value::Int(100)),
            TxnId(5),
        );
        roundtrip(Frame::Proto {
            from: 0,
            msg: Msg::Reply {
                req_id: 9,
                result: TxnResult::Committed {
                    granted: Entry::Simple(Value::Bool(true)),
                    outputs: vec![("balance".into(), poly.clone())],
                    was_poly: true,
                },
            },
        });
        roundtrip(Frame::Proto {
            from: 1,
            msg: Msg::Prepare {
                txn: TxnId(77),
                writes: vec![(ItemId(1), poly)],
            },
        });
    }

    #[test]
    fn snapshot_read_frames_round_trip() {
        roundtrip(Frame::Proto {
            from: 9,
            msg: Msg::SnapshotRead {
                req_id: 4,
                items: vec![ItemId(0), ItemId(3)],
            },
        });
        // An empty item list (full scan) must survive the wire too.
        roundtrip(Frame::Proto {
            from: 9,
            msg: Msg::SnapshotRead {
                req_id: 5,
                items: vec![],
            },
        });
        roundtrip(Frame::Proto {
            from: 0,
            msg: Msg::SnapshotReadReply {
                req_id: 4,
                snapshot: 12,
                entries: vec![
                    (ItemId(0), Entry::Simple(Value::Int(60))),
                    (
                        ItemId(3),
                        Entry::in_doubt(
                            Entry::Simple(Value::Int(1)),
                            Entry::Simple(Value::Int(2)),
                            TxnId(8),
                        ),
                    ),
                ],
            },
        });
    }

    #[test]
    fn incremental_decode_waits_for_whole_frame() {
        let bytes = frame_bytes(&Frame::Hello { node: 1 }).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..cut]).unwrap(), None, "cut at {cut}");
            assert!(!holds_frame(&bytes[..cut]), "cut at {cut}");
        }
        assert!(decode_frame(&bytes).unwrap().is_some());
        assert!(holds_frame(&bytes));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = frame_bytes(&Frame::Shutdown).unwrap();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bytes), Err(DecodeError::BadMagic(_))));
        let mut bytes = frame_bytes(&Frame::Shutdown).unwrap();
        bytes[4] = 99;
        assert_eq!(decode_frame(&bytes), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = frame_bytes(&Frame::Hello { node: 1 }).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(decode_frame(&bytes), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn over_deep_expression_is_rejected_not_overflowed() {
        // Hand-encode a Proto/Submit whose guard is Neg(Neg(...Const)))
        // nested past the depth limit.
        let mut payload = Vec::new();
        0u32.put(&mut payload); // from
        0u8.put(&mut payload); // Submit
        1u64.put(&mut payload); // req_id
        1u8.put(&mut payload); // guard present
        for _ in 0..(MAX_EXPR_DEPTH + 8) {
            4u8.put(&mut payload); // Neg(
        }
        0u8.put(&mut payload); // Const
        Value::Int(1).put(&mut payload);
        0u32.put(&mut payload); // updates
        0u32.put(&mut payload); // outputs
        let mut bytes = Vec::new();
        MAGIC.put(&mut bytes);
        VERSION.put(&mut bytes);
        1u8.put(&mut bytes); // Proto
        bytes.extend_from_slice(&[0, 0]); // reserved
        (payload.len() as u32).put(&mut bytes);
        (checksum(&bytes[..HEADER_PREFIX_LEN]) ^ checksum(&payload)).put(&mut bytes);
        bytes.extend_from_slice(&payload);
        assert_eq!(decode_frame(&bytes), Err(DecodeError::Payload(CodecError::TooDeep)));
    }

    #[test]
    fn wire_metrics_round_trip_through_registry() {
        let mut m = Metrics::new();
        m.inc_by("txn.committed", 17);
        m.observe("phase.submit_decided", 1.5);
        m.observe("phase.submit_decided", 2.5);
        let wire = WireMetrics::from_metrics(&m);
        roundtrip(Frame::MetricsResp(wire.clone()));
        let back = wire.to_metrics();
        assert_eq!(back.counter("txn.committed"), 17);
        let h = back.histogram("phase.submit_decided").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Some(2.0));
    }

    #[test]
    fn errors_fold_into_engine_error() {
        let enc: EngineError = EncodeError::TooLarge { len: 99 }.into();
        assert!(matches!(enc, EngineError::Encode(_)));
        let dec: EngineError = DecodeError::BadChecksum.into();
        assert!(matches!(dec, EngineError::Decode(_)));
    }
}
