//! Property tests over the wire codec.
//!
//! Two obligations:
//!
//! 1. **Round-trip fidelity** — every `Msg` variant (and every control
//!    frame), populated with randomized payloads including nested
//!    polyvalue entries and deep expressions, survives
//!    `encode_frame` → `decode_frame` bit-exactly.
//! 2. **Robustness on hostile bytes** — truncating or corrupting an
//!    encoded frame, or feeding arbitrary garbage, must yield `Ok(None)`
//!    (incomplete) or a structured `DecodeError`. It must never panic:
//!    the decoder fronts a real TCP socket.
//!
//! The generators draw from the deterministic `SimRng`, varying the shape
//! with the proptest seed, so every failure is replayable.
//!
//! A third obligation pins the format itself: `golden_bytes_are_pinned`
//! compares one sample of every frame kind, message variant, expression and
//! result shape against `results/wire_golden.txt`, byte for byte and in
//! both directions — the round-trip properties above would still pass if
//! encoder and decoder drifted together.

use pv_core::expr::BinOp;
use pv_core::{CmpOp, Condition, Entry, Expr, ItemId, TransactionSpec, TxnId, Value};
use pv_engine::messages::{AbortReason, AccessMode, Msg, TxnResult};
use pv_net::wire::{decode_frame, frame_bytes, Frame, NodeSnapshot, WireMetrics};
use pv_net::DecodeError;
use pv_simnet::SimRng;
use proptest::prelude::*;

fn gen_value(rng: &mut SimRng) -> Value {
    match rng.below(3) {
        0 => Value::Int(rng.below(1 << 40) as i64 - (1 << 39)),
        1 => Value::Bool(rng.chance(0.5)),
        _ => {
            let len = rng.below(12) as usize;
            let s: String = (0..len)
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect();
            Value::Str(s)
        }
    }
}

/// A guaranteed-valid entry: either simple, or a binary in-doubt split on a
/// fresh txn variable (exhaustive and pairwise-disjoint by construction),
/// recursively nested up to `depth`.
fn gen_entry(rng: &mut SimRng, depth: u32, next_txn: &mut u64) -> Entry<Value> {
    if depth == 0 || rng.chance(0.5) {
        return Entry::Simple(gen_value(rng));
    }
    let txn = TxnId(*next_txn);
    *next_txn += 1;
    let yes = gen_entry(rng, depth - 1, next_txn);
    let no = gen_entry(rng, depth - 1, next_txn);
    Entry::assemble(vec![
        (yes, Condition::var(txn)),
        (no, Condition::not_var(txn)),
    ])
    .expect("binary split is a valid polyvalue")
}

fn gen_expr(rng: &mut SimRng, depth: u32) -> Expr {
    if depth == 0 {
        return match rng.below(2) {
            0 => Expr::Const(gen_value(rng)),
            _ => Expr::read(ItemId(rng.below(16))),
        };
    }
    match rng.below(7) {
        0 => Expr::Const(gen_value(rng)),
        1 => Expr::read(ItemId(rng.below(16))),
        2 => {
            let op = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Min,
                BinOp::Max,
                BinOp::And,
                BinOp::Or,
            ][rng.below(8) as usize];
            Expr::Bin(
                op,
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            )
        }
        3 => {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][rng.below(6) as usize];
            Expr::Cmp(
                op,
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            )
        }
        4 => Expr::Neg(Box::new(gen_expr(rng, depth - 1))),
        5 => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
        _ => Expr::If(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

fn gen_spec(rng: &mut SimRng) -> TransactionSpec {
    let mut spec = TransactionSpec::new();
    if rng.chance(0.6) {
        spec = spec.guard(gen_expr(rng, 3));
    }
    for _ in 0..rng.below(4) {
        spec = spec.update(ItemId(rng.below(16)), gen_expr(rng, 2));
    }
    for k in 0..rng.below(3) {
        spec = spec.output(&format!("out{k}"), gen_expr(rng, 2));
    }
    spec
}

fn gen_result(rng: &mut SimRng, next_txn: &mut u64) -> TxnResult {
    if rng.chance(0.6) {
        let n = rng.below(3);
        TxnResult::Committed {
            granted: gen_entry(rng, 2, next_txn),
            outputs: (0..n)
                .map(|k| (format!("out{k}"), gen_entry(rng, 2, next_txn)))
                .collect(),
            was_poly: rng.chance(0.5),
        }
    } else {
        let reason = match rng.below(4) {
            0 => AbortReason::LockConflict,
            1 => AbortReason::Timeout,
            2 => AbortReason::Eval("type error: Int + Bool".into()),
            _ => AbortReason::Rejected("R001: unreadable item".into()),
        };
        TxnResult::Aborted { reason }
    }
}

fn gen_items(rng: &mut SimRng) -> Vec<(ItemId, AccessMode)> {
    (0..1 + rng.below(5))
        .map(|k| {
            (
                ItemId(k),
                if rng.chance(0.5) {
                    AccessMode::Read
                } else {
                    AccessMode::Write
                },
            )
        })
        .collect()
}

fn gen_entries(rng: &mut SimRng, next_txn: &mut u64) -> Vec<(ItemId, Entry<Value>)> {
    (0..1 + rng.below(4))
        .map(|k| (ItemId(k), gen_entry(rng, 2, next_txn)))
        .collect()
}

/// One message of each variant, shaped by `rng` — index order matches the
/// wire tags so a failure names the variant.
fn gen_msg(rng: &mut SimRng, variant: u64) -> Msg {
    let mut next_txn = 100;
    let t = &mut next_txn;
    let txn = TxnId(rng.below(1 << 30));
    match variant {
        0 => Msg::Submit {
            req_id: rng.below(1 << 40),
            spec: gen_spec(rng),
        },
        1 => Msg::Reply {
            req_id: rng.below(1 << 40),
            result: gen_result(rng, t),
        },
        2 => Msg::ReadReq {
            txn,
            ts: rng.below(1 << 50),
            items: gen_items(rng),
        },
        3 => Msg::ReadResp {
            txn,
            entries: gen_entries(rng, t),
        },
        4 => Msg::ReadNack { txn },
        5 => Msg::Prepare {
            txn,
            writes: gen_entries(rng, t),
        },
        6 => Msg::Ready { txn },
        7 => Msg::PrepareNack { txn },
        8 => Msg::Decision {
            txn,
            completed: rng.chance(0.5),
        },
        9 => Msg::Inquire { txn },
        10 => Msg::OutcomeNotify {
            txn,
            completed: rng.chance(0.5),
        },
        11 => Msg::PcPrepare {
            txn,
            writes: gen_entries(rng, t),
            parts: gen_sites(rng),
        },
        12 => Msg::PcVote {
            txn,
            part: rng.below(16) as u32,
            parts: gen_sites(rng),
            prepared: rng.chance(0.5),
        },
        13 => Msg::PcVoteAck {
            txn,
            part: rng.below(16) as u32,
            acceptor: rng.below(16) as u32,
            prepared: rng.chance(0.5),
        },
        14 => Msg::PcPhase1a {
            txn,
            ballot: rng.below(1 << 40),
        },
        15 => Msg::PcPhase1b {
            txn,
            ballot: rng.below(1 << 40),
            acceptor: rng.below(16) as u32,
            votes: (0..rng.below(4))
                .map(|_| (rng.below(16) as u32, rng.chance(0.5)))
                .collect(),
            parts: gen_sites(rng),
            accepted: if rng.chance(0.5) {
                Some((rng.below(1 << 40), rng.chance(0.5)))
            } else {
                None
            },
        },
        16 => Msg::PcPhase2a {
            txn,
            ballot: rng.below(1 << 40),
            completed: rng.chance(0.5),
        },
        17 => Msg::PcPhase2b {
            txn,
            ballot: rng.below(1 << 40),
            acceptor: rng.below(16) as u32,
            completed: rng.chance(0.5),
        },
        18 => Msg::SnapshotRead {
            req_id: rng.below(1 << 40),
            items: (0..rng.below(6)).map(ItemId).collect(),
        },
        _ => Msg::SnapshotReadReply {
            req_id: rng.below(1 << 40),
            snapshot: rng.below(1 << 50),
            entries: gen_entries(rng, t),
        },
    }
}

fn gen_sites(rng: &mut SimRng) -> Vec<u32> {
    (0..rng.below(5)).map(|_| rng.below(16) as u32).collect()
}

const MSG_VARIANTS: u64 = 20;

const FRAME_KINDS: u64 = 7;

/// One frame of each kind, shaped by `rng` — index order matches the
/// header's kind byte so a failure names the kind.
fn gen_frame_kind(rng: &mut SimRng, kind: u64) -> Frame {
    match kind {
        0 => Frame::Hello {
            node: rng.below(1 << 20) as u32,
        },
        1 => {
            let variant = rng.below(MSG_VARIANTS);
            Frame::Proto {
                from: rng.below(64) as u32,
                msg: gen_msg(rng, variant),
            }
        }
        2 => Frame::InspectReq,
        3 => {
            let mut next_txn = 500;
            Frame::InspectResp(NodeSnapshot {
                site: rng.below(16) as u32,
                items: (0..rng.below(5))
                    .map(|k| (ItemId(k), gen_entry(rng, 2, &mut next_txn)))
                    .collect(),
                poly_count: rng.below(100),
                quiescent: rng.chance(0.5),
            })
        }
        4 => Frame::MetricsReq,
        5 => {
            let counters = (0..rng.below(4))
                .map(|k| (format!("counter.{k}"), rng.below(1 << 30)))
                .collect();
            let histograms = (0..rng.below(3))
                .map(|k| {
                    let obs = (0..rng.below(6))
                        .map(|_| rng.uniform(0.0, 10.0).to_bits())
                        .collect();
                    (format!("hist.{k}"), obs)
                })
                .collect();
            Frame::MetricsResp(WireMetrics {
                counters,
                histograms,
            })
        }
        _ => Frame::Shutdown,
    }
}

fn gen_frame(rng: &mut SimRng) -> Frame {
    let kind = rng.below(FRAME_KINDS);
    gen_frame_kind(rng, kind)
}

fn roundtrip(frame: &Frame) {
    let bytes = frame_bytes(frame).expect("encode");
    let (decoded, consumed) = decode_frame(&bytes)
        .expect("decode own encoding")
        .expect("complete frame");
    assert_eq!(consumed, bytes.len(), "frame length accounting");
    assert_eq!(&decoded, frame, "round-trip fidelity");
}

/// The variant name of a `Debug`-derived enum value (`Submit { .. }` →
/// `Submit`), used to name golden lines.
fn variant_name(value: &impl std::fmt::Debug) -> String {
    format!("{value:?}")
        .chars()
        .take_while(|c| c.is_alphanumeric())
        .collect()
}

fn submit_with_guard(guard: Expr) -> Frame {
    Frame::Proto {
        from: 0,
        msg: Msg::Submit {
            req_id: 1,
            spec: TransactionSpec::new().guard(guard),
        },
    }
}

fn reply(result: TxnResult) -> Frame {
    Frame::Proto {
        from: 0,
        msg: Msg::Reply { req_id: 1, result },
    }
}

/// The frames `results/wire_golden.txt` pins, in file order: every frame
/// kind, every `Msg` variant, every `Expr`, `TxnResult` and `AbortReason`
/// shape. Generated samples come from a fixed seed, so the list is the same
/// on every run.
fn golden_samples() -> Vec<(String, Frame)> {
    let mut rng = SimRng::new(42);
    let mut out = vec![("frame.Hello".to_string(), Frame::Hello { node: 7 })];
    // Kind 1, Proto, is covered variant by variant below.
    for kind in 2..FRAME_KINDS {
        let frame = gen_frame_kind(&mut rng, kind);
        out.push((format!("frame.{}", variant_name(&frame)), frame));
    }
    // The draws of the retired kind 7, so the `msg.*` samples stay as pinned.
    let _ = (
        rng.below(1000),
        rng.below(60_000),
        rng.uniform(1.0, 4.0),
        rng.uniform(0.0, 1.0),
        rng.below(100),
    );
    for variant in 0..MSG_VARIANTS {
        let msg = gen_msg(&mut rng, variant);
        let name = format!("msg.{variant:02}.{}", variant_name(&msg));
        out.push((name, Frame::Proto { from: 3, msg }));
    }
    let (l, r) = (
        || Box::new(Expr::read(ItemId(3))),
        || Box::new(Expr::int(7)),
    );
    for (name, value) in [
        ("int", Value::Int(-40)),
        ("bool", Value::Bool(true)),
        ("str", Value::Str("idle".into())),
    ] {
        out.push((
            format!("expr.Const.{name}"),
            submit_with_guard(Expr::Const(value)),
        ));
    }
    out.push(("expr.Read".into(), submit_with_guard(*l())));
    for op in [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
    ] {
        out.push((
            format!("expr.Bin.{op:?}"),
            submit_with_guard(Expr::Bin(op, l(), r())),
        ));
    }
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ] {
        out.push((
            format!("expr.Cmp.{op:?}"),
            submit_with_guard(Expr::Cmp(op, l(), r())),
        ));
    }
    out.push(("expr.Neg".into(), submit_with_guard(Expr::Neg(l()))));
    out.push(("expr.Not".into(), submit_with_guard(Expr::Not(l()))));
    out.push(("expr.If".into(), submit_with_guard(Expr::If(l(), r(), l()))));
    let poly = Entry::in_doubt(
        Entry::Simple(Value::Int(90)),
        Entry::in_doubt(
            Entry::Simple(Value::Str("busy".into())),
            Entry::Simple(Value::Str("idle".into())),
            TxnId(2),
        ),
        TxnId(1),
    );
    for (name, outputs, was_poly) in [
        (
            "simple",
            vec![("balance".to_string(), Entry::Simple(Value::Int(60)))],
            false,
        ),
        ("poly", vec![("balance".to_string(), poly.clone())], true),
    ] {
        let result = TxnResult::Committed {
            granted: Entry::Simple(Value::Bool(true)),
            outputs,
            was_poly,
        };
        out.push((format!("result.Committed.{name}"), reply(result)));
    }
    for reason in [
        AbortReason::LockConflict,
        AbortReason::Timeout,
        AbortReason::Eval("type error: Int + Bool".into()),
        AbortReason::Rejected("R001: unreadable item".into()),
    ] {
        let name = format!("result.Aborted.{}", variant_name(&reason));
        out.push((name, reply(TxnResult::Aborted { reason })));
    }
    out
}

/// Pins the wire format: every sample encodes to exactly its fixture line
/// and every fixture line decodes to exactly its sample. A deliberate format
/// change (or a new variant) is made by editing the fixture; the failure
/// message prints the line to paste.
#[test]
fn golden_bytes_are_pinned() {
    let fixture: Vec<(&str, &str)> = include_str!("../../../results/wire_golden.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("record."))
        .map(|l| l.split_once(' ').expect("`name hex` line"))
        .collect();
    let samples = golden_samples();
    assert_eq!(
        fixture.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        samples
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
        "fixture lines and samples must name the same things in the same order"
    );
    for ((name, frame), (_, hex)) in samples.iter().zip(&fixture) {
        let encoded: String = frame_bytes(frame)
            .expect("encode")
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            &encoded, hex,
            "encoding changed; fixture line would be `{name} {encoded}`"
        );
        let bytes: Vec<u8> = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(
            decode_frame(&bytes),
            Ok(Some((frame.clone(), bytes.len()))),
            "fixture line {name} no longer decodes to its sample"
        );
    }
    // The fixture must carry polyvalues wherever the type can hold one.
    for bearer in [
        "frame.InspectResp",
        "msg.01.Reply",
        "msg.03.ReadResp",
        "msg.05.Prepare",
        "msg.11.PcPrepare",
        "msg.19.SnapshotReadReply",
    ] {
        let (_, frame) = samples
            .iter()
            .find(|(name, _)| name == bearer)
            .expect("sample");
        assert!(
            format!("{frame:?}").contains("Poly("),
            "{bearer} sample holds no polyvalue"
        );
    }
}

/// A frame with a valid header and checksum around an arbitrary payload —
/// what a hostile peer, not a corrupting network, would send.
fn raw_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = b"PVW1".to_vec();
    out.extend([1, kind, 0, 0]);
    out.extend((payload.len() as u32).to_le_bytes());
    let sum = pv_store::codec::checksum(&out) ^ pv_store::codec::checksum(payload);
    out.extend(sum.to_le_bytes());
    out.extend(payload);
    out
}

/// A length prefix is the sender's claim, not a fact: a count the payload
/// cannot back must be a decode error, never an allocation of that size
/// (which aborts the process). One case per nesting level of a polyvalue,
/// plus the two plain lists of the commit path.
#[test]
fn hostile_counts_are_errors_not_allocations() {
    let le32 = |n: u32| n.to_le_bytes().to_vec();
    let le64 = |n: u64| n.to_le_bytes().to_vec();
    // from: 0, then the message's tag and txn.
    let proto = |tag: u8| [le32(0), vec![tag], le64(9)].concat();
    // ReadResp with one entry: item 0, Poly [ .. up to the pair count
    let pairs = [proto(3), le32(1), le64(0), vec![1]].concat();
    // .. one pair, its value Int(5), up to the product count
    let products = [&pairs[..], &le32(1), &[0], &le64(5)].concat();
    let literals = [&products[..], &le32(1)].concat();
    for (what, prefix) in [
        ("polyvalue pair count", pairs),
        ("condition product count", products),
        ("product literal count", literals),
        ("Prepare writes count", proto(5)),
        ("PcVote parts count", [proto(12), le32(1)].concat()),
    ] {
        let payload = [prefix, le32(u32::MAX)].concat();
        assert_eq!(
            decode_frame(&raw_frame(1, &payload)),
            Err(DecodeError::Malformed),
            "{what}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `Msg` variant round-trips — the seed varies payload shape,
    /// the loop guarantees variant coverage on every single case.
    #[test]
    fn every_msg_variant_round_trips(seed: u64) {
        let mut rng = SimRng::new(seed);
        for variant in 0..MSG_VARIANTS {
            let frame = Frame::Proto {
                from: rng.below(64) as u32,
                msg: gen_msg(&mut rng, variant),
            };
            roundtrip(&frame);
        }
    }

    /// Control frames (hello, inspect, metrics, shutdown) round-trip with
    /// randomized payloads.
    #[test]
    fn control_frames_round_trip(seed: u64) {
        let mut rng = SimRng::new(seed);
        for _ in 0..8 {
            roundtrip(&gen_frame(&mut rng));
        }
    }

    /// Every strict prefix of a valid frame decodes as `Ok(None)` (need
    /// more bytes) — never a panic, and never a spurious success.
    #[test]
    fn truncation_is_incomplete_never_panic(seed: u64) {
        let mut rng = SimRng::new(seed);
        let frame = gen_frame(&mut rng);
        let bytes = frame_bytes(&frame).expect("encode");
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Ok(None) => {}
                Ok(Some((got, consumed))) => {
                    panic!("prefix {cut}/{} decoded as {got:?} ({consumed} bytes)", bytes.len())
                }
                Err(e) => panic!("prefix {cut}/{} errored: {e}", bytes.len()),
            }
        }
    }

    /// Flipping bytes anywhere in a frame must surface as a structured
    /// decode error (or, for header-length tampering, an incomplete read) —
    /// never a panic, and never silently the original frame *unless* the
    /// flip landed in bytes the checksum doesn't cover (there are none) or
    /// produced an equally-valid encoding of the same frame (impossible:
    /// the encoding is canonical).
    #[test]
    fn corruption_never_panics(seed: u64) {
        let mut rng = SimRng::new(seed);
        let frame = gen_frame(&mut rng);
        let bytes = frame_bytes(&frame).expect("encode");
        for _ in 0..32 {
            let mut bad = bytes.clone();
            let at = rng.below(bad.len() as u64) as usize;
            let bit = 1u8 << rng.below(8);
            bad[at] ^= bit;
            match decode_frame(&bad) {
                // Length-field tampering can make the frame look longer
                // than the buffer: incomplete is fine.
                Ok(None) => {}
                Ok(Some((got, _))) => {
                    assert_ne!(got, frame, "corrupt bytes decoded as the original");
                    // A flip confined to the payload must be caught by the
                    // checksum; reaching here means the header was hit in a
                    // way that produced a different valid frame, which the
                    // 16-byte header layout makes impossible.
                    panic!("single-bit corruption at {at} yielded a valid frame");
                }
                Err(_) => {} // structured error: exactly what we want
            }
        }
    }

    /// Arbitrary garbage — random bytes with a plausible prefix mixed in —
    /// never panics the decoder.
    #[test]
    fn random_garbage_never_panics(seed: u64) {
        let mut rng = SimRng::new(seed);
        let len = rng.below(512) as usize;
        let mut garbage: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        // Half the cases: graft a valid magic/version on the front so the
        // decoder gets past the cheap header checks into payload parsing.
        if rng.chance(0.5) && garbage.len() >= 6 {
            garbage[0..4].copy_from_slice(&u32::from_le_bytes(*b"PVW1").to_le_bytes());
            garbage[4] = 1;
        }
        let _ = decode_frame(&garbage); // any Ok/Err is fine; no panic
    }
}
