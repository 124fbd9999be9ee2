//! Typed timer keys.
//!
//! The protocol machines arm timers by emitting
//! [`Output::ArmTimer`](crate::machine::Output::ArmTimer) with a [`TimerKey`];
//! drivers hand the key back via
//! [`Input::Timer`](crate::machine::Input::Timer) when the timer fires. For
//! runtimes whose timer facility carries a bare `u64` (the simulation's
//! `Ctx::set_timer`, the wall-clock `SiteHost`'s timer map), [`TimerKey::encode`]
//! packs the key into one word and [`TimerKey::decode`] recovers it:
//!
//! ```text
//! 63     60 59        48 47        32 31                     0
//! +--------+------------+------------+------------------------+
//! | tag(4) |  site(12)  | epoch (16) |      counter (32)      |
//! +--------+------------+------------+------------------------+
//! ```
//!
//! The low 60 bits are the transaction id (whose own site field must fit in
//! 12 bits — clusters beyond 4095 sites would need a wider key type); the
//! tag selects the purpose. Keys are opaque payload to every runtime — only
//! the fire-time dispatch reads them — so the packing never influences
//! scheduling.

use pv_core::TxnId;
use std::fmt;

/// What a pending protocol timer is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKey {
    /// Coordinator patience for read responses.
    CoordRead(TxnId),
    /// Coordinator patience for readies.
    CoordReady(TxnId),
    /// Participant wait-phase patience (the Figure-1 timeout edge).
    PartWait(TxnId),
    /// Participant read-lease expiry for a transaction that never progressed.
    ReadLease(TxnId),
    /// A wound-wait-queued read request waited too long.
    QueueExpire(TxnId),
    /// The periodic §3.3 outcome-inquiry tick.
    Inquire,
}

/// Tag values; `0` is reserved as invalid so an all-zero key never decodes.
const TAG_COORD_READ: u64 = 1;
const TAG_COORD_READY: u64 = 2;
const TAG_PART_WAIT: u64 = 3;
const TAG_READ_LEASE: u64 = 4;
const TAG_QUEUE_EXPIRE: u64 = 5;
const TAG_INQUIRE: u64 = 6;

/// Mask of the 60 transaction bits.
const TXN_MASK: u64 = (1 << 60) - 1;

impl TimerKey {
    /// Packs the key into a `u64` for runtimes with untyped timer payloads.
    ///
    /// # Panics
    ///
    /// Panics if the transaction's coordinator site exceeds 12 bits (4095);
    /// see the module docs for the layout.
    pub fn encode(self) -> u64 {
        let (tag, txn) = match self {
            TimerKey::CoordRead(txn) => (TAG_COORD_READ, txn.raw()),
            TimerKey::CoordReady(txn) => (TAG_COORD_READY, txn.raw()),
            TimerKey::PartWait(txn) => (TAG_PART_WAIT, txn.raw()),
            TimerKey::ReadLease(txn) => (TAG_READ_LEASE, txn.raw()),
            TimerKey::QueueExpire(txn) => (TAG_QUEUE_EXPIRE, txn.raw()),
            TimerKey::Inquire => (TAG_INQUIRE, 0),
        };
        assert!(
            txn & !TXN_MASK == 0,
            "timer key cannot carry a site id above 4095"
        );
        (tag << 60) | txn
    }

    /// Recovers a key packed by [`TimerKey::encode`]; `None` for words that
    /// were never produced by it (e.g. a stale key from another subsystem).
    pub fn decode(raw: u64) -> Option<TimerKey> {
        let txn = TxnId(raw & TXN_MASK);
        match raw >> 60 {
            TAG_COORD_READ => Some(TimerKey::CoordRead(txn)),
            TAG_COORD_READY => Some(TimerKey::CoordReady(txn)),
            TAG_PART_WAIT => Some(TimerKey::PartWait(txn)),
            TAG_READ_LEASE => Some(TimerKey::ReadLease(txn)),
            TAG_QUEUE_EXPIRE => Some(TimerKey::QueueExpire(txn)),
            TAG_INQUIRE if txn == TxnId(0) => Some(TimerKey::Inquire),
            _ => None,
        }
    }
}

impl fmt::Display for TimerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimerKey::CoordRead(txn) => write!(f, "coord-read({txn})"),
            TimerKey::CoordReady(txn) => write!(f, "coord-ready({txn})"),
            TimerKey::PartWait(txn) => write!(f, "part-wait({txn})"),
            TimerKey::ReadLease(txn) => write!(f, "read-lease({txn})"),
            TimerKey::QueueExpire(txn) => write!(f, "queue-expire({txn})"),
            TimerKey::Inquire => write!(f, "inquire"),
        }
    }
}

/// Every key constructor, for exhaustive round-trip tests.
#[cfg(test)]
fn all_keys(txn: TxnId) -> Vec<TimerKey> {
    vec![
        TimerKey::CoordRead(txn),
        TimerKey::CoordReady(txn),
        TimerKey::PartWait(txn),
        TimerKey::ReadLease(txn),
        TimerKey::QueueExpire(txn),
        TimerKey::Inquire,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::encode_txn;

    #[test]
    fn round_trip_every_variant() {
        // Boundary transactions: zero, max legal site/epoch/counter, mixes.
        let txns = [
            encode_txn(0, 0, 0),
            encode_txn(4095, 0, 0),
            encode_txn(0, 0xFFFF, 0),
            encode_txn(0, 0, 0xFFFF_FFFF),
            encode_txn(4095, 0xFFFF, 0xFFFF_FFFF),
            encode_txn(7, 3, 12345),
        ];
        for txn in txns {
            for key in all_keys(txn) {
                assert_eq!(TimerKey::decode(key.encode()), Some(key), "{key}");
            }
        }
    }

    #[test]
    fn distinct_keys_encode_distinctly() {
        let a = encode_txn(1, 0, 7);
        let b = encode_txn(2, 0, 7);
        let mut seen = std::collections::BTreeSet::new();
        for txn in [a, b] {
            for key in all_keys(txn) {
                seen.insert(key.encode());
            }
        }
        // Inquire carries no txn, so the two txn sets share exactly one word.
        assert_eq!(seen.len(), 11);
    }

    #[test]
    fn garbage_words_do_not_decode() {
        assert_eq!(TimerKey::decode(0), None);
        assert_eq!(TimerKey::decode(42), None); // tag 0
        assert_eq!(TimerKey::decode(u64::MAX), None); // tag 15
        // Inquire with a nonzero txn field was never encoded.
        assert_eq!(TimerKey::decode((6 << 60) | 99), None);
    }

    #[test]
    #[should_panic(expected = "site id above 4095")]
    fn oversized_site_panics() {
        TimerKey::PartWait(encode_txn(4096, 0, 0)).encode();
    }

    #[test]
    fn display_is_human_readable() {
        let txn = encode_txn(1, 0, 7);
        assert!(TimerKey::PartWait(txn).to_string().starts_with("part-wait"));
        assert_eq!(TimerKey::Inquire.to_string(), "inquire");
    }
}
