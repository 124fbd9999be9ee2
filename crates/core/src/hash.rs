//! A deterministic hasher for the engine's hash maps.
//!
//! The lock table and the store's keyspace key hash maps by [`ItemId`] and
//! [`TxnId`]. `std`'s `RandomState` seeds itself per process, so bucket
//! layout (and anything that ever iterated it) would differ run to run;
//! [`DetState`] has no seed, so map layout is reproducible across processes
//! and platforms.
//!
//! [`ItemId`]: crate::ItemId
//! [`TxnId`]: crate::TxnId

use std::hash::{BuildHasher, Hasher};

/// An FxHash-style multiply-rotate hasher. Deterministic across processes
/// and platforms (unlike `RandomState`), so map layout is reproducible —
/// and no per-process seed can perturb anything observable.
#[derive(Debug, Clone, Default)]
pub struct DetHasher(u64);

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

impl DetHasher {
    fn mix(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

/// [`BuildHasher`] for [`DetHasher`] (zero state, fully deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}
