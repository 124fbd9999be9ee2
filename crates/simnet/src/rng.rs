//! Deterministic random number streams.
//!
//! Every source of randomness in a simulation run derives from one master
//! seed, so a run is exactly reproducible from `(configuration, seed)`.
//! Independent components fork their own sub-streams so that adding a
//! component does not perturb the draws seen by the others.

/// A deterministic random stream: xoshiro256++, its state expanded from the
/// seed with SplitMix64. `golden_streams_are_pinned` holds the streams fixed.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

/// SplitMix64's increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates the master stream for a run.
    pub fn new(seed: u64) -> Self {
        let s = [1u64, 2, 3, 4].map(|i| mix(seed.wrapping_add(i.wrapping_mul(GAMMA))));
        SimRng { s, seed }
    }

    /// One xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Forks an independent sub-stream identified by `stream`.
    ///
    /// Forking is a pure function of `(seed, stream)`: the sub-stream does
    /// not depend on how much the parent has been consumed.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::new(mix(self.seed ^ stream.wrapping_mul(GAMMA)))
    }

    /// A uniform draw in `[0, 1)`: the top 53 bits as the mantissa.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n
    }

    /// A Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// An exponential draw with the given mean, by inverse transform
    /// (`-mean · ln(1-u)`, which is exact).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean >= 0.0, "exponential mean must be non-negative");
        if mean == 0.0 {
            return 0.0;
        }
        let u: f64 = self.unit();
        -mean * (1.0 - u).ln()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    /// `(seed, first 8 unit() bit patterns, first 8 below(1000) draws)`.
    #[rustfmt::skip]
    const GOLDEN: [(u64, [u64; 8], [u64; 8]); 3] = [
        (0, [0x3fd4c5d7585242c8, 0x3fd8769bcf70e034, 0x3fd703f7e47b269e, 0x3f8775fc61ddf2c0,
             0x3fdfb2813aebd296, 0x3f950f0ddd5fc220, 0x3feb6e9218eb56a0, 0x3feb0e687cc8c979],
            [503, 255, 180, 330, 874, 858, 806, 553]),
        (1, [0x3fe9f8ba0fede078, 0x3fe7e8482652c7fc, 0x3fb9a37d5757aaf0, 0x3fe7e10233e0b9aa,
             0x3fc7a38c25c30c34, 0x3fe2e533f95ce404, 0x3fef9478f2a11e82, 0x3fe0bfd4b9206c7e],
            [387, 965, 744, 470, 780, 485, 223, 345]),
        (42, [0x3fea0ec9a9e88ecd, 0x3fd467905d15dbcc, 0x3fef7c0f9f61849d, 0x3fe66fb3ec019b06,
              0x3fe96463870e908d, 0x3fe2d1b3e009ca1b, 0x3fc00b8c7f910d18, 0x3fe35d29c0e1db19],
            [951, 753, 100, 464, 331, 965, 78, 430]),
    ];
    /// `SimRng::new(42).fork(7)`: first 8 `below(1000)` draws.
    const GOLDEN_FORK: [u64; 8] = [616, 452, 315, 528, 610, 21, 963, 851];
    /// `0..10` after `SimRng::new(42).shuffle`.
    const GOLDEN_SHUFFLE: [u32; 10] = [6, 9, 7, 8, 0, 5, 3, 4, 2, 1];

    /// Pins the generator: xoshiro256++ seeded through SplitMix64, `unit`
    /// from the top 53 bits, `below` by modulo. Every simulation count that
    /// "repeats exactly per seed" rests on these streams, so a change to the
    /// generator must show up here first, not as a drifted experiment.
    #[test]
    fn golden_streams_are_pinned() {
        let units = |mut r: SimRng| -> Vec<u64> { (0..8).map(|_| r.unit().to_bits()).collect() };
        let belows = |mut r: SimRng| -> Vec<u64> { (0..8).map(|_| r.below(1000)).collect() };
        for (seed, unit_bits, below) in GOLDEN {
            assert_eq!(units(SimRng::new(seed)), unit_bits, "unit, seed {seed}");
            assert_eq!(belows(SimRng::new(seed)), below, "below, seed {seed}");
        }
        assert_eq!(belows(SimRng::new(42).fork(7)), GOLDEN_FORK);
        let mut xs: Vec<u32> = (0..10).collect();
        SimRng::new(42).shuffle(&mut xs);
        assert_eq!(xs, GOLDEN_SHUFFLE);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<f64> = (0..10).map(|_| a.unit()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.unit()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_independent_of_consumption() {
        let parent = SimRng::new(7);
        let mut consumed = parent.clone();
        for _ in 0..50 {
            consumed.unit();
        }
        let mut f1 = parent.fork(3);
        let mut f2 = consumed.fork(3);
        for _ in 0..20 {
            assert_eq!(f1.unit(), f2.unit());
        }
    }

    #[test]
    fn fork_streams_are_distinct() {
        let parent = SimRng::new(7);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(2);
        let v1: Vec<f64> = (0..10).map(|_| f1.unit()).collect();
        let v2: Vec<f64> = (0..10).map(|_| f2.unit()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let u = r.uniform(5.0, 6.0);
            assert!((5.0..6.0).contains(&u));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < 0.15 * mean, "sample mean {got}");
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut r = SimRng::new(11);
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(13);
        let mut xs: Vec<u32> = (0..20).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn pick_returns_member() {
        let mut r = SimRng::new(13);
        let xs = [1, 2, 3];
        for _ in 0..50 {
            assert!(xs.contains(r.pick(&xs)));
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(1).below(0);
    }

    #[test]
    #[should_panic(expected = "pick from empty")]
    fn pick_empty_panics() {
        let xs: [u8; 0] = [];
        SimRng::new(1).pick(&xs);
    }
}
