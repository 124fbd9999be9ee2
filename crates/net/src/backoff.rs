//! Reconnect policy of the socket runtime: exponential backoff with
//! deterministic jitter.
//!
//! The original runtime retried a dead peer on a fixed cadence
//! (`RetryBudget`: N attempts, fixed delay) and retried *synchronously*,
//! stalling the whole event loop while a peer was down. [`Backoff`] is the
//! policy half of the fix: how long to wait before attempt `k`, doubling
//! from `base` toward `max`, with ±25 % of randomisation so a
//! healed partition is rejoined by staggered probes instead of a thundering
//! herd. The jitter is a pure function of `(salt, attempt)`, so every delay a
//! node ever picks is reproducible from its config.
//!
//! The event-loop half lives in [`node`](crate::node): each peer link counts
//! its consecutive failures and holds the time of its next dial, and
//! `attempts` consecutive failures are a structured
//! `EngineError::Unreachable` — degraded, never a hot loop and never a hang.
//! A node's policy is fixed when it is built.

use std::time::Duration;

/// Fraction of each delay randomised: a delay lands uniformly within ±25 %
/// of its nominal value.
const JITTER: f64 = 0.25;

/// An exponential-backoff policy with deterministic jitter.
///
/// Delay before attempt `k` (1-based) is `min(base * 2^(k-1), max)`, scaled
/// by a factor drawn uniformly from `[0.75, 1.25]` via a hash of
/// `(salt, k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound any single delay grows to (before jitter).
    pub max: Duration,
    /// Consecutive failures tolerated before a peer is unreachable.
    pub attempts: u32,
}

impl Default for Backoff {
    /// Startup-friendly default: ~50 attempts spanning a few minutes of
    /// wall clock at the cap, matching the old `RetryBudget` spirit
    /// (tolerate a slow-binding peer) while backing off instead of polling.
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(50),
            max: Duration::from_millis(1000),
            attempts: 50,
        }
    }
}

impl Backoff {
    /// A tight policy for tests that want fast structured failure.
    pub fn fast_fail() -> Self {
        Backoff {
            base: Duration::from_millis(50),
            max: Duration::from_millis(200),
            attempts: 3,
        }
    }

    /// A patient policy for chaos runs: peers stay down for seconds at a
    /// time and must be survived, not declared unreachable.
    pub fn patient() -> Self {
        Backoff {
            base: Duration::from_millis(25),
            max: Duration::from_millis(500),
            attempts: 10_000,
        }
    }

    /// The delay before attempt `attempt` (1-based) without jitter, in
    /// seconds: doubled from `base` per attempt, capped at `max`.
    fn nominal(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(63);
        let grown = self.base.as_secs_f64() * 2f64.powi(exp as i32);
        grown.min(self.max.as_secs_f64())
    }

    /// How long to wait before attempt `attempt` (1-based). Deterministic in
    /// `(self, salt, attempt)`; different salts (peer ids, client ids)
    /// de-correlate the fleets so a healed partition sees staggered probes.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        // splitmix64 of (salt, attempt) → uniform in [-1, 1).
        let mut z = salt ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let sign = 2.0 * unit - 1.0; // [-1,1)
        Duration::from_secs_f64((self.nominal(attempt) * (1.0 + JITTER * sign)).max(0.0))
    }

    /// The TCP connect timeout a dial attempt under this policy should use.
    pub fn connect_timeout(&self) -> Duration {
        self.base.max(Duration::from_millis(250))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_to_the_cap() {
        let b = Backoff::default();
        assert_eq!(b.nominal(1), 0.05);
        assert_eq!(b.nominal(2), 0.1);
        assert_eq!(b.nominal(3), 0.2);
        assert_eq!(b.nominal(30), b.max.as_secs_f64(), "growth caps at max");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let b = Backoff::default();
        for attempt in 1..10 {
            for salt in [1u64, 7, 42] {
                let d = b.delay(attempt, salt);
                assert_eq!(d, b.delay(attempt, salt), "same inputs, same delay");
                let plain = b.nominal(attempt);
                assert!(
                    (d.as_secs_f64() - plain).abs() <= plain * JITTER + 1e-9,
                    "jitter stays within ±{JITTER} of {plain}"
                );
            }
        }
    }

    #[test]
    fn different_salts_decorrelate() {
        let b = Backoff::default();
        let delays: Vec<Duration> = (0..8).map(|salt| b.delay(4, salt)).collect();
        let distinct: std::collections::BTreeSet<Duration> = delays.iter().copied().collect();
        assert!(distinct.len() > 4, "salts spread the herd: {delays:?}");
    }
}
