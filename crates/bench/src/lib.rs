//! # pv-bench — benchmark harness
//!
//! Binaries regenerate every table and figure of the paper (plus extension
//! experiments); `pvbench`'s per-layer metrics measure the mechanism's costs.
//! See `EXPERIMENTS.md` at the repository root for the index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

/// Parses an optional `--seed N` pair from the command line, defaulting to
/// the given value, so table generators are reproducible but steerable.
pub fn seed_from_args(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--seed")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_seed_without_flag() {
        assert_eq!(super::seed_from_args(7), 7);
    }
}
