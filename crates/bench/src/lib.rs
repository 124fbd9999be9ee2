//! # pv-bench — benchmark harness
//!
//! Binaries regenerate every table and figure of the paper (plus extension
//! experiments); `pvbench`'s per-layer metrics measure the mechanism's costs.
//! See `EXPERIMENTS.md` at the repository root for the index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

/// Parses the arguments after the program name: nothing, or `--seed N`.
/// Any other argument, or a seed that is not a `u64`, is an error.
fn parse_seed(args: &[String], default: u64) -> Result<u64, String> {
    match args {
        [] => Ok(default),
        [flag, n] if flag == "--seed" => n.parse().map_err(|_| format!("bad seed {n:?}")),
        [flag] if flag == "--seed" => Err("--seed needs a value".into()),
        [arg, ..] => Err(format!("unexpected argument {arg:?}")),
    }
}

/// Checks that the arguments after the program name are none at all.
fn parse_none(args: &[String]) -> Result<(), String> {
    match args {
        [] => Ok(()),
        [arg, ..] => Err(format!("unexpected argument {arg:?}")),
    }
}

/// For the generators that take no arguments: any argument prints a usage
/// line and exits 2, so a typo or a `--seed` is not silently ignored.
pub fn no_args() {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    if let Err(e) = parse_none(&args.collect::<Vec<_>>()) {
        eprintln!("{e}\nusage: {program} (takes no arguments)");
        std::process::exit(2)
    }
}

/// The seed from the command line (`--seed N`, else `default`), so table
/// generators are reproducible but steerable. A bad argument prints a
/// usage line and exits 2.
pub fn seed_from_args(default: u64) -> u64 {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    parse_seed(&args.collect::<Vec<_>>(), default).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {program} [--seed N]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::{parse_none, parse_seed};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_seed_without_flag() {
        assert_eq!(parse_seed(&[], 7), Ok(7));
    }

    #[test]
    fn seed_flag_sets_the_seed() {
        assert_eq!(parse_seed(&args(&["--seed", "5"]), 7), Ok(5));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--seed", "abc"][..],
            &["--seed"],
            &["--test"],
            &["--seed", "5", "--test"],
        ] {
            assert!(parse_seed(&args(bad), 7).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn no_arguments_means_none_at_all() {
        assert_eq!(parse_none(&[]), Ok(()));
        for bad in [&["--seed", "5"][..], &["--bogus"], &[""], &["5"]] {
            assert!(parse_none(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
