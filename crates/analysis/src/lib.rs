//! `pv-analysis` — ahead-of-time static analysis for the polyvalue system.
//!
//! The runtime (`pv-engine`) discovers problems *dynamically*: an ill-typed
//! expression aborts its transaction at evaluation time, a malformed
//! condition set panics polyvalue assembly, a protocol bug corrupts state
//! silently. This crate moves those discoveries ahead of execution with
//! three passes that share one diagnostic vocabulary ([`Diagnostic`],
//! stable `PV0xx` [`Code`]s, documented in DESIGN.md §8):
//!
//! 1. **Expression checking** ([`expr_check`]) — usage-based type inference
//!    over [`pv_core::expr::Expr`], read/write-set inference, and statically
//!    evaluable hazards (division by a constant zero, constant guards,
//!    guarded writes unrelated to their guard).
//! 2. **Condition-algebra verification** ([`cond_check`]) — symbolic proof
//!    that a planned condition set is complete and pairwise disjoint (the
//!    §3.1 polyvalue invariant), detection of unreachable alternatives, and
//!    the worst-case alternative-explosion bound of §3.2.
//! 3. **Trace conformance** ([`trace_check`]) — replay of a recorded
//!    [`pv_simnet::TraceEvent`] stream against the protocol's legal
//!    transition structure (prepare before decide, timeout before install,
//!    outcome before collapse).
//!
//! The passes are pure functions over `pv-core`/`pv-simnet` data — this
//! crate deliberately depends on nothing else, so the engine, the CLI
//! (`pv-lint`), and CI can all call it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cond_check;
pub mod diag;
pub mod expr_check;
pub mod trace_check;

pub use cond_check::{
    check_condition_set, check_explosion, check_polyvalue, explosion_bound, ItemUncertainty,
};
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use expr_check::{check_expr, check_spec, const_eval, SpecAnalysis, Ty};
pub use trace_check::{check_trace, check_trace_text};

use pv_core::spec::TransactionSpec;

/// Runs every spec-level pass on one transaction: expression checking plus
/// the structural checks that need no knowledge of current item state.
///
/// This is the analysis the engine's opt-in submit gate runs (with
/// `EngineConfig::static_checks`); callers that also know the uncertainty
/// of the items involved can add [`check_explosion`] on top.
pub fn analyze_spec(spec: &TransactionSpec) -> Report {
    check_spec(spec).report
}

/// Convenience for gates: `Err(rendered report)` when `spec` has any
/// `Error`-severity finding, `Ok(())` otherwise (warnings pass).
pub fn gate_spec(spec: &TransactionSpec) -> Result<(), String> {
    let report = analyze_spec(spec);
    if report.has_errors() {
        Err(report.render().trim_end().to_owned())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::expr::{Expr, ItemId};

    #[test]
    fn gate_accepts_well_typed_spec() {
        let spec = TransactionSpec::new()
            .guard(Expr::read(ItemId(0)).ge(Expr::int(10)))
            .update(ItemId(0), Expr::read(ItemId(0)).sub(Expr::int(10)));
        assert!(gate_spec(&spec).is_ok());
    }

    #[test]
    fn gate_rejects_ill_typed_spec() {
        let spec = TransactionSpec::new().update(ItemId(0), Expr::int(1).add(Expr::bool(true)));
        let err = gate_spec(&spec).unwrap_err();
        assert!(err.contains("PV001"), "unexpected: {err}");
    }

    #[test]
    fn gate_passes_warnings_through() {
        // A constant guard is a warning, not an error: the gate lets it by.
        let spec = TransactionSpec::new()
            .guard(Expr::bool(true))
            .update(ItemId(0), Expr::int(1));
        assert!(gate_spec(&spec).is_ok());
    }
}
