//! Property tests: the condition algebra is a faithful boolean algebra.
//!
//! Strategy: generate random condition ASTs over a small variable universe,
//! build both a `Condition` (canonical DNF) and a reference closure, and
//! compare them on every assignment of the universe (2^N, N ≤ 6).

use proptest::prelude::*;
use pv_core::{Condition, Literal, Product, TxnId};
use std::collections::BTreeMap;

/// Number of transaction variables in the test universe.
const VARS: u64 = 5;

/// A reference boolean formula evaluated directly.
#[derive(Debug, Clone)]
enum Formula {
    Tru,
    Fls,
    Var(u64),
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
}

impl Formula {
    fn eval(&self, assignment: &BTreeMap<TxnId, bool>) -> bool {
        match self {
            Formula::Tru => true,
            Formula::Fls => false,
            Formula::Var(v) => assignment.get(&TxnId(*v)).copied().unwrap_or(false),
            Formula::Not(a) => !a.eval(assignment),
            Formula::And(a, b) => a.eval(assignment) && b.eval(assignment),
            Formula::Or(a, b) => a.eval(assignment) || b.eval(assignment),
        }
    }

    fn to_condition(&self) -> Condition {
        match self {
            Formula::Tru => Condition::tru(),
            Formula::Fls => Condition::fls(),
            Formula::Var(v) => Condition::var(TxnId(*v)),
            Formula::Not(a) => a.to_condition().not(),
            Formula::And(a, b) => a.to_condition().and(&b.to_condition()),
            Formula::Or(a, b) => a.to_condition().or(&b.to_condition()),
        }
    }
}

fn formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::Tru),
        Just(Formula::Fls),
        (0..VARS).prop_map(Formula::Var),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| Formula::Not(Box::new(a))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::Or(Box::new(a), Box::new(b))),
        ]
    })
}

/// Width of the product [`wide_product`] builds: wider than the one- and
/// two-literal products of in-doubt conditions, and than the universe.
const WIDE: u64 = 6;

fn all_assignments() -> Vec<BTreeMap<TxnId, bool>> {
    assignments(VARS)
}

/// Every assignment of transactions `0..vars`.
fn assignments(vars: u64) -> Vec<BTreeMap<TxnId, bool>> {
    (0u64..(1 << vars))
        .map(|bits| {
            (0..vars)
                .map(|v| (TxnId(v), bits & (1 << v) != 0))
                .collect()
        })
        .collect()
}

/// The product over transactions `0..WIDE` whose polarities are `bits`.
fn wide_product(bits: u64) -> Product {
    Product::from_literals((0..WIDE).map(|v| {
        if bits & (1 << v) != 0 {
            Literal::positive(TxnId(v))
        } else {
            Literal::negative(TxnId(v))
        }
    }))
    .expect("distinct variables never contradict")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The canonical DNF evaluates exactly like the source formula.
    #[test]
    fn dnf_matches_reference_semantics(f in formula()) {
        let cond = f.to_condition();
        for a in all_assignments() {
            prop_assert_eq!(cond.eval(&a), f.eval(&a), "assignment {:?}", a);
        }
    }

    /// `is_true`/`is_false` agree with exhaustive evaluation.
    #[test]
    fn constancy_checks_are_exact(f in formula()) {
        let cond = f.to_condition();
        let evals: Vec<bool> = all_assignments().iter().map(|a| f.eval(a)).collect();
        prop_assert_eq!(cond.is_true(), evals.iter().all(|&b| b));
        prop_assert_eq!(cond.is_false(), evals.iter().all(|&b| !b));
    }

    /// Double negation is semantically the identity (and syntactically, since
    /// the form is canonical and negation is computed canonically).
    #[test]
    fn double_negation_preserves_semantics(f in formula()) {
        let cond = f.to_condition();
        let back = cond.not().not();
        for a in all_assignments() {
            prop_assert_eq!(cond.eval(&a), back.eval(&a));
        }
    }

    /// Negation complements on every assignment.
    #[test]
    fn negation_complements(f in formula()) {
        let cond = f.to_condition();
        let neg = cond.not();
        for a in all_assignments() {
            prop_assert_eq!(cond.eval(&a), !neg.eval(&a));
        }
        // f ∨ ¬f is a tautology; f ∧ ¬f is a contradiction.
        prop_assert!(cond.or(&neg).is_true());
        prop_assert!(cond.and(&neg).is_false());
    }

    /// Outcome substitution equals semantic restriction, also on conditions
    /// that hold a six-literal product beside the formula's narrower ones.
    #[test]
    fn assign_is_semantic_restriction(
        f in formula(),
        with_wide: bool,
        wide in 0u64..(1 << WIDE),
        var in 0..WIDE,
        value: bool,
    ) {
        let mut cond = f.to_condition();
        if with_wide {
            cond = cond.or(&Condition::from_products([wide_product(wide)]));
        }
        let restricted = cond.assign(TxnId(var), value);
        for mut a in assignments(WIDE) {
            a.insert(TxnId(var), value);
            prop_assert_eq!(restricted.eval(&a), cond.eval(&a));
        }
        // The restricted condition no longer mentions the variable.
        prop_assert!(!restricted.vars().contains(&TxnId(var)));
    }

    /// `implies` is exactly semantic implication.
    #[test]
    fn implies_matches_semantics(f in formula(), g in formula()) {
        let cf = f.to_condition();
        let cg = g.to_condition();
        let semantic = all_assignments().iter().all(|a| !f.eval(a) || g.eval(a));
        prop_assert_eq!(cf.implies(&cg), semantic);
    }

    /// `disjoint_with` is exactly semantic non-overlap.
    #[test]
    fn disjoint_matches_semantics(f in formula(), g in formula()) {
        let cf = f.to_condition();
        let cg = g.to_condition();
        let semantic = all_assignments().iter().all(|a| !(f.eval(a) && g.eval(a)));
        prop_assert_eq!(cf.disjoint_with(&cg), semantic);
    }

    /// Canonicalisation is idempotent: rebuilding from the products of a
    /// canonical condition yields the same condition.
    #[test]
    fn canonical_form_is_stable(f in formula()) {
        let cond = f.to_condition();
        let rebuilt = Condition::from_products(cond.products().to_vec());
        prop_assert_eq!(cond, rebuilt);
    }

    /// No product in a canonical condition subsumes another, and none is
    /// contradictory (minimality of the stored representation).
    #[test]
    fn canonical_form_is_minimal(f in formula()) {
        let cond = f.to_condition();
        let ps = cond.products();
        for (i, p) in ps.iter().enumerate() {
            for (j, q) in ps.iter().enumerate() {
                if i != j {
                    prop_assert!(!p.subsumes(q), "{p} subsumes {q}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rendering a condition and parsing it back yields the same condition
    /// (Display and the parser are inverse up to canonicalisation, which
    /// Display's input already has).
    #[test]
    fn display_parse_round_trip(f in formula()) {
        let cond = f.to_condition();
        let rendered = cond.to_string();
        let parsed = pv_core::cond::parse_condition(&rendered)
            .expect("rendered conditions always parse");
        prop_assert_eq!(parsed, cond, "failed for {}", rendered);
    }
}
