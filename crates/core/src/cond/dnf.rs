//! Conditions in sum-of-products (disjunctive normal form).
//!
//! The paper (§3) keeps each polyvalue pair's predicate "reduced to
//! sum-of-products form"; this module implements that normal form together
//! with the boolean operations the mechanism needs: conjunction (partitioning
//! alternative transactions), disjunction (merging pairs with equal values),
//! outcome substitution (failure recovery), and the completeness/disjointness
//! checks that are the polyvalue invariant.

use super::literal::Literal;
use super::product::Product;
use crate::txn::TxnId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A boolean predicate over transaction identifiers, kept in canonical
/// sum-of-products form.
///
/// The canonical form stores a sorted, duplicate-free set of non-contradictory
/// [`Product`]s with absorption applied (no product subsumes another). The
/// constant `false` is the empty sum; the constant `true` is the sum
/// containing only the empty product.
///
/// # Examples
///
/// ```
/// use pv_core::cond::Condition;
/// use pv_core::txn::TxnId;
///
/// let t1 = Condition::var(TxnId(1));
/// let t2 = Condition::var(TxnId(2));
/// // The paper's example: T1 ∧ (T2 ∨ T3) is true when T1 and at least one
/// // of T2, T3 completed.
/// let t3 = Condition::var(TxnId(3));
/// let c = t1.and(&t2.or(&t3));
/// assert!(!c.is_false());
/// // Once T1 is known to have aborted the condition is false:
/// assert!(c.assign(TxnId(1), false).is_false());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Condition {
    /// Sorted, absorbed set of products. Invariant: no product subsumes
    /// another, no duplicates, and every product is non-contradictory.
    products: Vec<Product>,
}

impl Condition {
    /// The constant `true` condition.
    pub fn tru() -> Self {
        Condition {
            products: vec![Product::top()],
        }
    }

    /// The constant `false` condition.
    pub fn fls() -> Self {
        Condition {
            products: Vec::new(),
        }
    }

    /// The condition "transaction `txn` completed".
    pub fn var(txn: TxnId) -> Self {
        Condition {
            products: vec![Product::unit(Literal::positive(txn))],
        }
    }

    /// The condition "transaction `txn` aborted".
    pub fn not_var(txn: TxnId) -> Self {
        Condition {
            products: vec![Product::unit(Literal::negative(txn))],
        }
    }

    /// The condition consisting of a single literal.
    pub fn literal(lit: Literal) -> Self {
        Condition {
            products: vec![Product::unit(lit)],
        }
    }

    /// Builds a condition from an arbitrary collection of products,
    /// canonicalising along the way.
    pub fn from_products<I: IntoIterator<Item = Product>>(products: I) -> Self {
        let mut c = Condition {
            products: products.into_iter().collect(),
        };
        c.canonicalise();
        c
    }

    /// The products of the canonical sum.
    pub fn products(&self) -> &[Product] {
        &self.products
    }

    /// Whether the condition is the constant `false`.
    ///
    /// Because every stored product is satisfiable and the form is a
    /// disjunction, this syntactic check is also semantically exact.
    pub fn is_false(&self) -> bool {
        self.products.is_empty()
    }

    /// Whether the condition is a tautology (true under every outcome
    /// assignment).
    ///
    /// The stored form is the Blake canonical form (all prime implicants),
    /// so a tautology is represented exactly by the single empty product and
    /// the check is syntactic.
    pub fn is_true(&self) -> bool {
        self.products.first().is_some_and(Product::is_empty)
    }

    /// Conjunction of two conditions (cross product of terms).
    pub fn and(&self, other: &Condition) -> Condition {
        let mut products = Vec::with_capacity(self.products.len() * other.products.len());
        for a in &self.products {
            for b in &other.products {
                if let Some(p) = a.and(b) {
                    products.push(p);
                }
            }
        }
        Condition::from_products(products)
    }

    /// Disjunction of two conditions (union of terms).
    pub fn or(&self, other: &Condition) -> Condition {
        let mut products = self.products.clone();
        products.extend(other.products.iter().cloned());
        Condition::from_products(products)
    }

    /// Negation, computed by Shannon expansion:
    /// `¬f = (x ∧ ¬f|x) ∨ (¬x ∧ ¬f|¬x)`.
    pub fn not(&self) -> Condition {
        if self.is_false() {
            return Condition::tru();
        }
        if self.products.iter().any(|p| p.is_empty()) {
            // Contains the constant-true product, so the whole sum is true.
            return Condition::fls();
        }
        let var = self.products[0]
            .vars()
            .next()
            .expect("non-empty product has a variable");
        let hi = self.assign(var, true).not().and(&Condition::var(var));
        let lo = self.assign(var, false).not().and(&Condition::not_var(var));
        hi.or(&lo)
    }

    /// Substitutes a known outcome for transaction `txn` and re-simplifies.
    pub fn assign(&self, txn: TxnId, completed: bool) -> Condition {
        let products = self
            .products
            .iter()
            .filter_map(|p| p.assign(txn, completed))
            .collect::<Vec<_>>();
        Condition::from_products(products)
    }

    /// Evaluates the condition under a (possibly partial) truth assignment;
    /// missing variables are treated as `false` (aborted).
    pub fn eval(&self, assignment: &BTreeMap<TxnId, bool>) -> bool {
        self.products.iter().any(|p| p.eval(assignment))
    }

    /// The set of transaction variables mentioned.
    pub fn vars(&self) -> BTreeSet<TxnId> {
        self.products.iter().flat_map(|p| p.vars()).collect()
    }

    /// Whether `self ∧ other` is unsatisfiable.
    pub fn disjoint_with(&self, other: &Condition) -> bool {
        self.and(other).is_false()
    }

    /// Whether `self` implies `other` (every assignment satisfying `self`
    /// satisfies `other`).
    pub fn implies(&self, other: &Condition) -> bool {
        self.and(&other.not()).is_false()
    }

    /// Whether a family of conditions is *complete*: their disjunction is a
    /// tautology.
    pub fn complete<'a, I: IntoIterator<Item = &'a Condition>>(conds: I) -> bool {
        let mut acc = Condition::fls();
        for c in conds {
            acc = acc.or(c);
        }
        acc.is_true()
    }

    /// Whether a family of conditions is pairwise *disjoint*.
    pub fn pairwise_disjoint(conds: &[&Condition]) -> bool {
        for (i, a) in conds.iter().enumerate() {
            for b in &conds[i + 1..] {
                if !a.disjoint_with(b) {
                    return false;
                }
            }
        }
        true
    }

    /// Restores the canonical form: the **Blake canonical form**, i.e. the
    /// set of all prime implicants, computed by iterated consensus and
    /// absorption. The Blake form is unique per boolean function, which makes
    /// `==` on conditions *semantic* equality and keeps the sum-of-products
    /// representation minimal, as §3.1's simplification rule 3 requires.
    fn canonicalise(&mut self) {
        loop {
            if self.products.iter().any(|p| p.is_empty()) {
                self.products = vec![Product::top()];
                return;
            }
            self.absorb();
            // Consensus closure: add every consensus term not already
            // subsumed; repeat (with absorption) until a fixed point.
            let mut fresh: Vec<Product> = Vec::new();
            for (i, p) in self.products.iter().enumerate() {
                for q in &self.products[i + 1..] {
                    if let Some(c) = p.consensus(q) {
                        let subsumed = self.products.iter().any(|r| r.subsumes(&c))
                            || fresh.iter().any(|r| r.subsumes(&c));
                        if !subsumed {
                            fresh.push(c);
                        }
                    }
                }
            }
            if fresh.is_empty() {
                return;
            }
            self.products.extend(fresh);
        }
    }

    /// Sorts, deduplicates, and drops any product subsumed by another.
    fn absorb(&mut self) {
        self.products.sort();
        self.products.dedup();
        // After dedup, subsumption is a strict partial order, so checking
        // only against *kept* products is exact: anything that subsumed a
        // dropped product is itself subsumed by a kept one (transitivity).
        let ps = std::mem::take(&mut self.products);
        let mut keep = vec![true; ps.len()];
        for i in 0..ps.len() {
            for (j, q) in ps.iter().enumerate() {
                if i != j && keep[j] && q.subsumes(&ps[i]) {
                    keep[i] = false;
                    break;
                }
            }
        }
        self.products = ps
            .into_iter()
            .zip(keep)
            .filter_map(|(p, k)| k.then_some(p))
            .collect();
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_false() {
            return write!(f, "false");
        }
        if self.products.len() == 1 {
            return write!(f, "{}", self.products[0]);
        }
        let mut first = true;
        for p in &self.products {
            if !first {
                write!(f, " ∨ ")?;
            }
            if p.len() > 1 {
                write!(f, "({p})")?;
            } else {
                write!(f, "{p}")?;
            }
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Condition {
        Condition::var(TxnId(n))
    }

    fn nv(n: u64) -> Condition {
        Condition::not_var(TxnId(n))
    }

    #[test]
    fn constants() {
        assert!(Condition::fls().is_false());
        assert!(!Condition::fls().is_true());
        assert!(Condition::tru().is_true());
        assert!(!Condition::tru().is_false());
    }

    #[test]
    fn excluded_middle_is_tautology() {
        let c = v(1).or(&nv(1));
        assert!(c.is_true());
    }

    #[test]
    fn contradiction_is_false() {
        let c = v(1).and(&nv(1));
        assert!(c.is_false());
    }

    #[test]
    fn and_distributes_over_or() {
        // T1 ∧ (T2 ∨ T3) = T1∧T2 ∨ T1∧T3.
        let c = v(1).and(&v(2).or(&v(3)));
        assert_eq!(c.products().len(), 2);
        let mut a = BTreeMap::new();
        a.insert(TxnId(1), true);
        a.insert(TxnId(2), false);
        a.insert(TxnId(3), true);
        assert!(c.eval(&a));
        a.insert(TxnId(1), false);
        assert!(!c.eval(&a));
    }

    #[test]
    fn absorption_removes_subsumed_products() {
        // T1 ∨ (T1 ∧ T2) = T1.
        let c = v(1).or(&v(1).and(&v(2)));
        assert_eq!(c, v(1));
    }

    #[test]
    fn or_with_true_is_true() {
        assert!(v(1).or(&Condition::tru()).is_true());
    }

    #[test]
    fn not_of_var() {
        assert_eq!(v(1).not(), nv(1));
        assert_eq!(nv(1).not(), v(1));
        assert!(Condition::tru().not().is_false());
        assert!(Condition::fls().not().is_true());
    }

    #[test]
    fn de_morgan() {
        let lhs = v(1).and(&v(2)).not();
        let rhs = nv(1).or(&nv(2));
        // Compare semantically: equivalent iff each implies the other.
        assert!(lhs.implies(&rhs) && rhs.implies(&lhs));
    }

    #[test]
    fn assign_collapses_outcomes() {
        let c = v(1).and(&v(2).or(&v(3)));
        let after = c.assign(TxnId(1), true);
        assert_eq!(after, v(2).or(&v(3)));
        assert!(c.assign(TxnId(1), false).is_false());
        let done = after.assign(TxnId(2), true);
        assert!(done.is_true());
    }

    #[test]
    fn eval_defaults_missing_to_aborted() {
        let c = v(1);
        assert!(!c.eval(&BTreeMap::new()));
        let c = nv(1);
        assert!(c.eval(&BTreeMap::new()));
    }

    #[test]
    fn vars_collects_all_variables() {
        let c = v(1).and(&v(2).or(&nv(3)));
        let vars: Vec<u64> = c.vars().into_iter().map(|t| t.raw()).collect();
        assert_eq!(vars, vec![1, 2, 3]);
    }

    #[test]
    fn disjointness_and_completeness_of_in_doubt_pair() {
        // The paper's in-doubt polyvalue conditions {T, ¬T}.
        let a = v(7);
        let b = nv(7);
        assert!(a.disjoint_with(&b));
        assert!(Condition::complete([&a, &b]));
        assert!(Condition::pairwise_disjoint(&[&a, &b]));
    }

    #[test]
    fn incomplete_family_detected() {
        let a = v(1).and(&v(2));
        let b = nv(1);
        assert!(!Condition::complete([&a, &b]));
    }

    #[test]
    fn overlapping_family_detected() {
        let a = v(1);
        let b = v(1).and(&v(2));
        assert!(!Condition::pairwise_disjoint(&[&a, &b]));
    }

    #[test]
    fn implies_basic() {
        assert!(v(1).and(&v(2)).implies(&v(1)));
        assert!(!v(1).implies(&v(1).and(&v(2))));
        assert!(Condition::fls().implies(&v(1)));
        assert!(v(1).implies(&Condition::tru()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Condition::tru().to_string(), "true");
        assert_eq!(Condition::fls().to_string(), "false");
        assert_eq!(v(1).to_string(), "T1");
        let c = v(1).and(&v(2)).or(&nv(3));
        assert_eq!(c.to_string(), "(T1∧T2) ∨ ¬T3");
    }

    #[test]
    fn idempotence_of_canonical_form() {
        let c = v(1).or(&v(1)).or(&v(1).and(&v(2)));
        assert_eq!(c, v(1));
    }
}
