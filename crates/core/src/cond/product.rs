//! Products: conjunctions of literals over distinct transaction variables.

use super::literal::Literal;
use crate::txn::TxnId;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A conjunction of literals, each over a distinct transaction variable.
///
/// A product is the "term" of a sum-of-products (disjunctive normal form)
/// condition. The empty product is the constant `true`. A product can never
/// contain both a variable and its negation: conjunction with a complementary
/// literal yields `None` (the constant `false`), so contradictory products are
/// unrepresentable.
///
/// Literals are kept as a sorted vector of `(variable, polarity)` pairs, so
/// all set operations are linear merges. Ascending variable order makes the
/// derived (lexicographic) ordering the one a `BTreeMap` iteration would give.
///
/// # Examples
///
/// ```
/// use pv_core::cond::{Literal, Product};
/// use pv_core::txn::TxnId;
///
/// let t1 = Literal::positive(TxnId(1));
/// let not_t2 = Literal::negative(TxnId(2));
/// let p = Product::from_literals([t1, not_t2]).unwrap();
/// assert_eq!(p.len(), 2);
/// // Conjoining with ¬T1 contradicts T1:
/// assert!(p.and_literal(t1.negated()).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Product {
    /// Sorted `(variable, polarity)` pairs (`true` = positive literal).
    literals: Vec<(TxnId, bool)>,
}

impl Product {
    /// The empty product, the constant `true`.
    pub fn top() -> Self {
        Product::default()
    }

    /// A product consisting of a single literal.
    pub fn unit(lit: Literal) -> Self {
        Product {
            literals: vec![(lit.txn(), lit.is_positive())],
        }
    }

    /// Builds a product from literals; `None` if any pair is contradictory.
    pub fn from_literals<I: IntoIterator<Item = Literal>>(lits: I) -> Option<Self> {
        let mut p = Product::top();
        for lit in lits {
            p = p.and_literal(lit)?;
        }
        Some(p)
    }

    /// Number of literals in the product.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Whether this is the empty product (the constant `true`).
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Iterates over the literals in variable order.
    pub fn literals(&self) -> impl Iterator<Item = Literal> + '_ {
        self.literals.iter().map(|&(txn, pos)| {
            if pos {
                Literal::positive(txn)
            } else {
                Literal::negative(txn)
            }
        })
    }

    /// The polarity of `txn` in this product, if present.
    pub fn polarity_of(&self, txn: TxnId) -> Option<bool> {
        let pairs = &self.literals;
        pairs
            .binary_search_by_key(&txn, |&(t, _)| t)
            .ok()
            .map(|i| pairs[i].1)
    }

    /// Conjoins a literal; `None` if the result is contradictory.
    pub fn and_literal(&self, lit: Literal) -> Option<Self> {
        let pairs = &self.literals;
        match pairs.binary_search_by_key(&lit.txn(), |&(t, _)| t) {
            Ok(i) if pairs[i].1 != lit.is_positive() => None,
            Ok(_) => Some(self.clone()),
            Err(at) => {
                let mut literals = Vec::with_capacity(pairs.len() + 1);
                literals.extend_from_slice(&pairs[..at]);
                literals.push((lit.txn(), lit.is_positive()));
                literals.extend_from_slice(&pairs[at..]);
                Some(Product { literals })
            }
        }
    }

    /// Conjoins two products; `None` if the result is contradictory.
    pub fn and(&self, other: &Product) -> Option<Self> {
        let (a, b) = (&self.literals, &other.literals);
        if b.is_empty() {
            return Some(self.clone());
        }
        if a.is_empty() {
            return Some(other.clone());
        }
        // Sorted two-pointer merge; a polarity clash on a shared variable is
        // the contradiction case.
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        return None;
                    }
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Some(Product { literals: out })
    }

    /// Whether this product subsumes `other`: every literal of `self` appears
    /// in `other`, so `other` implies `self` and `self ∨ other = self`.
    pub fn subsumes(&self, other: &Product) -> bool {
        let (a, b) = (&self.literals, &other.literals);
        if a.len() > b.len() {
            return false;
        }
        // Sorted subset check, two pointers.
        let mut j = 0;
        'outer: for &(txn, pos) in a {
            while j < b.len() {
                match b[j].0.cmp(&txn) {
                    Ordering::Less => j += 1,
                    Ordering::Equal => {
                        if b[j].1 != pos {
                            return false;
                        }
                        j += 1;
                        continue 'outer;
                    }
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Evaluates the product under a complete truth assignment.
    ///
    /// Variables missing from `assignment` are treated as `false` (aborted).
    pub fn eval(&self, assignment: &BTreeMap<TxnId, bool>) -> bool {
        self.literals
            .iter()
            .all(|&(txn, pos)| assignment.get(&txn).copied().unwrap_or(false) == pos)
    }

    /// Substitutes a truth value for `txn`.
    ///
    /// Returns `Some(product)` with the literal removed if the substitution is
    /// consistent, or `None` if it falsifies the product.
    pub fn assign(&self, txn: TxnId, value: bool) -> Option<Self> {
        let pairs = &self.literals;
        match pairs.binary_search_by_key(&txn, |&(t, _)| t) {
            Err(_) => Some(self.clone()),
            Ok(i) if pairs[i].1 == value => {
                let mut literals = Vec::with_capacity(pairs.len() - 1);
                literals.extend_from_slice(&pairs[..i]);
                literals.extend_from_slice(&pairs[i + 1..]);
                Some(Product { literals })
            }
            Ok(_) => None,
        }
    }

    /// The set of variables mentioned by the product, in order.
    pub fn vars(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.literals.iter().map(|&(txn, _)| txn)
    }

    /// The consensus of two products, if defined.
    ///
    /// When the products clash on *exactly one* variable `x` (one contains
    /// `x`, the other `¬x`), the consensus is the conjunction of all their
    /// other literals: `p ∨ q` implies it. Iterated consensus plus absorption
    /// yields the Blake canonical form (the set of all prime implicants),
    /// which [`super::Condition`] uses as its unique normal form.
    pub fn consensus(&self, other: &Product) -> Option<Product> {
        let (a, b) = (&self.literals, &other.literals);
        // First pass: find the unique clashing variable, if any.
        let mut clash: Option<TxnId> = None;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        if clash.is_some() {
                            return None;
                        }
                        clash = Some(a[i].0);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let clash = clash?;
        // Second pass: merge both sides, skipping the clash variable. No
        // polarity conflicts remain by construction.
        let mut out = Vec::with_capacity(a.len() + b.len() - 2);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    if a[i].0 != clash {
                        out.push(a[i]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Some(Product { literals: out })
    }
}

impl fmt::Display for Product {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for lit in self.literals() {
            if !first {
                write!(f, "∧")?;
            }
            write!(f, "{lit}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(n: u64) -> Literal {
        Literal::positive(TxnId(n))
    }

    fn neg(n: u64) -> Literal {
        Literal::negative(TxnId(n))
    }

    #[test]
    fn top_is_empty_and_true() {
        let t = Product::top();
        assert!(t.is_empty());
        assert!(t.eval(&BTreeMap::new()));
        assert_eq!(t.to_string(), "true");
    }

    #[test]
    fn contradiction_is_unrepresentable() {
        assert!(Product::from_literals([pos(1), neg(1)]).is_none());
        let p = Product::unit(pos(1));
        assert!(p.and_literal(neg(1)).is_none());
    }

    #[test]
    fn duplicate_literal_is_idempotent() {
        let p = Product::from_literals([pos(1), pos(1)]).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn and_merges_and_detects_conflict() {
        let a = Product::from_literals([pos(1), neg(2)]).unwrap();
        let b = Product::from_literals([pos(3)]).unwrap();
        let ab = a.and(&b).unwrap();
        assert_eq!(ab.len(), 3);
        let c = Product::from_literals([pos(2)]).unwrap();
        assert!(a.and(&c).is_none());
    }

    #[test]
    fn subsumption() {
        let small = Product::from_literals([pos(1)]).unwrap();
        let large = Product::from_literals([pos(1), neg(2)]).unwrap();
        assert!(small.subsumes(&large));
        assert!(!large.subsumes(&small));
        assert!(small.subsumes(&small));
        assert!(Product::top().subsumes(&large));
    }

    #[test]
    fn eval_with_missing_vars_defaults_to_aborted() {
        let p = Product::from_literals([neg(1)]).unwrap();
        assert!(p.eval(&BTreeMap::new()));
        let q = Product::from_literals([pos(1)]).unwrap();
        assert!(!q.eval(&BTreeMap::new()));
    }

    #[test]
    fn assign_removes_or_falsifies() {
        let p = Product::from_literals([pos(1), neg(2)]).unwrap();
        let after = p.assign(TxnId(1), true).unwrap();
        assert_eq!(after.len(), 1);
        assert!(p.assign(TxnId(1), false).is_none());
        // Assigning an absent variable is a no-op.
        assert_eq!(p.assign(TxnId(9), true).unwrap(), p);
    }

    #[test]
    fn display_orders_by_variable() {
        let p = Product::from_literals([neg(2), pos(1)]).unwrap();
        assert_eq!(p.to_string(), "T1∧¬T2");
    }

    #[test]
    fn wide_products_preserve_semantics() {
        // Six literals, wider than the one- and two-literal products of
        // in-doubt conditions; every operation must keep order and content.
        let lits: Vec<Literal> = (0..6).map(|n| if n % 2 == 0 { pos(n) } else { neg(n) }).collect();
        let p = Product::from_literals(lits.clone()).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.polarity_of(TxnId(2)), Some(true));
        assert_eq!(p.polarity_of(TxnId(3)), Some(false));
        let q = p.assign(TxnId(0), true).unwrap();
        assert_eq!(q.len(), 5);
        assert!(p.assign(TxnId(0), false).is_none());
        // Round-trip through literals() preserves order and content.
        let round = Product::from_literals(p.literals()).unwrap();
        assert_eq!(round, p);
        // A small product subsumes the big one when its literals agree.
        let small = Product::from_literals([pos(0), neg(1)]).unwrap();
        assert!(small.subsumes(&p));
        assert!(!p.subsumes(&small));
    }

    #[test]
    fn ordering_matches_pairwise_lexicographic() {
        // The canonical product order must be the (variable, polarity)
        // lexicographic order a BTreeMap iteration would produce.
        let a = Product::from_literals([pos(1)]).unwrap();
        let b = Product::from_literals([pos(1), neg(2)]).unwrap();
        let c = Product::from_literals([pos(2)]).unwrap();
        assert!(a < b, "prefix sorts before its extension");
        assert!(b < c, "variable order dominates");
        let mut v = vec![c.clone(), b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn consensus_on_wide_products() {
        // (T0∧T1∧T2∧T3∧T4) and (¬T0∧T1∧T2∧T3∧T5) clash only on T0.
        let a = Product::from_literals([pos(0), pos(1), pos(2), pos(3), pos(4)]).unwrap();
        let b = Product::from_literals([neg(0), pos(1), pos(2), pos(3), pos(5)]).unwrap();
        let c = a.consensus(&b).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.polarity_of(TxnId(0)), None);
        assert_eq!(c.polarity_of(TxnId(4)), Some(true));
        assert_eq!(c.polarity_of(TxnId(5)), Some(true));
        // Two clashes → no consensus.
        let d = Product::from_literals([neg(0), neg(1), pos(2)]).unwrap();
        assert!(a.consensus(&d).is_none());
    }
}
