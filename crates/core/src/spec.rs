//! Transaction specifications.

use crate::expr::{Expr, ItemId};
use std::collections::BTreeSet;
use std::fmt;

/// A transaction, described as data.
///
/// A transaction reads items (implicitly, through the expressions), checks an
/// optional boolean *guard*, and if the guard holds applies its *updates* —
/// new values for items — atomically. *Outputs* are named expressions whose
/// values are returned to the client; they are computed whether or not the
/// guard holds (so a denied request can still report why).
///
/// # Examples
///
/// ```
/// use pv_core::spec::TransactionSpec;
/// use pv_core::expr::{Expr, ItemId};
///
/// // Transfer 10 from account 0 to account 1 if funds suffice.
/// let from = ItemId(0);
/// let to = ItemId(1);
/// let spec = TransactionSpec::new()
///     .guard(Expr::read(from).ge(Expr::int(10)))
///     .update(from, Expr::read(from).sub(Expr::int(10)))
///     .update(to, Expr::read(to).add(Expr::int(10)))
///     .output("granted", Expr::read(from).ge(Expr::int(10)));
/// assert_eq!(spec.write_set().len(), 2);
/// assert_eq!(spec.read_set().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransactionSpec {
    /// Optional boolean guard; if it evaluates to `false` the transaction
    /// makes no updates (it is *denied*, not aborted).
    pub guard: Option<Expr>,
    /// New values for items, applied atomically when the guard holds.
    pub updates: Vec<(ItemId, Expr)>,
    /// Named expressions returned to the client.
    pub outputs: Vec<(String, Expr)>,
}

impl TransactionSpec {
    /// An empty specification (no guard, no updates, no outputs).
    pub fn new() -> Self {
        TransactionSpec::default()
    }

    /// Sets the guard expression.
    pub fn guard(mut self, guard: Expr) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Adds an update: `item` takes the value of `expr`.
    pub fn update(mut self, item: ItemId, expr: Expr) -> Self {
        self.updates.push((item, expr));
        self
    }

    /// The paper's guarded funds transfer: if item `from` holds at least
    /// `amount`, move `amount` from `from` to `to`. No outputs.
    pub fn transfer(from: u64, to: u64, amount: i64) -> Self {
        let (f, t) = (ItemId(from), ItemId(to));
        TransactionSpec::new()
            .guard(Expr::read(f).ge(Expr::int(amount)))
            .update(f, Expr::read(f).sub(Expr::int(amount)))
            .update(t, Expr::read(t).add(Expr::int(amount)))
    }

    /// Adds a named output.
    pub fn output(mut self, name: &str, expr: Expr) -> Self {
        self.outputs.push((name.to_owned(), expr));
        self
    }

    /// Items written by this transaction.
    pub fn write_set(&self) -> BTreeSet<ItemId> {
        self.updates.iter().map(|(item, _)| *item).collect()
    }

    /// Items this transaction could read (static over-approximation).
    pub fn read_set(&self) -> BTreeSet<ItemId> {
        let mut out = BTreeSet::new();
        if let Some(g) = &self.guard {
            out.extend(g.read_set());
        }
        for (_, e) in &self.updates {
            out.extend(e.read_set());
        }
        for (_, e) in &self.outputs {
            out.extend(e.read_set());
        }
        out
    }

    /// All items the transaction touches (reads or writes).
    pub fn access_set(&self) -> BTreeSet<ItemId> {
        let mut out = self.read_set();
        out.extend(self.write_set());
        out
    }

    /// Whether the transaction writes nothing (a pure query).
    pub fn is_read_only(&self) -> bool {
        self.updates.is_empty()
    }
}

impl fmt::Display for TransactionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            writeln!(f, "guard {g}")?;
        }
        for (item, e) in &self.updates {
            writeln!(f, "set {item} = {e}")?;
        }
        for (name, e) in &self.outputs {
            writeln!(f, "out {name} = {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_sets() {
        let spec = TransactionSpec::new()
            .guard(Expr::read(ItemId(1)).gt(Expr::int(0)))
            .update(ItemId(2), Expr::read(ItemId(3)))
            .output("x", Expr::read(ItemId(4)));
        assert_eq!(
            spec.read_set().into_iter().map(|i| i.0).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
        assert_eq!(
            spec.write_set()
                .into_iter()
                .map(|i| i.0)
                .collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(
            spec.access_set()
                .into_iter()
                .map(|i| i.0)
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert!(!spec.is_read_only());
    }

    #[test]
    fn read_only_detection() {
        let spec = TransactionSpec::new().output("x", Expr::read(ItemId(1)));
        assert!(spec.is_read_only());
    }

    #[test]
    fn item_written_and_read_appears_in_both_sets() {
        let spec =
            TransactionSpec::new().update(ItemId(1), Expr::read(ItemId(1)).add(Expr::int(1)));
        assert!(spec.read_set().contains(&ItemId(1)));
        assert!(spec.write_set().contains(&ItemId(1)));
    }

    #[test]
    fn display_lists_parts() {
        let spec = TransactionSpec::new()
            .guard(Expr::bool(true))
            .update(ItemId(1), Expr::int(2))
            .output("ok", Expr::bool(true));
        let s = spec.to_string();
        assert!(s.contains("guard true"));
        assert!(s.contains("set item1 = 2"));
        assert!(s.contains("out ok = true"));
    }
}
