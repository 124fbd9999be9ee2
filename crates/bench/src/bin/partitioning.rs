//! Extension experiment: **lazy vs. eager partitioning** of
//! polytransactions — quantifying the §3.2 optimisation ("one can also
//! recognize cases where the actual value of an item … need not cause
//! partitioning").
//!
//! Builds databases with an increasing number of in-doubt items and
//! evaluates control-flow-heavy transactions both ways, reporting
//! alternatives created, split events, and item reads.
//!
//! Run with `cargo run -p pv-bench --bin partitioning`.

use pv_core::expr::{evaluate, SplitMode};
use pv_core::{Entry, Expr, ItemId, TransactionSpec, TxnId, Value};
use std::collections::BTreeMap;

type Db = BTreeMap<ItemId, Entry<Value>>;

/// A database where the first `poly_items` items are in doubt (distinct
/// transactions) and the rest are simple.
fn db(total: u64, poly_items: u64) -> Db {
    (0..total)
        .map(|i| {
            let entry = if i < poly_items {
                Entry::in_doubt(
                    Entry::Simple(Value::Int(i as i64 + 100)),
                    Entry::Simple(Value::Int(i as i64)),
                    TxnId(i),
                )
            } else {
                Entry::Simple(Value::Int(i as i64))
            };
            (ItemId(i), entry)
        })
        .collect()
}

/// A guarded read-modify-write whose `if` only touches the uncertain items
/// on one branch: the lazy evaluator can usually avoid them entirely.
fn guarded_spec(total: u64) -> TransactionSpec {
    let switch = ItemId(total - 1); // simple item
    let mut uncertain_sum = Expr::int(0);
    for i in 0..(total / 2) {
        uncertain_sum = uncertain_sum.add(Expr::read(ItemId(i)));
    }
    TransactionSpec::new().output(
        "v",
        Expr::ite(
            Expr::read(switch).ge(Expr::int(0)), // always true: branch not taken below
            Expr::read(switch).mul(Expr::int(2)),
            uncertain_sum,
        ),
    )
}

/// A sum over every item: both modes must split on all uncertain inputs.
fn sum_spec(total: u64) -> TransactionSpec {
    let mut sum = Expr::int(0);
    for i in 0..total {
        sum = sum.add(Expr::read(ItemId(i)));
    }
    TransactionSpec::new().output("sum", sum)
}

fn report(name: &str, spec: &TransactionSpec, source: &Db) {
    let lazy = evaluate(spec, source, SplitMode::Lazy).expect("evaluates");
    let eager = evaluate(spec, source, SplitMode::Eager).expect("evaluates");
    assert_eq!(
        lazy.collate_outputs().expect("valid"),
        eager.collate_outputs().expect("valid"),
        "modes must agree semantically"
    );
    println!(
        "{name:<28} lazy: {:>6} alts {:>6} splits {:>6} reads   eager: {:>6} alts {:>6} splits {:>6} reads",
        lazy.stats.alternatives,
        lazy.stats.splits,
        lazy.stats.item_reads,
        eager.stats.alternatives,
        eager.stats.splits,
        eager.stats.item_reads,
    );
}

fn main() {
    pv_bench::no_args();
    println!("Lazy vs. eager polytransaction partitioning (the §3.2 optimisation)");
    println!();
    for poly_items in [0u64, 1, 2, 4, 8] {
        let total = 10;
        let source = db(total, poly_items);
        println!("-- {poly_items} of {total} items in doubt --");
        report(
            "guarded (branch avoids them)",
            &guarded_spec(total),
            &source,
        );
        if poly_items <= 4 {
            // The sum genuinely needs every input; alternatives grow as 2^n.
            report("sum (reads everything)", &sum_spec(total), &source);
        } else {
            println!("sum (reads everything)       skipped: 2^{poly_items} alternatives");
        }
        println!();
    }
    println!("Expected shape: the guarded transaction stays at 1 alternative under");
    println!("lazy evaluation regardless of how many items are in doubt, while eager");
    println!("partitioning doubles per uncertain item; for the sum both modes match.");
}
