//! # pv-core — the polyvalue mechanism
//!
//! This crate implements the primary contribution of Montgomery's SOSP '79
//! paper *Polyvalues: A Tool for Implementing Atomic Updates to Distributed
//! Data*:
//!
//! * a boolean **condition algebra** over transaction identifiers
//!   ([`cond`]) — the predicates attached to polyvalue pairs, kept in
//!   sum-of-products form with completeness/disjointness checks;
//! * **polyvalues** ([`poly`], [`entry`]) — sets of `⟨value, condition⟩`
//!   pairs representing every value an item could hold given the outcomes of
//!   transactions delayed by failures, with the paper's three simplification
//!   rules;
//! * a transaction **expression language** and the **polytransaction
//!   evaluator** ([`expr`], [`spec`]) — transactions that read uncertain
//!   items are partitioned into alternative transactions whose results carry
//!   the conditions of the inputs they consumed (§3.2), including the lazy
//!   partitioning optimisation.
//!
//! The distributed engine that drives this machinery over a simulated network
//! lives in `pv-engine`; the analytic model and stochastic simulation from §4
//! of the paper live in `pv-model` and `pv-stochsim`.
//!
//! ## Quick example
//!
//! ```
//! use pv_core::{Entry, TxnId, Value};
//!
//! // A transfer left a balance in doubt under transaction T1:
//! let balance = Entry::in_doubt(
//!     Entry::Simple(Value::Int(90)),
//!     Entry::Simple(Value::Int(100)),
//!     TxnId(1),
//! );
//! // Either way there is at least 50 available, so a credit authorization
//! // for 50 can proceed — this is the paper's headline property.
//! assert!(*balance.min_value() >= Value::Int(50));
//! // When the failure recovers and T1 turns out to have aborted:
//! assert_eq!(balance.assign_outcome(TxnId(1), false), Entry::Simple(Value::Int(100)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cond;
pub mod entry;
pub mod expectation;
pub mod expr;
pub mod hash;
pub mod poly;
pub mod spec;
pub mod txn;
pub mod value;

pub use cond::{Condition, Literal, Product};
pub use entry::Entry;
pub use expectation::{condition_probability, EntryExpectation, OutcomePrior};
pub use expr::{evaluate, EvalOutcome, Expr, ItemId, SplitMode};
pub use hash::{DetHasher, DetState};
pub use poly::{PolyError, Polyvalue};
pub use spec::TransactionSpec;
pub use txn::{Outcome, TxnId};
pub use value::{CmpOp, Value, ValueError};
