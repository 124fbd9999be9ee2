//! # polyvalues
//!
//! A full reproduction of Warren A. Montgomery's SOSP '79 paper
//! *Polyvalues: A Tool for Implementing Atomic Updates to Distributed Data*,
//! as a Rust workspace. This facade crate re-exports every component:
//!
//! * [`core`] (`pv-core`) — the polyvalue mechanism itself: the condition
//!   algebra over transaction identifiers, polyvalues with the paper's
//!   simplification rules, and the polytransaction evaluator (§3);
//! * [`analysis`] (`pv-analysis`) — ahead-of-time static analysis:
//!   transaction type checking, condition-algebra verification, and
//!   protocol-trace conformance, surfaced by the `pv-lint` binary;
//! * [`simnet`] (`pv-simnet`) — a deterministic discrete-event simulation
//!   substrate with network and failure models;
//! * [`store`] (`pv-store`) — per-site durable storage: WAL, item table, and
//!   the §3.3 outcome-dependency table;
//! * [`protocol`] (`pv-protocol`) — the sans-IO commit protocol: pure
//!   coordinator/participant/recovery state machines (typed events in,
//!   typed effects out) plus the exhaustive interleaving explorer behind
//!   the `pv-explore` binary;
//! * [`engine`] (`pv-engine`) — the distributed transaction engine driving
//!   the protocol machines over the simulation or wall-clock time: 2PC with
//!   polyvalue installation on wait-phase timeouts, plus the blocking and
//!   relaxed baselines of §2;
//! * [`net`] (`pv-net`) — the socket runtime: the same engine over real
//!   TCP between real processes (`pv-node`, `pv-loadgen`), with a
//!   versioned, checksummed wire format;
//! * [`model`] (`pv-model`) — the §4.1 analytic model (Table 1);
//! * [`stochsim`] (`pv-stochsim`) — the §4.2 stochastic simulation
//!   (Table 2);
//! * [`apps`] (`pv-apps`) — the §5 applications: funds transfer,
//!   reservations, inventory/process control.
//!
//! ## Quick start
//!
//! ```
//! use polyvalues::core::{Entry, TxnId, Value};
//!
//! // A transfer left a balance in doubt under transaction T1:
//! let balance = Entry::in_doubt(
//!     Entry::Simple(Value::Int(90)),
//!     Entry::Simple(Value::Int(100)),
//!     TxnId(1),
//! );
//! // Either way at least 90 is available, so a charge of 50 is authorized
//! // *now*, without waiting for the failure to recover:
//! assert!(*balance.min_value() >= Value::Int(50));
//! // When the outcome is learned, the uncertainty collapses:
//! assert_eq!(balance.assign_outcome(TxnId(1), true), Entry::Simple(Value::Int(90)));
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `EXPERIMENTS.md` for the paper's tables and figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pv_analysis as analysis;
pub use pv_apps as apps;
pub use pv_core as core;
pub use pv_engine as engine;
pub use pv_model as model;
pub use pv_net as net;
pub use pv_protocol as protocol;
pub use pv_simnet as simnet;
pub use pv_stochsim as stochsim;
pub use pv_store as store;

pub mod prelude {
    //! The one-stop import for embedding the engine: the value and
    //! polyvalue types, the cluster builders (simulated and networked —
    //! both consuming the same [`Topology`]), the protocol
    //! knobs, and the observability surface (trace events and metric
    //! snapshots).
    //!
    //! ```
    //! use polyvalues::prelude::*;
    //!
    //! let cluster = ClusterBuilder::new(2, Directory::Mod(2))
    //!     .seed(7)
    //!     .item(0u64, 100i64)
    //!     .build();
    //! assert_eq!(cluster.item_entry(ItemId(0)).unwrap(), Entry::Simple(Value::Int(100)));
    //! ```

    pub use pv_analysis::{Code, Diagnostic, Report, Severity};
    pub use pv_core::{Entry, Expr, ItemId, Polyvalue, TransactionSpec, TxnId, Value};
    pub use pv_engine::{
        Client, ClientConfig, Cluster, ClusterBuilder, CommitProtocol, Directory, EngineConfig,
        EngineError, LockPolicy, RandomTransfers, Script, Topology, UniformRmw, Workload,
    };
    pub use pv_net::{NetBuilder, NetClient, NetCluster};
    pub use pv_simnet::{
        Histogram, HistogramSummary, Metrics, MetricsSnapshot, NetConfig, NodeId, SimDuration,
        SimTime, Trace, TraceEvent, TraceRecord, TraceSink,
    };
}
