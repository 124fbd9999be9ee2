//! # pv-protocol — the sans-IO polyvalue commit protocol
//!
//! The §3.1 protocol of the paper as *pure state machines*: a
//! [`SiteMachine`] bundles the coordinator role ([`Coordinator`]), the
//! participant role ([`Participant`], driven by the Figure-1 transition table
//! in [`participant`]), and the §3.3 recovery manager ([`RecoveryManager`]).
//! Drivers feed typed [`Input`] events in and apply the typed [`Output`]
//! effects that come back — no sockets, no clocks, no threads, no randomness
//! inside the protocol itself.
//!
//! Because the machine is pure and clonable, one protocol implementation
//! serves every runtime:
//!
//! * `pv-engine`'s `Cluster` drives it over the deterministic simulation;
//! * `pv-net`'s `Node` drives the same machine from real sockets;
//! * the crash-point harness crashes it at every WAL append;
//! * the [`explore`] module *exhaustively enumerates* every reachable
//!   message/timer/crash interleaving of a small cluster and asserts the
//!   protocol's invariants in each one.
//!
//! The module split mirrors the paper: [`coordinator`] is the read → evaluate
//! → prepare → decide pipeline, [`participant`] is Figure 1 (serving reads,
//! staging, and the wait-timeout edge that installs polyvalues), and
//! [`recovery`] is the §3.3 inquiry/outcome-forwarding machinery.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod coordinator;
pub mod directory;
pub mod explore;
pub mod ids;
pub mod locks;
pub mod machine;
pub mod messages;
pub mod participant;
pub mod paxos;
pub mod recovery;
pub mod timer;

pub use config::{CommitProtocol, EngineConfig, LockPolicy, UncertainOutputPolicy};
pub use coordinator::Coordinator;
pub use directory::Directory;
pub use explore::{ExploreConfig, ExploreReport, Explorer, InvariantViolation, WalkResult};
pub use ids::{coordinator_of, encode_txn};
pub use locks::LockTable;
pub use machine::{site_node, Input, MetricOp, Output, SiteMachine};
pub use messages::{AbortReason, AccessMode, Msg, TxnResult};
pub use participant::{
    all_transitions, render_figure1, transition, PartAction, PartEvent, PartPhase, Participant,
};
pub use paxos::Paxos;
pub use recovery::RecoveryManager;
pub use timer::TimerKey;
