//! # pv-engine — the distributed polyvalue transaction engine
//!
//! Sites run the two-phase protocol of §3.1 over the `pv-simnet` substrate:
//! a coordinator gathers (and locks) the items a transaction touches, runs
//! the polytransaction evaluator from `pv-core`, ships computed writes to the
//! participant sites, and decides complete/abort. A participant whose wait
//! phase times out acts per the configured [`CommitProtocol`]:
//!
//! * [`CommitProtocol::Polyvalue`] — install in-doubt polyvalues
//!   `{⟨new, T⟩, ⟨old, ¬T⟩}` and release locks (the paper's mechanism);
//! * [`CommitProtocol::Blocking2pc`] — keep locks until the outcome is known
//!   (the §2.2 baseline);
//! * [`CommitProtocol::Relaxed`] — decide unilaterally, possibly violating
//!   atomicity (the §2.3 baseline; violations are counted).
//!
//! Outcome propagation after failure recovery follows §3.3: every site keeps
//! a table of in-doubt transactions, the local items depending on them, and
//! the sites it has shipped dependent polyvalues to; learned outcomes reduce
//! local polyvalues and are forwarded along the table, then the entry is
//! forgotten.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod crashpoint;
pub mod error;
pub mod host;
pub mod site;
pub mod topology;
pub mod workload;

// The protocol itself — configuration, directory, ids, locks, the message
// vocabulary, and the Figure-1 participant machine — lives in the sans-IO
// `pv-protocol` crate; re-export its modules under their historical paths.
pub use pv_protocol::{config, directory, ids, locks, messages, participant};

pub use client::{Client, ClientConfig};
pub use cluster::{Cluster, ClusterBuilder, Node};
pub use crashpoint::{CrashPointConfig, CrashPointReport, Violation};
pub use config::{CommitProtocol, EngineConfig, LockPolicy, UncertainOutputPolicy};
pub use directory::Directory;
pub use error::EngineError;
pub use host::SiteHost;
pub use ids::{coordinator_of, encode_txn};
pub use messages::{AbortReason, AccessMode, Msg, TxnResult};
pub use site::{site_node, Site};
pub use topology::{BackoffConfig, Topology};
pub use workload::{RandomTransfers, Script, UniformRmw, Workload};
