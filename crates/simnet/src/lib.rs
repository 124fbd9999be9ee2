//! # pv-simnet — deterministic discrete-event simulation substrate
//!
//! The distributed substrate for the polyvalue engine: a virtual-time event
//! loop over message-passing [`Actor`]s with a configurable network model
//! (latency, jitter, loss, partitions) and failure injection (crashes with
//! exponential recovery, per §4 of the paper). Runs are exactly reproducible
//! from `(configuration, seed)`.
//!
//! The paper evaluated polyvalues by analysis and simulation; this crate is
//! the simulation half's foundation, and `pv-engine` builds the full
//! two-phase-commit-with-polyvalues protocol on top of it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod actor;
mod failure;
mod metrics;
mod net;
mod rng;
mod time;
mod trace;
mod world;

pub use actor::{Actor, Ctx, NodeId};
pub use failure::{FailureConfig, FailurePlan, Outage};
pub use metrics::{Histogram, HistogramSummary, Metrics, MetricsSnapshot};
pub use net::{LinkState, NetConfig};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{parse_trace_text, Trace, TraceEvent, TraceParseError, TraceRecord};
pub use world::World;
