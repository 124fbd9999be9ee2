//! # pv-net — socket deployment of the polyvalue engine
//!
//! The sans-IO `pv_protocol::SiteMachine` already runs under the
//! deterministic simulation. This crate is its second runtime: real TCP
//! sockets between real processes.
//!
//! * [`wire`] — the versioned, checksummed binary frame format. Payload
//!   encoding of values/conditions/entries is shared with the WAL codec
//!   ([`pv_store::codec`]); this module adds framing and the protocol-level
//!   message vocabulary.
//! * [`node`] — the site process: an event loop around one
//!   [`pv_engine::SiteHost`] that waits in `poll(2)` on its sockets and a
//!   wake pipe until one is ready or the next deadline, spinning briefly
//!   before it blocks while such spins keep catching frames (accept, read,
//!   decode, one write per connection per pass), with deadline-driven peer
//!   dialing: each peer link counts its failures and holds its next retry
//!   time under the node's policy, fixed when the node starts.
//! * [`backoff`] — the jittered-exponential [`Backoff`] policy that paces
//!   every dial and reconnect.
//! * `conn` — the crate-private non-blocking framed socket (read buffer,
//!   write queue) that the node's connections and both sides of a chaos
//!   proxy are.
//! * [`client`] — a blocking client connection with pipelined submission
//!   and one receive loop.
//! * [`cluster`] — [`NetCluster`]: every node's event loop hosted on an
//!   in-process thread over real localhost TCP, consuming the same
//!   [`pv_engine::Topology`] as the simulation, and reached through an
//!   attached [`ProcCluster`].
//! * [`chaos`] — a fault-injecting TCP proxy ([`ChaosNet`]) that sits on
//!   every site→site link and applies seeded, deterministic delay, drop,
//!   duplication, and partitions.
//! * [`proc`] — [`ProcCluster`]: a cluster of real `pv-node` processes on
//!   localhost (spawn, kill, restart, clients, shutdown, kill on drop), or
//!   a handle attached to sites started elsewhere; the `--fast` engine
//!   timeouts ([`proc::fast_config`]); and the settle-and-audit that ends
//!   every cluster run, in process or not.
//!
//! The `pv-node` binary wraps [`node::Node`] for one-process-per-site
//! deployment. Every real-process cluster is a [`ProcCluster`]:
//! `pv-loadgen` spawns or attaches to one, drives funds transfers and gates
//! on drain and conservation; `pv-chaos` kills, restarts and partitions
//! one and asserts the paper's recovery invariants.

#![warn(missing_docs)]
// `deny`, not `forbid`: `poll` holds the workspace's one FFI call and is the
// only module allowed to override this.
#![deny(unsafe_code)]

pub mod backoff;
pub mod chaos;
pub mod client;
pub mod cluster;
mod conn;
pub mod node;
#[allow(unsafe_code)]
mod poll;
pub mod proc;
pub mod wire;

pub use backoff::Backoff;
pub use chaos::{ChaosNet, LinkFaults};
pub use client::NetClient;
pub use cluster::{NetBuilder, NetCluster};
pub use node::Node;
pub use proc::{ProcCluster, ProcSpec};
pub use wire::{DecodeError, EncodeError, Frame, NodeSnapshot, WireMetrics};
