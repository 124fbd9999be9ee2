//! A blocking client connection to one site node.
//!
//! `NetClient` dials a site, identifies itself with a `Hello` frame, and
//! then exchanges `Submit`/`Reply` protocol frames plus the
//! control vocabulary (inspect, metrics, shutdown). Submissions can be
//! pipelined — [`NetClient::submit_async`] returns immediately with the
//! request id and [`NetClient::recv_reply`] collects replies in arrival
//! order — which is what the load generator uses to hold N transactions in
//! flight per connection.

use crate::backoff::Backoff;
use crate::wire::{decode_frame, frame_bytes, Frame, NodeSnapshot, PeerKind};
use pv_core::TransactionSpec;
use pv_engine::messages::{Msg, TxnResult};
use pv_engine::topology::BackoffConfig;
use pv_engine::EngineError;
use pv_simnet::Metrics;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking connection from a client node to one site.
pub struct NetClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    node: u32,
    next_req: u64,
}

impl NetClient {
    /// Dials `addr` under the `backoff` policy — jittered exponential pauses
    /// between attempts, like a site's peer links — and registers as client
    /// node `node`.
    ///
    /// `node` must be unique across concurrently connected clients of the
    /// cluster and must not collide with a site id (use `sites + k`);
    /// replies are routed to it.
    pub fn connect(addr: SocketAddr, node: u32, backoff: Backoff) -> Result<Self, EngineError> {
        let mut last = String::new();
        let salt = u64::from(node) ^ 0xC11E_17BA;
        for attempt in 0..backoff.attempts {
            if attempt > 0 {
                std::thread::sleep(backoff.delay(attempt, salt));
            }
            match TcpStream::connect_timeout(&addr, backoff.connect_timeout()) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let mut client = NetClient {
                        stream,
                        rbuf: Vec::new(),
                        node,
                        next_req: 1,
                    };
                    client.send_frame(&Frame::Hello {
                        node,
                        kind: PeerKind::Client,
                    })?;
                    return Ok(client);
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(EngineError::Io(format!(
            "connect {addr} after {} attempts: {last}",
            backoff.attempts
        )))
    }

    /// The client's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    fn send_frame(&mut self, frame: &Frame) -> Result<(), EngineError> {
        let bytes = frame_bytes(frame)?;
        self.stream
            .write_all(&bytes)
            .map_err(|e| EngineError::Io(format!("send: {e}")))
    }

    /// Receives the next frame, blocking up to `deadline`.
    fn recv_frame(&mut self, deadline: Duration) -> Result<Frame, EngineError> {
        let limit = Instant::now() + deadline;
        loop {
            if let Some((frame, n)) =
                decode_frame(&self.rbuf).map_err(EngineError::from)?
            {
                self.rbuf.drain(..n);
                return Ok(frame);
            }
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            self.stream
                .set_read_timeout(Some(remaining))
                .map_err(|e| EngineError::Io(format!("set_read_timeout: {e}")))?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(EngineError::Disconnected),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    return Err(EngineError::Timeout)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(EngineError::Io(format!("recv: {e}"))),
            }
        }
    }

    /// Sends a transaction without waiting for its reply; returns the
    /// request id the eventual `Reply` will echo.
    pub fn submit_async(&mut self, spec: &TransactionSpec) -> Result<u64, EngineError> {
        let req_id = self.next_req;
        self.next_req += 1;
        self.send_frame(&Frame::Proto {
            from: self.node,
            msg: Msg::Submit {
                req_id,
                spec: spec.clone(),
            },
        })?;
        Ok(req_id)
    }

    /// Receives the next transaction reply (any outstanding request).
    pub fn recv_reply(&mut self, deadline: Duration) -> Result<(u64, TxnResult), EngineError> {
        let limit = Instant::now() + deadline;
        loop {
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            match self.recv_frame(remaining)? {
                Frame::Proto {
                    msg: Msg::Reply { req_id, result },
                    ..
                } => return Ok((req_id, result)),
                // Any other frame on a client pipe is stray; skip it.
                _ => continue,
            }
        }
    }

    /// Submits a transaction and blocks for its result.
    pub fn submit(
        &mut self,
        spec: &TransactionSpec,
        deadline: Duration,
    ) -> Result<TxnResult, EngineError> {
        let want = self.submit_async(spec)?;
        let limit = Instant::now() + deadline;
        loop {
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            let (req_id, result) = self.recv_reply(remaining)?;
            if req_id == want {
                return Ok(result);
            }
            // A stale reply from an abandoned pipelined request: keep going.
        }
    }

    /// Serves a coordination-free read-only transaction at the connected
    /// site: the site pins an MVCC snapshot, reads `items` (all its items
    /// when the list is empty), and answers `(snapshot, entries)` without
    /// touching its lock table or sending any site-to-site message.
    pub fn snapshot_read(
        &mut self,
        items: &[pv_core::ItemId],
        deadline: Duration,
    ) -> Result<pv_store::SnapshotView, EngineError> {
        let want = self.next_req;
        self.next_req += 1;
        self.send_frame(&Frame::Proto {
            from: self.node,
            msg: Msg::SnapshotRead {
                req_id: want,
                items: items.to_vec(),
            },
        })?;
        let limit = Instant::now() + deadline;
        loop {
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            match self.recv_frame(remaining)? {
                Frame::Proto {
                    msg:
                        Msg::SnapshotReadReply {
                            req_id,
                            snapshot,
                            entries,
                        },
                    ..
                } if req_id == want => return Ok((snapshot, entries)),
                _ => continue,
            }
        }
    }

    /// Snapshots the connected site's state.
    pub fn inspect(&mut self, deadline: Duration) -> Result<NodeSnapshot, EngineError> {
        self.send_frame(&Frame::InspectReq)?;
        let limit = Instant::now() + deadline;
        loop {
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            match self.recv_frame(remaining)? {
                Frame::InspectResp(snap) => return Ok(snap),
                _ => continue,
            }
        }
    }

    /// Fetches the connected site's metrics registry.
    pub fn metrics(&mut self, deadline: Duration) -> Result<Metrics, EngineError> {
        self.send_frame(&Frame::MetricsReq)?;
        let limit = Instant::now() + deadline;
        loop {
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            match self.recv_frame(remaining)? {
                Frame::MetricsResp(wire) => return Ok(wire.to_metrics()),
                _ => continue,
            }
        }
    }

    /// Pushes a new reconnect/backoff policy to the connected site live —
    /// its peer circuits re-pace without a restart (fire-and-forget; confirm
    /// via the `net.backoff.reconfigured` counter in [`NetClient::metrics`]).
    pub fn configure_backoff(&mut self, config: BackoffConfig) -> Result<(), EngineError> {
        self.send_frame(&Frame::ConfigBackoff(config))
    }

    /// Asks the site process to flush its WAL and exit cleanly.
    pub fn shutdown(&mut self) -> Result<(), EngineError> {
        self.send_frame(&Frame::Shutdown)
    }
}
