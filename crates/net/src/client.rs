//! A blocking client connection to one site node.
//!
//! `NetClient` dials a site, identifies itself with a `Hello` frame, and
//! then exchanges `Submit`/`Reply` protocol frames plus the
//! control vocabulary (inspect, metrics, shutdown). Submissions can be
//! pipelined — [`NetClient::submit_async`] returns immediately with the
//! request id and [`NetClient::recv_reply`] collects replies in arrival
//! order — which is what the load generator uses to hold N transactions in
//! flight per connection.
//!
//! Frames are encoded into one write buffer, and a write carries everything
//! queued in it. A submit's bytes leave in the call that queued them, with
//! one exception: a [`NetClient::submit_async`] issued while a whole frame
//! already waits in the read buffer. Its caller is draining replies that
//! have arrived and will read again without blocking, so the submit waits
//! for the write that the read path issues just before it would block —
//! one `write` per drained batch instead of one per submit. Every other
//! request (`submit`, `snapshot_read`, `inspect`, `metrics`, `shutdown`)
//! writes at once, [`NetClient::flush`] forces a deferred submit out, and
//! dropping the client flushes on a best-effort basis. A fresh connection's
//! read buffer is empty, so its submits always leave at once.

use crate::backoff::Backoff;
use crate::wire::{decode_frame, encode_frame, holds_frame, Frame, NodeSnapshot};
use pv_core::TransactionSpec;
use pv_engine::messages::{Msg, TxnResult};
use pv_engine::EngineError;
use pv_simnet::Metrics;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking connection from a client node to one site.
pub struct NetClient {
    stream: TcpStream,
    /// What one `read` lands in, allocated (and zeroed) once.
    chunk: Box<[u8]>,
    /// The socket's read timeout as last set (`None`: never set, so a read
    /// would block indefinitely).
    read_timeout: Option<Duration>,
    rbuf: Vec<u8>,
    /// Encoded frames not yet written (see the module docs for when they
    /// leave).
    wbuf: Vec<u8>,
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
                        chunk: vec![0; 16 * 1024].into_boxed_slice(),
                        read_timeout: None,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        node,
                        next_req: 1,
                    };
                    client.send_frame(&Frame::Hello { node })?;
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

    /// Writes `frame` together with anything queued before it.
    fn send_frame(&mut self, frame: &Frame) -> Result<(), EngineError> {
        encode_frame(frame, &mut self.wbuf)?;
        self.flush()
    }

    /// Writes every queued frame. A failed write leaves nothing queued: the
    /// connection is broken either way.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.wbuf);
        self.wbuf.clear();
        sent.map_err(|e| EngineError::Io(format!("send: {e}")))
    }

    /// Reads frames until `accept` takes one, skipping every frame it turns
    /// down (a stray on a client pipe), or until `deadline` has passed. The
    /// socket keeps its read timeout between reads (see [`timeout_to_set`]),
    /// so a read may return before the deadline with nothing; the loop then
    /// reads again.
    fn recv<T>(
        &mut self,
        deadline: Duration,
        mut accept: impl FnMut(Frame) -> Option<T>,
    ) -> Result<T, EngineError> {
        let limit = Instant::now() + deadline;
        loop {
            while let Some((frame, n)) = decode_frame(&self.rbuf).map_err(EngineError::from)? {
                self.rbuf.drain(..n);
                if let Some(answer) = accept(frame) {
                    return Ok(answer);
                }
            }
            // About to block: deferred submits leave first, or the replies
            // this read waits for may never be sent.
            self.flush()?;
            let remaining = limit.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout);
            }
            if let Some(timeout) = timeout_to_set(self.read_timeout, remaining) {
                self.stream
                    .set_read_timeout(Some(timeout))
                    .map_err(|e| EngineError::Io(format!("set_read_timeout: {e}")))?;
                self.read_timeout = Some(timeout);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(EngineError::Disconnected),
                Ok(n) => self.rbuf.extend_from_slice(&self.chunk[..n]),
                // The timeout ran out, or a signal came: the deadline, not
                // the socket, says whether to give up.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(EngineError::Io(format!("recv: {e}"))),
            }
        }
    }

    /// Sends a transaction without waiting for its reply; returns the
    /// request id the eventual `Reply` will echo. While a whole frame waits
    /// in the read buffer, the submit stays queued and leaves with the next
    /// write: the read path's, just before it would block, any later
    /// request's, a [`NetClient::flush`], or the client's drop.
    pub fn submit_async(&mut self, spec: &TransactionSpec) -> Result<u64, EngineError> {
        let req_id = self.next_req;
        self.next_req += 1;
        let frame = Frame::Proto {
            from: self.node,
            msg: Msg::Submit {
                req_id,
                spec: spec.clone(),
            },
        };
        encode_frame(&frame, &mut self.wbuf)?;
        if !holds_frame(&self.rbuf) {
            self.flush()?;
        }
        Ok(req_id)
    }

    /// Receives the next transaction reply (any outstanding request).
    pub fn recv_reply(&mut self, deadline: Duration) -> Result<(u64, TxnResult), EngineError> {
        self.recv(deadline, |frame| match frame {
            Frame::Proto {
                msg: Msg::Reply { req_id, result },
                ..
            } => Some((req_id, result)),
            _ => None,
        })
    }

    /// Submits a transaction and blocks for its result. A reply to another
    /// request (an abandoned pipelined one) is skipped.
    pub fn submit(
        &mut self,
        spec: &TransactionSpec,
        deadline: Duration,
    ) -> Result<TxnResult, EngineError> {
        let want = self.submit_async(spec)?;
        self.flush()?;
        self.recv(deadline, |frame| match frame {
            Frame::Proto {
                msg: Msg::Reply { req_id, result },
                ..
            } if req_id == want => Some(result),
            _ => None,
        })
    }

    /// Serves a coordination-free read-only transaction at the connected
    /// site: in one step the site reads the newest entries of `items` (all
    /// its items when the list is empty) and answers `(snapshot, entries)`,
    /// `snapshot` being its current write sequence number, without touching
    /// its lock table or sending any site-to-site message.
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
        self.recv(deadline, |frame| match frame {
            Frame::Proto {
                msg:
                    Msg::SnapshotReadReply {
                        req_id,
                        snapshot,
                        entries,
                    },
                ..
            } if req_id == want => Some((snapshot, entries)),
            _ => None,
        })
    }

    /// Snapshots the connected site's state.
    pub fn inspect(&mut self, deadline: Duration) -> Result<NodeSnapshot, EngineError> {
        self.send_frame(&Frame::InspectReq)?;
        self.recv(deadline, |frame| match frame {
            Frame::InspectResp(snap) => Some(snap),
            _ => None,
        })
    }

    /// Fetches the connected site's metrics registry.
    pub fn metrics(&mut self, deadline: Duration) -> Result<Metrics, EngineError> {
        self.send_frame(&Frame::MetricsReq)?;
        self.recv(deadline, |frame| match frame {
            Frame::MetricsResp(wire) => Some(wire.to_metrics()),
            _ => None,
        })
    }

    /// Asks the site process to flush its WAL and exit cleanly.
    pub fn shutdown(&mut self) -> Result<(), EngineError> {
        self.send_frame(&Frame::Shutdown)
    }
}

/// The read timeout to set before a blocking read that must return within
/// `remaining`, given the timeout the socket already has (`None`: keep it).
/// A timeout longer than `remaining` must shrink to it. A shorter one is
/// kept, costing at most an early return and one more read, unless it is
/// under half of `remaining`: a short timeout left by an earlier, nearly
/// spent deadline would otherwise wake every later wait many times over.
fn timeout_to_set(current: Option<Duration>, remaining: Duration) -> Option<Duration> {
    match current {
        Some(t) if t <= remaining && t >= remaining / 2 => None,
        _ => Some(remaining),
    }
}

impl Drop for NetClient {
    /// Sends a submit still deferred behind buffered replies; errors are
    /// ignored, as the connection is closing anyway.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_bytes, WireMetrics};
    use pv_engine::AbortReason;
    use std::net::{Shutdown, TcpListener};

    /// A fake site: a client connected to a bare listener, and the site's
    /// end of that connection, which the test writes (or closes) by hand.
    fn fake_site() -> (NetClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = NetClient::connect(addr, 7, Backoff::fast_fail()).unwrap();
        (client, listener.accept().unwrap().0)
    }

    fn reply(req_id: u64) -> Frame {
        let result = TxnResult::Aborted {
            reason: AbortReason::Timeout,
        };
        Frame::Proto {
            from: 0,
            msg: Msg::Reply { req_id, result },
        }
    }

    fn read_reply(req_id: u64, snapshot: u64) -> Frame {
        let msg = Msg::SnapshotReadReply {
            req_id,
            snapshot,
            entries: Vec::new(),
        };
        Frame::Proto { from: 0, msg }
    }

    fn inspected(site: u32) -> Frame {
        Frame::InspectResp(NodeSnapshot {
            site,
            items: Vec::new(),
            poly_count: 0,
            quiescent: true,
        })
    }

    fn metrics(count: u64) -> Frame {
        Frame::MetricsResp(WireMetrics {
            counters: vec![("txn.committed".into(), count)],
            histograms: Vec::new(),
        })
    }

    /// A receiving method of a fresh client (its first request id is 1),
    /// with its answer framed back as the site sent it.
    type Call = fn(&mut NetClient, Duration) -> Result<Frame, EngineError>;

    /// Each receiving method: the frames it must skip, the frame it awaits,
    /// and the call.
    fn methods() -> Vec<(&'static str, Vec<Frame>, Frame, Call)> {
        vec![
            (
                "recv_reply",
                vec![inspected(0), metrics(1), read_reply(1, 3)],
                reply(5),
                |c, d| {
                    let (req_id, result) = c.recv_reply(d)?;
                    let msg = Msg::Reply { req_id, result };
                    Ok(Frame::Proto { from: 0, msg })
                },
            ),
            (
                "submit",
                vec![reply(2), inspected(0), read_reply(1, 3)],
                reply(1),
                |c, d| {
                    let result = c.submit(&TransactionSpec::transfer(0, 1, 5), d)?;
                    let msg = Msg::Reply { req_id: 1, result };
                    Ok(Frame::Proto { from: 0, msg })
                },
            ),
            (
                "snapshot_read",
                vec![read_reply(2, 3), reply(1), inspected(0)],
                read_reply(1, 9),
                |c, d| {
                    let (snapshot, _) = c.snapshot_read(&[], d)?;
                    Ok(read_reply(1, snapshot))
                },
            ),
            (
                "inspect",
                vec![reply(1), metrics(1), read_reply(1, 3)],
                inspected(2),
                |c, d| Ok(Frame::InspectResp(c.inspect(d)?)),
            ),
            (
                "metrics",
                vec![inspected(0), reply(1), read_reply(1, 3)],
                metrics(42),
                |c, d| Ok(metrics(c.metrics(d)?.counter("txn.committed"))),
            ),
        ]
    }

    #[test]
    fn every_receiving_method_skips_stray_frames_for_the_one_it_awaits() {
        for (name, strays, answer, call) in methods() {
            let (mut client, mut site) = fake_site();
            for frame in strays.iter().chain([&answer]) {
                site.write_all(&frame_bytes(frame).unwrap()).unwrap();
            }
            let got = call(&mut client, Duration::from_secs(10));
            assert_eq!(got, Ok(answer), "{name}");
        }
    }

    #[test]
    fn every_receiving_method_gives_up_on_a_silent_site_at_its_deadline() {
        let deadline = Duration::from_millis(200);
        for (name, _, _, call) in methods() {
            let (mut client, _site) = fake_site();
            let started = Instant::now();
            assert_eq!(call(&mut client, deadline), Err(EngineError::Timeout), "{name}");
            let took = started.elapsed();
            assert!(took >= deadline, "{name} gave up early, after {took:?}");
            assert!(took < deadline + Duration::from_secs(1), "{name} took {took:?}");
        }
    }

    #[test]
    fn every_receiving_method_reports_a_closed_connection() {
        for (name, _, _, call) in methods() {
            let (mut client, site) = fake_site();
            site.shutdown(Shutdown::Write).unwrap();
            let got = call(&mut client, Duration::from_secs(10));
            assert_eq!(got, Err(EngineError::Disconnected), "{name}");
        }
    }

    #[test]
    fn the_read_timeout_is_set_only_when_it_would_outlast_the_deadline_or_is_stale() {
        let secs = Duration::from_secs;
        // Never set: a read would block indefinitely.
        assert_eq!(timeout_to_set(None, secs(10)), Some(secs(10)));
        // Longer than what is left: it must shrink.
        assert_eq!(timeout_to_set(Some(secs(10)), secs(4)), Some(secs(4)));
        // Fresh deadlines a little shorter or longer than the last: kept.
        assert_eq!(timeout_to_set(Some(secs(10)), secs(10)), None);
        assert_eq!(timeout_to_set(Some(secs(10)), secs(12)), None);
        assert_eq!(timeout_to_set(Some(secs(10)), secs(20)), None);
        // Under half of what is left: too short to keep.
        assert_eq!(timeout_to_set(Some(secs(4)), secs(10)), Some(secs(10)));
        let tiny = Duration::from_micros(50);
        assert_eq!(timeout_to_set(Some(tiny), secs(10)), Some(secs(10)));
    }
}
