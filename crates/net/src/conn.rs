//! A non-blocking framed socket: one TCP connection with a read buffer that
//! frames are decoded from and a write queue that drains as the peer reads.
//!
//! The site node's event loop holds one per inbound and per peer connection;
//! the chaos proxy pumps both directions of a proxied link through two.

use crate::poll::{self, PollFd};
use crate::wire::{decode_frame, encode_frame, DecodeError, Frame, MAX_FRAME_LEN};
use pv_engine::EngineError;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Bytes one `read` asks for. A read that returns fewer found the socket
/// empty.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// One live connection with read/write buffering. Writes that the socket
/// will not take immediately stay queued in `wbuf` and drain as the peer
/// reads — backpressure without blocking the caller.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) rbuf: Vec<u8>,
    pub(crate) wbuf: Vec<u8>,
    /// EOF, a socket error or an unparseable stream: the connection is
    /// finished, though frames already buffered still parse.
    pub(crate) dead: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            dead: false,
        })
    }

    /// Encodes `frame` onto the write queue (which an un-frameable one
    /// leaves untouched). The node flushes each queue once per pass, so
    /// everything a pass emits to one peer leaves in one `write`.
    pub(crate) fn queue(&mut self, frame: &Frame) -> Result<(), EngineError> {
        Ok(encode_frame(frame, &mut self.wbuf)?)
    }

    /// This connection's entry in the wait set: readable always; writable
    /// only while output is queued, or a level-triggered wait would never
    /// block.
    pub(crate) fn pollfd(&self) -> PollFd {
        let out = if self.wbuf.is_empty() { 0 } else { poll::OUT };
        PollFd::new(&self.stream, poll::IN | out)
    }

    /// Writes as much queued output as the socket accepts; returns the
    /// `write` calls made.
    pub(crate) fn flush(&mut self) -> u64 {
        let mut writes = 0;
        while !self.wbuf.is_empty() && !self.dead {
            writes += 1;
            match self.stream.write(&self.wbuf) {
                Ok(0) => {
                    self.dead = true;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                }
            }
        }
        writes
    }

    /// Reads what the socket holds through `chunk` ([`READ_CHUNK`] bytes),
    /// stopping after the first read shorter than that: the socket was empty
    /// then, and a level-triggered wait reports anything that arrives
    /// later. EOF or a socket error marks the connection dead (already
    /// buffered frames still parse). Returns the `read` calls made.
    pub(crate) fn fill(&mut self, chunk: &mut [u8]) -> u64 {
        let mut reads = 0;
        loop {
            reads += 1;
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    // Refuse unbounded buffering from a peer that floods
                    // garbage faster than we parse.
                    if self.rbuf.len() > 2 * MAX_FRAME_LEN as usize {
                        self.dead = true;
                        break;
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        reads
    }

    /// Decodes every whole frame in the read buffer onto `events`, in order,
    /// then drops the consumed bytes in one move. A malformed stream cannot
    /// be resynchronised: the error marks the connection dead.
    pub(crate) fn decode_into(
        &mut self,
        slot: usize,
        events: &mut Vec<(usize, Frame)>,
    ) -> Result<(), DecodeError> {
        let mut at = 0;
        let decoded = loop {
            match decode_frame(&self.rbuf[at..]) {
                Ok(Some((frame, n))) => {
                    at += n;
                    events.push((slot, frame));
                }
                Ok(None) => break Ok(()),
                Err(e) => {
                    self.dead = true;
                    break Err(e);
                }
            }
        };
        self.rbuf.drain(..at);
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A connected pair: the writing end, and the reading end as a `Conn`.
    fn loopback_pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let rx = Conn::new(listener.accept().unwrap().0).unwrap();
        (tx, rx)
    }

    /// Waits until `n` bytes are readable on `conn` without reading them.
    fn await_readable(conn: &Conn, n: usize) {
        let limit = Instant::now() + Duration::from_secs(10);
        let mut peek = vec![0u8; n + 1];
        while !matches!(conn.stream.peek(&mut peek), Ok(got) if got >= n) {
            assert!(Instant::now() < limit, "{n} bytes never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn frames_decode_once_and_in_order_across_reads() {
        let (mut tx, mut rx) = loopback_pair();
        let mut chunk = [0u8; READ_CHUNK];
        let hello = |node| Frame::Hello { node };
        let mut events = Vec::new();

        // Just over three chunks: reads of exactly READ_CHUNK bytes are not
        // short, so one fill takes all of it in four reads, and no fifth.
        let mut bytes = Vec::new();
        let mut sent = 0;
        while bytes.len() <= 3 * READ_CHUNK {
            encode_frame(&hello(sent), &mut bytes).unwrap();
            sent += 1;
        }
        assert_ne!(bytes.len() % READ_CHUNK, 0);
        tx.write_all(&bytes).unwrap();
        await_readable(&rx, bytes.len());
        assert_eq!(rx.fill(&mut chunk), 4);
        assert_eq!(rx.rbuf.len(), bytes.len());
        rx.decode_into(3, &mut events).unwrap();
        assert!(rx.rbuf.is_empty() && !rx.dead);

        // One frame split across two writes with a pause between them.
        let split = crate::wire::frame_bytes(&hello(sent)).unwrap();
        let (head, tail) = split.split_at(split.len() / 2);
        tx.write_all(head).unwrap();
        await_readable(&rx, head.len());
        assert_eq!(rx.fill(&mut chunk), 1, "a short read ends the fill");
        rx.decode_into(3, &mut events).unwrap();
        assert_eq!(events.len() as u32, sent, "half a frame decodes nothing");
        std::thread::sleep(Duration::from_millis(20));
        tx.write_all(tail).unwrap();
        await_readable(&rx, tail.len());
        rx.fill(&mut chunk);
        rx.decode_into(3, &mut events).unwrap();
        assert!(rx.rbuf.is_empty());

        let expected: Vec<_> = (0..=sent).map(|n| (3, hello(n))).collect();
        assert_eq!(events, expected);
    }
}
