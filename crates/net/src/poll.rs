//! `poll(2)`: the wait under [`node`](crate::node)'s event loop, and the one
//! FFI call in the workspace.
//!
//! std links libc already, so declaring the symbol needs no crate; what this
//! module adds is a `#[repr(C)]` [`PollFd`] and one safe [`wait`]. The build
//! is hermetic (vendored shims, frozen lockfiles), which rules out `mio`.

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `POLLIN`: there is data to read (or a connection to accept).
pub(crate) const IN: c_short = 0x001;
/// `POLLOUT`: writing will not block.
pub(crate) const OUT: c_short = 0x004;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// One entry of the set handed to [`wait`]: `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `io` for `events` ([`IN`], [`OUT`] or both).
    pub(crate) fn new(io: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: io.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this entry: readiness
    /// asked for, or a hang-up or error, which are reported unasked and
    /// which the caller finds out by reading.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// The timeout [`wait`] actually waits: `timeout` rounded *up* to whole
/// milliseconds, which is what the kernel takes.
pub(crate) fn rounded(timeout: Duration) -> Duration {
    Duration::from_millis(timeout.as_nanos().div_ceil(1_000_000) as u64)
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`:
/// indefinitely) and returns how many are ready. The kernel takes whole
/// milliseconds; the timeout rounds *up* ([`rounded`]), so a caller waiting
/// for a deadline never wakes before it. A signal (`EINTR`) reads as nothing
/// ready.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = match timeout {
        None => -1,
        Some(d) => c_int::try_from(rounded(d).as_millis()).unwrap_or(c_int::MAX),
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` structs
    // laid out as `struct pollfd`, and the pointer and length passed are its
    // own. The kernel writes `revents` only, and only within that length. A
    // descriptor that is closed or was never open is reported in `revents`
    // (`POLLNVAL`); it is not undefined behaviour.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() != io::ErrorKind::Interrupted {
        return Err(err);
    }
    for fd in fds {
        fd.revents = 0;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::time::Instant;

    #[test]
    fn nothing_ready_returns_zero_no_earlier_than_the_timeout() {
        let t0 = Instant::now();
        assert_eq!(wait(&mut [], Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));

        // A pipe nobody writes to is in the set and never ready.
        let (rx, _tx) = UnixStream::pair().unwrap();
        let mut set = [PollFd::new(&rx, IN)];
        let t0 = Instant::now();
        assert_eq!(wait(&mut set, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(!set[0].ready());
    }

    #[test]
    fn sub_millisecond_timeout_rounds_up() {
        // Rounded down this would be a zero timeout and return at once.
        let timeout = Duration::from_micros(300);
        let t0 = Instant::now();
        assert_eq!(wait(&mut [], Some(timeout)).unwrap(), 0);
        assert!(t0.elapsed() >= timeout, "woke after {:?}", t0.elapsed());
    }

    #[test]
    fn a_write_from_another_thread_wakes_an_indefinite_wait() {
        let (rx, tx) = UnixStream::pair().unwrap();
        let (go, gone) = mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            gone.recv().unwrap();
            (&tx).write_all(&[1]).unwrap();
            tx
        });
        let mut set = [PollFd::new(&rx, IN)];
        assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 0, "quiet before the write");
        go.send(()).unwrap();
        assert_eq!(wait(&mut set, None).unwrap(), 1);
        assert!(set[0].ready());
        writer.join().unwrap();
    }

    #[test]
    fn a_fresh_connection_is_writable_and_a_closed_peer_reports_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();

        let mut set = [PollFd::new(&dialed, IN | OUT)];
        assert_eq!(wait(&mut set, None).unwrap(), 1, "OUT-ready at once");
        let mut set = [PollFd::new(&dialed, IN)];
        assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 0, "nothing to read yet");

        // The hang-up must show without asking for it, so the event loop
        // goes on to read the socket and sees EOF there.
        drop(accepted);
        assert_eq!(wait(&mut set, None).unwrap(), 1);
        assert!(set[0].ready());
    }
}
