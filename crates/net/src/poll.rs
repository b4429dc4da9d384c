//! A minimal std-only shim over `poll(2)` — the readiness primitive under
//! the event loop in [`crate::server`].
//!
//! The workspace vendors everything it needs (JSON, HTTP), and readiness
//! notification is no different: one `extern "C"` declaration and a safe
//! wrapper, instead of a `libc`/`mio` dependency. This module holds the
//! crate's **only** unsafe code, the call into `poll`. The crate root
//! denies `unsafe_code`, and that one call carries an
//! `#[expect(unsafe_code, reason = …)]`, exactly like the regions of
//! `cqc-runtime::pool`, so a second region fails to compile.
//!
//! On non-unix targets a degenerate fallback reports every requested event
//! as ready after a short sleep, degrading the event loop to a slow
//! spin-poll — correct (non-blocking sockets return `WouldBlock`), just not
//! efficient. The serving targets are unix.

// The serve request path: a panic here turns one bad request into a dead
// worker or connection. A sanctioned site carries a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

/// Readable data (or a peer close) is pending.
pub const POLLIN: i16 = 0x001;
/// The socket can accept more outgoing bytes.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is invalid (always reported, never requested).
pub const POLLNVAL: i16 = 0x020;

/// The raw descriptor type fed to [`poll_fds`] (`i32` everywhere we run).
pub type RawFd = i32;

/// One registered descriptor: the fd, the requested `events` mask, and the
/// kernel-filled `revents` result mask. `#[repr(C)]` to match the layout of
/// `struct pollfd` (`int fd; short events; short revents;`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Requested readiness ([`POLLIN`] | [`POLLOUT`], or `0` to watch for
    /// errors/hangup only).
    pub events: i16,
    /// Kernel-reported readiness; zeroed before each [`poll_fds`] call.
    pub revents: i16,
}

impl PollFd {
    /// A watch entry for `fd` with the given interest mask.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel flagged any of `mask` (or an error/hangup
    /// condition, which `poll` reports regardless of the request).
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// The raw descriptor of a socket, for registration with [`poll_fds`].
#[cfg(unix)]
pub fn raw_fd<T: std::os::unix::io::AsRawFd>(io: &T) -> RawFd {
    io.as_raw_fd()
}

/// Fallback for targets without `AsRawFd`: the descriptor value is unused
/// by the degenerate [`poll_fds`], so any placeholder works.
#[cfg(not(unix))]
pub fn raw_fd<T>(_io: &T) -> RawFd {
    -1
}

#[cfg(unix)]
mod sys {
    use super::PollFd;
    use std::io;
    use std::os::raw::c_int;

    #[cfg(any(target_os = "macos", target_os = "ios"))]
    type NfdsT = std::os::raw::c_uint;
    #[cfg(not(any(target_os = "macos", target_os = "ios")))]
    type NfdsT = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// Block until a watched descriptor is ready, a signal interrupts, or
    /// `timeout_ms` elapses. Fills `revents` in place and returns the
    /// number of ready entries (0 on timeout). `EINTR` is retried.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        loop {
            #[expect(
                unsafe_code,
                reason = "the poll(2) call; the SAFETY comment below holds for every call"
            )]
            // SAFETY: `fds` is a valid, exclusively borrowed slice for the
            // duration of the call; `PollFd` is `#[repr(C)]` and layout-
            // compatible with `struct pollfd`; the length is passed
            // alongside the pointer, so the kernel writes only within
            // bounds. No pointers are retained after the call returns.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use super::PollFd;
    use std::io;

    /// Degenerate readiness: sleep briefly, then report every requested
    /// event as ready. Non-blocking I/O keeps this correct (`WouldBlock`),
    /// at the cost of spinning at the sleep interval.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let wait = timeout_ms.clamp(0, 5) as u64;
        std::thread::sleep(std::time::Duration::from_millis(wait));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

pub use sys::poll_fds;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{Ipv4Addr, TcpListener, TcpStream};

    #[test]
    fn poll_reports_readable_after_a_write() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        // Nothing written yet: a zero-timeout poll must report not-ready
        // (the degenerate non-unix fallback claims readiness, which the
        // read below tolerates via WouldBlock — only assert on unix).
        let mut fds = [PollFd::new(raw_fd(&rx), POLLIN)];
        #[cfg(unix)]
        {
            let n = poll_fds(&mut fds, 0).unwrap();
            assert_eq!(n, 0, "unexpected readiness: {fds:?}");
            assert!(!fds[0].ready(POLLIN));
        }

        tx.write_all(b"x").unwrap();
        tx.flush().unwrap();
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert!(n >= 1);
        assert!(fds[0].ready(POLLIN));
        let mut byte = [0u8; 1];
        let mut rx_ref = &rx;
        match rx_ref.read(&mut byte) {
            Ok(1) => assert_eq!(byte[0], b'x'),
            Ok(n) => panic!("short read: {n}"),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }

    #[test]
    fn poll_times_out_on_a_quiet_socket() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let _tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(raw_fd(&rx), POLLIN)];
        let n = poll_fds(&mut fds, 10).unwrap();
        #[cfg(unix)]
        assert_eq!(n, 0);
        #[cfg(not(unix))]
        let _ = n;
    }
}
