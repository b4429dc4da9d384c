//! Per-connection state for the readiness loop: buffered non-blocking I/O
//! plus incremental framing for both wire protocols.
//!
//! A [`Conn`] owns one accepted socket and two byte buffers. The event loop
//! in [`crate::server`] fills the read buffer when `poll(2)` reports the
//! socket readable, asks the connection to frame the next request (an HTTP
//! request or an NDJSON line) out of those bytes, and drains the write
//! buffer when the socket is writable. The connection itself never blocks
//! and never talks to the engine — it is pure buffering and framing, which
//! keeps the response bytes a function of the request bytes alone.

// The serve request path: a panic here turns one bad request into a dead
// worker or connection. A sanctioned site carries a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::http::{self, HttpError, Request, MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES};
use cqc_obs::Stopwatch;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Upper bound on buffered-but-unframed request bytes per connection: the
/// largest legal HTTP request (16 MiB body + request line + headers) plus
/// slack. A connection whose buffer fills without yielding a request is
/// answered 400 and closed — the bound is what keeps a hostile trickle
/// from growing memory without limit.
pub(crate) const IN_BUF_CAP: usize = MAX_BODY_BYTES + (MAX_HEADERS + 4) * MAX_LINE_BYTES;

/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// The sniffed wire protocol of a connection (decided by its first byte:
/// `{` opens a raw NDJSON request, anything else is read as HTTP/1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proto {
    /// No bytes seen yet.
    Unknown,
    /// HTTP/1.1 (or 1.0) framing.
    Http,
    /// Raw newline-delimited JSON.
    Ndjson,
}

/// Result of asking a connection for its next NDJSON line.
pub(crate) enum NdjsonNext {
    /// No complete line buffered yet.
    NeedMore,
    /// One non-empty request line (without the trailing newline).
    Line(String),
    /// The line under construction exceeded [`MAX_BODY_BYTES`].
    TooLong,
    /// The buffered line is not UTF-8.
    BadUtf8,
}

/// Result of asking a connection for its next HTTP request.
pub(crate) enum HttpNext {
    /// The buffered bytes are a valid prefix of a request; wait for more.
    NeedMore,
    /// One complete request, consumed from the buffer.
    Request(Request),
    /// The buffered bytes can never become a valid request.
    Malformed(String),
}

/// One accepted connection: socket, buffers, framing state.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed into a request.
    buf: Vec<u8>,
    /// Response bytes queued but not yet written.
    out: Vec<u8>,
    /// How much of `out` has been written.
    out_pos: usize,
    /// Sniffed protocol.
    pub proto: Proto,
    /// Admitted over the connection cap: sniff, send one shed response,
    /// close. Never dispatches work.
    pub reject: bool,
    /// A dispatched request is awaiting its completion; reads pause.
    pub in_flight: bool,
    /// Close once `out` is fully flushed.
    pub close_after_flush: bool,
    /// The peer half-closed (read returned 0).
    pub peer_closed: bool,
    /// The `100 Continue` interim for the in-progress request was already
    /// queued (incremental parsing re-runs the parser from scratch, which
    /// would otherwise re-emit it).
    sent_100: bool,
    /// Restarted on every successful read/write; drives the idle sweep.
    pub last_activity: Stopwatch,
    /// Engine requests framed on this connection (dispatched or shed) —
    /// the 1-based `conn_req` ordinal of the wide-event log. Inline
    /// endpoints (`/healthz`, `/metrics`, `/debug/*`) do not count.
    pub requests: u64,
}

impl Conn {
    /// Wrap an accepted socket (already set non-blocking by the caller).
    pub fn new(stream: TcpStream, reject: bool) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            proto: Proto::Unknown,
            reject,
            in_flight: false,
            close_after_flush: false,
            peer_closed: false,
            sent_100: false,
            last_activity: Stopwatch::start(),
            requests: 0,
        }
    }

    /// The raw descriptor, for registration with the poll set.
    pub fn fd(&self) -> crate::poll::RawFd {
        crate::poll::raw_fd(&self.stream)
    }

    /// Whether the event loop should watch this socket for readability:
    /// not while a request is in flight (backpressure — one request per
    /// connection at a time, which also preserves response ordering), not
    /// once we have decided to close, and not past the buffer bound.
    pub fn wants_read(&self) -> bool {
        !self.in_flight
            && !self.close_after_flush
            && !self.peer_closed
            && self.buf.len() < IN_BUF_CAP
    }

    /// Whether response bytes are waiting for the socket.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether every queued response byte has reached the socket.
    pub fn flushed(&self) -> bool {
        !self.wants_write()
    }

    /// Whether the unframed buffer is empty.
    pub fn buf_is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the unframed buffer hit [`IN_BUF_CAP`] (the request can
    /// never complete — answer 400 and close).
    pub fn buf_at_cap(&self) -> bool {
        self.buf.len() >= IN_BUF_CAP
    }

    /// Drain the readable socket into the buffer (until `WouldBlock`, the
    /// buffer cap, or EOF). `Err` means the socket is gone — close the
    /// connection.
    pub fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        while self.buf.len() < IN_BUF_CAP {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_activity.restart();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Queue response bytes for writing.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Write as much of the queued output as the socket accepts. `Err`
    /// means the socket is gone — close the connection.
    pub fn flush_out(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity.restart();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Decide the protocol from the first buffered byte, if any.
    pub fn sniff(&mut self) {
        if self.proto == Proto::Unknown {
            if let Some(&first) = self.buf.first() {
                self.proto = if first == b'{' {
                    Proto::Ndjson
                } else {
                    Proto::Http
                };
            }
        }
    }

    /// Frame the next non-empty NDJSON line out of the buffer.
    pub fn next_ndjson_line(&mut self) -> NdjsonNext {
        loop {
            match self.buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                    line.pop(); // the newline
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    if line.is_empty() {
                        continue; // blank keep-alive line
                    }
                    match String::from_utf8(line) {
                        Ok(text) => return NdjsonNext::Line(text),
                        Err(_) => return NdjsonNext::BadUtf8,
                    }
                }
                None if self.buf.len() > MAX_BODY_BYTES => return NdjsonNext::TooLong,
                None => return NdjsonNext::NeedMore,
            }
        }
    }

    /// Try to frame one complete HTTP request out of the buffer. On
    /// success the request's bytes are consumed and any `100 Continue`
    /// interim is queued (exactly once per request, even though the
    /// incremental parser re-reads the prefix on every attempt).
    pub fn next_http_request(&mut self) -> HttpNext {
        let mut slice: &[u8] = &self.buf;
        let mut interim = Vec::new();
        match http::read_request(&mut slice, &mut interim) {
            Ok(None) => HttpNext::NeedMore,
            Ok(Some(request)) => {
                let consumed = self.buf.len() - slice.len();
                self.buf.drain(..consumed);
                if !interim.is_empty() && !self.sent_100 {
                    self.out.extend_from_slice(&interim);
                }
                self.sent_100 = false; // next request starts fresh
                HttpNext::Request(request)
            }
            Err(HttpError::UnexpectedEof) => {
                // A valid prefix: headers may already be complete (the
                // parser emits the interim before reading the body).
                if !interim.is_empty() && !self.sent_100 {
                    self.out.extend_from_slice(&interim);
                    self.sent_100 = true;
                }
                HttpNext::NeedMore
            }
            Err(HttpError::Malformed(m)) => HttpNext::Malformed(m),
            // `&[u8]` readers and `Vec` writers cannot fail with `Io`;
            // treat it as malformed if it ever appears.
            Err(HttpError::Io(m)) => HttpNext::Malformed(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        (tx, Conn::new(rx, false))
    }

    #[test]
    fn http_request_is_framed_incrementally() {
        let (mut tx, mut conn) = pair();
        tx.write_all(b"POST /count HTTP/1.1\r\nContent-Le").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill().unwrap();
        conn.sniff();
        assert_eq!(conn.proto, Proto::Http);
        assert!(matches!(conn.next_http_request(), HttpNext::NeedMore));

        tx.write_all(b"ngth: 4\r\n\r\nbody").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill().unwrap();
        match conn.next_http_request() {
            HttpNext::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.body, b"body");
            }
            _ => panic!("expected a complete request"),
        }
        assert!(conn.buf_is_empty());
    }

    #[test]
    fn expect_100_continue_interim_is_queued_once() {
        let (mut tx, mut conn) = pair();
        tx.write_all(b"POST /count HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n")
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill().unwrap();
        // Headers complete, body missing: the interim goes out now…
        assert!(matches!(conn.next_http_request(), HttpNext::NeedMore));
        assert_eq!(conn.out, b"HTTP/1.1 100 Continue\r\n\r\n".to_vec());
        // …and another parse attempt must not queue it again.
        assert!(matches!(conn.next_http_request(), HttpNext::NeedMore));
        assert_eq!(conn.out.len(), b"HTTP/1.1 100 Continue\r\n\r\n".len());

        tx.write_all(b"body").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill().unwrap();
        assert!(matches!(conn.next_http_request(), HttpNext::Request(_)));
        assert_eq!(conn.out.len(), b"HTTP/1.1 100 Continue\r\n\r\n".len());
    }

    #[test]
    fn ndjson_lines_are_framed_and_blank_lines_skipped() {
        let (mut tx, mut conn) = pair();
        tx.write_all(b"{\"id\":1}\r\n\n{\"id\":2}\n{\"part")
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill().unwrap();
        conn.sniff();
        assert_eq!(conn.proto, Proto::Ndjson);
        assert!(matches!(conn.next_ndjson_line(), NdjsonNext::Line(l) if l == "{\"id\":1}"));
        assert!(matches!(conn.next_ndjson_line(), NdjsonNext::Line(l) if l == "{\"id\":2}"));
        assert!(matches!(conn.next_ndjson_line(), NdjsonNext::NeedMore));
    }

    #[test]
    fn peer_close_is_observed() {
        let (tx, mut conn) = pair();
        drop(tx);
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill().unwrap();
        assert!(conn.peer_closed);
    }
}
