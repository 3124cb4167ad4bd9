//! DNS-over-TCP framing (RFC 1035 §4.2.2) over a non-blocking stream.
//!
//! A [`FramedConn`] is the one place that knows a message on a stream is a
//! 2-octet big-endian length followed by that many octets, that a
//! non-blocking `write` may take any prefix of what it is given and a
//! `read` may return any prefix of what is on its way. Everything that
//! speaks DNS over TCP pumps through it: the loopback [`WireServer`], the
//! serve role's connection table and the reactor's truncation-fallback
//! table in `zdns-core`.
//!
//! It lives in this crate rather than in `zdns-wire` because it is I/O,
//! not codec: it sits beside [`connect_nonblocking`] and the bind helpers,
//! `zdns-core` already imports its sockets from here, and `zdns-wire`
//! stays free of `std::io` streams.
//!
//! [`WireServer`]: crate::WireServer
//! [`connect_nonblocking`]: crate::connect_nonblocking

use std::io::{ErrorKind, Read, Write};

/// Most octets asked of the stream in one `read`.
const READ_CHUNK: usize = 4_096;

/// A length-framed message stream over `S`, buffered in both directions.
///
/// Outbound, [`queue_frame`](FramedConn::queue_frame) appends a frame and
/// [`flush`](FramedConn::flush) writes as much as the stream takes.
/// Inbound, [`fill`](FramedConn::fill) reads what has arrived (up to a
/// budget), [`frame`](FramedConn::frame) lends the first whole frame and
/// [`consume`](FramedConn::consume) drops it. `WouldBlock` ends a flush or
/// a fill without error; `Interrupted` is retried.
pub struct FramedConn<S> {
    stream: S,
    read_buf: Vec<u8>,
    /// Octets at the front of `read_buf` already consumed as frames.
    read_pos: usize,
    write_buf: Vec<u8>,
    /// Octets at the front of `write_buf` already written.
    write_pos: usize,
    peer_closed: bool,
}

impl<S: Read + Write> FramedConn<S> {
    /// Frame `stream`, which the caller has already made non-blocking.
    pub fn new(stream: S) -> FramedConn<S> {
        FramedConn {
            stream,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            peer_closed: false,
        }
    }

    /// The stream underneath.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Queue `body` behind its length for the next [`flush`]: length and
    /// body leave in one `write` whenever the stream takes both.
    ///
    /// # Panics
    ///
    /// If `body` is longer than the 65 535 octets a length prefix can
    /// say — no encoder in this workspace produces such a message.
    ///
    /// [`flush`]: FramedConn::flush
    pub fn queue_frame(&mut self, body: &[u8]) {
        let len = u16::try_from(body.len()).expect("a DNS message fits a 16-bit length prefix");
        self.write_buf.extend_from_slice(&len.to_be_bytes());
        self.write_buf.extend_from_slice(body);
    }

    /// Write queued octets until none are left or the stream would block.
    /// Returns how many this call wrote; an error (a stream that takes
    /// zero octets included) means the connection is dead.
    pub fn flush(&mut self) -> std::io::Result<usize> {
        let mut wrote = 0;
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    wrote += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(wrote)
    }

    /// Whether every queued octet has been written.
    pub fn is_flushed(&self) -> bool {
        self.write_buf.is_empty()
    }

    /// Read what the stream has, stopping when it would block, at end of
    /// stream (from then on [`peer_closed`](FramedConn::peer_closed)), or
    /// after `budget` octets — never more, so one fire-hosing peer cannot
    /// keep a shared loop to itself. Returns how many octets arrived.
    pub fn fill(&mut self, budget: usize) -> std::io::Result<usize> {
        self.read_buf.drain(..self.read_pos);
        self.read_pos = 0;
        let mut got = 0;
        while got < budget && !self.peer_closed {
            let len = self.read_buf.len();
            self.read_buf.resize(len + READ_CHUNK.min(budget - got), 0);
            let read = self.stream.read(&mut self.read_buf[len..]);
            self.read_buf
                .truncate(len + read.as_ref().map_or(0, |n| *n));
            match read {
                Ok(0) => self.peer_closed = true,
                Ok(n) => got += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }

    /// Whether the peer has closed its sending side. Frames that arrived
    /// whole before it did are still there to take.
    pub fn peer_closed(&self) -> bool {
        self.peer_closed
    }

    /// The first whole frame buffered, without its length prefix. A frame
    /// whose tail has not arrived is not lent, however much of it has.
    pub fn frame(&self) -> Option<&[u8]> {
        let buf = &self.read_buf[self.read_pos..];
        let len = u16::from_be_bytes([*buf.first()?, *buf.get(1)?]) as usize;
        buf.get(2..2 + len)
    }

    /// Drop the frame [`frame`](FramedConn::frame) lends, if there is one.
    pub fn consume(&mut self) {
        if let Some(frame) = self.frame() {
            self.read_pos += 2 + frame.len();
        }
    }
}
