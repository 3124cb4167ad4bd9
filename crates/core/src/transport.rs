//! The reactor's datagram I/O over its one long-lived UDP socket (the
//! paper's socket-reuse optimization: bound once, reused for every
//! destination; TCP connections, opened only on truncation, are
//! `tcp.rs`'s).
//!
//! [`BatchIo`] is the batched syscall layer: it coalesces same-tick
//! sends into single `sendmmsg(2)` calls — a leading run of datagrams to
//! one destination with one length into one segmented `sendmsg(2)` (UDP
//! GSO) — and drains the socket through a [`RecvArena`], with a
//! per-datagram fallback (`send_to`/`recvfrom`) for non-Linux targets and
//! for `--io-backend syscall`. The raw calls, the run rule and the arena
//! are `zdns_netsim::mmsg`'s, shared with the loopback wire servers; the
//! serve listeners drain and answer through a `BatchIo` of their own.
//! This module adds the settling rules, which read a segmented send like
//! any other: it sends its whole run, or fails on its first datagram.

use std::net::{SocketAddr, UdpSocket};

pub use zdns_netsim::mmsg::{RecvArena, RecvBatch, RECV_SLOT};
use zdns_netsim::MmsgScratch;

// ---------------------------------------------------------------------------
// Readiness wait
// ---------------------------------------------------------------------------

/// Which descriptors a [`readiness::wait_readable`] saw ready, by their
/// place in the list it watched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ready(u8);

impl Ready {
    /// Every descriptor: what a wait that failed, or no wait at all,
    /// leaves to assume.
    pub const ALL: Ready = Ready(u8::MAX);

    /// Whether the descriptor at `place` was ready.
    pub fn has(self, place: usize) -> bool {
        self.0 >> place & 1 == 1
    }
}

#[cfg(unix)]
pub(crate) mod readiness {
    use std::os::fd::RawFd;
    use std::time::{Duration, Instant};

    use super::Ready;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }

    /// How a readiness wait ended. A timeout and a poll failure are
    /// different facts: the former means "nothing arrived", the latter
    /// means the wait itself could not be trusted.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Wait {
        /// The requested events are ready.
        Ready,
        /// The full timeout elapsed with no readiness.
        TimedOut,
        /// `poll(2)` itself failed (not `EINTR` — that is retried).
        Error,
    }

    /// The retry loop around one poll attempt, with the attempt injected
    /// so tests can script `EINTR` sequences deterministically.
    ///
    /// `poll_once(remaining_ms)` returns `Ok(ready?)` or the poll error.
    /// An `EINTR` result retries with the *remaining* budget — a signal
    /// landing mid-wait no longer burns the caller's whole timeout by
    /// reporting "not ready" early.
    pub fn wait_with(
        timeout_ms: i32,
        poll_once: &mut dyn FnMut(i32) -> Result<bool, std::io::Error>,
    ) -> Wait {
        let budget = timeout_ms.max(0);
        let deadline = Instant::now() + Duration::from_millis(budget as u64);
        let mut remaining = budget;
        loop {
            match poll_once(remaining) {
                Ok(true) => return Wait::Ready,
                Ok(false) => return Wait::TimedOut,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Wait::TimedOut;
                    }
                    // Round up so a sub-millisecond remainder still polls
                    // once more instead of degenerating to a busy loop.
                    remaining = left.as_micros().div_ceil(1_000).min(budget as u128) as i32;
                }
                Err(_) => return Wait::Error,
            }
        }
    }

    impl PollFd {
        /// An entry asking for `events` on `fd`; a negative `fd` is one
        /// `poll(2)` skips.
        fn new(fd: RawFd, events: i16) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// What it asked for, or an error or hang-up, which `poll(2)`
        /// reports unasked and which only reading the socket clears.
        fn ready(&self) -> bool {
            self.revents & (self.events | POLLERR | POLLHUP) != 0
        }
    }

    /// Wait until an entry of `fds` has what it asks for or `timeout_ms`
    /// elapses; each entry's `revents` says which.
    fn wait_for(fds: &mut [PollFd], timeout_ms: i32) -> Wait {
        wait_with(timeout_ms, &mut |ms| {
            // SAFETY: `fds` is a valid array of pollfds for the duration of
            // the call and `nfds` is its length.
            let r = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms.max(0)) };
            if r < 0 {
                Err(std::io::Error::last_os_error())
            } else {
                Ok(r > 0 && fds.iter().any(PollFd::ready))
            }
        })
    }

    /// Block until one of `fds` (a negative entry is skipped) is
    /// readable, or has an error or hang-up to report, or `timeout_ms`
    /// elapses; returns which were. A failed wait reports them all. One
    /// hand-rolled `poll(2)`, so the reactor needs no external
    /// event-loop crate.
    pub fn wait_readable(fds: [RawFd; 4], timeout_ms: i32) -> Ready {
        let mut polled = fds.map(|fd| PollFd::new(fd, POLLIN));
        if wait_for(&mut polled, timeout_ms) == Wait::Error {
            return Ready::ALL;
        }
        let bits = polled.iter().enumerate();
        Ready(bits.fold(0, |ready, (place, fd)| {
            ready | u8::from(fd.ready()) << place
        }))
    }

    /// Block until `socket` is writable or `timeout_ms` elapses.
    pub fn wait_writable(socket: &std::net::UdpSocket, timeout_ms: i32) -> bool {
        let fd = std::os::fd::AsRawFd::as_raw_fd(socket);
        wait_for(&mut [PollFd::new(fd, POLLOUT)], timeout_ms) == Wait::Ready
    }
}

#[cfg(not(unix))]
pub(crate) mod readiness {
    use super::Ready;

    /// Portable fallback: nap briefly and let the non-blocking reads
    /// probe every socket.
    pub fn wait_readable(_fds: [i32; 4], timeout_ms: i32) -> Ready {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(0, 2) as u64
        ));
        Ready::ALL
    }

    /// Portable fallback for writability.
    pub fn wait_writable(_socket: &std::net::UdpSocket, timeout_ms: i32) -> bool {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(0, 1) as u64
        ));
        true
    }
}

// ---------------------------------------------------------------------------
// Batched syscall I/O
// ---------------------------------------------------------------------------

/// Hard ceiling on datagrams per syscall — the deepest [`RecvArena`] a
/// [`BatchIo`] builds (the kernel caps `vlen` at `UIO_MAXIOV` = 1024
/// anyway).
pub const MAX_BATCH: usize = 1_024;

/// Which syscall strategy [`BatchIo`] should run — the `--io-backend`
/// flag's value, resolved by [`BatchIo::with_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// Plain `send_to`/`recvfrom`, one datagram per syscall.
    Syscall,
    /// `sendmmsg(2)`/`recvmmsg(2)` vectored batches where the platform
    /// has them and the batch size is above 1; per-datagram otherwise.
    #[default]
    Mmsg,
}

impl IoBackend {
    /// Parse a `--io-backend` flag value (`auto` is a spelling of
    /// `mmsg`, kept for the scripts and docs that use it).
    pub fn parse(s: &str) -> Option<IoBackend> {
        match s {
            "syscall" => Some(IoBackend::Syscall),
            "mmsg" | "auto" => Some(IoBackend::Mmsg),
            _ => None,
        }
    }

    /// The flag spelling of this choice.
    pub fn as_str(&self) -> &'static str {
        match self {
            IoBackend::Syscall => "syscall",
            IoBackend::Mmsg => "mmsg",
        }
    }
}

/// How one datagram in a flushed send batch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSendStatus {
    /// On the wire.
    Sent,
    /// The socket send buffer was full after a writability wait —
    /// backpressure, not failure. Once one datagram hits backpressure the
    /// rest of the flush is marked the same way (the buffer is full for
    /// them too) so the whole suffix can be requeued in order.
    Backpressure,
    /// A real socket error on this datagram.
    Failed,
}

/// Telemetry from one [`BatchIo::send_batch`] flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendBatchStats {
    /// Send syscalls issued (including the one that reported blocked).
    pub syscalls: u64,
    /// Datagrams that made it onto the wire.
    pub sent: u64,
}

/// The vectored-send primitive [`BatchIo`] drives: attempt the given
/// datagrams front-first, return how many consecutive ones were sent
/// (≥ 1) or the error that stopped the first. Injectable so tests can
/// script short returns and `WouldBlock` mid-batch deterministically.
pub type VectoredSend<'a> = dyn FnMut(&[(&[u8], SocketAddr)]) -> std::io::Result<usize> + 'a;

/// One datagram staged in a shared encode arena: `(offset, length,
/// destination)`. The reactor encodes a whole flush into one scratch
/// buffer and hands [`BatchIo::send_slots`] this slot list, so no
/// per-flush `Vec<(&[u8], SocketAddr)>` ever needs to be materialized.
pub type SendSlot = (u32, u32, SocketAddr);

/// Batched syscall layer for one non-blocking UDP socket: a
/// [`RecvArena`] of `batch_size` slots plus the reusable FFI vectors for
/// `sendmmsg`. When batched, same-tick sends coalesce into `sendmmsg(2)`
/// (every same-destination, same-length run into one segmented
/// `sendmsg(2)`, see [`zdns_netsim::mmsg`]) and receives drain through
/// one `recvmmsg(2)` per arena; otherwise
/// every datagram is its own `send_to`/`recvfrom` (the non-Linux path,
/// `--io-backend syscall` and a batch size of 1). Both modes share
/// per-datagram semantics — the property tests in
/// `crates/core/tests/batch_io.rs` hold them to the same delivered
/// sequences.
pub struct BatchIo {
    /// The receive side; its depth is the batch size and its mode the
    /// batching mode.
    arena: RecvArena,
    /// The send side's FFI vectors, rewritten in place before every
    /// `sendmmsg` — the hot path never touches the allocator.
    scratch: MmsgScratch,
}

impl BatchIo {
    /// Build with the vectored mode where it exists: `sendmmsg`/`recvmmsg`
    /// on Linux when `batch_size > 1`, per-datagram syscalls otherwise.
    /// The batch size is clamped to `1..=`[`MAX_BATCH`].
    pub fn new(batch_size: usize) -> BatchIo {
        if batch_size <= 1 {
            return BatchIo::per_datagram(batch_size);
        }
        BatchIo {
            arena: RecvArena::new(batch_size),
            scratch: MmsgScratch::with_capacity(batch_size.min(MAX_BATCH)),
        }
    }

    /// Force the per-datagram path (`--io-backend syscall`, and the
    /// equivalence property tests).
    pub fn per_datagram(batch_size: usize) -> BatchIo {
        BatchIo {
            arena: RecvArena::per_datagram(batch_size),
            scratch: MmsgScratch::default(),
        }
    }

    /// Resolve an [`IoBackend`] choice: `Syscall` is per-datagram, `Mmsg`
    /// is [`BatchIo::new`].
    pub fn with_backend(choice: IoBackend, batch_size: usize) -> BatchIo {
        match choice {
            IoBackend::Syscall => BatchIo::per_datagram(batch_size),
            IoBackend::Mmsg => BatchIo::new(batch_size),
        }
    }

    /// The resolved strategy, as spelled in the `--real` summary:
    /// `"syscall"` or `"mmsg"`.
    pub fn backend_name(&self) -> &'static str {
        if self.is_batched() {
            "mmsg"
        } else {
            "syscall"
        }
    }

    /// Datagrams per syscall this layer aims for (also the arena depth).
    pub fn batch_size(&self) -> usize {
        self.arena.depth()
    }

    /// Whether the vectored path is active.
    pub fn is_batched(&self) -> bool {
        self.arena.is_vectored()
    }

    // -- send ---------------------------------------------------------------

    /// Flush `msgs` to the wire in batches, appending one
    /// [`BatchSendStatus`] per datagram (in order) to `statuses`.
    /// `on_syscall` observes the fill of each successful syscall (the
    /// reactor passes a no-op).
    pub fn send_batch(
        &mut self,
        socket: &UdpSocket,
        msgs: &[(&[u8], SocketAddr)],
        statuses: &mut Vec<BatchSendStatus>,
        on_syscall: &mut dyn FnMut(usize),
    ) -> SendBatchStats {
        self.send_each(socket, msgs, |m| *m, statuses, on_syscall)
    }

    /// The settling engine behind [`BatchIo::send_batch`], with the
    /// vectored-send primitive injected. Chunks `msgs` by `batch_size`,
    /// retries short returns from the next unsent datagram, maps a
    /// `WouldBlock` to backpressure for the entire unsent suffix, and
    /// maps any other error to a single failed datagram (then keeps
    /// going). Public so the property tests can script syscall outcomes.
    pub fn send_batch_with(
        &mut self,
        send: &mut VectoredSend<'_>,
        msgs: &[(&[u8], SocketAddr)],
        statuses: &mut Vec<BatchSendStatus>,
        on_syscall: &mut dyn FnMut(usize),
    ) -> SendBatchStats {
        settle_send(self.batch_size(), send, msgs, statuses, on_syscall)
    }

    /// [`BatchIo::send_batch`] over [`SendSlot`]s into a shared encode
    /// arena — the reactor's zero-alloc flush path. Identical settling
    /// semantics; the iovecs are built pointing straight into `arena`.
    pub fn send_slots(
        &mut self,
        socket: &UdpSocket,
        arena: &[u8],
        slots: &[SendSlot],
        statuses: &mut Vec<BatchSendStatus>,
        on_syscall: &mut dyn FnMut(usize),
    ) -> SendBatchStats {
        let datagram =
            |&(start, len, dest): &SendSlot| (&arena[start as usize..(start + len) as usize], dest);
        self.send_each(socket, slots, datagram, statuses, on_syscall)
    }

    /// The one send path: settle `items`, each read as a datagram by
    /// `datagram`, through segmented `sendmsg` and `sendmmsg` or one
    /// `send_to` apiece.
    fn send_each<'a, T>(
        &mut self,
        socket: &UdpSocket,
        items: &[T],
        datagram: impl Fn(&T) -> (&'a [u8], SocketAddr),
        statuses: &mut Vec<BatchSendStatus>,
        on_syscall: &mut dyn FnMut(usize),
    ) -> SendBatchStats {
        // One writability wait per flush: the first post-wait WouldBlock
        // marks the whole remaining suffix as backpressure instead of
        // stalling the event loop once per datagram.
        let mut waited = false;
        let (batch_size, batched) = (self.batch_size(), self.is_batched());
        let scratch = &mut self.scratch;
        let mut primitive = |chunk: &[T]| loop {
            let sent = if batched {
                scratch.send(socket, chunk.iter().map(&datagram))
            } else {
                let (bytes, dest) = datagram(&chunk[0]);
                socket.send_to(bytes, dest).map(|_| 1)
            };
            match sent {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && !waited => {
                    waited = true;
                    readiness::wait_writable(socket, 1);
                }
                other => return other,
            }
        };
        settle_send(batch_size, &mut primitive, items, statuses, on_syscall)
    }

    // -- receive ------------------------------------------------------------

    /// Drain up to `batch_size` datagrams from `socket` into the arena.
    /// Never blocks on the reactor's non-blocking socket; see
    /// [`RecvBatch`] for how short batches and errors are told apart.
    pub fn recv_into_arena(&mut self, socket: &UdpSocket) -> RecvBatch {
        self.arena.recv_batch(socket)
    }

    /// Bytes of the `i`-th datagram in the arena (valid after a
    /// [`BatchIo::recv_into_arena`] returning `count > i`).
    pub fn arena_bytes(&self, i: usize) -> &[u8] {
        self.arena.datagram(i).0
    }

    /// Peer address of the `i`-th datagram in the arena.
    pub fn arena_peer(&self, i: usize) -> SocketAddr {
        self.arena.datagram(i).1
    }
}

/// The settling engine shared by every send path (the rules are
/// [`BatchIo::send_batch_with`]'s). An `Ok(0)` return violates the
/// [`VectoredSend`] contract and is settled as one failed datagram
/// rather than silently marked sent.
fn settle_send<T>(
    batch_size: usize,
    send: &mut dyn FnMut(&[T]) -> std::io::Result<usize>,
    msgs: &[T],
    statuses: &mut Vec<BatchSendStatus>,
    on_syscall: &mut dyn FnMut(usize),
) -> SendBatchStats {
    let mut stats = SendBatchStats::default();
    let mut pos = 0;
    while pos < msgs.len() {
        let end = (pos + batch_size).min(msgs.len());
        stats.syscalls += 1;
        match send(&msgs[pos..end]) {
            Ok(n) if n > 0 => {
                let n = n.min(end - pos);
                stats.sent += n as u64;
                on_syscall(n);
                statuses.extend(std::iter::repeat_n(BatchSendStatus::Sent, n));
                pos += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                statuses.extend(std::iter::repeat_n(
                    BatchSendStatus::Backpressure,
                    msgs.len() - pos,
                ));
                return stats;
            }
            sent => {
                debug_assert!(sent.is_err(), "vectored send returned Ok(0)");
                statuses.push(BatchSendStatus::Failed);
                pos += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn readiness_retries_eintr_with_remaining_budget() {
        use super::readiness::{wait_with, Wait};
        // Two EINTRs, then ready: the wait must survive the signals and
        // still report readiness (the old code reported "not ready" on
        // the first EINTR and burned the whole budget).
        let mut calls = 0;
        let mut budgets = Vec::new();
        let got = wait_with(50, &mut |ms| {
            calls += 1;
            budgets.push(ms);
            if calls < 3 {
                Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
            } else {
                Ok(true)
            }
        });
        assert_eq!(got, Wait::Ready);
        assert_eq!(calls, 3);
        // Retries never poll with more than the original budget.
        assert!(budgets.iter().all(|&ms| ms <= 50), "{budgets:?}");
    }

    #[cfg(unix)]
    #[test]
    fn readiness_eintr_past_deadline_times_out() {
        use super::readiness::{wait_with, Wait};
        // A zero-budget wait interrupted once has no time left to retry.
        let mut calls = 0;
        let got = wait_with(0, &mut |_| {
            calls += 1;
            Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
        });
        assert_eq!(got, Wait::TimedOut);
        assert_eq!(calls, 1);
    }

    #[cfg(unix)]
    #[test]
    fn readiness_poll_error_is_not_a_timeout() {
        use super::readiness::{wait_with, Wait};
        let got = wait_with(50, &mut |_| {
            Err(std::io::Error::from_raw_os_error(9)) // EBADF
        });
        assert_eq!(got, Wait::Error);
    }

    #[test]
    fn io_backend_parses_all_flag_values() {
        assert_eq!(IoBackend::parse("auto"), Some(IoBackend::Mmsg));
        assert_eq!(IoBackend::parse("syscall"), Some(IoBackend::Syscall));
        assert_eq!(IoBackend::parse("mmsg"), Some(IoBackend::Mmsg));
        assert_eq!(IoBackend::parse("uring"), None);
        for b in [IoBackend::Syscall, IoBackend::Mmsg] {
            assert_eq!(IoBackend::parse(b.as_str()), Some(b));
        }
    }
}
