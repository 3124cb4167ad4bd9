//! The reactor's datagram I/O over its one long-lived UDP socket (the
//! paper's socket-reuse optimization: bound once, reused for every
//! destination; TCP connections, opened only on truncation, are
//! `tcp.rs`'s).
//!
//! [`BatchIo`] is the batched syscall layer: it coalesces
//! same-tick sends into single `sendmmsg(2)` calls and drains the socket
//! through a reusable `recvmmsg(2)` arena, with an automatic per-datagram
//! fallback (`send_to`/`recv_from`) for non-Linux targets and for
//! `--batch-size 1`.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};

use zdns_netsim::RECV_SLOT;

// ---------------------------------------------------------------------------
// Readiness wait
// ---------------------------------------------------------------------------

#[cfg(unix)]
pub(crate) mod readiness {
    use std::os::fd::RawFd;
    use std::time::{Duration, Instant};

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

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

    fn wait_for(fd: RawFd, events: i16, timeout_ms: i32) -> Wait {
        wait_with(timeout_ms, &mut |ms| {
            let mut pfd = PollFd {
                fd,
                events,
                revents: 0,
            };
            // SAFETY: `pfd` is a valid pollfd for the duration of the call
            // and `nfds` matches the array length (1).
            let r = unsafe { poll(&mut pfd, 1, ms.max(0)) };
            if r < 0 {
                Err(std::io::Error::last_os_error())
            } else {
                Ok(r > 0 && (pfd.revents & events) != 0)
            }
        })
    }

    /// Block until `fd` is readable or `timeout_ms` elapses. Hand-rolled
    /// `poll(2)` so the reactor needs no external event-loop crate.
    pub fn wait_readable(fd: RawFd, timeout_ms: i32) -> bool {
        wait_for(fd, POLLIN, timeout_ms) == Wait::Ready
    }

    /// Block until `fd` is writable or `timeout_ms` elapses.
    pub fn wait_writable(fd: RawFd, timeout_ms: i32) -> bool {
        wait_for(fd, POLLOUT, timeout_ms) == Wait::Ready
    }
}

#[cfg(not(unix))]
pub(crate) mod readiness {
    /// Portable fallback: nap briefly and let the non-blocking read probe.
    pub fn wait_readable(_fd: i32, timeout_ms: i32) -> bool {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(0, 2) as u64
        ));
        true
    }

    /// Portable fallback for writability.
    pub fn wait_writable(_fd: i32, timeout_ms: i32) -> bool {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(0, 1) as u64
        ));
        true
    }
}

/// Wait for `socket` to become writable (bounded by `timeout_ms`).
fn wait_socket_writable(socket: &UdpSocket, timeout_ms: i32) {
    #[cfg(unix)]
    {
        use std::os::fd::AsRawFd;
        readiness::wait_writable(socket.as_raw_fd(), timeout_ms);
    }
    #[cfg(not(unix))]
    {
        let _ = socket;
        readiness::wait_writable(0, timeout_ms);
    }
}

// ---------------------------------------------------------------------------
// Batched syscall I/O
// ---------------------------------------------------------------------------

/// Hard ceiling on datagrams per syscall — the largest `--batch-size`
/// accepted (the kernel caps `vlen` at `UIO_MAXIOV` = 1024 anyway).
pub const MAX_BATCH: usize = 1_024;

/// Which syscall strategy [`BatchIo`] should run — the `--io-backend`
/// flag's value, resolved by [`BatchIo::with_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// Chosen from the platform and the batch size: the same as
    /// [`IoBackend::Mmsg`].
    #[default]
    Auto,
    /// Plain `send_to`/`recv_from`, one datagram per syscall.
    Syscall,
    /// `sendmmsg(2)`/`recvmmsg(2)` vectored batches where the platform
    /// has them and the batch size is above 1; per-datagram otherwise.
    Mmsg,
}

impl IoBackend {
    /// Parse a `--io-backend` flag value.
    pub fn parse(s: &str) -> Option<IoBackend> {
        match s {
            "auto" => Some(IoBackend::Auto),
            "syscall" => Some(IoBackend::Syscall),
            "mmsg" => Some(IoBackend::Mmsg),
            _ => None,
        }
    }

    /// The flag spelling of this choice.
    pub fn as_str(&self) -> &'static str {
        match self {
            IoBackend::Auto => "auto",
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

/// Result of one [`BatchIo::recv_into_arena`] call.
#[derive(Debug)]
pub struct RecvBatch {
    /// Datagrams now sitting in the arena (`0..count` are valid).
    pub count: usize,
    /// Receive syscalls issued (the batched path uses exactly one; the
    /// fallback path uses one per datagram plus the terminal probe).
    pub syscalls: u64,
    /// Hard socket error hit after `count` datagrams, if any. A short
    /// batch with `err == None` is a normal drain (the queue emptied),
    /// **not** an error — `WouldBlock` is never reported here.
    pub err: Option<std::io::Error>,
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

/// Batched syscall layer for one non-blocking UDP socket: a receive
/// arena of `batch_size` slots (one lazily-zeroed allocation, see
/// [`RECV_SLOT`]) plus the reusable FFI vectors for
/// `sendmmsg`/`recvmmsg`. When `batched`, same-tick sends coalesce into
/// `sendmmsg(2)` and receives drain through one `recvmmsg(2)` per arena;
/// otherwise every datagram is its own `send_to`/`recv_from` (the
/// non-Linux path and `--batch-size 1`). Both modes share per-datagram
/// semantics — the property tests in `crates/core/tests/batch_io.rs`
/// hold them to the same delivered sequences.
pub struct BatchIo {
    batch_size: usize,
    batched: bool,
    /// `batch_size` slots of [`RECV_SLOT`] bytes.
    arena: Vec<u8>,
    lens: Vec<usize>,
    peers: Vec<SocketAddr>,
    /// Pre-allocated FFI vectors, rewritten in place before every
    /// syscall — the hot path never touches the allocator.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    scratch: zdns_netsim::MmsgScratch,
}

impl BatchIo {
    fn build(batch_size: usize, batched: bool) -> BatchIo {
        let batch_size = batch_size.clamp(1, MAX_BATCH);
        BatchIo {
            batch_size,
            batched,
            arena: vec![0u8; batch_size * RECV_SLOT],
            lens: vec![0; batch_size],
            peers: vec![SocketAddr::new(Ipv4Addr::UNSPECIFIED.into(), 0); batch_size],
            #[cfg(any(target_os = "linux", target_os = "android"))]
            scratch: zdns_netsim::MmsgScratch::new(),
        }
    }

    /// Build with the vectored mode where it exists: `sendmmsg`/`recvmmsg`
    /// on Linux when `batch_size > 1`, per-datagram syscalls otherwise.
    pub fn new(batch_size: usize) -> BatchIo {
        BatchIo::build(batch_size, libc::MMSG_SUPPORTED && batch_size > 1)
    }

    /// Force the per-datagram path (`--io-backend syscall`, and the
    /// equivalence property tests).
    pub fn per_datagram(batch_size: usize) -> BatchIo {
        BatchIo::build(batch_size, false)
    }

    /// Resolve an [`IoBackend`] choice: `Syscall` is per-datagram, `Auto`
    /// and `Mmsg` are [`BatchIo::new`].
    pub fn with_backend(choice: IoBackend, batch_size: usize) -> BatchIo {
        match choice {
            IoBackend::Syscall => BatchIo::per_datagram(batch_size),
            IoBackend::Auto | IoBackend::Mmsg => BatchIo::new(batch_size),
        }
    }

    /// The resolved strategy, as spelled in the `--real` summary:
    /// `"syscall"` or `"mmsg"`.
    pub fn backend_name(&self) -> &'static str {
        if self.batched {
            "mmsg"
        } else {
            "syscall"
        }
    }

    /// Datagrams per syscall this layer aims for (also the arena depth).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Whether the vectored path is active.
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    // -- send ---------------------------------------------------------------

    /// Flush `msgs` to the wire in batches, appending one
    /// [`BatchSendStatus`] per datagram (in order) to `statuses`.
    /// `on_syscall` observes the fill of each successful syscall — the
    /// datagrams-per-syscall histogram feed.
    pub fn send_batch(
        &mut self,
        socket: &UdpSocket,
        msgs: &[(&[u8], SocketAddr)],
        statuses: &mut Vec<BatchSendStatus>,
        on_syscall: &mut dyn FnMut(usize),
    ) -> SendBatchStats {
        // One writability wait per flush: the first post-wait WouldBlock
        // marks the whole remaining suffix as backpressure instead of
        // stalling the event loop once per datagram.
        let mut waited = false;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        if self.batched {
            let scratch = &mut self.scratch;
            let mut primitive = |chunk: &[(&[u8], SocketAddr)]| loop {
                match send_many_once(socket, scratch, chunk) {
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && !waited => {
                        waited = true;
                        wait_socket_writable(socket, 1);
                    }
                    other => return other,
                }
            };
            return settle_send(self.batch_size, &mut primitive, msgs, statuses, on_syscall);
        }
        let mut primitive = |chunk: &[(&[u8], SocketAddr)]| loop {
            let (bytes, dest) = chunk[0];
            match socket.send_to(bytes, dest).map(|_| 1) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && !waited => {
                    waited = true;
                    wait_socket_writable(socket, 1);
                }
                other => return other,
            }
        };
        settle_send(self.batch_size, &mut primitive, msgs, statuses, on_syscall)
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
        settle_send(self.batch_size, send, msgs, statuses, on_syscall)
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
        let mut waited = false;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        if self.batched {
            let scratch = &mut self.scratch;
            let mut primitive = |chunk: &[SendSlot]| loop {
                match send_many_once_slots(socket, scratch, arena, chunk) {
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && !waited => {
                        waited = true;
                        wait_socket_writable(socket, 1);
                    }
                    other => return other,
                }
            };
            return settle_send(self.batch_size, &mut primitive, slots, statuses, on_syscall);
        }
        let mut primitive = |chunk: &[SendSlot]| loop {
            let (start, len, dest) = chunk[0];
            let bytes = &arena[start as usize..(start + len) as usize];
            match socket.send_to(bytes, dest).map(|_| 1) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && !waited => {
                    waited = true;
                    wait_socket_writable(socket, 1);
                }
                other => return other,
            }
        };
        settle_send(self.batch_size, &mut primitive, slots, statuses, on_syscall)
    }

    // -- receive ------------------------------------------------------------

    /// Drain up to `batch_size` datagrams from `socket` into the arena.
    /// Never blocks; see [`RecvBatch`] for how short batches and errors
    /// are told apart.
    pub fn recv_into_arena(&mut self, socket: &UdpSocket) -> RecvBatch {
        #[cfg(any(target_os = "linux", target_os = "android"))]
        if self.batched {
            return self.recv_many_once(socket);
        }
        let mut count = 0;
        let mut syscalls = 0;
        while count < self.batch_size {
            syscalls += 1;
            match socket.recv_from(&mut self.arena[count * RECV_SLOT..][..RECV_SLOT]) {
                Ok((len, peer)) => {
                    self.lens[count] = len;
                    self.peers[count] = peer;
                    count += 1;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return RecvBatch {
                        count,
                        syscalls,
                        err: None,
                    };
                }
                Err(e) => {
                    return RecvBatch {
                        count,
                        syscalls,
                        err: Some(e),
                    };
                }
            }
        }
        RecvBatch {
            count,
            syscalls,
            err: None,
        }
    }

    /// Bytes of the `i`-th datagram in the arena (valid after a
    /// [`BatchIo::recv_into_arena`] returning `count > i`).
    pub fn arena_bytes(&self, i: usize) -> &[u8] {
        &self.arena[i * RECV_SLOT..][..self.lens[i]]
    }

    /// Peer address of the `i`-th datagram in the arena.
    pub fn arena_peer(&self, i: usize) -> SocketAddr {
        self.peers[i]
    }

    /// One `recvmmsg` call filling the arena.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    fn recv_many_once(&mut self, socket: &UdpSocket) -> RecvBatch {
        use std::os::fd::AsRawFd;
        let hdrs = self.scratch.prepare_recv(self.arena.chunks_mut(RECV_SLOT));
        // SAFETY: every mmsghdr points at live, correctly-sized storage
        // (arena buffers and the reusable scratch arrays) that outlives
        // the call; vlen matches the slice length.
        let r = unsafe {
            libc::recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                hdrs.len() as libc::c_uint,
                libc::MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if r < 0 {
            let e = std::io::Error::last_os_error();
            let err = match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => None,
                _ => Some(e),
            };
            return RecvBatch {
                count: 0,
                syscalls: 1,
                err,
            };
        }
        let count = r as usize;
        for i in 0..count {
            self.lens[i] = self.scratch.received_len(i).min(RECV_SLOT);
            if let Some(peer) = self.scratch.peer(i) {
                self.peers[i] = peer;
            } else {
                // Non-IPv4 peer on a v4 socket should be impossible; mark
                // the slot empty so it decodes to nothing.
                self.lens[i] = 0;
            }
        }
        RecvBatch {
            count,
            syscalls: 1,
            err: None,
        }
    }
}

/// The settling engine shared by every send path: chunk `msgs` by
/// `batch_size`, retry short returns from the next unsent datagram, map
/// `WouldBlock` to backpressure for the entire unsent suffix, and map
/// any other error to a single failed datagram (then keep going). An
/// `Ok(0)` return violates the [`VectoredSend`] contract and is settled
/// as one failed datagram rather than silently marked sent.
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
        match send(&msgs[pos..end]) {
            Ok(0) => {
                debug_assert!(
                    false,
                    "vectored send returned Ok(0), violating its contract"
                );
                stats.syscalls += 1;
                statuses.push(BatchSendStatus::Failed);
                pos += 1;
            }
            Ok(n) => {
                let n = n.min(end - pos);
                stats.syscalls += 1;
                stats.sent += n as u64;
                on_syscall(n);
                statuses.extend(std::iter::repeat_n(BatchSendStatus::Sent, n));
                pos += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                stats.syscalls += 1;
                statuses.extend(std::iter::repeat_n(
                    BatchSendStatus::Backpressure,
                    msgs.len() - pos,
                ));
                return stats;
            }
            Err(_) => {
                stats.syscalls += 1;
                statuses.push(BatchSendStatus::Failed);
                pos += 1;
            }
        }
    }
    stats
}

/// Pin the calling thread to one CPU core (`sched_setaffinity(2)` with a
/// single-bit mask). Best-effort plumbing behind `--pin-cores`: callers
/// treat an error as "run unpinned", never fatal.
pub fn pin_to_core(core: usize) -> std::io::Result<()> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    {
        let mut mask = [0u64; 16]; // up to 1024 cores
        let word = core / 64;
        if word >= mask.len() {
            return Err(std::io::Error::from(std::io::ErrorKind::InvalidInput));
        }
        mask[word] = 1u64 << (core % 64);
        // SAFETY: pid 0 targets the calling thread; the mask pointer and
        // size describe a live, correctly-sized buffer.
        let r = unsafe { libc::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if r != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    {
        let _ = core;
        Err(std::io::Error::from(std::io::ErrorKind::Unsupported))
    }
}

/// [`send_many_once`] over arena slots: one `sendmmsg` attempt on the
/// longest IPv4 prefix of `slots`, iovecs pointed straight into `arena`.
#[cfg(any(target_os = "linux", target_os = "android"))]
fn send_many_once_slots(
    socket: &UdpSocket,
    scratch: &mut zdns_netsim::MmsgScratch,
    arena: &[u8],
    slots: &[SendSlot],
) -> std::io::Result<usize> {
    use std::os::fd::AsRawFd;
    let run = slots
        .iter()
        .take_while(|(_, _, dest)| dest.is_ipv4())
        .count()
        .min(MAX_BATCH);
    if run == 0 {
        let (start, len, dest) = slots[0];
        let bytes = &arena[start as usize..(start + len) as usize];
        return socket.send_to(bytes, dest).map(|_| 1);
    }
    let hdrs = scratch.prepare_send_slots(arena, &slots[..run]);
    // SAFETY: every mmsghdr points at live storage (the arena and the
    // reusable scratch arrays) that outlives the call; the arena is only
    // read; vlen matches the slice length.
    let r = unsafe {
        libc::sendmmsg(
            socket.as_raw_fd(),
            hdrs.as_mut_ptr(),
            hdrs.len() as libc::c_uint,
            libc::MSG_DONTWAIT,
        )
    };
    if r < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(r as usize)
    }
}

/// One `sendmmsg` attempt on the longest IPv4 prefix of `msgs` (a
/// non-IPv4 head is sent singly through `std`). Returns datagrams sent.
#[cfg(any(target_os = "linux", target_os = "android"))]
fn send_many_once(
    socket: &UdpSocket,
    scratch: &mut zdns_netsim::MmsgScratch,
    msgs: &[(&[u8], SocketAddr)],
) -> std::io::Result<usize> {
    use std::os::fd::AsRawFd;
    let run = msgs
        .iter()
        .take_while(|(_, dest)| dest.is_ipv4())
        .count()
        .min(MAX_BATCH);
    if run == 0 {
        let (bytes, dest) = msgs[0];
        return socket.send_to(bytes, dest).map(|_| 1);
    }
    let hdrs = scratch.prepare_send(&msgs[..run]);
    // SAFETY: every mmsghdr points at live storage (payload slices and
    // the reusable scratch arrays) that outlives the call; the payload
    // buffers are only read; vlen matches the slice length.
    let r = unsafe {
        libc::sendmmsg(
            socket.as_raw_fd(),
            hdrs.as_mut_ptr(),
            hdrs.len() as libc::c_uint,
            libc::MSG_DONTWAIT,
        )
    };
    if r < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(r as usize)
    }
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
    fn pin_to_core_zero_succeeds_on_linux() {
        let supported = cfg!(any(target_os = "linux", target_os = "android"));
        match pin_to_core(0) {
            Ok(()) => assert!(supported, "pin succeeded on an unsupported platform"),
            // Restricted sandboxes may refuse; only "unsupported" is
            // asserted to line up with the platform.
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                assert!(!supported, "linux must never report Unsupported")
            }
            Err(_) => {}
        }
    }

    #[test]
    fn io_backend_parses_all_flag_values() {
        assert_eq!(IoBackend::parse("auto"), Some(IoBackend::Auto));
        assert_eq!(IoBackend::parse("syscall"), Some(IoBackend::Syscall));
        assert_eq!(IoBackend::parse("mmsg"), Some(IoBackend::Mmsg));
        assert_eq!(IoBackend::parse("uring"), None);
        for b in [IoBackend::Auto, IoBackend::Syscall, IoBackend::Mmsg] {
            assert_eq!(IoBackend::parse(b.as_str()), Some(b));
        }
    }
}
