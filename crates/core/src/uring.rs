//! The io_uring backend behind [`crate::transport::BatchIo`].
//!
//! Where the mmsg backend crosses the kernel boundary once per tick per
//! direction, [`UringIo`] moves both directions through ring memory:
//!
//! * **sends** — the reactor's staged [`SendSlot`]s become `SENDMSG`
//!   SQEs (with `MSG_DONTWAIT`, so a full socket buffer surfaces as a
//!   per-datagram `-EAGAIN` CQE instead of blocking the ring), submitted
//!   and settled with one `io_uring_enter` per flush;
//! * **receives** — a standing pool of `batch_size` re-armed `RECVMSG`
//!   SQEs drains into the backend's recv arena. Reaping completions is
//!   pure memory traffic; the only receive-side syscall is the
//!   occasional submission of re-arms, and even that rides the next send
//!   flush's `enter` whenever enough of the pool is still in flight.
//!
//! The reactor's event loop sleeps on the *ring* fd (CQEs, not socket
//! readability, are what make a uring tick runnable) — see
//! [`UringIo::ring_fd`].
//!
//! Everything kernel-visible — the mmap'd rings, the SQE array, the recv
//! arena, every `msghdr`/`iovec`/`sockaddr_in` — lives in allocations
//! made at construction and never resized, so the steady state performs
//! zero heap allocations (enforced by `crates/core/tests/zero_alloc.rs`)
//! and no pointer handed to the kernel can dangle while an op is in
//! flight. Teardown cancels the standing pool and waits for every armed
//! op to retire before unmapping.

#![cfg(any(target_os = "linux", target_os = "android"))]

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU32, Ordering};

use crate::transport::{
    settle_ring_send, BatchSendStatus, RecvBatch, RingStats, RingSubmit, SendBatchStats, SendSlot,
    MAX_BATCH,
};
use zdns_netsim::RECV_SLOT;

/// `user_data` tag for send SQEs; low 20 bits carry the chunk index,
/// bits 20..52 a flush epoch (so a CQE surfacing after its flush was
/// abandoned cannot corrupt a later flush's results).
const SEND_TAG: u64 = 1 << 62;
/// `user_data` tag for teardown `ASYNC_CANCEL` SQEs.
const CANCEL_TAG: u64 = 1 << 61;
/// `user_data` tag for the construction-time NOP probe.
const NOP_TAG: u64 = 1 << 60;

/// Lifecycle of one recv-arena buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufState {
    /// No SQE in flight, contents dead — a candidate for re-arming.
    Idle,
    /// A `RECVMSG` SQE references this buffer.
    Armed,
    /// Completed: holds a datagram not yet consumed by the caller.
    Ready,
}

/// One mmap'd ring region.
struct Mmap {
    ptr: *mut u8,
    len: usize,
}

impl Mmap {
    fn map(fd: i32, len: usize, offset: i64) -> io::Result<Mmap> {
        // SAFETY: a fresh anonymous mapping over the ring fd; the kernel
        // validates offset/len against the ring geometry.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_POPULATE,
                fd,
                offset,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *mut u8,
            len,
        })
    }

    fn unmap(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: exactly the region returned by mmap above.
            unsafe { libc::munmap(self.ptr as *mut libc::c_void, self.len) };
            self.ptr = std::ptr::null_mut();
        }
    }

    /// Pointer `off` bytes into the mapping.
    fn at(&self, off: u32) -> *mut u8 {
        // The offsets come from the kernel's own io_uring_params; they
        // are always in bounds for the ring the same call sized.
        debug_assert!((off as usize) < self.len);
        unsafe { self.ptr.add(off as usize) }
    }
}

#[inline]
fn load_acquire(p: *const u32) -> u32 {
    // SAFETY: p points into live, u32-aligned ring memory shared with
    // the kernel; AtomicU32 has the same layout as u32.
    unsafe { (*(p as *const AtomicU32)).load(Ordering::Acquire) }
}

#[inline]
fn store_release(p: *mut u32, v: u32) {
    // SAFETY: as above; this side is the only userspace writer.
    unsafe { (*(p as *const AtomicU32)).store(v, Ordering::Release) }
}

/// The io_uring submit/complete backend. See the module docs.
pub struct UringIo {
    fd: i32,
    sqpoll: bool,
    sq_map: Mmap,
    /// `None` when the kernel advertises `IORING_FEAT_SINGLE_MMAP` (the
    /// CQ shares `sq_map`).
    cq_map: Option<Mmap>,
    sqe_map: Mmap,
    // Raw ring pointers (into the maps above).
    sq_khead: *const u32,
    sq_ktail: *mut u32,
    sq_kflags: *const u32,
    sq_array: *mut u32,
    sq_mask: u32,
    sq_entries: u32,
    sqes: *mut libc::io_uring_sqe,
    cq_khead: *mut u32,
    cq_ktail: *const u32,
    cq_mask: u32,
    cqes: *const libc::io_uring_cqe,
    /// Our producer tail (published to `sq_ktail` on every push).
    local_tail: u32,
    /// SQEs the kernel has consumed (advanced by `enter` returns).
    submitted: u32,
    // Receive pool — all storage allocated once, addresses stable.
    batch_size: usize,
    /// `batch_size` slots of [`RECV_SLOT`] bytes in one allocation that is
    /// never resized, so the addresses armed SQEs carry stay good.
    bufs: Vec<u8>,
    buf_state: Box<[BufState]>,
    /// Buffers in [`BufState::Armed`].
    armed: usize,
    recv_hdrs: Box<[libc::msghdr]>,
    recv_iovs: Box<[libc::iovec]>,
    recv_addrs: Box<[libc::sockaddr_in]>,
    /// The batch most recently returned to the caller (arena indices the
    /// caller may still be reading).
    ready: Vec<(u32, usize, SocketAddr)>,
    /// Completed datagrams not yet handed out (e.g. reaped while a send
    /// flush waited for its own CQEs), in arrival order.
    spill: VecDeque<(u32, usize, SocketAddr)>,
    /// First hard receive error since the last `recv_into_arena`.
    recv_err: Option<io::Error>,
    // Send scratch — persistent so SQEs can point at it until settled.
    send_hdrs: Box<[libc::msghdr]>,
    send_iovs: Box<[libc::iovec]>,
    send_addrs: Box<[libc::sockaddr_in]>,
    send_res: Vec<i32>,
    send_outstanding: usize,
    send_epoch: u32,
    completions: Vec<(u32, i32)>,
    /// The socket fd the standing recv pool is armed against.
    bound_fd: Option<RawFd>,
    stats: RingStats,
}

// SAFETY: every raw pointer targets either heap allocations owned by
// this struct (boxed slices that are never resized) or the mmap'd rings,
// both valid from any thread; the ring fd is thread-agnostic and all
// mutation goes through `&mut self`, so there is no concurrent access.
unsafe impl Send for UringIo {}

impl UringIo {
    /// Set up a ring sized for `batch_size`-datagram ticks. Errors are
    /// the caller's signal to fall back (`ENOSYS`, `EPERM`, `EINVAL` on
    /// old or locked-down kernels).
    pub fn new(batch_size: usize) -> io::Result<UringIo> {
        UringIo::with_flags(batch_size, 0)
    }

    /// Like [`UringIo::new`] but with kernel-side submission polling
    /// ([`libc::IORING_SETUP_SQPOLL`]): published SQEs are consumed with
    /// zero `enter` syscalls while the poller is awake. Costs one
    /// busy-polling kernel thread per ring; opt-in.
    pub fn new_sqpoll(batch_size: usize) -> io::Result<UringIo> {
        UringIo::with_flags(batch_size, libc::IORING_SETUP_SQPOLL)
    }

    fn with_flags(batch_size: usize, extra_flags: u32) -> io::Result<UringIo> {
        let batch_size = batch_size.clamp(1, MAX_BATCH);
        // Depth: a full send flush plus a full recv re-arm wave must fit
        // without an intermediate enter.
        let entries = ((2 * batch_size).next_power_of_two().max(8) as u32).min(4096);
        let sqpoll = extra_flags & libc::IORING_SETUP_SQPOLL != 0;
        let mut params = libc::io_uring_params {
            flags: extra_flags | libc::IORING_SETUP_CLAMP,
            sq_thread_idle: if sqpoll { 50 } else { 0 },
            ..Default::default()
        };
        // SAFETY: params is a live, fully initialized parameter block.
        let fd = unsafe { libc::io_uring_setup(entries, &mut params) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        match UringIo::finish_setup(fd, sqpoll, batch_size, &params) {
            Ok(io) => Ok(io),
            Err(e) => {
                // SAFETY: fd came from io_uring_setup above and the
                // failed construction mapped nothing that outlives it.
                unsafe { libc::close(fd) };
                Err(e)
            }
        }
    }

    fn finish_setup(
        fd: i32,
        sqpoll: bool,
        batch_size: usize,
        params: &libc::io_uring_params,
    ) -> io::Result<UringIo> {
        let sq_len = params.sq_off.array as usize + params.sq_entries as usize * 4;
        let cq_len = params.cq_off.cqes as usize
            + params.cq_entries as usize * std::mem::size_of::<libc::io_uring_cqe>();
        let single = params.features & libc::IORING_FEAT_SINGLE_MMAP != 0;
        let mut sq_map = Mmap::map(
            fd,
            if single { sq_len.max(cq_len) } else { sq_len },
            libc::IORING_OFF_SQ_RING,
        )?;
        let cq_map = if single {
            None
        } else {
            match Mmap::map(fd, cq_len, libc::IORING_OFF_CQ_RING) {
                Ok(m) => Some(m),
                Err(e) => {
                    sq_map.unmap();
                    return Err(e);
                }
            }
        };
        let sqe_map = match Mmap::map(
            fd,
            params.sq_entries as usize * std::mem::size_of::<libc::io_uring_sqe>(),
            libc::IORING_OFF_SQES,
        ) {
            Ok(m) => m,
            Err(e) => {
                sq_map.unmap();
                if let Some(mut m) = cq_map {
                    m.unmap();
                }
                return Err(e);
            }
        };
        let cq_base = cq_map.as_ref().unwrap_or(&sq_map);
        let mut io = UringIo {
            fd,
            sqpoll,
            sq_khead: sq_map.at(params.sq_off.head) as *const u32,
            sq_ktail: sq_map.at(params.sq_off.tail) as *mut u32,
            sq_kflags: sq_map.at(params.sq_off.flags) as *const u32,
            sq_array: sq_map.at(params.sq_off.array) as *mut u32,
            sq_mask: params.sq_entries - 1,
            sq_entries: params.sq_entries,
            sqes: sqe_map.ptr as *mut libc::io_uring_sqe,
            cq_khead: cq_base.at(params.cq_off.head) as *mut u32,
            cq_ktail: cq_base.at(params.cq_off.tail) as *const u32,
            cq_mask: params.cq_entries - 1,
            cqes: cq_base.at(params.cq_off.cqes) as *const libc::io_uring_cqe,
            sq_map,
            cq_map,
            sqe_map,
            local_tail: 0,
            submitted: 0,
            batch_size,
            bufs: vec![0u8; batch_size * RECV_SLOT],
            buf_state: vec![BufState::Idle; batch_size].into_boxed_slice(),
            armed: 0,
            recv_hdrs: vec![zeroed_msghdr(); batch_size].into_boxed_slice(),
            recv_iovs: vec![zeroed_iovec(); batch_size].into_boxed_slice(),
            recv_addrs: vec![libc::sockaddr_in::zeroed(); batch_size].into_boxed_slice(),
            ready: Vec::with_capacity(batch_size),
            spill: VecDeque::with_capacity(2 * batch_size),
            recv_err: None,
            send_hdrs: vec![zeroed_msghdr(); batch_size].into_boxed_slice(),
            send_iovs: vec![zeroed_iovec(); batch_size].into_boxed_slice(),
            send_addrs: vec![libc::sockaddr_in::zeroed(); batch_size].into_boxed_slice(),
            send_res: vec![i32::MIN; batch_size],
            send_outstanding: 0,
            send_epoch: 0,
            completions: Vec::with_capacity(batch_size),
            bound_fd: None,
            stats: RingStats::default(),
        };
        io.probe()?;
        Ok(io)
    }

    /// One NOP round-trip so a ring whose `enter` is seccomp-filtered (or
    /// otherwise unusable) fails at construction — where the caller's
    /// fallback logic lives — instead of mid-scan.
    fn probe(&mut self) -> io::Result<()> {
        if !self.push_sqe(|sqe| {
            sqe.opcode = libc::IORING_OP_NOP;
            sqe.user_data = NOP_TAG;
        }) {
            return Err(io::Error::from_raw_os_error(libc::EINVAL));
        }
        self.enter(1)?;
        self.reap();
        Ok(())
    }

    /// The ring fd — what the reactor's sleep must poll: with a standing
    /// recv pool, datagrams complete into the ring, so the *socket* never
    /// becomes readable.
    pub fn ring_fd(&self) -> RawFd {
        self.fd
    }

    /// Arena depth / maximum datagrams per flush chunk.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Completed datagrams reaped but not yet returned — when true the
    /// caller should drain before sleeping (the CQ ring is empty, so a
    /// poll on the ring fd would not wake for them).
    pub fn has_buffered_recv(&self) -> bool {
        !self.spill.is_empty()
    }

    /// Cumulative ring telemetry.
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// SQEs pushed but not yet consumed by the kernel.
    fn pending(&self) -> u32 {
        self.local_tail.wrapping_sub(self.submitted)
    }

    /// Write one SQE at the tail. Returns false when the SQ is full.
    fn push_sqe(&mut self, fill: impl FnOnce(&mut libc::io_uring_sqe)) -> bool {
        let head = load_acquire(self.sq_khead);
        if self.local_tail.wrapping_sub(head) >= self.sq_entries {
            return false;
        }
        let idx = (self.local_tail & self.sq_mask) as usize;
        // SAFETY: idx is masked into the SQE array / index array, both
        // sized sq_entries; the slot is ours until the kernel consumes
        // the published tail.
        unsafe {
            let sqe = &mut *self.sqes.add(idx);
            *sqe = libc::io_uring_sqe::zeroed();
            fill(sqe);
            *self.sq_array.add(idx) = idx as u32;
        }
        self.local_tail = self.local_tail.wrapping_add(1);
        store_release(self.sq_ktail, self.local_tail);
        true
    }

    /// Submit everything pending and, when `min_complete > 0`, wait for
    /// that many CQEs to be available. Retries `EINTR`.
    fn enter(&mut self, min_complete: u32) -> io::Result<()> {
        if self.sqpoll {
            // The poller consumes published SQEs on its own; an enter is
            // only needed to wake it up or to wait for completions.
            self.stats.sqes += self.pending() as u64;
            self.submitted = self.local_tail;
            let need_wakeup = load_acquire(self.sq_kflags) & libc::IORING_SQ_NEED_WAKEUP != 0;
            if !need_wakeup && min_complete == 0 {
                return Ok(()); // the zero-syscall path
            }
            let mut flags = 0;
            if need_wakeup {
                flags |= libc::IORING_ENTER_SQ_WAKEUP;
            }
            if min_complete > 0 {
                flags |= libc::IORING_ENTER_GETEVENTS;
            }
            loop {
                self.stats.enters += 1;
                // SAFETY: fd is our live ring.
                let r = unsafe { libc::io_uring_enter(self.fd, 0, min_complete, flags) };
                if r >= 0 {
                    return Ok(());
                }
                let e = io::Error::last_os_error();
                if e.raw_os_error() != Some(libc::EINTR) {
                    return Err(e);
                }
            }
        }
        let mut to_submit = self.pending();
        let flags = if min_complete > 0 {
            libc::IORING_ENTER_GETEVENTS
        } else {
            0
        };
        loop {
            self.stats.enters += 1;
            // SAFETY: fd is our live ring; to_submit never exceeds the
            // published tail.
            let r = unsafe { libc::io_uring_enter(self.fd, to_submit, min_complete, flags) };
            if r < 0 {
                let e = io::Error::last_os_error();
                if e.raw_os_error() == Some(libc::EINTR) {
                    continue;
                }
                return Err(e);
            }
            self.submitted = self.submitted.wrapping_add(r as u32);
            self.stats.sqes += r as u64;
            to_submit = self.pending();
            // A partial consume (rare) retries while progress is made.
            if to_submit > 0 && r > 0 {
                continue;
            }
            return Ok(());
        }
    }

    /// Drain the CQ ring, dispatching each completion. Pure memory ops.
    fn reap(&mut self) -> usize {
        let tail = load_acquire(self.cq_ktail);
        // SAFETY: we are the only head writer; plain read is fine.
        let mut head = unsafe { *(self.cq_khead as *const u32) };
        let mut n = 0usize;
        while head != tail {
            // SAFETY: masked index into the CQE array; entries up to the
            // acquired tail are published by the kernel.
            let cqe = unsafe { *self.cqes.add((head & self.cq_mask) as usize) };
            head = head.wrapping_add(1);
            n += 1;
            self.dispatch_cqe(cqe.user_data, cqe.res);
        }
        if n > 0 {
            store_release(self.cq_khead, head);
            self.stats.cqe_batches += 1;
        }
        n
    }

    fn dispatch_cqe(&mut self, user_data: u64, res: i32) {
        if user_data < self.batch_size as u64 {
            let idx = user_data as usize;
            debug_assert_eq!(self.buf_state[idx], BufState::Armed);
            self.armed -= 1;
            if res >= 0 {
                let len = (res as usize).min(RECV_SLOT);
                self.buf_state[idx] = BufState::Ready;
                let peer = self.recv_addrs[idx].to_addr().unwrap_or_else(|| {
                    // Non-IPv4 peer on a v4 socket: keep the slot but make
                    // it decode to nothing, like the mmsg path.
                    SocketAddr::new(Ipv4Addr::UNSPECIFIED.into(), 0)
                });
                let len = if self.recv_addrs[idx].to_addr().is_some() {
                    len
                } else {
                    0
                };
                self.spill.push_back((idx as u32, len, peer));
            } else {
                // Failed receive: the buffer holds nothing — back to the
                // re-arm pool. ECANCELED/EINTR/EAGAIN are lifecycle noise,
                // anything else surfaces once per recv call.
                self.buf_state[idx] = BufState::Idle;
                let errno = -res;
                if errno != libc::EAGAIN
                    && errno != libc::EINTR
                    && errno != libc::ECANCELED
                    && self.recv_err.is_none()
                {
                    self.recv_err = Some(io::Error::from_raw_os_error(errno));
                }
            }
        } else if user_data & SEND_TAG != 0 {
            let epoch = ((user_data >> 20) & 0xffff_ffff) as u32;
            let idx = (user_data & 0xf_ffff) as usize;
            if epoch == self.send_epoch && idx < self.send_res.len() {
                self.send_res[idx] = res;
                self.send_outstanding = self.send_outstanding.saturating_sub(1);
            }
        }
        // NOP / CANCEL completions need no action.
    }

    /// Arm a `RECVMSG` SQE for every idle buffer (without submitting).
    fn arm_idle(&mut self, fd: RawFd) {
        for idx in 0..self.batch_size {
            if self.buf_state[idx] != BufState::Idle {
                continue;
            }
            self.recv_addrs[idx] = libc::sockaddr_in::zeroed();
            self.recv_iovs[idx] = libc::iovec {
                iov_base: self.bufs[idx * RECV_SLOT..].as_mut_ptr() as *mut libc::c_void,
                iov_len: RECV_SLOT,
            };
            self.recv_hdrs[idx] = libc::msghdr {
                msg_name: &mut self.recv_addrs[idx] as *mut libc::sockaddr_in as *mut libc::c_void,
                msg_namelen: std::mem::size_of::<libc::sockaddr_in>() as u32,
                msg_iov: &mut self.recv_iovs[idx],
                msg_iovlen: 1,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            };
            let hdr = &mut self.recv_hdrs[idx] as *mut libc::msghdr;
            if !self.push_sqe(|sqe| {
                sqe.opcode = libc::IORING_OP_RECVMSG;
                sqe.fd = fd;
                sqe.addr = hdr as usize as u64;
                sqe.len = 1;
                sqe.user_data = idx as u64;
            }) {
                return; // SQ full; the rest re-arm next round
            }
            self.buf_state[idx] = BufState::Armed;
            self.armed += 1;
        }
    }

    fn bind_check(&mut self, socket: &UdpSocket) {
        let fd = socket.as_raw_fd();
        match self.bound_fd {
            None => self.bound_fd = Some(fd),
            Some(bound) => debug_assert_eq!(
                bound, fd,
                "UringIo's standing recv pool is bound to one socket"
            ),
        }
    }

    /// Arm and submit the standing recv pool. Called once before a scan's
    /// event loop so the first sleep has CQEs to wake on; idempotent.
    pub fn prime(&mut self, socket: &UdpSocket) {
        self.bind_check(socket);
        self.arm_idle(socket.as_raw_fd());
        if self.pending() > 0 {
            let _ = self.enter(0);
        }
    }

    /// Re-arm consumed buffers, reap completions, and surface up to
    /// `batch_size` datagrams. Never blocks.
    pub fn recv_into_arena(&mut self, socket: &UdpSocket) -> RecvBatch {
        let enters0 = self.stats.enters;
        self.bind_check(socket);
        // The previous batch has been fully consumed by the caller.
        for (idx, _, _) in self.ready.drain(..) {
            self.buf_state[idx as usize] = BufState::Idle;
        }
        self.arm_idle(socket.as_raw_fd());
        // Submit re-arms only when the in-kernel pool runs low; otherwise
        // they ride the next send flush's enter — that is how a tick's
        // sends and receives share one syscall.
        let in_kernel = (self.armed as u32).saturating_sub(self.pending());
        if self.pending() > 0 && (in_kernel as usize) < self.batch_size.div_ceil(2) {
            let _ = self.enter(0);
        }
        self.reap();
        while self.ready.len() < self.batch_size {
            match self.spill.pop_front() {
                Some(entry) => self.ready.push(entry),
                None => break,
            }
        }
        RecvBatch {
            count: self.ready.len(),
            syscalls: self.stats.enters - enters0,
            err: self.recv_err.take(),
        }
    }

    /// Bytes of the `i`-th datagram of the current batch.
    pub fn arena_bytes(&self, i: usize) -> &[u8] {
        let (idx, len, _) = self.ready[i];
        &self.bufs[idx as usize * RECV_SLOT..][..len]
    }

    /// Peer of the `i`-th datagram of the current batch.
    pub fn arena_peer(&self, i: usize) -> SocketAddr {
        self.ready[i].2
    }

    /// Submit one chunk of sends as `SENDMSG` SQEs and wait for their
    /// CQEs (so the payload memory, borrowed from the caller, is dead to
    /// the kernel before this returns). `entry(i)` yields the `i`-th
    /// datagram as `(payload ptr, payload len, destination)`.
    fn submit_send_chunk(
        &mut self,
        socket: &UdpSocket,
        chunk_len: usize,
        mut entry: impl FnMut(usize) -> (*const u8, usize, SocketAddr),
        completions: &mut Vec<(u32, i32)>,
    ) -> io::Result<RingSubmit> {
        let fd = socket.as_raw_fd();
        // A non-IPv4 head goes out singly through std (same as the mmsg
        // path's fallback for addresses sockaddr_in cannot carry).
        let (ptr0, len0, dest0) = entry(0);
        if !dest0.is_ipv4() {
            // SAFETY: the caller guarantees the payload outlives the call.
            let bytes = unsafe { std::slice::from_raw_parts(ptr0, len0) };
            let res = match socket.send_to(bytes, dest0) {
                Ok(n) => n as i32,
                Err(e) => -e.raw_os_error().unwrap_or(libc::EINVAL),
            };
            completions.push((0, res));
            return Ok(RingSubmit {
                accepted: 1,
                sq_full: false,
            });
        }
        self.send_epoch = self.send_epoch.wrapping_add(1);
        let epoch = self.send_epoch;
        let mut accepted = 0usize;
        let mut sq_full = false;
        for i in 0..chunk_len {
            let (ptr, len, dest) = entry(i);
            let SocketAddr::V4(v4) = dest else {
                break; // IPv4 run ends; the caller retries from here
            };
            self.send_addrs[i] = libc::sockaddr_in::from_parts(*v4.ip(), v4.port());
            self.send_iovs[i] = libc::iovec {
                iov_base: ptr as *mut libc::c_void,
                iov_len: len,
            };
            self.send_hdrs[i] = libc::msghdr {
                msg_name: &mut self.send_addrs[i] as *mut libc::sockaddr_in as *mut libc::c_void,
                msg_namelen: std::mem::size_of::<libc::sockaddr_in>() as u32,
                msg_iov: &mut self.send_iovs[i],
                msg_iovlen: 1,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            };
            let hdr = &mut self.send_hdrs[i] as *mut libc::msghdr;
            let pushed = self.push_sqe(|sqe| {
                sqe.opcode = libc::IORING_OP_SENDMSG;
                sqe.fd = fd;
                sqe.addr = hdr as usize as u64;
                sqe.len = 1;
                sqe.op_flags = libc::MSG_DONTWAIT as u32;
                sqe.user_data = SEND_TAG | ((epoch as u64) << 20) | i as u64;
            });
            if !pushed {
                self.stats.sq_full_stalls += 1;
                sq_full = true;
                break;
            }
            accepted += 1;
        }
        if accepted == 0 {
            // Nothing fit at all: surface as would-block so the whole
            // suffix is requeued in order.
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        self.send_res[..accepted].fill(i32::MIN);
        self.send_outstanding = accepted;
        while self.send_outstanding > 0 {
            if let Err(e) = self.enter(1) {
                self.send_outstanding = 0;
                self.send_epoch = self.send_epoch.wrapping_add(1); // orphan late CQEs
                return Err(e);
            }
            self.reap();
        }
        for (i, res) in self.send_res[..accepted].iter().enumerate() {
            completions.push((i as u32, *res));
        }
        Ok(RingSubmit { accepted, sq_full })
    }

    /// [`crate::transport::BatchIo::send_slots`] over the ring: the
    /// reactor's zero-alloc flush path.
    pub fn send_slots(
        &mut self,
        socket: &UdpSocket,
        arena: &[u8],
        slots: &[SendSlot],
        statuses: &mut Vec<BatchSendStatus>,
        on_syscall: &mut dyn FnMut(usize),
    ) -> SendBatchStats {
        let enters0 = self.stats.enters;
        let batch_size = self.batch_size;
        let mut completions = std::mem::take(&mut self.completions);
        let mut ring = |chunk: &[SendSlot], comps: &mut Vec<(u32, i32)>| {
            self.submit_send_chunk(
                socket,
                chunk.len(),
                |i| {
                    let (start, len, dest) = chunk[i];
                    let bytes = &arena[start as usize..(start + len) as usize];
                    (bytes.as_ptr(), bytes.len(), dest)
                },
                comps,
            )
        };
        let mut stats = settle_ring_send(
            batch_size,
            &mut ring,
            slots,
            statuses,
            on_syscall,
            &mut completions,
        );
        self.completions = completions;
        stats.syscalls = self.stats.enters - enters0;
        stats
    }

    /// [`crate::transport::BatchIo::send_batch`] over the ring
    /// (borrowed-slice datagrams).
    pub fn send_batch(
        &mut self,
        socket: &UdpSocket,
        msgs: &[(&[u8], SocketAddr)],
        statuses: &mut Vec<BatchSendStatus>,
        on_syscall: &mut dyn FnMut(usize),
    ) -> SendBatchStats {
        let enters0 = self.stats.enters;
        let batch_size = self.batch_size;
        let mut completions = std::mem::take(&mut self.completions);
        let mut ring = |chunk: &[(&[u8], SocketAddr)], comps: &mut Vec<(u32, i32)>| {
            self.submit_send_chunk(
                socket,
                chunk.len(),
                |i| {
                    let (bytes, dest) = chunk[i];
                    (bytes.as_ptr(), bytes.len(), dest)
                },
                comps,
            )
        };
        let mut stats = settle_ring_send(
            batch_size,
            &mut ring,
            msgs,
            statuses,
            on_syscall,
            &mut completions,
        );
        self.completions = completions;
        stats.syscalls = self.stats.enters - enters0;
        stats
    }
}

impl Drop for UringIo {
    fn drop(&mut self) {
        // Cancel the standing recv pool and wait for every armed op to
        // retire: the kernel must be done with the arena and the msghdr
        // storage before either is freed.
        for idx in 0..self.batch_size {
            if self.buf_state[idx] != BufState::Armed {
                continue;
            }
            let target = idx as u64;
            self.push_sqe(|sqe| {
                sqe.opcode = libc::IORING_OP_ASYNC_CANCEL;
                sqe.fd = -1;
                sqe.addr = target;
                sqe.user_data = CANCEL_TAG | target;
            });
        }
        let mut spins = 0;
        while self.armed > 0 && spins < 4096 {
            if self.enter(1).is_err() {
                break;
            }
            self.reap();
            spins += 1;
        }
        self.sqe_map.unmap();
        if let Some(cq) = self.cq_map.as_mut() {
            cq.unmap();
        }
        self.sq_map.unmap();
        // SAFETY: our ring fd, closed exactly once.
        unsafe { libc::close(self.fd) };
    }
}

fn zeroed_msghdr() -> libc::msghdr {
    libc::msghdr {
        msg_name: std::ptr::null_mut(),
        msg_namelen: 0,
        msg_iov: std::ptr::null_mut(),
        msg_iovlen: 0,
        msg_control: std::ptr::null_mut(),
        msg_controllen: 0,
        msg_flags: 0,
    }
}

fn zeroed_iovec() -> libc::iovec {
    libc::iovec {
        iov_base: std::ptr::null_mut(),
        iov_len: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback_pair() -> (UdpSocket, UdpSocket) {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.set_nonblocking(true).unwrap();
        (rx, tx)
    }

    fn try_ring(batch: usize) -> Option<UringIo> {
        match UringIo::new(batch) {
            Ok(io) => Some(io),
            Err(e) => {
                eprintln!("io_uring unavailable here ({e}); skipping");
                None
            }
        }
    }

    #[test]
    fn ring_round_trips_datagrams_in_order() {
        let Some(mut ring_rx) = try_ring(8) else {
            return;
        };
        let Some(mut ring_tx) = try_ring(8) else {
            return;
        };
        let (rx, tx) = loopback_pair();
        let rx_addr = rx.local_addr().unwrap();
        ring_rx.prime(&rx);

        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 16 + i as usize]).collect();
        let msgs: Vec<(&[u8], SocketAddr)> =
            payloads.iter().map(|p| (p.as_slice(), rx_addr)).collect();
        let mut statuses = Vec::new();
        let stats = ring_tx.send_batch(&tx, &msgs, &mut statuses, &mut |_| {});
        assert_eq!(stats.sent, 20);
        assert!(statuses.iter().all(|s| *s == BatchSendStatus::Sent));

        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while got.len() < 20 && std::time::Instant::now() < deadline {
            let batch = ring_rx.recv_into_arena(&rx);
            assert!(batch.err.is_none(), "{:?}", batch.err);
            for i in 0..batch.count {
                got.push(ring_rx.arena_bytes(i).to_vec());
                assert_eq!(ring_rx.arena_peer(i), tx.local_addr().unwrap());
            }
            if batch.count == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        assert_eq!(got, payloads);
    }

    #[test]
    fn teardown_with_armed_pool_is_clean() {
        let Some(mut ring) = try_ring(16) else {
            return;
        };
        let (rx, _tx) = loopback_pair();
        ring.prime(&rx);
        drop(ring); // must cancel 16 armed RECVMSG ops without hanging
    }

    #[test]
    fn sqpoll_setup_either_works_or_reports() {
        match UringIo::new_sqpoll(8) {
            Ok(mut ring) => {
                let (rx, tx) = loopback_pair();
                let rx_addr = rx.local_addr().unwrap();
                ring.prime(&rx);
                let payload = [7u8; 12];
                let mut statuses = Vec::new();
                let mut tx_ring = match UringIo::new_sqpoll(8) {
                    Ok(r) => r,
                    Err(_) => return,
                };
                tx_ring.send_batch(&tx, &[(&payload[..], rx_addr)], &mut statuses, &mut |_| {});
                assert_eq!(statuses, vec![BatchSendStatus::Sent]);
            }
            Err(e) => {
                // Unprivileged SQPOLL needs ≥ 5.11; either outcome is fine.
                eprintln!("sqpoll unavailable ({e})");
            }
        }
    }
}
