//! Batched datagram I/O: the workspace's one `sendmmsg(2)` call, one
//! `recvmmsg(2)` call, its per-datagram `recvfrom(2)` and one receive
//! loop, with every `unsafe` pointer hand-off they need and the arena's
//! page mapping. Three callers share it: `zdns-core`'s `BatchIo` (the
//! reactor's syscall layer), this crate's `WireServer` (the loopback
//! servers' UDP thread) and `zdns-core`'s `ServerRole`, which drains a
//! serve worker's listener. The FFI vectors are allocated once and
//! rewritten before every call, so the hot path pays no allocator
//! round-trip per syscall.
//!
//! A [`RecvArena`]'s mode is fixed when it is built: vectored (one
//! `recvmmsg` per batch) where [`libc::MMSG_SUPPORTED`], per-datagram
//! (one `recvfrom` per datagram) otherwise or when asked for. Both wait
//! the way `MSG_WAITFORONE` does: the first datagram honours the
//! socket's blocking mode and read timeout, the rest are taken only if
//! already queued. A batch on a non-blocking socket never waits; one on
//! a blocking socket returns as soon as a datagram arrives.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};

/// Bytes per slot of a receive arena: room for the largest UDP datagram,
/// rounded up to whole pages. An arena is *one* anonymous mapping of
/// `depth × RECV_SLOT` bytes cut into slots — the kernel hands that out
/// as untouched zero pages, so making it costs microseconds and the
/// process pays only for the pages datagrams actually fill.
pub const RECV_SLOT: usize = 65_536;

/// Most datagrams one vectored call moves: the kernel's `UIO_MAXIOV`,
/// and the deepest arena.
const MAX_VLEN: usize = 1_024;

/// Result of one [`RecvArena::recv_batch`] call.
#[derive(Debug)]
pub struct RecvBatch {
    /// Datagrams now sitting in the arena (`0..count` are valid).
    pub count: usize,
    /// Hard socket error hit after `count` datagrams, if any. A short
    /// batch with `err == None` is a normal drain (the queue emptied, or
    /// a blocking socket's read timeout passed), **not** an error —
    /// `WouldBlock` and `TimedOut` are never reported here.
    pub err: Option<std::io::Error>,
}

impl RecvBatch {
    /// The batch a receive error ended after `count` datagrams.
    fn ended(count: usize, e: std::io::Error) -> RecvBatch {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        let err = (!matches!(e.kind(), WouldBlock | TimedOut)).then_some(e);
        RecvBatch { count, err }
    }
}

/// Pre-allocated `sockaddr_in`/`iovec`/`mmsghdr` arrays, rewritten in
/// place before each `sendmmsg`/`recvmmsg` call; they grow to the
/// largest batch ever prepared.
#[derive(Default)]
pub struct MmsgScratch {
    addrs: Vec<libc::sockaddr_in>,
    iovs: Vec<libc::iovec>,
    hdrs: Vec<libc::mmsghdr>,
}

// SAFETY: the raw pointers stored in `iovs`/`hdrs` are rebuilt by
// `fill` immediately before every syscall and are never
// dereferenced between calls, so moving the scratch across threads
// cannot expose a dangling pointer.
unsafe impl Send for MmsgScratch {}

impl MmsgScratch {
    /// Rewrite the vectors to one entry per `(address, segment)` pair.
    /// The headers are linked after the last push, so none points at
    /// storage a push moved.
    fn fill(
        &mut self,
        entries: impl Iterator<Item = (libc::sockaddr_in, libc::iovec)>,
    ) -> &mut [libc::mmsghdr] {
        self.addrs.clear();
        self.iovs.clear();
        self.hdrs.clear();
        for (addr, iov) in entries {
            self.addrs.push(addr);
            self.iovs.push(iov);
        }
        for (addr, iov) in self.addrs.iter_mut().zip(&mut self.iovs) {
            self.hdrs.push(libc::mmsghdr {
                msg_hdr: libc::msghdr {
                    msg_name: addr as *mut libc::sockaddr_in as *mut libc::c_void,
                    msg_namelen: std::mem::size_of::<libc::sockaddr_in>() as u32,
                    msg_iov: iov,
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
        }
        &mut self.hdrs
    }

    /// Build the send vector from the leading IPv4 datagrams of `msgs`,
    /// at most [`MAX_VLEN`] of them. The kernel only reads the payloads.
    fn prepare_send<'a>(
        &mut self,
        msgs: impl Iterator<Item = (&'a [u8], SocketAddr)>,
    ) -> &mut [libc::mmsghdr] {
        self.fill(msgs.take(MAX_VLEN).map_while(|(bytes, dest)| match dest {
            SocketAddr::V4(v4) => Some((
                libc::sockaddr_in::from_parts(*v4.ip(), v4.port()),
                iovec(bytes.as_ptr() as *mut u8, bytes.len()),
            )),
            SocketAddr::V6(_) => None,
        }))
    }

    /// One `sendmmsg` attempt (never waiting) on the leading IPv4 run of
    /// `msgs`; a non-IPv4 head is sent alone through `send_to`. Returns
    /// how many consecutive datagrams went out (≥ 1 for a non-empty
    /// `msgs`) or the error that stopped the first.
    pub fn send<'a>(
        &mut self,
        socket: &UdpSocket,
        msgs: impl IntoIterator<Item = (&'a [u8], SocketAddr)>,
    ) -> std::io::Result<usize> {
        let mut msgs = msgs.into_iter().peekable();
        if let Some(&(bytes, dest)) = msgs.peek().filter(|(_, dest)| !dest.is_ipv4()) {
            return socket.send_to(bytes, dest).map(|_| 1);
        }
        sys::sendmmsg(socket, self.prepare_send(msgs))
    }
}

/// One scatter/gather segment of `len` bytes at `base`.
fn iovec(base: *mut u8, len: usize) -> libc::iovec {
    libc::iovec {
        iov_base: base as *mut libc::c_void,
        iov_len: len,
    }
}

/// A receive arena's slot storage: zero pages mapped straight from the
/// kernel and unmapped on drop. A heap block would not stay untouched:
/// once glibc has freed one arena-sized block it serves the next from its
/// heap, and zeroes every byte of it.
#[cfg(any(target_os = "linux", target_os = "android"))]
mod slots {
    use libc::{MAP_ANONYMOUS, MAP_FAILED, MAP_PRIVATE, PROT_READ, PROT_WRITE};
    use std::ptr::{null_mut, NonNull};

    pub struct Slots(NonNull<[u8]>);

    // SAFETY: `Slots` owns its mapping outright, like a `Box<[u8]>`.
    unsafe impl Send for Slots {}

    pub fn zeroed(len: usize) -> Slots {
        let (prot, flags) = (PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS);
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let base = unsafe { libc::mmap(null_mut(), len, prot, flags, -1, 0) };
        match NonNull::new(base.cast()).filter(|_| base != MAP_FAILED) {
            Some(base) => Slots(NonNull::slice_from_raw_parts(base, len)),
            None => std::alloc::handle_alloc_error(std::alloc::Layout::array::<u8>(len).unwrap()),
        }
    }

    impl std::ops::Deref for Slots {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: the mapping is live and readable while `self` is.
            unsafe { self.0.as_ref() }
        }
    }

    impl std::ops::DerefMut for Slots {
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
            unsafe { self.0.as_mut() }
        }
    }

    impl Drop for Slots {
        fn drop(&mut self) {
            // SAFETY: the mapping `zeroed` made, unmapped once.
            unsafe { libc::munmap(self.0.as_ptr().cast(), self.0.len()) };
        }
    }
}

/// Elsewhere the allocator's zeroed block stands in.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod slots {
    pub type Slots = Box<[u8]>;

    pub fn zeroed(len: usize) -> Slots {
        vec![0u8; len].into_boxed_slice()
    }
}

/// A reusable receive arena: `depth` slots of [`RECV_SLOT`] bytes in one
/// lazily zeroed mapping, filled by one [`RecvArena::recv_batch`] call —
/// one `recvmmsg` when vectored, one `recvfrom` per datagram otherwise
/// (see the module docs for how either waits).
pub struct RecvArena {
    slots: slots::Slots,
    lens: Vec<usize>,
    peers: Vec<SocketAddr>,
    /// The `recvmmsg` vectors; `None` in per-datagram mode.
    vectored: Option<MmsgScratch>,
}

impl RecvArena {
    /// `depth` slots (clamped to 1..=1024), vectored where the platform
    /// has `recvmmsg`.
    pub fn new(depth: usize) -> RecvArena {
        RecvArena::build(depth, libc::MMSG_SUPPORTED)
    }

    /// `depth` slots received one `recvfrom` at a time.
    pub fn per_datagram(depth: usize) -> RecvArena {
        RecvArena::build(depth, false)
    }

    fn build(depth: usize, vectored: bool) -> RecvArena {
        let depth = depth.clamp(1, MAX_VLEN);
        RecvArena {
            slots: slots::zeroed(depth * RECV_SLOT),
            lens: vec![0; depth],
            peers: vec![SocketAddr::new(Ipv4Addr::UNSPECIFIED.into(), 0); depth],
            vectored: vectored.then(MmsgScratch::default),
        }
    }

    /// Slots in the arena: the most datagrams one batch holds.
    pub fn depth(&self) -> usize {
        self.lens.len()
    }

    /// Whether batches are received by one `recvmmsg` call.
    pub fn is_vectored(&self) -> bool {
        self.vectored.is_some()
    }

    /// Receive up to [`RecvArena::depth`] datagrams. The first waits as
    /// the socket does; the rest are whatever was already queued. See
    /// [`RecvBatch`] for how short batches and errors are told apart.
    pub fn recv_batch(&mut self, socket: &UdpSocket) -> RecvBatch {
        let RecvArena {
            slots,
            lens,
            peers,
            vectored,
        } = self;
        let depth = peers.len();
        // A non-IPv4 peer is impossible on a v4 socket; such a slot keeps
        // its place but decodes to nothing.
        let mut keep = |i: usize, len: usize, peer: Option<SocketAddr>| match peer {
            Some(peer) => {
                lens[i] = len.min(RECV_SLOT);
                peers[i] = peer;
            }
            None => lens[i] = 0,
        };
        let slots = slots.chunks_mut(RECV_SLOT);
        if let Some(scratch) = vectored {
            let slots = slots.map(|buf| {
                let iov = iovec(buf.as_mut_ptr(), buf.len());
                (libc::sockaddr_in::zeroed(), iov)
            });
            return match sys::recvmmsg(socket, scratch.fill(slots)) {
                Ok(count) => {
                    for i in 0..count {
                        keep(
                            i,
                            scratch.hdrs[i].msg_len as usize,
                            scratch.addrs[i].to_addr(),
                        );
                    }
                    RecvBatch { count, err: None }
                }
                Err(e) => RecvBatch::ended(0, e),
            };
        }
        for (count, slot) in slots.enumerate() {
            match sys::recvfrom(socket, slot, count == 0) {
                Ok((len, peer)) => keep(count, len, peer),
                Err(e) => return RecvBatch::ended(count, e),
            }
        }
        RecvBatch {
            count: depth,
            err: None,
        }
    }

    /// The `i`-th received datagram and its sender (valid after a
    /// [`RecvArena::recv_batch`] that returned `count > i`).
    pub fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
        (&self.slots[i * RECV_SLOT..][..self.lens[i]], self.peers[i])
    }
}

/// The raw calls. `sendmmsg` never waits; `recvmmsg` passes
/// `MSG_WAITFORONE`; `recvfrom` waits as the socket does only when asked.
#[cfg(any(target_os = "linux", target_os = "android"))]
mod sys {
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;

    fn count(r: isize) -> std::io::Result<usize> {
        if r < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(r as usize)
        }
    }

    pub fn sendmmsg(socket: &UdpSocket, hdrs: &mut [libc::mmsghdr]) -> std::io::Result<usize> {
        // SAFETY: every mmsghdr points at live storage (the payload
        // slices and the scratch arrays) that outlives the call; the
        // payloads are only read; vlen matches the slice length.
        count(unsafe {
            libc::sendmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                hdrs.len() as libc::c_uint,
                libc::MSG_DONTWAIT,
            )
        } as isize)
    }

    pub fn recvmmsg(socket: &UdpSocket, hdrs: &mut [libc::mmsghdr]) -> std::io::Result<usize> {
        // SAFETY: every mmsghdr points at live, correctly sized storage
        // (the arena's slots and the scratch arrays) that outlives the
        // call; vlen matches the slice length.
        count(unsafe {
            libc::recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                hdrs.len() as libc::c_uint,
                libc::MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        } as isize)
    }

    pub fn recvfrom(
        socket: &UdpSocket,
        buf: &mut [u8],
        wait: bool,
    ) -> std::io::Result<(usize, Option<SocketAddr>)> {
        let mut addr = libc::sockaddr_in::zeroed();
        let mut addr_len = std::mem::size_of::<libc::sockaddr_in>() as u32;
        // SAFETY: `buf`, `addr` and `addr_len` are live and writable for
        // the call, and the lengths passed are theirs.
        let len = count(unsafe {
            libc::recvfrom(
                socket.as_raw_fd(),
                buf.as_mut_ptr() as *mut libc::c_void,
                buf.len(),
                if wait { 0 } else { libc::MSG_DONTWAIT },
                &mut addr,
                &mut addr_len,
            )
        })?;
        Ok((len, addr.to_addr()))
    }
}

/// Elsewhere there is no vectored call, and `recv_from` waits as the
/// socket does for every datagram: a blocking socket's batch ends at its
/// read timeout.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod sys {
    use std::net::{SocketAddr, UdpSocket};

    pub fn sendmmsg(_: &UdpSocket, _: &mut [libc::mmsghdr]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::Unsupported.into())
    }

    pub fn recvmmsg(_: &UdpSocket, _: &mut [libc::mmsghdr]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::Unsupported.into())
    }

    pub fn recvfrom(
        socket: &UdpSocket,
        buf: &mut [u8],
        _wait: bool,
    ) -> std::io::Result<(usize, Option<SocketAddr>)> {
        socket.recv_from(buf).map(|(len, peer)| (len, Some(peer)))
    }
}
