//! Batched datagram I/O: the workspace's one `sendmmsg(2)` call, its one
//! segmented `sendmsg(2)` (UDP GSO), one `recvmmsg(2)` call, its
//! per-datagram `recvfrom(2)` and one receive loop, with every `unsafe`
//! pointer hand-off they need and the arena's page mapping. Three callers
//! share it: `zdns-core`'s `BatchIo` (the reactor's syscall layer, and
//! the serve listeners' replies), this crate's `WireServer` (the loopback
//! servers' UDP thread) and `zdns-core`'s `ServerRole`, which drains a
//! serve worker's listener. The FFI vectors are allocated once and
//! reused for every call, so the hot path pays no allocator
//! round-trip per syscall.
//!
//! A send ([`MmsgScratch::send`]) that opens with a *run* — two or more
//! datagrams to one IPv4 destination with one length — leaves as one
//! `sendmsg` with a `UDP_SEGMENT` control message: the kernel builds one
//! packet and cuts it into the run's datagrams every segment length, so
//! the run pays the socket, route and UDP layers once. A run may end in
//! one *shorter* datagram to the same destination, which rides as its
//! tail: the kernel's last cut is simply short. Its `msg_iov` is the
//! run's own iovecs, so no payload is copied. A run is at most 64
//! datagrams and 65 000 payload octets, its tail included, and a
//! datagram over 1 472 octets never joins one. A send that opens with a
//! lone datagram leaves by `sendmmsg`, with everything behind it. A
//! segmented send is all-or-nothing.
//!
//! Segmentation needs Linux 4.18 or later; `sendmmsg` alone needs 3.0.
//! An older kernel does not refuse the control message: it ignores it
//! and would send a run as one long datagram. So before its first
//! segmented send the process asks the kernel once, by `getsockopt` of
//! `UDP_SEGMENT`, which an older kernel fails with `ENOPROTOOPT`; then
//! every send goes through `sendmmsg`. On a kernel that passes, the
//! first segmented send refused as unsupported (`EIO` from a device
//! that cannot checksum one, `EINVAL`, `ENOPROTOOPT`) turns
//! segmentation off for the process too, and its run is sent again
//! through `sendmmsg`.
//!
//! A [`RecvArena`]'s mode is fixed when it is built: vectored (one
//! `recvmmsg` per batch) where [`libc::MMSG_SUPPORTED`], per-datagram
//! (one `recvfrom` per datagram) otherwise or when asked for. Both wait
//! the way `MSG_WAITFORONE` does: the first datagram honours the
//! socket's blocking mode and read timeout, the rest are taken only if
//! already queued. A batch on a non-blocking socket never waits; one on
//! a blocking socket returns as soon as a datagram arrives. A vectored
//! arena links its `recvmmsg` headers to its slots once, when it is
//! built; before each call it resets only the address lengths of the
//! entries the previous call filled, the one input the kernel rewrites.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU8, Ordering};

/// Bytes per slot of a receive arena: room for the largest UDP datagram,
/// rounded up to whole pages. An arena is *one* anonymous mapping of
/// `depth × RECV_SLOT` bytes cut into slots — the kernel hands that out
/// as untouched zero pages, so making it costs microseconds and the
/// process pays only for the pages datagrams actually fill.
pub const RECV_SLOT: usize = 65_536;

/// Most datagrams one vectored call moves: the kernel's `UIO_MAXIOV`,
/// and the deepest arena.
const MAX_VLEN: usize = 1_024;

/// Most datagrams one segmented send carries (the kernel's
/// `UDP_MAX_SEGMENTS`).
const GSO_MAX_SEGMENTS: usize = 64;

/// Most payload octets one segmented send carries: under the 65 507 of
/// one UDP datagram, which bounds the packet the kernel cuts up.
const GSO_MAX_OCTETS: usize = 65_000;

/// Longest datagram that joins a run: a 1 500-octet MTU less the IPv4
/// and UDP headers. The kernel refuses a segment longer than the route's
/// MTU allows with `EINVAL`.
const GSO_MAX_SEGMENT: usize = 1_472;

/// Whether a sender segments its runs. It starts unknown: the first
/// run asks the kernel ([`SendCall::Probe`]), which turns it on or off.
/// Once on, the first segmented send refused as unsupported turns it off;
/// off is for good.
pub struct Segmentation(AtomicU8);

const UNKNOWN: u8 = 0;
const ON: u8 = 1;
const OFF: u8 = 2;

impl Segmentation {
    /// Not asked yet: the first run probes.
    pub const fn unknown() -> Segmentation {
        Segmentation(AtomicU8::new(UNKNOWN))
    }

    /// On, as after a probe the kernel passed.
    pub const fn on() -> Segmentation {
        Segmentation(AtomicU8::new(ON))
    }

    /// Whether runs leave segmented: the probe passed and no segmented
    /// send has been refused since.
    pub fn is_on(&self) -> bool {
        self.0.load(Ordering::Relaxed) == ON
    }

    /// Whether a run is worth looking for: on, or not asked yet.
    fn wanted(&self) -> bool {
        self.0.load(Ordering::Relaxed) != OFF
    }

    /// Whether a run may leave segmented, asking the kernel through
    /// `call` first if nobody has yet. Any error from the probe turns
    /// segmentation off.
    fn ready(&self, call: &mut dyn FnMut(SendCall<'_>) -> std::io::Result<usize>) -> bool {
        use Ordering::Relaxed;
        if self.0.load(Relaxed) == UNKNOWN {
            let known = match call(SendCall::Probe) {
                Ok(_) => ON,
                Err(_) => OFF,
            };
            // A refusal latched by another sender meanwhile stands.
            let _ = self.0.compare_exchange(UNKNOWN, known, Relaxed, Relaxed);
        }
        self.is_on()
    }

    fn turn_off(&self) {
        self.0.store(OFF, Ordering::Relaxed);
    }
}

/// The process's switch: segmentation is a property of its kernel and
/// routes, not of one socket. Where the platform has no segmented send,
/// the probe fails and it turns off.
static GSO: Segmentation = Segmentation::unknown();

/// Whether this process segments its runs: false until the kernel
/// passed the probe, and for good after it failed it or refused a
/// segmented send as unsupported.
pub fn segmentation_on() -> bool {
    GSO.is_on()
}

/// One raw send call, as [`MmsgScratch::send_with`] hands it to the
/// kernel (or to a test's script): the FFI vectors it has built.
pub enum SendCall<'a> {
    /// `sendmmsg(2)` over these headers, one datagram each.
    Vectored(&'a mut [libc::mmsghdr]),
    /// One `sendmsg(2)` of a run: its iovecs are the run's datagrams,
    /// its control message their common length.
    Segmented(&'a libc::msghdr),
    /// No send: `getsockopt(2)` of `UDP_SEGMENT`, which succeeds only on
    /// a kernel that segments (see the module docs).
    Probe,
}

impl SendCall<'_> {
    /// Datagrams the call carries.
    pub fn datagrams(&self) -> usize {
        match self {
            SendCall::Vectored(hdrs) => hdrs.len(),
            SendCall::Segmented(hdr) => hdr.msg_iovlen,
            SendCall::Probe => 0,
        }
    }
}

/// Whether a segmented send's error says the route or the kernel cannot
/// segment at all, rather than that this one send failed.
fn refuses_segmentation(e: &std::io::Error) -> bool {
    matches!(
        e.raw_os_error(),
        Some(libc::EIO | libc::EINVAL | libc::ENOPROTOOPT)
    ) || e.kind() == std::io::ErrorKind::Unsupported
}

/// A segmented send's control buffer: one `UDP_SEGMENT` item carrying
/// the segment length, laid out as `CMSG_SPACE(2)` octets.
#[repr(C)]
struct SegmentControl {
    hdr: libc::cmsghdr,
    segment: u16,
}

const _: () = assert!(std::mem::size_of::<SegmentControl>() == libc::CMSG_SPACE(2) as usize);

impl SegmentControl {
    fn new(segment: usize) -> SegmentControl {
        SegmentControl {
            hdr: libc::cmsghdr {
                cmsg_len: libc::CMSG_LEN(2) as usize,
                cmsg_level: libc::SOL_UDP,
                cmsg_type: libc::UDP_SEGMENT,
            },
            segment: segment as u16,
        }
    }
}

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

/// Pre-allocated `sockaddr_in`/`iovec`/`mmsghdr` arrays. A sender
/// rewrites them in place before each `sendmmsg`; they grow to the
/// largest batch ever prepared, unless built for it
/// ([`MmsgScratch::with_capacity`]). A [`RecvArena`] links them to its
/// slots once and keeps them.
#[derive(Default)]
pub struct MmsgScratch {
    addrs: Vec<libc::sockaddr_in>,
    iovs: Vec<libc::iovec>,
    hdrs: Vec<libc::mmsghdr>,
}

// SAFETY: the raw pointers stored in `iovs`/`hdrs` point into storage
// whose owner moves with the scratch or outlives every call through it:
// a send relinks them immediately before every syscall, into its own
// vectors and the caller's payloads; a receive arena links them once,
// into these vectors and its own slot mapping, neither of which it ever
// reallocates or frees while the scratch lives. They are dereferenced
// only by the kernel, during a call made through `&mut self`, so moving
// the scratch across threads cannot expose a dangling pointer.
unsafe impl Send for MmsgScratch {}

/// A run a send opens with, grown one datagram at a time: its
/// destination and segment length, the datagrams and octets it carries,
/// and whether a shorter tail has ended it.
struct Run {
    dest: SocketAddr,
    segment: usize,
    count: usize,
    octets: usize,
    ended: bool,
}

impl Run {
    /// The run a datagram of `len` octets to `dest` opens: none for a
    /// length no segment may have.
    fn open(dest: SocketAddr, len: usize) -> Option<Run> {
        (1..=GSO_MAX_SEGMENT).contains(&len).then_some(Run {
            dest,
            segment: len,
            count: 1,
            octets: len,
            ended: false,
        })
    }

    /// Take the next datagram if it joins: one of the run's length, or,
    /// behind two or more of them, one shorter that ends the run as its
    /// tail. Either counts toward the segment and octet limits.
    fn join(&mut self, dest: SocketAddr, len: usize) -> bool {
        let fits = !self.ended
            && dest == self.dest
            && self.count < GSO_MAX_SEGMENTS
            && self.octets + len <= GSO_MAX_OCTETS;
        let tail = self.count >= 2 && (1..self.segment).contains(&len);
        let joins = fits && (len == self.segment || tail);
        if joins {
            self.count += 1;
            self.octets += len;
            self.ended = len < self.segment;
        }
        joins
    }
}

impl MmsgScratch {
    /// Vectors for batches of up to `depth` datagrams, so none grows
    /// later: a segmented send links no headers, so a sender whose first
    /// batches were runs would otherwise grow them mid-scan.
    pub fn with_capacity(depth: usize) -> MmsgScratch {
        MmsgScratch {
            addrs: Vec::with_capacity(depth),
            iovs: Vec::with_capacity(depth),
            hdrs: Vec::with_capacity(depth),
        }
    }

    /// Append one `(address, segment)` entry to the vectors.
    fn push(&mut self, addr: libc::sockaddr_in, iov: libc::iovec) {
        self.addrs.push(addr);
        self.iovs.push(iov);
    }

    /// Link one header to each entry of the vectors. The headers are
    /// linked after the last push, so none points at storage a push
    /// moved.
    fn link(&mut self) -> &mut [libc::mmsghdr] {
        self.hdrs.clear();
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

    /// One send attempt (never waiting) on the leading IPv4 datagrams of
    /// `msgs`, at most 1 024 of them: one segmented `sendmsg` when
    /// they open with a run, one `sendmmsg` otherwise (see the module
    /// docs); a non-IPv4 head is sent alone through `send_to`. Returns
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
        self.send_with(&GSO, &mut |call| sys::send(socket, call), msgs)
    }

    /// [`MmsgScratch::send`]'s IPv4 path with the raw call and the
    /// segmentation switch injected, so tests can script what the kernel
    /// answers. `call` returns the datagrams sent (a segmented send
    /// sends its whole run or nothing; a probe, 0 when it passes).
    pub fn send_with<'a>(
        &mut self,
        gso: &Segmentation,
        call: &mut dyn FnMut(SendCall<'_>) -> std::io::Result<usize>,
        msgs: impl IntoIterator<Item = (&'a [u8], SocketAddr)>,
    ) -> std::io::Result<usize> {
        let mut msgs = msgs
            .into_iter()
            .take(MAX_VLEN)
            .map_while(|(bytes, dest)| match dest {
                SocketAddr::V4(v4) => Some((
                    dest,
                    libc::sockaddr_in::from_parts(*v4.ip(), v4.port()),
                    iovec(bytes.as_ptr() as *mut u8, bytes.len()),
                )),
                SocketAddr::V6(_) => None,
            });
        self.addrs.clear();
        self.iovs.clear();
        // The leading run: pushed one datagram at a time until one does
        // not join it, so a run costs one pass over itself alone.
        let mut run = None::<Run>;
        if gso.wanted() {
            for (dest, addr, iov) in &mut msgs {
                self.push(addr, iov);
                let len = iov.iov_len;
                let joins = match &mut run {
                    None => {
                        run = Run::open(dest, len);
                        run.is_some()
                    }
                    Some(run) => run.join(dest, len),
                };
                if !joins || run.as_ref().is_some_and(|run| run.ended) {
                    break;
                }
            }
        }
        if let Some(run) = run.filter(|run| run.count >= 2 && gso.ready(call)) {
            let mut control = SegmentControl::new(run.segment);
            let hdr = libc::msghdr {
                msg_name: &mut self.addrs[0] as *mut libc::sockaddr_in as *mut libc::c_void,
                msg_namelen: std::mem::size_of::<libc::sockaddr_in>() as u32,
                msg_iov: self.iovs.as_mut_ptr(),
                msg_iovlen: run.count,
                msg_control: &mut control as *mut SegmentControl as *mut libc::c_void,
                msg_controllen: std::mem::size_of::<SegmentControl>(),
                msg_flags: 0,
            };
            match call(SendCall::Segmented(&hdr)) {
                Err(e) if refuses_segmentation(&e) => gso.turn_off(),
                sent => return sent.map(|_| run.count),
            }
        }
        for (_, addr, iov) in msgs {
            self.push(addr, iov);
        }
        call(SendCall::Vectored(self.link()))
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
    /// The `recvmmsg` vectors, one header per slot, linked when the
    /// arena is built; `None` in per-datagram mode.
    vectored: Option<MmsgScratch>,
    /// Headers the last `recvmmsg` filled, whose address lengths the
    /// kernel rewrote.
    filled: usize,
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
        let mut slots = slots::zeroed(depth * RECV_SLOT);
        // The headers point into the slot mapping, which moving the
        // arena does not move.
        let vectored = vectored.then(|| {
            let mut scratch = MmsgScratch::with_capacity(depth);
            for slot in slots.chunks_mut(RECV_SLOT) {
                scratch.push(
                    libc::sockaddr_in::zeroed(),
                    iovec(slot.as_mut_ptr(), slot.len()),
                );
            }
            scratch.link();
            scratch
        });
        RecvArena {
            slots,
            lens: vec![0; depth],
            peers: vec![SocketAddr::new(Ipv4Addr::UNSPECIFIED.into(), 0); depth],
            vectored,
            filled: 0,
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
            filled,
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
        if let Some(scratch) = vectored {
            for hdr in &mut scratch.hdrs[..*filled] {
                hdr.msg_hdr.msg_namelen = std::mem::size_of::<libc::sockaddr_in>() as u32;
            }
            let count = sys::recvmmsg(socket, &mut scratch.hdrs);
            *filled = count.as_ref().map_or(0, |&count| count);
            return match count {
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
        let slots = slots.chunks_mut(RECV_SLOT);
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

/// The raw calls. `sendmmsg` and `sendmsg` never wait; `recvmmsg` passes
/// `MSG_WAITFORONE`; `recvfrom` waits as the socket does only when asked.
#[cfg(any(target_os = "linux", target_os = "android"))]
mod sys {
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;

    use super::SendCall;

    fn count(r: isize) -> std::io::Result<usize> {
        if r < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(r as usize)
        }
    }

    /// Make `call` on `socket`: the datagrams it sent.
    pub fn send(socket: &UdpSocket, call: SendCall<'_>) -> std::io::Result<usize> {
        match call {
            SendCall::Vectored(hdrs) => sendmmsg(socket, hdrs),
            SendCall::Segmented(hdr) => sendmsg(socket, hdr).map(|_| hdr.msg_iovlen),
            SendCall::Probe => knows_segmentation(socket).map(|_| 0),
        }
    }

    fn knows_segmentation(socket: &UdpSocket) -> std::io::Result<usize> {
        let (mut segment, mut len) = (0 as libc::c_int, std::mem::size_of::<libc::c_int>() as u32);
        // SAFETY: `segment` and `len` are live and writable for the
        // call, and `len` holds `segment`'s size.
        count(unsafe {
            libc::getsockopt(
                socket.as_raw_fd(),
                libc::SOL_UDP,
                libc::UDP_SEGMENT,
                &mut segment as *mut libc::c_int as *mut libc::c_void,
                &mut len,
            )
        } as isize)
    }

    fn sendmsg(socket: &UdpSocket, hdr: &libc::msghdr) -> std::io::Result<usize> {
        // SAFETY: `hdr` points at live storage (the run's payload
        // slices, the scratch's address and iovecs, the caller's control
        // buffer) that outlives the call; the kernel only reads it, and
        // `msg_iovlen`/`msg_controllen` are the lengths of that storage.
        count(unsafe { libc::sendmsg(socket.as_raw_fd(), hdr, libc::MSG_DONTWAIT) })
    }

    fn sendmmsg(socket: &UdpSocket, hdrs: &mut [libc::mmsghdr]) -> std::io::Result<usize> {
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

    pub fn send(_: &UdpSocket, _: super::SendCall<'_>) -> std::io::Result<usize> {
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
