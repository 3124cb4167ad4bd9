//! Reusable scatter/gather scratch for `sendmmsg(2)`/`recvmmsg(2)`.
//!
//! Both batched-I/O call sites — `zdns-core`'s `BatchIo` (the reactor's
//! syscall layer) and this crate's [`crate::RecvArena`] (the loopback
//! wire servers) — need the same `mmsghdr`/`iovec`/`sockaddr_in` vector
//! assembly before every vectored syscall. Keeping it here, allocated
//! once and rewritten per call, means the hot path pays zero allocator
//! round-trips per syscall and the `unsafe` pointer plumbing lives in
//! exactly one place.

use std::net::SocketAddr;

/// Pre-allocated `sockaddr_in`/`iovec`/`mmsghdr` arrays, rewritten in
/// place before each `sendmmsg`/`recvmmsg` call.
#[derive(Default)]
pub struct MmsgScratch {
    addrs: Vec<libc::sockaddr_in>,
    iovs: Vec<libc::iovec>,
    hdrs: Vec<libc::mmsghdr>,
}

// SAFETY: the raw pointers stored in `iovs`/`hdrs` are rebuilt by the
// `prepare_*` methods immediately before every syscall and are never
// dereferenced between calls, so moving the scratch across threads
// cannot expose a dangling pointer.
unsafe impl Send for MmsgScratch {}

impl MmsgScratch {
    /// Empty scratch; arrays grow to the largest batch ever prepared.
    pub fn new() -> MmsgScratch {
        MmsgScratch::default()
    }

    fn reset(&mut self, n: usize) {
        let zero_iov = libc::iovec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        };
        let zero_hdr = libc::mmsghdr {
            msg_hdr: libc::msghdr {
                msg_name: std::ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: std::ptr::null_mut(),
                msg_iovlen: 0,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        };
        self.addrs.resize(n, libc::sockaddr_in::zeroed());
        self.iovs.resize(n, zero_iov);
        self.hdrs.resize(n, zero_hdr);
    }

    fn link(&mut self, i: usize) {
        self.hdrs[i] = libc::mmsghdr {
            msg_hdr: libc::msghdr {
                msg_name: &mut self.addrs[i] as *mut libc::sockaddr_in as *mut libc::c_void,
                msg_namelen: std::mem::size_of::<libc::sockaddr_in>() as u32,
                msg_iov: &mut self.iovs[i],
                msg_iovlen: 1,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        };
    }

    /// Point entry `i` at the `i`-th of `slots` for receiving, for every
    /// slot — typically `arena.chunks_mut(RECV_SLOT)` over one allocation.
    /// Returns the `mmsghdr` slice ready to hand to `recvmmsg`; read the
    /// results back with [`MmsgScratch::peer`] / [`MmsgScratch::received_len`].
    pub fn prepare_recv<'a>(
        &mut self,
        slots: impl ExactSizeIterator<Item = &'a mut [u8]>,
    ) -> &mut [libc::mmsghdr] {
        let n = slots.len();
        self.reset(n);
        for (i, buf) in slots.enumerate() {
            self.addrs[i] = libc::sockaddr_in::zeroed();
            self.iovs[i] = libc::iovec {
                iov_base: buf.as_mut_ptr() as *mut libc::c_void,
                iov_len: buf.len(),
            };
            self.link(i);
        }
        &mut self.hdrs[..n]
    }

    /// Build the send vector for `msgs` (callers pass IPv4 destinations
    /// only — non-IPv4 entries are the per-datagram fallback's problem).
    /// Returns the `mmsghdr` slice ready to hand to `sendmmsg`. The
    /// payload slices are only read by the kernel.
    pub fn prepare_send(&mut self, msgs: &[(&[u8], SocketAddr)]) -> &mut [libc::mmsghdr] {
        let n = msgs.len();
        self.reset(n);
        for (i, (bytes, dest)) in msgs.iter().enumerate() {
            let SocketAddr::V4(v4) = dest else {
                unreachable!("prepare_send takes IPv4 destinations only");
            };
            self.addrs[i] = libc::sockaddr_in::from_parts(*v4.ip(), v4.port());
            self.iovs[i] = libc::iovec {
                iov_base: bytes.as_ptr() as *mut libc::c_void,
                iov_len: bytes.len(),
            };
            self.link(i);
        }
        &mut self.hdrs[..n]
    }

    /// Like [`MmsgScratch::prepare_send`], but the payloads are
    /// `(offset, len)` slots into one shared arena buffer — the shape the
    /// reactor's scratch-encoded send path produces. Avoids materializing a
    /// `Vec<(&[u8], SocketAddr)>` per flush: the iovecs are pointed straight
    /// into the arena.
    pub fn prepare_send_slots(
        &mut self,
        arena: &[u8],
        slots: &[(u32, u32, SocketAddr)],
    ) -> &mut [libc::mmsghdr] {
        let n = slots.len();
        self.reset(n);
        for (i, (start, len, dest)) in slots.iter().enumerate() {
            let SocketAddr::V4(v4) = dest else {
                unreachable!("prepare_send_slots takes IPv4 destinations only");
            };
            let bytes = &arena[*start as usize..(*start + *len) as usize];
            self.addrs[i] = libc::sockaddr_in::from_parts(*v4.ip(), v4.port());
            self.iovs[i] = libc::iovec {
                iov_base: bytes.as_ptr() as *mut libc::c_void,
                iov_len: bytes.len(),
            };
            self.link(i);
        }
        &mut self.hdrs[..n]
    }

    /// Peer address recorded for received entry `i`, if it was IPv4.
    pub fn peer(&self, i: usize) -> Option<SocketAddr> {
        self.addrs[i].to_addr()
    }

    /// Bytes the kernel reported for entry `i`.
    pub fn received_len(&self, i: usize) -> usize {
        self.hdrs[i].msg_len as usize
    }
}
