//! The few raw system calls the harness needs: CPU clocks, batched UDP
//! I/O (`sendmmsg`/`recvmmsg`), socket buffer sizing, `poll`, resource
//! usage, and a switchable allocation counter.
//!
//! `sendmmsg`, `recvmmsg`, `setsockopt`, `sched_setaffinity` and the structs
//! they take come from the workspace's vendored `libc`; what that shim lacks
//! is declared here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ffi::c_void;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use libc::{iovec, mmsghdr, msghdr, sockaddr_in, timespec};
pub use libc::{MSG_DONTWAIT, MSG_WAITFORONE};

#[repr(C)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

/// `struct rusage`: two timevals, then fourteen longs.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    longs: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut timespec) -> i32;
    fn pthread_self() -> usize;
    fn pthread_getcpuclockid(thread: usize, clock: *mut i32) -> i32;
    fn poll(fds: *mut PollFd, n: u64, timeout_ms: i32) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
pub const POLLIN: i16 = 1;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    unsafe { clock_gettime(clock, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// A handle on one thread's CPU clock, readable from any thread — how a
/// slice boundary taken on a program thread subtracts the harness threads.
#[derive(Clone, Copy)]
pub struct ThreadCpuClock(i32);

impl ThreadCpuClock {
    /// The calling thread's clock. Valid while the thread lives.
    pub fn current() -> ThreadCpuClock {
        let mut clock = 0;
        // SAFETY: `pthread_self` is always valid; `clock` is an out-pointer.
        unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) };
        ThreadCpuClock(clock)
    }

    pub fn ns(self) -> u64 {
        clock_ns(self.0)
    }
}

/// Which of the two fixed places a thread runs.
///
/// With the scheduler free to place them, the program's threads and the
/// load generators either spread over both cores of a small box or collapse
/// onto one, and which of the two happens — a factor of two in throughput,
/// cross-core wake-ups being what they cost in a VM — is decided per run.
/// So the layout is fixed instead: the program (the main thread and every
/// thread it spawns, which inherit its mask) on the first CPU this process
/// may use, every harness thread on the second. With one CPU both are the
/// same one.
#[derive(Clone, Copy)]
pub enum Place {
    Program,
    Harness,
}

/// (program CPU, harness CPU), worked out once from the mask the process
/// started with — a pinned thread's own mask no longer shows the second CPU.
static PLACES: std::sync::OnceLock<Option<(usize, usize)>> = std::sync::OnceLock::new();

fn places() -> Option<(usize, usize)> {
    *PLACES.get_or_init(|| {
        let mut allowed = [0u64; 16];
        // SAFETY: the mask is a valid buffer of the stated size; pid 0 is
        // the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut cpus =
            (0..allowed.len() * 64).filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1);
        let first = cpus.next()?;
        Some((first, cpus.next().unwrap_or(first)))
    })
}

/// Whether harness threads have a CPU the program does not run on.
pub fn harness_has_own_cpu() -> bool {
    places().is_some_and(|(program, harness)| program != harness)
}

/// Pin the calling thread (and threads it later spawns) to its place. The
/// first call must come from the main thread before it spawns anything.
/// Best-effort: where affinity cannot be read or set, threads stay free.
pub fn pin_current_thread(place: Place) {
    let Some((program, harness)) = places() else {
        return;
    };
    let cpu = match place {
        Place::Program => program,
        Place::Harness => harness,
    };
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the mask is a valid buffer naming one CPU this process was
    // started on; pid 0 is the calling thread.
    unsafe { libc::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Threads other than the responder now running in the harness's place.
static HARNESS_GUESTS: AtomicUsize = AtomicUsize::new(0);

/// A thread's stay on the harness CPU next to the responder, which lives
/// there: a serve client, or the second admitting thread of the pacer
/// timing. Two threads that never sleep would take the one CPU in
/// scheduler slices of milliseconds, each idle half the time; so while a
/// guest is there the responder blocks in `poll` instead of looking at its
/// socket on a tick (see [`harness_cpu_shared`]).
pub struct HarnessGuest(());

impl HarnessGuest {
    /// Pin the calling thread to the harness's place and announce it.
    pub fn enter() -> HarnessGuest {
        pin_current_thread(Place::Harness);
        HARNESS_GUESTS.fetch_add(1, Ordering::Relaxed);
        HarnessGuest(())
    }
}

impl Drop for HarnessGuest {
    fn drop(&mut self) {
        HARNESS_GUESTS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether the responder has company on the harness CPU right now.
pub fn harness_cpu_shared() -> bool {
    HARNESS_GUESTS.load(Ordering::Relaxed) > 0
}

/// Context switches (voluntary + involuntary) of the process so far.
pub fn context_switches() -> u64 {
    let mut ru = RUsage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `ru` is a correctly sized out-struct; RUSAGE_SELF = 0.
    unsafe { getrusage(0, &mut ru) };
    (ru.longs[12] + ru.longs[13]) as u64
}

/// Peak resident set of this process in MB: `VmHWM` from
/// `/proc/self/status`, read once when a workload ends.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Grow a socket's receive buffer to `bytes` (privileged force first, so
/// a full admission window of queries cannot overflow the default 208 KiB).
pub fn set_recv_buffer(fd: RawFd, bytes: i32) {
    const SO_RCVBUF: i32 = 8;
    const SO_RCVBUFFORCE: i32 = 33;
    let value = (&bytes as *const i32).cast::<c_void>();
    // SAFETY: plain integer socket option on a live fd.
    unsafe {
        if libc::setsockopt(fd, libc::SOL_SOCKET, SO_RCVBUFFORCE, value, 4) != 0 {
            libc::setsockopt(fd, libc::SOL_SOCKET, SO_RCVBUF, value, 4);
        }
    }
}

/// Wait up to `timeout_ms` for any of `fds` to become readable.
pub fn poll_readable(fds: &mut [PollFd], timeout_ms: i32) -> bool {
    // SAFETY: `fds` is a valid slice of pollfd for the duration of the call.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) > 0 }
}

/// `sizeof(struct sockaddr_in)`.
const ADDR_LEN: u32 = 16;

/// Largest datagram the harness sends or expects (every bench message is
/// a one-question query or a one-answer response).
pub const DGRAM: usize = 512;

/// `n` fixed datagram buffers with the `mmsghdr` vectors wired to them
/// once, so a batch is one `recvmmsg` or `sendmmsg` with no per-call set-up
/// beyond lengths. The responder receives into a batch, rewrites each
/// query into its answer in place, and sends the same batch back.
pub struct Batch {
    bufs: Box<[[u8; DGRAM]]>,
    pub lens: Vec<usize>,
    addrs: Box<[sockaddr_in]>,
    iovs: Box<[iovec]>,
    hdrs: Box<[mmsghdr]>,
}

// SAFETY: the raw pointers in `iovs`/`hdrs` point into `bufs`/`addrs`/
// `iovs`, boxed slices owned by the same struct whose heap storage does
// not move when the struct does.
unsafe impl Send for Batch {}

impl Batch {
    pub fn new(n: usize) -> Batch {
        let mut bufs = vec![[0u8; DGRAM]; n].into_boxed_slice();
        let mut addrs =
            vec![sockaddr_in::from_parts(Ipv4Addr::UNSPECIFIED, 0); n].into_boxed_slice();
        let mut iovs: Box<[iovec]> = bufs
            .iter_mut()
            .map(|b| iovec {
                iov_base: b.as_mut_ptr().cast(),
                iov_len: DGRAM,
            })
            .collect();
        let hdrs = (0..n)
            .map(|i| mmsghdr {
                msg_hdr: msghdr {
                    msg_name: (&mut addrs[i] as *mut sockaddr_in).cast(),
                    msg_namelen: ADDR_LEN,
                    msg_iov: &mut iovs[i],
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();
        Batch {
            bufs,
            lens: vec![0; n],
            addrs,
            iovs,
            hdrs,
        }
    }

    /// One `recvmmsg`: fills buffers `0..n` and returns `n` (0 when
    /// nothing was queued or on error).
    pub fn recv(&mut self, fd: RawFd, flags: i32) -> usize {
        for (iov, hdr) in self.iovs.iter_mut().zip(self.hdrs.iter_mut()) {
            iov.iov_len = DGRAM;
            hdr.msg_hdr.msg_namelen = ADDR_LEN;
        }
        // SAFETY: every header points at live storage owned by `self`.
        let n = unsafe {
            libc::recvmmsg(
                fd,
                self.hdrs.as_mut_ptr(),
                self.hdrs.len() as u32,
                flags,
                std::ptr::null_mut(),
            )
        };
        let n = n.max(0) as usize;
        for i in 0..n {
            self.lens[i] = self.hdrs[i].msg_len as usize;
        }
        n
    }

    /// Send buffers `0..count` (lengths from `lens`, destinations as set
    /// by `recv` or `set_dest`), retrying short returns; returns how many
    /// went out.
    pub fn send(&mut self, fd: RawFd, count: usize) -> usize {
        for i in 0..count {
            self.iovs[i].iov_len = self.lens[i];
            self.hdrs[i].msg_hdr.msg_namelen = ADDR_LEN;
        }
        let mut sent = 0;
        while sent < count {
            // SAFETY: as in `recv`; the slice is within `hdrs`.
            let n = unsafe {
                libc::sendmmsg(fd, self.hdrs[sent..].as_mut_ptr(), (count - sent) as u32, 0)
            };
            if n <= 0 {
                break;
            }
            sent += n as usize;
        }
        sent
    }

    pub fn buf(&mut self, i: usize) -> &mut [u8; DGRAM] {
        &mut self.bufs[i]
    }

    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.bufs[i][..self.lens[i]]
    }

    pub fn set_dest(&mut self, i: usize, dest: SocketAddrV4) {
        self.addrs[i] = sockaddr_in::from_parts(*dest.ip(), dest.port());
    }

    pub fn peer(&self, i: usize) -> SocketAddrV4 {
        let a = &self.addrs[i];
        SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(a.sin_addr)),
            u16::from_be(a.sin_port),
        )
    }
}

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static COUNT_ALLOCATIONS: AtomicBool = AtomicBool::new(false);

/// The system allocator with a per-thread allocation counter that only
/// counts while switched on (the traced pass), so the end-to-end runs pay
/// one relaxed load per allocation and nothing else.
pub struct SwitchableCounter;

// SAFETY: defers entirely to `System`; the bookkeeping touches one atomic
// flag and a const-initialised thread-local cell, neither of which
// allocates.
unsafe impl GlobalAlloc for SwitchableCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

fn count_allocation() {
    if COUNT_ALLOCATIONS.load(Ordering::Relaxed) {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
    }
}

pub fn count_allocations(on: bool) {
    COUNT_ALLOCATIONS.store(on, Ordering::Relaxed);
}

/// Allocations made by the calling thread while counting was on.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
