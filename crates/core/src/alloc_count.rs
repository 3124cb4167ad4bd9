//! A counting global allocator for allocation-budget tests and benches.
//!
//! The zero-alloc message lifecycle makes a measurable claim — *the
//! steady-state reactor loop performs zero heap allocations per lookup on
//! the view path* — and this module is how the claim is enforced rather
//! than asserted in prose. Install [`CountingAllocator`] as the
//! `#[global_allocator]` of a test or bench binary and read
//! [`thread_allocations`] around the measured region.
//!
//! Counts are **per thread** (a `const`-initialized `thread_local`, so the
//! counter itself never allocates or recurses): a loopback scan runs wire
//! servers on sibling threads whose allocations must not pollute the
//! reactor thread's measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
    static TRAP: Cell<bool> = const { Cell::new(false) };
}

/// Debugging aid: while enabled (per thread), every allocation prints a
/// captured backtrace to stderr. The trap disarms itself around the
/// capture (which itself allocates) and re-arms afterwards, so it is safe
/// to leave on across a whole measured region to enumerate every
/// offending call site.
pub fn trap_allocations(enabled: bool) {
    TRAP.with(|t| t.set(enabled));
}

fn live_delta(bytes: i64) {
    let live = LIVE.with(|c| {
        c.set(c.get() + bytes);
        c.get()
    });
    PEAK_LIVE.with(|c| c.set(c.get().max(live)));
}

fn fire_trap(size: usize) {
    if TRAP.with(|t| t.replace(false)) {
        eprintln!(
            "[alloc_count] allocation of {size} bytes:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
        TRAP.with(|t| t.set(true));
    }
}

/// A `System`-backed allocator that counts allocations per thread.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: zdns_core::alloc_count::CountingAllocator =
///     zdns_core::alloc_count::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the bookkeeping only touches
// const-initialized thread-local cells, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        live_delta(layout.size() as i64);
        fire_trap(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_delta(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        live_delta(layout.size() as i64);
        fire_trap(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh reservation from the measured region's point
        // of view; count it like an allocation.
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        live_delta(new_size as i64 - layout.size() as i64);
        fire_trap(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations performed by the **current thread** since it started
/// (meaningful only under [`CountingAllocator`]; always 0 otherwise).
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the current thread has allocated and not yet freed: requested
/// sizes, allocations minus deallocations, a `realloc` counted by its
/// size change. Read it before and after building a structure on one
/// thread to learn what the structure holds; memory freed by another
/// thread than the one that allocated it skews both threads' readings.
pub fn thread_live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// The highest [`thread_live_bytes`] has read on the current thread since
/// it started or since [`reset_thread_peak_live_bytes`]: what a region of
/// code held at its worst moment, not just what it leaves behind.
pub fn thread_peak_live_bytes() -> i64 {
    PEAK_LIVE.with(Cell::get)
}

/// Start a new [`thread_peak_live_bytes`] reading from the current
/// [`thread_live_bytes`].
pub fn reset_thread_peak_live_bytes() {
    PEAK_LIVE.with(|c| c.set(thread_live_bytes()));
}

#[cfg(test)]
mod tests {
    // The allocator itself is exercised by `tests/zero_alloc.rs`, which
    // installs it globally; unit tests here would read zeros under the
    // default allocator.
    use super::*;

    #[test]
    fn counters_read_without_panicking() {
        let _ = thread_allocations();
        let _ = thread_live_bytes();
        reset_thread_peak_live_bytes();
        let _ = thread_peak_live_bytes();
    }
}
