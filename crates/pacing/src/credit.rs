//! The scan-wide admission credit pool.
//!
//! A real-socket scan runs a handful of reactor workers, but the user's
//! contract is scan-wide: `--max-in-flight N` means *N lookups actively
//! on the wire across the whole scan*, and the pacing budgets are
//! likewise whole-scan numbers. Splitting those totals statically across
//! workers (the pre-pipeline design) strands capacity: a worker whose
//! destinations are all serving backoff penalties sits on its slice of
//! the window while its siblings queue behind their own smaller slices.
//!
//! [`CreditPool`] replaces the static split with leasing. One credit is
//! the right to keep one lookup *active* (a query on the wire or about
//! to be). Workers lease credits as they admit work, return them when
//! lookups retire — and return them early when a lookup's every
//! outstanding send is parked behind a backoff penalty, which is what
//! lets siblings absorb a stranded window. It is the only admission
//! path: a reactor outside a scan (`zdns serve`, a single lookup) leases
//! its window from a private pool of its own. The pool is a pair of
//! atomics: leasing on the admission hot path costs one CAS and zero
//! heap allocations, a property the `zero_alloc` integration test in
//! `zdns-core` enforces.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A pool of admission credits, leased and returned by the reactors
/// of one scan (or by one reactor alone). Thread-safe; clone the `Arc`
/// it lives in.
#[derive(Debug)]
pub struct CreditPool {
    total: usize,
    available: AtomicUsize,
    leases: AtomicU64,
    returns: AtomicU64,
}

impl CreditPool {
    /// A pool of `total` credits (at least 1), initially all available.
    pub fn new(total: usize) -> CreditPool {
        let total = total.max(1);
        CreditPool {
            total,
            available: AtomicUsize::new(total),
            leases: AtomicU64::new(0),
            returns: AtomicU64::new(0),
        }
    }

    /// The pool's capacity.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Credits currently unleased. Advisory: another worker may lease
    /// them between this read and a [`CreditPool::try_lease`].
    pub fn available(&self) -> usize {
        self.available.load(Ordering::Relaxed)
    }

    /// Lease `n` credits, all or nothing. Returns false when fewer than
    /// `n` are available right now (the caller should retry on its next
    /// poll pass, not spin).
    pub fn try_lease(&self, n: usize) -> bool {
        if n == 0 {
            return true;
        }
        let mut cur = self.available.load(Ordering::Relaxed);
        loop {
            if cur < n {
                return false;
            }
            match self.available.compare_exchange_weak(
                cur,
                cur - n,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.leases.fetch_add(n as u64, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return `n` leased credits to the pool.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let prev = self.available.fetch_add(n, Ordering::AcqRel);
        debug_assert!(
            prev + n <= self.total,
            "credit pool over-released: {} + {n} > {}",
            prev,
            self.total
        );
        self.returns.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Lifetime lease operations (telemetry).
    pub fn leases(&self) -> u64 {
        self.leases.load(Ordering::Relaxed)
    }

    /// Lifetime returned credits (telemetry).
    pub fn returns(&self) -> u64 {
        self.returns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lease_is_all_or_nothing() {
        let pool = CreditPool::new(4);
        assert!(pool.try_lease(3));
        assert_eq!(pool.available(), 1);
        assert!(!pool.try_lease(2), "only 1 left");
        assert!(pool.try_lease(1));
        assert_eq!(pool.available(), 0);
        pool.release(4);
        assert_eq!(pool.available(), 4);
        assert_eq!(pool.leases(), 4);
        assert_eq!(pool.returns(), 4);
    }

    #[test]
    fn zero_sized_operations_are_noops() {
        let pool = CreditPool::new(2);
        assert!(pool.try_lease(0));
        pool.release(0);
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.leases(), 0);
        assert_eq!(pool.returns(), 0);
    }

    #[test]
    fn capacity_floor_is_one() {
        let pool = CreditPool::new(0);
        assert_eq!(pool.total(), 1);
        assert!(pool.try_lease(1));
    }

    #[test]
    fn concurrent_leases_never_exceed_total() {
        let pool = Arc::new(CreditPool::new(64));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let pool = Arc::clone(&pool);
            threads.push(std::thread::spawn(move || {
                let mut held = 0usize;
                for _ in 0..10_000 {
                    if pool.try_lease(1) {
                        held += 1;
                        if held > 12 {
                            pool.release(held);
                            held = 0;
                        }
                    }
                }
                pool.release(held);
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.available(), 64, "every lease was returned");
        assert_eq!(pool.leases(), pool.returns());
    }
}
