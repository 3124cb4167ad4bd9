//! Run-time statistics shared across lookup routines.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate wire counters for a resolver instance, shared by `Arc`
/// across every scan worker.
#[derive(Debug, Default)]
pub struct Stats {
    /// Queries sent on the wire.
    pub queries_sent: AtomicU64,
    /// Retries performed (timeouts that were retried).
    pub retries: AtomicU64,
}

impl Stats {
    /// Point-in-time copy of the atomic counters (diff two snapshots to
    /// scope counters to one scan on a shared resolver).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries_sent: self.queries_sent.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`Stats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries sent on the wire.
    pub queries_sent: u64,
    /// Retries performed.
    pub retries: u64,
}
