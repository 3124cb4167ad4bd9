//! The driver abstraction: the interface scan orchestration in
//! `zdns-framework` pushes lookup machines through real sockets with,
//! and the counters a driver reports back.
//!
//! [`crate::reactor::Reactor`] implements [`Driver`]: an event loop that
//! multiplexes hundreds-to-thousands of in-flight machines over one
//! non-blocking UDP socket (the paper's architecture: thousands of lookup
//! routines, long-lived sockets). It is the only driver over OS sockets:
//! a single lookup ([`crate::resolver::Resolver::lookup`]) is a scan of
//! one machine on a reactor the caller holds.

use zdns_netsim::{JobOutcome, SimClient};

/// What a driver's machine source returns on each pull.
pub enum Admission {
    /// A machine to drive.
    Admit(Box<dyn SimClient>),
    /// Nothing available right now; ask again shortly (an upstream input
    /// channel is momentarily empty but not closed).
    Later,
    /// No more machines will ever arrive.
    Exhausted,
}

/// Counters every driver reports after a scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriverReport {
    /// Machines driven to completion.
    pub completed: u64,
    /// Machines that finished with a successful outcome.
    pub successes: u64,
    /// Queries the machines emitted, counted as the driver takes each
    /// one (UDP and TCP alike).
    pub queries_sent: u64,
    /// Timeouts and transport failures handed to machines: each one
    /// costs its lookup a retry.
    pub retries: u64,
    /// Datagrams that matched no in-flight query (late, stale, or spoofed).
    pub stale_datagrams: u64,
    /// Datagrams that would not decode (a server role installed on the
    /// socket counts them as malformed queries instead).
    pub decode_errors: u64,
    /// Per-query timeouts fired (UDP queries and TCP exchanges).
    pub timeouts_fired: u64,
    /// Exchanges handed to the TCP table (truncation fallback), counted
    /// as they are submitted.
    pub tcp_fallbacks: u64,
    /// Highest number of concurrently in-flight machines observed.
    pub peak_in_flight: usize,
    /// UDP sends held back by the pacer (each deferral counts once, at
    /// admission).
    pub queries_deferred: u64,
    /// Deepest the deferred-send queue ever got.
    pub max_deferred_depth: usize,
    /// Deferrals whose binding constraint was per-destination (host
    /// bucket or backoff penalty) rather than the global budget.
    pub per_host_throttles: u64,
    /// Sends requeued after send-buffer backpressure (WouldBlock) —
    /// counted as backpressure, not as lookup errors.
    pub backpressure_requeues: u64,
    /// Send syscalls issued by the batched I/O layer (`sendmmsg` calls,
    /// or individual `send_to` calls on the fallback path).
    pub send_syscalls: u64,
    /// Datagrams put on the wire. `datagrams_sent / send_syscalls` is the
    /// realized send-side batching factor.
    pub datagrams_sent: u64,
    /// Datagrams pulled off the socket (delivered + stale + undecodable).
    pub datagrams_received: u64,
    /// Receive batches the reactor read its socket in: one `recvmmsg`
    /// each on the vectored backend. A drain stops at a batch shorter
    /// than the arena, so reading what a tick found costs no empty call.
    pub recv_batches: u64,
    /// Admission credits leased from the reactor's pool (its private
    /// one, or the scan-wide one its sibling workers share).
    pub credit_leases: u64,
    /// Credits returned *early* because every outstanding send of a
    /// lookup was parked behind a backoff penalty — the stranded-window
    /// capacity siblings absorb.
    pub idle_credit_returns: u64,
    /// Matured deferred sends that had to wait for an admission credit
    /// before going back on the wire (the pool was momentarily empty).
    pub credit_stalls: u64,
    /// Global-budget CAS-loop retries in the concurrent pacer — lost
    /// races on the atomic token bucket. Scan-wide (read once off the
    /// shared pacer when the scan aggregates, not per-worker).
    pub pacer_cas_retries: u64,
    /// The resolved I/O backend name (`"syscall"` or `"mmsg"`; empty for
    /// drivers without a batch layer).
    pub io_backend: &'static str,
}

impl DriverReport {
    /// Fold another driver's counters into this one — how a scan
    /// aggregates its per-worker reports. Counters sum; the two peaks
    /// (`peak_in_flight`, `max_deferred_depth`) take the max; `io_backend`
    /// keeps the first non-empty name.
    pub fn merge(&mut self, other: &DriverReport) {
        self.completed += other.completed;
        self.successes += other.successes;
        self.queries_sent += other.queries_sent;
        self.retries += other.retries;
        self.stale_datagrams += other.stale_datagrams;
        self.decode_errors += other.decode_errors;
        self.timeouts_fired += other.timeouts_fired;
        self.tcp_fallbacks += other.tcp_fallbacks;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
        self.queries_deferred += other.queries_deferred;
        self.max_deferred_depth = self.max_deferred_depth.max(other.max_deferred_depth);
        self.per_host_throttles += other.per_host_throttles;
        self.backpressure_requeues += other.backpressure_requeues;
        self.send_syscalls += other.send_syscalls;
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_received += other.datagrams_received;
        self.recv_batches += other.recv_batches;
        self.credit_leases += other.credit_leases;
        self.idle_credit_returns += other.idle_credit_returns;
        self.credit_stalls += other.credit_stalls;
        self.pacer_cas_retries += other.pacer_cas_retries;
        if self.io_backend.is_empty() {
            self.io_backend = other.io_backend;
        }
    }
}

/// Drives lookup machines over real I/O until the source is exhausted.
pub trait Driver {
    /// Pull machines from `source` (respecting the driver's own concurrency
    /// model) and invoke `on_done` exactly once per admitted machine, with
    /// its outcome — always `Some`: a machine left running with nothing in
    /// flight ends through [`SimClient::abandon`].
    fn run_scan(
        &mut self,
        source: &mut dyn FnMut() -> Admission,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) -> DriverReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose k-th numeric field holds `base + step × k`, so no
    /// two fields are equal.
    fn numbered(base: u64, step: u64, io_backend: &'static str) -> DriverReport {
        let mut k = 0;
        let mut n = || {
            k += 1;
            base + step * (k - 1)
        };
        DriverReport {
            completed: n(),
            successes: n(),
            queries_sent: n(),
            retries: n(),
            stale_datagrams: n(),
            decode_errors: n(),
            timeouts_fired: n(),
            tcp_fallbacks: n(),
            peak_in_flight: n() as usize,
            queries_deferred: n(),
            max_deferred_depth: n() as usize,
            per_host_throttles: n(),
            backpressure_requeues: n(),
            send_syscalls: n(),
            datagrams_sent: n(),
            datagrams_received: n(),
            recv_batches: n(),
            credit_leases: n(),
            idle_credit_returns: n(),
            credit_stalls: n(),
            pacer_cas_retries: n(),
            io_backend,
        }
    }

    #[test]
    fn merge_sums_counters_takes_the_peaks_and_keeps_the_first_backend() {
        let first = DriverReport {
            peak_in_flight: 1_000,
            ..numbered(1, 1, "")
        };
        let second = numbered(101, 1, "mmsg");
        let mut merged = first.clone();
        merged.merge(&second);
        merged.merge(&DriverReport {
            io_backend: "syscall",
            ..DriverReport::default()
        });
        assert_eq!(
            merged,
            DriverReport {
                // Each peak is the larger side's: the first's in-flight
                // peak, the second's deferred depth.
                peak_in_flight: 1_000,
                max_deferred_depth: second.max_deferred_depth,
                io_backend: "mmsg",
                // Every counter is (1 + k) + (101 + k).
                ..numbered(102, 2, "")
            }
        );
    }
}
