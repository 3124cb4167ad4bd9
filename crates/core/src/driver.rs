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

/// Power-of-two histogram of datagrams per syscall, the observability
/// feed for the reactor's batched I/O layer: bucket `i` counts syscalls
/// that moved `2^i ..= 2^(i+1)-1` datagrams (the last bucket is
/// open-ended at ≥ 128).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    buckets: [u64; 8],
}

impl BatchHistogram {
    /// Bucket labels, index-aligned with [`BatchHistogram::buckets`].
    pub const LABELS: [&'static str; 8] = [
        "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+",
    ];

    /// Record one syscall that moved `n` datagrams.
    pub fn record(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let mut idx = 0;
        let mut bound = 2;
        while idx < 7 && n >= bound {
            idx += 1;
            bound *= 2;
        }
        self.buckets[idx] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &BatchHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Syscalls recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; 8] {
        &self.buckets
    }

    /// Compact `label:count` rendering of the non-empty buckets.
    pub fn summary(&self) -> String {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| format!("{}:{}", Self::LABELS[i], n))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

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
    /// Datagrams received and routed to a live machine.
    pub datagrams_delivered: u64,
    /// Datagrams that matched no in-flight query (late, stale, or spoofed).
    pub stale_datagrams: u64,
    /// Datagrams that would not decode.
    pub decode_errors: u64,
    /// Transient socket-level receive errors (e.g. ICMP unreachable
    /// surfaced as ECONNREFUSED) — distinct from undecodable datagrams.
    pub socket_errors: u64,
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
    /// Receive syscalls issued (`recvmmsg` calls, or `recv_from` calls —
    /// including terminal would-block probes — on the fallback path).
    pub recv_syscalls: u64,
    /// Datagrams pulled off the socket (delivered + stale + undecodable).
    pub datagrams_received: u64,
    /// Receive batches that came back shorter than the arena — the queue
    /// emptied mid-batch. A normal sign of keeping up, tracked separately
    /// so a short `recvmmsg` return is never mistaken for a socket error.
    pub recv_partial_batches: u64,
    /// Datagrams-per-syscall distribution on the send side.
    pub send_batch_fill: BatchHistogram,
    /// Datagrams-per-drain-batch distribution on the receive side.
    pub recv_batch_fill: BatchHistogram,
    /// Admission credits leased from the scan-wide pool (zero for a
    /// reactor driven without one).
    pub credit_leases: u64,
    /// Credits returned to the pool (retired lookups plus idle returns).
    pub credit_returns: u64,
    /// Credits returned *early* because every outstanding send of a
    /// lookup was parked behind a backoff penalty — the stranded-window
    /// capacity siblings absorb.
    pub idle_credit_returns: u64,
    /// Matured deferred sends that had to wait for an admission credit
    /// before going back on the wire (the pool was momentarily empty).
    pub credit_stalls: u64,
    /// Admissions beyond this driver's static fair share of the window —
    /// inputs effectively stolen from a sibling that was not using its
    /// slice.
    pub inputs_stolen: u64,
    /// Global-budget CAS-loop retries in the concurrent pacer — lost
    /// races on the atomic token bucket. Scan-wide (read once off the
    /// shared pacer when the scan aggregates, not per-worker).
    pub pacer_cas_retries: u64,
    /// Contended stripe-lock acquisitions in the concurrent pacer's
    /// per-destination table. Scan-wide, like `pacer_cas_retries`.
    pub pacer_stripe_waits: u64,
    /// Token blocks leased from the concurrent pacer's global budget —
    /// `datagrams_sent / token_blocks_leased` approximates the CAS
    /// amortization factor. Scan-wide, like `pacer_cas_retries`.
    pub token_blocks_leased: u64,
    /// The resolved I/O backend name (`"syscall"` or `"mmsg"`; empty for
    /// drivers without a batch layer).
    pub io_backend: &'static str,
}

impl DriverReport {
    /// Fold another driver's counters into this one (sums, except
    /// `peak_in_flight` which takes the max) — how a scan aggregates its
    /// per-worker reports.
    pub fn merge(&mut self, other: &DriverReport) {
        self.completed += other.completed;
        self.successes += other.successes;
        self.datagrams_delivered += other.datagrams_delivered;
        self.stale_datagrams += other.stale_datagrams;
        self.decode_errors += other.decode_errors;
        self.socket_errors += other.socket_errors;
        self.timeouts_fired += other.timeouts_fired;
        self.tcp_fallbacks += other.tcp_fallbacks;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
        self.queries_deferred += other.queries_deferred;
        self.max_deferred_depth = self.max_deferred_depth.max(other.max_deferred_depth);
        self.per_host_throttles += other.per_host_throttles;
        self.backpressure_requeues += other.backpressure_requeues;
        self.send_syscalls += other.send_syscalls;
        self.datagrams_sent += other.datagrams_sent;
        self.recv_syscalls += other.recv_syscalls;
        self.datagrams_received += other.datagrams_received;
        self.recv_partial_batches += other.recv_partial_batches;
        self.send_batch_fill.merge(&other.send_batch_fill);
        self.recv_batch_fill.merge(&other.recv_batch_fill);
        self.credit_leases += other.credit_leases;
        self.credit_returns += other.credit_returns;
        self.idle_credit_returns += other.idle_credit_returns;
        self.credit_stalls += other.credit_stalls;
        self.inputs_stolen += other.inputs_stolen;
        self.pacer_cas_retries += other.pacer_cas_retries;
        self.pacer_stripe_waits += other.pacer_stripe_waits;
        self.token_blocks_leased += other.token_blocks_leased;
        if self.io_backend.is_empty() {
            self.io_backend = other.io_backend;
        }
    }
}

/// Drives lookup machines over real I/O until the source is exhausted.
pub trait Driver {
    /// Pull machines from `source` (respecting the driver's own concurrency
    /// model) and invoke `on_done` with each machine's outcome — `None`
    /// when a machine wedged (running with nothing in flight).
    fn run_scan(
        &mut self,
        source: &mut dyn FnMut() -> Admission,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) -> DriverReport;
}
