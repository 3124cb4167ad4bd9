//! Client-side pacing + adaptive backoff (polite scanning).
//!
//! The paper's central operational finding is that resolver-side rate
//! limiting dominates scan fidelity: Google Public DNS's per-client-IP
//! token buckets cost /32 scans a ~6× success-rate drop, and retries
//! *inside* the penalty window cannot succeed. The [`ConcurrentPacer`]
//! is the client-side answer — keep the offered load under the budget
//! instead of discovering it through drops:
//!
//! * a **global budget** (packets/second) shared by every destination;
//! * **per-destination token buckets**, so one hot resolver cannot eat
//!   the whole budget while others idle;
//! * **adaptive per-destination backoff**: timeout/error streaks grow a
//!   penalty multiplicatively, successes decay it — the real-socket
//!   stand-in for ICMP source-quench-style signals.
//!
//! Admission is *reservation-based* ([`TokenBucket::reserve`]): a
//! deferred send gets a firm release time and its budget is debited at
//! admission, so a queue of deferred sends drains at exactly the
//! configured rate with no thundering herd and no re-polling.
//!
//! One pacer is shared scan-wide as an `Arc`; each sender drives it
//! through its own [`ConcurrentGate`]. The reactor arms release times on
//! its timer wheel, and the discrete-event engine accepts the gate as a
//! [`SendGate`] so paced scans are reproducible under virtual time.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use zdns_pacing::{AtomicBucket, Nanos, PaceDecision, SendGate, SlotLease, TokenBucket, SECONDS};

/// Tunables for one [`ConcurrentPacer`].
#[derive(Debug, Clone)]
pub struct PacerConfig {
    /// Global send budget in packets/second (0 = unlimited).
    pub rate_pps: f64,
    /// Per-destination send budget in packets/second (0 = unlimited).
    pub per_host_pps: f64,
    /// Enable adaptive per-destination backoff on timeout/error streaks.
    pub backoff: bool,
    /// Bucket burst in packets; 0 derives `max(1, rate / 20)` — a 50 ms
    /// burst window.
    pub burst: f64,
    /// First backoff penalty; doubles per consecutive failure.
    pub backoff_base: Nanos,
    /// Penalty growth cap.
    pub backoff_cap: Nanos,
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig {
            rate_pps: 0.0,
            per_host_pps: 0.0,
            backoff: false,
            burst: 0.0,
            backoff_base: 200 * zdns_pacing::MILLIS,
            backoff_cap: 8 * SECONDS,
        }
    }
}

impl PacerConfig {
    /// True when any pacing or backoff behaviour is configured.
    pub fn enabled(&self) -> bool {
        self.rate_pps > 0.0 || self.per_host_pps > 0.0 || self.backoff
    }

    fn burst_for(&self, rate: f64) -> f64 {
        if self.burst > 0.0 {
            self.burst
        } else {
            (rate / 20.0).max(1.0)
        }
    }
}

/// Per-destination pacing state.
struct HostState {
    bucket: Option<TokenBucket>,
    /// Backoff gate: no send to this destination before this instant.
    not_before: Nanos,
    /// Consecutive failures (timeouts/transport errors) without a
    /// success.
    streak: u32,
}

/// Hard cap on tracked destinations: idle entries are pruned first, and
/// if every survivor is still penalized (a spoofed-source flood can keep
/// the whole table "dirty"), the soonest-to-expire entries are evicted
/// outright so the table never grows past this bound.
const MAX_HOSTS: usize = 65_536;

/// How many arbitrary entries a full host table probes when forced to
/// evict a non-idle entry; the victim is the one whose penalty expires
/// soonest. Keeps forced eviction O(1) per insert.
const HOST_EVICT_PROBES: usize = 16;

/// FNV-1a with a splitmix64 finisher — the workspace's stable hash
/// ([`zdns_zones::hashing::h64`]), packaged as a [`std::hash::Hasher`]
/// for the pacer's per-destination tables. Destination IPs are
/// attacker-independent (the scanner picks them, and cookies already
/// gate off-path spoofing), so SipHash's keyed collision resistance buys
/// nothing on a lookup paid once per send; FNV + splitmix is a handful
/// of arithmetic ops on a 4-byte key.
#[derive(Debug, Clone)]
pub struct HostHasher(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Default for HostHasher {
    fn default() -> Self {
        HostHasher(FNV_OFFSET)
    }
}

impl Hasher for HostHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        zdns_zones::hashing::splitmix64(self.0)
    }
}

/// [`BuildHasher`] for [`HostHasher`].
#[derive(Debug, Clone, Default)]
pub struct HostHash;

impl BuildHasher for HostHash {
    type Hasher = HostHasher;

    fn build_hasher(&self) -> HostHasher {
        HostHasher::default()
    }
}

type HostMap = HashMap<Ipv4Addr, HostState, HostHash>;

/// Stripe count for the [`ConcurrentPacer`] host table. Power of two so
/// stripe selection is a mask off the same FNV/splitmix hash the
/// in-stripe map uses — the same keying as the 64-way selective cache.
const STRIPES: usize = 64;

/// Per-stripe share of the [`MAX_HOSTS`] bound; each stripe enforces it
/// independently so the whole table never exceeds [`MAX_HOSTS`] without
/// any cross-stripe coordination.
const STRIPE_CAP: usize = MAX_HOSTS / STRIPES;

/// Default number of global-budget tokens a worker leases per CAS; the
/// actual block is clamped to the bucket's burst so low-rate scans keep
/// per-send granularity (see [`ConcurrentPacer::new`]).
pub const TOKEN_BLOCK: u32 = 8;

/// One stripe of the concurrent pacer's per-destination table.
#[derive(Default)]
struct HostStripe {
    hosts: HostMap,
    /// Stripe-local spills of the shared counters, summed on read so the
    /// hot path never touches a cross-stripe atomic while holding the
    /// stripe lock.
    evictions: u64,
    backoff_events: u64,
}

impl HostStripe {
    /// Fetch-or-create the pacing state for `dest`, holding the stripe at
    /// [`STRIPE_CAP`] entries: idle entries are pruned first, and when
    /// the prune frees nothing the probed soonest-to-expire entry is
    /// force-evicted.
    fn host_state(&mut self, config: &PacerConfig, dest: Ipv4Addr, now: Nanos) -> &mut HostState {
        let hosts = &mut self.hosts;
        if hosts.len() >= STRIPE_CAP && !hosts.contains_key(&dest) {
            // Prune destinations that are idle: no penalty pending and no
            // failure streak worth remembering.
            let before = hosts.len();
            hosts.retain(|_, st| st.streak > 0 || st.not_before > now);
            self.evictions += (before - hosts.len()) as u64;
            // The prune is opportunistic; under a flood that penalizes
            // every entry it frees nothing, so enforce the bound by
            // evicting the probed entry whose penalty expires soonest
            // (HashMap iteration order is effectively random).
            while hosts.len() >= STRIPE_CAP {
                let victim = hosts
                    .iter()
                    .take(HOST_EVICT_PROBES)
                    .min_by_key(|(_, st)| (st.not_before, st.streak))
                    .map(|(ip, _)| *ip);
                let Some(ip) = victim else { break };
                hosts.remove(&ip);
                self.evictions += 1;
            }
        }
        hosts.entry(dest).or_insert_with(|| HostState {
            bucket: (config.per_host_pps > 0.0).then(|| {
                TokenBucket::new(config.per_host_pps, config.burst_for(config.per_host_pps))
            }),
            not_before: 0,
            streak: 0,
        })
    }
}

/// A worker's private slice of the global budget: a run of token slots
/// leased from the [`AtomicBucket`] in one CAS. Consuming a slot is pure
/// local arithmetic; unused slots go back on park/idle via
/// [`ConcurrentPacer::return_block`].
#[derive(Debug, Default, Clone, Copy)]
pub struct TokenBlock {
    base: i64,
    used: u32,
    count: u32,
}

impl TokenBlock {
    /// Slots leased but not yet consumed.
    pub fn unused(&self) -> u32 {
        self.count - self.used
    }
}

/// The scan-wide pacer without a scan-wide lock: one global budget and
/// one per-destination backoff memory shared by every worker — a
/// destination one worker learns is struggling is immediately backed off
/// for all of them — built as three independent layers:
///
/// 1. the **global budget** is a lock-free [`AtomicBucket`]; workers
///    lease token *blocks* (default [`TOKEN_BLOCK`], clamped to burst)
///    so the CAS is paid once per block, not per send;
/// 2. the **per-destination table** is striped 64 ways by the
///    FNV/splitmix host hash, each stripe behind its own short mutex —
///    two workers contend only when pacing the same stripe, and the
///    reservation chain (global release → backoff floor → host bucket)
///    runs unchanged inside the stripe, preserving the no-herd contract;
/// 3. **telemetry** (`cas_retries`, `stripe_waits`, `blocks_leased`)
///    makes residual contention observable in driver reports.
///
/// Shared as `Arc<ConcurrentPacer>`; each worker drives it through a
/// [`ConcurrentGate`] holding that worker's current [`TokenBlock`].
pub struct ConcurrentPacer {
    config: PacerConfig,
    global: Option<AtomicBucket>,
    block_size: u32,
    stripes: Vec<Mutex<HostStripe>>,
    hasher: HostHash,
    stripe_waits: AtomicU64,
    blocks_leased: AtomicU64,
}

impl ConcurrentPacer {
    /// Build from a config. The token-block size is
    /// `min(`[`TOKEN_BLOCK`]`, burst)`: leasing more than the burst
    /// would hand one worker slots deep into the future while the others
    /// starve, and a low-rate scan (burst derives `rate/20`) degrades
    /// gracefully to per-send granularity.
    pub fn new(config: PacerConfig) -> ConcurrentPacer {
        let global = (config.rate_pps > 0.0)
            .then(|| AtomicBucket::new(config.rate_pps, config.burst_for(config.rate_pps)));
        let block_size = (config.burst_for(config.rate_pps) as u32).clamp(1, TOKEN_BLOCK);
        ConcurrentPacer {
            config,
            global,
            block_size,
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(HostStripe::default()))
                .collect(),
            hasher: HostHash,
            stripe_waits: AtomicU64::new(0),
            blocks_leased: AtomicU64::new(0),
        }
    }

    /// The configuration this pacer was built from.
    pub fn config(&self) -> &PacerConfig {
        &self.config
    }

    fn lock_stripe(&self, dest: Ipv4Addr) -> parking_lot::MutexGuard<'_, HostStripe> {
        let idx = (self.hasher.hash_one(dest) as usize) & (STRIPES - 1);
        let stripe = &self.stripes[idx];
        match stripe.try_lock() {
            Some(guard) => guard,
            None => {
                self.stripe_waits.fetch_add(1, Ordering::Relaxed);
                stripe.lock()
            }
        }
    }

    /// Take one global-budget slot from the worker's block, leasing a
    /// fresh block when it runs dry. Returns the slot's release time.
    fn global_release(&self, block: &mut TokenBlock, now: Nanos) -> Nanos {
        let Some(bucket) = self.global.as_ref() else {
            return now;
        };
        if block.used >= block.count {
            let lease = bucket.reserve(now, self.block_size);
            self.blocks_leased.fetch_add(1, Ordering::Relaxed);
            *block = TokenBlock {
                base: lease.base,
                used: 0,
                count: lease.count,
            };
        }
        block.used += 1;
        let lease = SlotLease {
            base: block.base,
            count: block.count,
        };
        bucket.slot_release(lease, block.used, now)
    }

    /// Admit one send to `dest` at `now`, consuming from `block`.
    pub fn admit(&self, block: &mut TokenBlock, dest: Ipv4Addr, now: Nanos) -> PaceDecision {
        if !self.config.enabled() {
            return PaceDecision::Ready;
        }
        // Reservations are *chained*, not max'd independently: the host
        // bucket reserves starting from whatever instant the global
        // budget (and any backoff penalty) already pushed the send to.
        // Taking a max of independent reservations would let a slower
        // constraint collapse many spaced release times onto one instant
        // — e.g. every retry held behind an 8s penalty firing together
        // when it expires — and a thundering herd at a struggling
        // destination is exactly what the pacer exists to prevent.
        let mut release = self.global_release(block, now);
        let mut host_limited = false;
        if self.config.per_host_pps > 0.0 || self.config.backoff {
            let mut stripe = self.lock_stripe(dest);
            let state = stripe.host_state(&self.config, dest, now);
            let floor = release.max(state.not_before);
            let host_release = match state.bucket.as_mut() {
                Some(bucket) => bucket.reserve(floor),
                None => floor,
            };
            if host_release > release {
                host_limited = host_release > now;
                release = host_release;
            }
        }
        if release <= now {
            PaceDecision::Ready
        } else {
            PaceDecision::Defer {
                until: release,
                host_limited,
            }
        }
    }

    /// Feedback: a response from `dest` was delivered to its lookup.
    pub fn on_success(&self, dest: Ipv4Addr, _now: Nanos) {
        if !self.config.backoff {
            return;
        }
        if let Some(state) = self.lock_stripe(dest).hosts.get_mut(&dest) {
            // Decay: a success halves the remembered failure streak.
            state.streak /= 2;
        }
    }

    /// Feedback: a query to `dest` timed out or failed in transport.
    /// The penalty lands in the shared stripe, so every worker backs off
    /// the destination at its next admit — scan-wide backoff memory.
    pub fn on_failure(&self, dest: Ipv4Addr, now: Nanos) {
        if !self.config.backoff {
            return;
        }
        let (base, cap) = (self.config.backoff_base, self.config.backoff_cap);
        let mut stripe = self.lock_stripe(dest);
        let state = stripe.host_state(&self.config, dest, now);
        state.streak = state.streak.saturating_add(1);
        // Multiplicative increase: base × 2^(streak-1), capped.
        let penalty = base
            .saturating_mul(1u64 << (state.streak - 1).min(24))
            .min(cap);
        state.not_before = state.not_before.max(now + penalty);
        stripe.backoff_events += 1;
    }

    /// Return a block's unused slots to the global budget — called when
    /// a worker parks, idles, or finishes, riding the same "give back
    /// what you aren't using" path as the credit pool.
    pub fn return_block(&self, block: &mut TokenBlock) {
        if let Some(bucket) = self.global.as_ref() {
            let unused = block.unused();
            if unused > 0 {
                bucket.unreserve(unused);
            }
        }
        *block = TokenBlock::default();
    }

    /// Destinations with live pacing state, across all stripes.
    pub fn tracked_hosts(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().hosts.len()).sum()
    }

    /// Spill the adaptive-backoff memory: every destination still
    /// serving a penalty (or carrying a failure streak) as
    /// `(destination, streak, remaining penalty)` relative to `now`.
    /// This is what a scan checkpoint persists so a resumed scan
    /// re-approaches struggling destinations as carefully as the
    /// interrupted one was — instead of re-discovering every penalty
    /// through a fresh burst of drops.
    pub fn backoff_snapshot(&self, now: Nanos) -> Vec<(Ipv4Addr, u32, Nanos)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            out.extend(
                stripe
                    .hosts
                    .iter()
                    .filter(|(_, st)| st.streak > 0 || st.not_before > now)
                    .map(|(ip, st)| (*ip, st.streak, st.not_before.saturating_sub(now))),
            );
        }
        out
    }

    /// Re-seed backoff memory from a
    /// [`ConcurrentPacer::backoff_snapshot`]: each entry's penalty
    /// resumes with `remaining` nanoseconds left from `now`, and its
    /// failure streak is restored so the next failure continues the
    /// multiplicative curve where it left off. Entries never *shorten*
    /// state learned since `now` (restore is monotone), and a pacer
    /// without backoff enabled ignores them.
    pub fn restore_backoff(&self, entries: &[(Ipv4Addr, u32, Nanos)], now: Nanos) {
        if !self.config.backoff {
            return;
        }
        for &(ip, streak, remaining) in entries {
            let mut stripe = self.lock_stripe(ip);
            let state = stripe.host_state(&self.config, ip, now);
            state.streak = state.streak.max(streak);
            state.not_before = state.not_before.max(now.saturating_add(remaining));
        }
    }

    /// Destinations currently serving a backoff penalty (observability).
    pub fn backoff_events(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().backoff_events).sum()
    }

    /// Host entries dropped to hold the table at its capacity bound.
    pub fn host_evictions(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().evictions).sum()
    }

    /// Global-bucket CAS retries — lost races on the atomic budget.
    pub fn cas_retries(&self) -> u64 {
        self.global.as_ref().map_or(0, AtomicBucket::cas_retries)
    }

    /// Contended stripe-lock acquisitions (a `try_lock` that had to
    /// fall back to blocking).
    pub fn stripe_waits(&self) -> u64 {
        self.stripe_waits.load(Ordering::Relaxed)
    }

    /// Token blocks leased from the global budget.
    pub fn blocks_leased(&self) -> u64 {
        self.blocks_leased.load(Ordering::Relaxed)
    }
}

/// One worker's handle on a shared [`ConcurrentPacer`]: the `Arc` plus
/// that worker's current [`TokenBlock`]. Implements [`SendGate`], so the
/// reactor and the virtual-time simulation engine drive the same pacer.
pub struct ConcurrentGate {
    pacer: Arc<ConcurrentPacer>,
    block: TokenBlock,
}

impl ConcurrentGate {
    /// A new gate over `pacer` with an empty token block (the first
    /// admit leases one).
    pub fn new(pacer: Arc<ConcurrentPacer>) -> ConcurrentGate {
        ConcurrentGate {
            pacer,
            block: TokenBlock::default(),
        }
    }

    /// The shared pacer behind this gate.
    pub fn pacer(&self) -> &Arc<ConcurrentPacer> {
        &self.pacer
    }

    /// Give unused block tokens back to the global budget (park/idle).
    pub fn return_tokens(&mut self) {
        self.pacer.return_block(&mut self.block);
    }
}

impl Drop for ConcurrentGate {
    fn drop(&mut self) {
        // A worker that exits mid-block must not strand budget.
        self.return_tokens();
    }
}

impl SendGate for ConcurrentGate {
    fn admit(&mut self, dest: Ipv4Addr, now: Nanos) -> PaceDecision {
        self.pacer.admit(&mut self.block, dest, now)
    }

    fn on_success(&mut self, dest: Ipv4Addr, now: Nanos) {
        self.pacer.on_success(dest, now);
    }

    fn on_failure(&mut self, dest: Ipv4Addr, now: Nanos) {
        self.pacer.on_failure(dest, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_pacing::MILLIS;

    const IP_A: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 2);

    fn gate(config: PacerConfig) -> ConcurrentGate {
        ConcurrentGate::new(Arc::new(ConcurrentPacer::new(config)))
    }

    fn releases(gate: &mut ConcurrentGate, dest: Ipv4Addr, n: usize, now: Nanos) -> Vec<Nanos> {
        (0..n)
            .map(|_| match gate.admit(dest, now) {
                PaceDecision::Ready => now,
                PaceDecision::Defer { until, .. } => until,
            })
            .collect()
    }

    #[test]
    fn backoff_snapshot_round_trips_through_restore() {
        let config = PacerConfig {
            backoff: true,
            backoff_base: 200 * MILLIS,
            backoff_cap: 8 * SECONDS,
            ..PacerConfig::default()
        };
        let pacer = ConcurrentPacer::new(config.clone());
        // Three failures at IP_A: streak 3, penalty 800ms from the last.
        for _ in 0..3 {
            pacer.on_failure(IP_A, 0);
        }
        pacer.on_failure(IP_B, 0);
        let snap = pacer.backoff_snapshot(100 * MILLIS);
        assert_eq!(snap.len(), 2);
        let a = snap.iter().find(|(ip, _, _)| *ip == IP_A).unwrap();
        assert_eq!(a.1, 3);
        assert_eq!(a.2, 700 * MILLIS, "remaining, not absolute");

        // A fresh pacer (a resumed scan) picks the penalties back up.
        let mut resumed = gate(config);
        resumed.pacer().restore_backoff(&snap, 0);
        match resumed.admit(IP_A, 0) {
            PaceDecision::Defer { until, .. } => assert_eq!(until, 700 * MILLIS),
            other => panic!("restored penalty must defer: {other:?}"),
        }
        // The restored streak continues the curve: next failure at IP_A
        // is the 4th -> 1.6s penalty.
        resumed.on_failure(IP_A, 0);
        let again = resumed.pacer().backoff_snapshot(0);
        let a = again.iter().find(|(ip, _, _)| *ip == IP_A).unwrap();
        assert_eq!(a.1, 4);
        assert_eq!(a.2, 1_600 * MILLIS);

        // Restore is gated on backoff being enabled.
        let disabled = ConcurrentPacer::new(PacerConfig::default());
        disabled.restore_backoff(&snap, 0);
        assert_eq!(disabled.tracked_hosts(), 0);
    }

    #[test]
    fn snapshot_round_trips_into_a_fresh_pacer() {
        // The checkpoint wire format: restoring a snapshot into a fresh
        // pacer and spilling it again yields the same entries.
        let config = PacerConfig {
            backoff: true,
            backoff_base: 200 * MILLIS,
            ..PacerConfig::default()
        };
        let pacer = ConcurrentPacer::new(config.clone());
        for _ in 0..3 {
            pacer.on_failure(IP_A, 0);
        }
        let snap = pacer.backoff_snapshot(100 * MILLIS);
        assert_eq!(snap, vec![(IP_A, 3, 700 * MILLIS)]);

        let resumed = ConcurrentPacer::new(config);
        resumed.restore_backoff(&snap, 0);
        assert_eq!(resumed.backoff_snapshot(0), snap);
    }

    #[test]
    fn disabled_pacer_never_defers() {
        let mut gate = gate(PacerConfig::default());
        for i in 0..1_000 {
            assert_eq!(gate.admit(IP_A, i), PaceDecision::Ready);
        }
        assert_eq!(gate.pacer().tracked_hosts(), 0, "tracks nothing");
        assert_eq!(gate.pacer().blocks_leased(), 0);
    }

    #[test]
    fn global_budget_spreads_sends_at_rate() {
        let mut gate = gate(PacerConfig {
            rate_pps: 100.0,
            burst: 1.0,
            ..PacerConfig::default()
        });
        let times = releases(&mut gate, IP_A, 51, 0);
        assert_eq!(times[0], 0);
        // 50 deferred sends at 100 pps: the last releases at ~500ms.
        let last = *times.last().unwrap();
        let expected = 500 * MILLIS;
        assert!(
            (last as i64 - expected as i64).unsigned_abs() < 5 * MILLIS,
            "{last}"
        );
        // Strictly increasing, 1/rate apart.
        for pair in times.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn per_host_budget_is_independent_per_destination() {
        let mut gate = gate(PacerConfig {
            per_host_pps: 10.0,
            burst: 1.0,
            ..PacerConfig::default()
        });
        assert_eq!(gate.admit(IP_A, 0), PaceDecision::Ready);
        // Second send to A defers on A's bucket...
        let PaceDecision::Defer { host_limited, .. } = gate.admit(IP_A, 0) else {
            panic!("expected deferral");
        };
        assert!(host_limited);
        // ...but B is untouched.
        assert_eq!(gate.admit(IP_B, 0), PaceDecision::Ready);
    }

    #[test]
    fn backoff_grows_multiplicatively_and_decays_on_success() {
        let mut gate = gate(PacerConfig {
            backoff: true,
            backoff_base: 100 * MILLIS,
            ..PacerConfig::default()
        });
        gate.on_failure(IP_A, 0);
        let PaceDecision::Defer { until: p1, .. } = gate.admit(IP_A, 0) else {
            panic!("penalty must defer");
        };
        gate.on_failure(IP_A, 0);
        let PaceDecision::Defer { until: p2, .. } = gate.admit(IP_A, 0) else {
            panic!("penalty must defer");
        };
        assert_eq!(p1, 100 * MILLIS);
        assert_eq!(p2, 200 * MILLIS, "doubled on second failure");
        // Successes decay the streak; after the penalty expires the next
        // failure starts from a shorter penalty again.
        gate.on_success(IP_A, p2);
        gate.on_success(IP_A, p2);
        let later = p2 + SECONDS;
        gate.on_failure(IP_A, later);
        let PaceDecision::Defer { until: p3, .. } = gate.admit(IP_A, later) else {
            panic!("penalty must defer");
        };
        assert_eq!(p3 - later, 100 * MILLIS, "decayed to base");
        // Unpenalized destinations are unaffected throughout.
        assert_eq!(gate.admit(IP_B, later), PaceDecision::Ready);
    }

    #[test]
    fn penalty_expiry_does_not_release_a_herd() {
        // Sends held behind a backoff penalty must come out spaced at
        // the per-host rate when the penalty lifts, not all at once.
        let mut gate = gate(PacerConfig {
            per_host_pps: 100.0, // 10ms spacing
            burst: 1.0,
            backoff: true,
            backoff_base: SECONDS,
            ..PacerConfig::default()
        });
        gate.on_failure(IP_A, 0); // not_before = 1s
        let times = releases(&mut gate, IP_A, 10, 0);
        assert!(times[0] >= SECONDS, "penalty must hold the first send");
        for pair in times.windows(2) {
            assert!(
                pair[1] >= pair[0] + SECONDS / 100 - 2,
                "herd after penalty expiry: {times:?}"
            );
        }
    }

    #[test]
    fn backoff_penalty_caps() {
        let mut gate = gate(PacerConfig {
            backoff: true,
            backoff_base: SECONDS,
            backoff_cap: 4 * SECONDS,
            ..PacerConfig::default()
        });
        for _ in 0..40 {
            gate.on_failure(IP_A, 0);
        }
        let PaceDecision::Defer { until, .. } = gate.admit(IP_A, 0) else {
            panic!("penalty must defer");
        };
        assert_eq!(until, 4 * SECONDS, "penalty capped");
    }

    #[test]
    fn backoff_memory_is_shared_across_gates() {
        // Worker A's failures must back the destination off for worker B:
        // the backoff memory is scan-wide.
        let pacer = Arc::new(ConcurrentPacer::new(PacerConfig {
            backoff: true,
            backoff_base: SECONDS,
            ..PacerConfig::default()
        }));
        let mut a = ConcurrentGate::new(Arc::clone(&pacer));
        let mut b = ConcurrentGate::new(Arc::clone(&pacer));
        a.on_failure(IP_A, 0);
        match b.admit(IP_A, 0) {
            PaceDecision::Defer {
                until,
                host_limited,
            } => {
                assert_eq!(until, SECONDS);
                assert!(host_limited);
            }
            other => panic!("worker B must see A's penalty: {other:?}"),
        }
        assert_eq!(pacer.backoff_events(), 1);
    }

    #[test]
    fn host_table_is_hard_capped_under_all_penalized_flood() {
        // A spoofed-source flood where *every* destination carries a live
        // penalty: the idle prune frees nothing, so the hard cap must
        // evict penalized entries to bound memory.
        let pacer = ConcurrentPacer::new(PacerConfig {
            backoff: true,
            backoff_base: 3_600 * SECONDS,
            backoff_cap: 7_200 * SECONDS,
            ..PacerConfig::default()
        });
        for i in 0..(MAX_HOSTS + 500) as u32 {
            pacer.on_failure(Ipv4Addr::from(0x0A00_0000 + i), 0);
        }
        assert!(
            pacer.tracked_hosts() <= MAX_HOSTS,
            "tracked {}",
            pacer.tracked_hosts()
        );
        assert!(pacer.host_evictions() >= 500, "{}", pacer.host_evictions());
    }

    #[test]
    fn host_table_prunes_idle_entries() {
        let mut gate = gate(PacerConfig {
            per_host_pps: 1000.0,
            ..PacerConfig::default()
        });
        for i in 0..(MAX_HOSTS + 100) as u32 {
            let ip = Ipv4Addr::from(0x0A00_0000 + i);
            let _ = gate.admit(ip, u64::from(i) * SECONDS);
        }
        assert!(
            gate.pacer().tracked_hosts() < MAX_HOSTS,
            "idle hosts must be pruned, got {}",
            gate.pacer().tracked_hosts()
        );
    }

    #[test]
    fn returned_blocks_give_budget_back() {
        let pacer = Arc::new(ConcurrentPacer::new(PacerConfig {
            rate_pps: 100.0, // burst derives rate/20 = 5 -> block of 5
            ..PacerConfig::default()
        }));
        let mut hoarder = ConcurrentGate::new(Arc::clone(&pacer));
        let _ = hoarder.admit(IP_A, 0); // leases a block, uses 1 slot
        assert_eq!(pacer.blocks_leased(), 1);
        drop(hoarder); // unused slots return on drop
        let mut gate = ConcurrentGate::new(Arc::clone(&pacer));
        let times = releases(&mut gate, IP_B, 4, 0);
        assert_eq!(
            times,
            vec![0, 0, 0, 0],
            "returned burst tokens must be immediately spendable"
        );
    }
}
