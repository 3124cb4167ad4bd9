//! Models of public recursive resolvers (the "Google" and "Cloudflare"
//! columns of the evaluation).
//!
//! The paper treats public resolvers as black boxes with three observable
//! behaviours: response latency (cache hit vs. internal recursion), a
//! per-client-IP rate limit (Google's — the /32 scans lose 6× to it;
//! Cloudflare publishes that it does not rate limit), and failure under
//! aggregate overload (what MassDNS triggers in Table 2). Answers come from
//! the shared [`crate::oracle`] so every resolution mode agrees on ground
//! truth.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use rand::Rng;
use zdns_pacing::TokenBucket;
use zdns_wire::{Name, Question, Rcode};
use zdns_zones::{AuthResponse, Universe};

use crate::oracle;
use crate::time::{SimTime, MILLIS, SECONDS};

/// Configuration of one public resolver model.
#[derive(Debug, Clone)]
pub struct PublicResolverConfig {
    /// Service address (e.g. 8.8.8.8).
    pub addr: Ipv4Addr,
    /// Human label for reports ("google", "cloudflare").
    pub label: &'static str,
    /// Probability a query hits the resolver's warm cache. Unique-name
    /// scans mostly miss; the hits are shared infrastructure and repeat
    /// queries.
    pub hit_prob: f64,
    /// Anycast RTT floor in ms.
    pub rtt_floor_ms: f64,
    /// Mean extra anycast RTT in ms (exponential).
    pub rtt_mean_extra_ms: f64,
    /// Mean extra latency for a cache miss (the resolver's own recursion).
    pub miss_extra_ms: f64,
    /// Per-client-IP rate limit in queries/second; `None` = unlimited.
    pub per_client_qps: Option<f64>,
    /// Aggregate capacity in queries/second; excess queries are dropped or
    /// SERVFAILed. `None` = unbounded.
    pub capacity_qps: Option<f64>,
    /// Baseline SERVFAIL probability (upstream failures).
    pub servfail_prob: f64,
    /// Abuse mitigation: once a client IP has this many queries shed in a
    /// one-second window, everything from it is dropped for
    /// [`PublicResolverConfig::penalty`]. This is what turns MassDNS's
    /// blast-and-retry strategy into the paper's ~35% hard-failure rate —
    /// retries inside the penalty window cannot succeed.
    pub penalty_threshold: u32,
    /// Penalty-box duration.
    pub penalty: SimTime,
    /// How long a failed resolution is negatively cached (RFC 2308-style
    /// SERVFAIL caching). This is what correlates retry failures: once
    /// overload kills a name's recursion, immediate retries — MassDNS
    /// sends up to 50 — hit the cached SERVFAIL and burn out.
    pub servfail_cache_ttl: SimTime,
}

impl PublicResolverConfig {
    /// A Google Public DNS-like resolver: fast, warm, per-client limited.
    pub fn google(addr: Ipv4Addr) -> Self {
        PublicResolverConfig {
            addr,
            label: "google",
            hit_prob: 0.30,
            rtt_floor_ms: 12.0,
            rtt_mean_extra_ms: 10.0,
            miss_extra_ms: 360.0,
            per_client_qps: Some(15_000.0),
            capacity_qps: Some(300_000.0),
            servfail_prob: 0.006,
            penalty_threshold: 400,
            penalty: 8 * crate::time::SECONDS,
            servfail_cache_ttl: 15 * crate::time::SECONDS,
        }
    }

    /// A Cloudflare 1.1.1.1-like resolver: fast, warm, no client limits.
    pub fn cloudflare(addr: Ipv4Addr) -> Self {
        PublicResolverConfig {
            addr,
            label: "cloudflare",
            hit_prob: 0.32,
            rtt_floor_ms: 10.0,
            rtt_mean_extra_ms: 8.0,
            miss_extra_ms: 340.0,
            per_client_qps: None,
            capacity_qps: Some(280_000.0),
            servfail_prob: 0.005,
            penalty_threshold: 400,
            penalty: 8 * crate::time::SECONDS,
            servfail_cache_ttl: 15 * crate::time::SECONDS,
        }
    }

    /// A locally-installed Unbound-style resolver: near-zero RTT but a cold
    /// cache and modest capacity — and it contends for the scanner's own
    /// CPU (modelled by the engine's `local_resolver_cpu_share`).
    pub fn local_unbound() -> Self {
        PublicResolverConfig {
            addr: Ipv4Addr::new(127, 0, 0, 1),
            label: "unbound",
            hit_prob: 0.22,
            rtt_floor_ms: 0.2,
            rtt_mean_extra_ms: 0.3,
            miss_extra_ms: 420.0,
            per_client_qps: None,
            capacity_qps: Some(12_000.0),
            servfail_prob: 0.012,
            // A local daemon has no abuse mitigation.
            penalty_threshold: u32::MAX,
            penalty: 0,
            servfail_cache_ttl: 15 * crate::time::SECONDS,
        }
    }
}

/// What the resolver did with a query.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolverOutcome {
    /// Answer delivered after the given service latency.
    Answer {
        /// The records and response code; the engine renders them for the
        /// query and encodes them.
        response: AuthResponse,
        /// Latency from query arrival to response departure.
        latency: SimTime,
    },
    /// Query silently dropped (rate limit or overload).
    Dropped,
    /// SERVFAIL after the given latency.
    ServFail {
        /// Latency until the failure response.
        latency: SimTime,
    },
}

/// Per-client abuse-mitigation state.
#[derive(Debug, Default, Clone, Copy)]
struct PenaltyState {
    window_start: SimTime,
    sheds: u32,
    penalized_until: SimTime,
}

/// A running resolver model with per-client limiter state.
pub struct PublicResolverSim {
    /// Static configuration.
    pub config: PublicResolverConfig,
    buckets: HashMap<Ipv4Addr, TokenBucket>,
    penalties: HashMap<Ipv4Addr, PenaltyState>,
    servfail_cache: HashMap<Name, SimTime>,
    window_start: SimTime,
    window_count: u64,
    /// Total queries dropped by the per-client limiter (observability).
    pub rate_limited: u64,
    /// Total queries shed due to aggregate overload.
    pub overloaded: u64,
    /// Total queries dropped inside a client penalty window.
    pub penalized: u64,
}

impl PublicResolverSim {
    /// New model from a config.
    pub fn new(config: PublicResolverConfig) -> PublicResolverSim {
        PublicResolverSim {
            config,
            buckets: HashMap::new(),
            penalties: HashMap::new(),
            servfail_cache: HashMap::new(),
            window_start: 0,
            window_count: 0,
            rate_limited: 0,
            overloaded: 0,
            penalized: 0,
        }
    }

    /// Process one query for `question` arriving at `now` from `client`.
    pub fn handle<R: Rng>(
        &mut self,
        universe: &dyn Universe,
        client: Ipv4Addr,
        question: &Question,
        now: SimTime,
        rng: &mut R,
    ) -> ResolverOutcome {
        // Abuse-mitigation penalty box.
        if self.config.penalty_threshold != u32::MAX {
            let state = self.penalties.entry(client).or_default();
            if now < state.penalized_until {
                self.penalized += 1;
                return ResolverOutcome::Dropped;
            }
        }
        // Negative SERVFAIL cache: a recently failed name keeps failing
        // fast until the entry expires.
        // `Name` hashes and compares case-insensitively without
        // allocating, so the negative cache needs no lowercased String
        // key per query.
        if let Some(&until) = self.servfail_cache.get(&question.name) {
            if now < until {
                return ResolverOutcome::ServFail {
                    latency: self.rtt(rng),
                };
            }
            self.servfail_cache.remove(&question.name);
        }
        // Per-client rate limit (Google's behaviour: silent drop).
        if let Some(qps) = self.config.per_client_qps {
            let bucket = self
                .buckets
                .entry(client)
                .or_insert_with(|| TokenBucket::new(qps, qps / 4.0));
            if !bucket.try_take(now) {
                self.rate_limited += 1;
                return ResolverOutcome::Dropped;
            }
        }
        // Aggregate overload: sliding one-second windows.
        if let Some(capacity) = self.config.capacity_qps {
            if now.saturating_sub(self.window_start) >= SECONDS {
                self.window_start = now;
                self.window_count = 0;
            }
            self.window_count += 1;
            if self.window_count as f64 > capacity {
                self.overloaded += 1;
                // Track per-client shed counts; chronic offenders go into
                // the penalty box.
                if self.config.penalty_threshold != u32::MAX {
                    let penalty = self.config.penalty;
                    let threshold = self.config.penalty_threshold;
                    let state = self.penalties.entry(client).or_default();
                    if now.saturating_sub(state.window_start) >= SECONDS {
                        state.window_start = now;
                        state.sheds = 0;
                    }
                    state.sheds += 1;
                    if state.sheds > threshold {
                        state.penalized_until = now + penalty;
                    }
                }
                // The failed recursion is negatively cached; retries for
                // this name now fail until the entry expires.
                if self.config.servfail_cache_ttl > 0 {
                    // Bound the cache the way real resolvers do.
                    if self.servfail_cache.len() > 4_000_000 {
                        self.servfail_cache.clear();
                    }
                    self.servfail_cache
                        .insert(question.name.clone(), now + self.config.servfail_cache_ttl);
                }
                // Sheds load the way big anycast fleets do: mostly silent
                // drops, some SERVFAILs.
                return if rng.gen_bool(0.35) {
                    ResolverOutcome::ServFail {
                        latency: self.rtt(rng),
                    }
                } else {
                    ResolverOutcome::Dropped
                };
            }
        }
        if rng.gen_bool(self.config.servfail_prob) {
            return ResolverOutcome::ServFail {
                latency: self.rtt(rng) + (80.0 * MILLIS as f64) as SimTime,
            };
        }
        let hit = rng.gen_bool(self.config.hit_prob);
        let mut latency = self.rtt(rng);
        if !hit {
            latency += exp(self.config.miss_extra_ms, rng);
        }
        let ans = oracle::resolve(universe, question);
        let mut response = AuthResponse::answer(ans.answers);
        response.authoritative = false;
        response.authorities = ans.authorities;
        // Public resolvers surface lame/unreachable delegations as SERVFAIL
        // rather than passing REFUSED through.
        response.rcode = match ans.rcode {
            Rcode::Refused => Rcode::ServFail,
            rcode => rcode,
        };
        ResolverOutcome::Answer { response, latency }
    }

    fn rtt<R: Rng>(&self, rng: &mut R) -> SimTime {
        (self.config.rtt_floor_ms * MILLIS as f64) as SimTime
            + exp(self.config.rtt_mean_extra_ms, rng)
    }
}

fn exp<R: Rng>(mean_ms: f64, rng: &mut R) -> SimTime {
    let u: f64 = rng.gen_range(1e-12..1.0);
    ((-mean_ms * u.ln()) * MILLIS as f64) as SimTime
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use zdns_wire::{Name, RecordType};
    use zdns_zones::{SynthConfig, SyntheticUniverse};
    fn setup() -> (SyntheticUniverse, PublicResolverSim, SmallRng) {
        let u = SyntheticUniverse::new(SynthConfig::default());
        let r = PublicResolverSim::new(PublicResolverConfig::google("8.8.8.8".parse().unwrap()));
        (u, r, SmallRng::seed_from_u64(99))
    }

    fn ask(
        u: &SyntheticUniverse,
        r: &mut PublicResolverSim,
        rng: &mut SmallRng,
        name: &str,
        now: SimTime,
        client: Ipv4Addr,
    ) -> ResolverOutcome {
        let q = Question::new(name.parse::<Name>().unwrap(), RecordType::A);
        r.handle(u, client, &q, now, rng)
    }

    #[test]
    fn answers_existing_domains() {
        let (u, mut r, mut rng) = setup();
        let base = (0..20_000)
            .map(|i| format!("resv{i}.com"))
            .find(|n| u.domain_exists(&n.parse().unwrap()))
            .unwrap();
        // Retry a few times to dodge the baseline servfail probability.
        let client = "192.0.2.10".parse().unwrap();
        let ok = (0..5).any(|i| {
            matches!(
                ask(&u, &mut r, &mut rng, &base, i * SECONDS, client),
                ResolverOutcome::Answer { ref response, .. } if response.rcode == Rcode::NoError
            )
        });
        assert!(ok);
    }

    #[test]
    fn per_client_rate_limit_drops() {
        let (u, mut r, mut rng) = setup();
        let client = "192.0.2.77".parse().unwrap();
        let mut dropped = 0;
        // Hammer 100K queries within one simulated second from one IP:
        // far beyond 15K qps.
        for i in 0..100_000u64 {
            let now = i * (SECONDS / 100_000);
            if matches!(
                ask(&u, &mut r, &mut rng, &format!("rl{i}.com"), now, client),
                ResolverOutcome::Dropped
            ) {
                dropped += 1;
            }
        }
        assert!(r.rate_limited > 50_000, "rate limited {}", r.rate_limited);
        assert!(dropped >= r.rate_limited as usize / 2);
    }

    #[test]
    fn cloudflare_has_no_client_limit() {
        let u = SyntheticUniverse::new(SynthConfig::default());
        let mut r =
            PublicResolverSim::new(PublicResolverConfig::cloudflare("1.1.1.1".parse().unwrap()));
        let mut rng = SmallRng::seed_from_u64(5);
        let client = "192.0.2.88".parse().unwrap();
        for i in 0..50_000u64 {
            let now = i * (SECONDS / 50_000);
            ask(&u, &mut r, &mut rng, &format!("cf{i}.com"), now, client);
        }
        assert_eq!(r.rate_limited, 0);
    }

    #[test]
    fn overload_sheds_queries() {
        let u = SyntheticUniverse::new(SynthConfig::default());
        let mut cfg = PublicResolverConfig::cloudflare("1.1.1.1".parse().unwrap());
        cfg.capacity_qps = Some(1_000.0);
        let mut r = PublicResolverSim::new(cfg);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut failed = 0;
        for i in 0..10_000u64 {
            // All inside one second from many client IPs.
            let client = Ipv4Addr::from(0xC000_0200u32 + (i % 64) as u32);
            let q = Question::new(format!("ov{i}.com").parse::<Name>().unwrap(), RecordType::A);
            match r.handle(&u, client, &q, i * 50_000, &mut rng) {
                ResolverOutcome::Dropped | ResolverOutcome::ServFail { .. } => failed += 1,
                ResolverOutcome::Answer { .. } => {}
            }
        }
        // 10K queries against a 1K qps budget: ~90% shed.
        assert!(failed > 8_000, "{failed}");
        assert!(r.overloaded > 0);
    }

    #[test]
    fn miss_latency_exceeds_hit_latency() {
        let (u, mut r, mut rng) = setup();
        let client = "192.0.2.99".parse().unwrap();
        let mut latencies: Vec<SimTime> = Vec::new();
        for i in 0..400 {
            if let ResolverOutcome::Answer { latency, .. } = ask(
                &u,
                &mut r,
                &mut rng,
                &format!("lat{i}.com"),
                i * SECONDS,
                client,
            ) {
                latencies.push(latency);
            }
        }
        latencies.sort_unstable();
        let p10 = latencies[latencies.len() / 10];
        let p90 = latencies[latencies.len() * 9 / 10];
        // Bimodal: cache hits ~20ms, misses hundreds of ms.
        assert!(p10 < 60 * MILLIS, "p10 {p10}");
        assert!(p90 > 150 * MILLIS, "p90 {p90}");
    }
}
