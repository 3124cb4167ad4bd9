//! # zdns-bench
//!
//! The benchmark harness: one binary per table/figure of the paper (run
//! with `--release`; pass `--quick` for a fast smoke sweep). What the
//! wire codec, the cache, the pacer and the reactor cost per operation
//! is zbench's record (`wire.*`, `core.cache.*`, `core.pacer.*`,
//! `core.reactor.scan_ns_per_lookup` under `--trace 1`).
//!
//! ## Calibration
//!
//! The simulator's absolute throughput depends on two effective per-packet
//! CPU costs, calibrated once against §4.1's observations ("a single
//! virtual core uses 100% of resources at approximately 2K ZDNS threads",
//! 24 cores, ~91–102K successes/s external plateau, ~18K/s iterative
//! plateau at 67K queries/s):
//!
//! * [`EXTERNAL_PACKET_US`] — per-core cost of one packet in external mode
//!   (send or receive, including JSON output amortization).
//! * [`ITERATIVE_PACKET_US`] — the same for iterative mode, heavier due to
//!   referral parsing and cache maintenance.
//!
//! Everything else (latency distributions, loss, rate limits, cache
//! policy) is structural. EXPERIMENTS.md records paper-vs-measured rows.

use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_baselines::unbound_resolver;
use zdns_core::{Detail, ResolutionMode, Resolver, ResolverConfig};
use zdns_netsim::{
    Engine, EngineConfig, PublicResolverConfig, PublicResolverSim, RunReport, SECONDS,
};
use zdns_wire::{Name, Question, RecordType};
use zdns_workloads::{CtCorpus, Ipv4Walk};
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

/// Per-core µs per packet, external mode (→ ~200K pps on 24 cores).
pub const EXTERNAL_PACKET_US: u64 = 120;
/// Per-core µs per packet, iterative mode. Much heavier than external
/// mode: referral classification, bailiwick checks, and selective-cache
/// maintenance run on every hop, and the paper's own numbers imply it
/// (67K queries/s saturating 24 cores → ~350µs/packet-pair per core).
pub const ITERATIVE_PACKET_US: u64 = 500;

/// The resolver column of Figure 1 / Tables 1–2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetResolver {
    /// Simulated Google Public DNS (per-client rate limited).
    Google,
    /// Simulated Cloudflare (no client limits).
    Cloudflare,
    /// ZDNS's own iterative resolution.
    Iterative,
    /// A co-located Unbound (Table 2).
    Unbound,
}

impl TargetResolver {
    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            TargetResolver::Google => "Google",
            TargetResolver::Cloudflare => "Cloudflare",
            TargetResolver::Iterative => "Iterative",
            TargetResolver::Unbound => "Unbound",
        }
    }
}

/// The workload column (A over corpus names, PTR over random public IPv4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A-record lookups of corpus fqdns.
    A,
    /// PTR lookups of public IPv4 addresses.
    Ptr,
}

impl Workload {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::A => "A",
            Workload::Ptr => "PTR",
        }
    }
}

/// One experiment point.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// Which resolver column.
    pub resolver: TargetResolver,
    /// Which workload.
    pub workload: Workload,
    /// Lookup routine count.
    pub threads: usize,
    /// Scanning source IPs (1=/32, 8=/29, 16=/28).
    pub source_ips: usize,
    /// Selective cache capacity.
    pub cache_size: usize,
    /// Retries per query.
    pub retries: u32,
    /// Number of lookups to simulate at this point.
    pub jobs: u64,
    /// Seeds (universe is shared; this perturbs the engine + workload).
    pub seed: u64,
}

impl Default for ScanSpec {
    fn default() -> Self {
        ScanSpec {
            resolver: TargetResolver::Iterative,
            workload: Workload::A,
            threads: 10_000,
            source_ips: 16,
            cache_size: 600_000,
            retries: 3,
            jobs: 100_000,
            seed: 1,
        }
    }
}

/// Measured outcome of one experiment point.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// Steady-state successes per (virtual) second.
    pub successes_per_sec: f64,
    /// Steady-state queries per second.
    pub queries_per_sec: f64,
    /// Overall success fraction.
    pub success_rate: f64,
    /// Selective-cache hit rate (iterative only; 0 otherwise).
    pub cache_hit_rate: f64,
    /// Virtual makespan in seconds.
    pub makespan_secs: f64,
    /// Mean per-lookup duration in seconds.
    pub mean_lookup_secs: f64,
    /// The raw engine report.
    pub report: RunReport,
}

/// Build the shared universe for the benchmarks (default seed).
pub fn bench_universe() -> Arc<SyntheticUniverse> {
    Arc::new(SyntheticUniverse::new(SynthConfig::default()))
}

/// Resolver addresses used by the harness.
pub const GOOGLE: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
/// Cloudflare model address.
pub const CLOUDFLARE: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);
/// Local Unbound model address.
pub const LOCALHOST: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

/// Tuned public resolver models: the paper-calibrated latency profile
/// (anycast RTT + ~0.6s mean recursion on misses puts the Figure 1 knee
/// near 45K threads).
pub fn tuned_google() -> PublicResolverSim {
    let mut cfg = PublicResolverConfig::google(GOOGLE);
    cfg.miss_extra_ms = 620.0;
    PublicResolverSim::new(cfg)
}

/// Cloudflare with the same latency tuning.
pub fn tuned_cloudflare() -> PublicResolverSim {
    let mut cfg = PublicResolverConfig::cloudflare(CLOUDFLARE);
    cfg.miss_extra_ms = 600.0;
    PublicResolverSim::new(cfg)
}

/// Run one experiment point. The resolver records no lookup chains
/// (`Detail::Normal`; no figure or table reads one — `appendix_trace` builds
/// its own resolver): tracing costs wall time only, never virtual time,
/// so whether it is on cannot move a hit rate (Fig. 2) or a rate
/// (Table 1) — only how long the binaries take to print them.
pub fn run_scan(universe: &Arc<SyntheticUniverse>, spec: &ScanSpec) -> ScanOutcome {
    let mode = match spec.resolver {
        TargetResolver::Google => ResolutionMode::External {
            servers: vec![GOOGLE],
        },
        TargetResolver::Cloudflare => ResolutionMode::External {
            servers: vec![CLOUDFLARE],
        },
        TargetResolver::Unbound => ResolutionMode::External {
            servers: vec![LOCALHOST],
        },
        TargetResolver::Iterative => ResolutionMode::Iterative,
    };
    let resolver_config = ResolverConfig {
        mode,
        retries: spec.retries,
        cache_size: spec.cache_size,
        detail: Detail::Normal,
        root_hints: universe.root_hints(),
        ..ResolverConfig::default()
    };
    let resolver = Resolver::new(resolver_config);

    let per_packet = match spec.resolver {
        TargetResolver::Iterative => ITERATIVE_PACKET_US,
        _ => EXTERNAL_PACKET_US,
    };
    let mut engine_config = EngineConfig {
        threads: spec.threads,
        client_ips: (0..spec.source_ips.max(1))
            .map(|i| Ipv4Addr::new(192, 0, 2, (i + 1) as u8))
            .collect(),
        per_packet_cpu_us: per_packet,
        seed: spec.seed,
        stagger: SECONDS,
        ..EngineConfig::default()
    };
    if spec.resolver == TargetResolver::Unbound {
        let base = zdns_baselines::unbound_engine_config(
            spec.threads,
            spec.workload == Workload::Ptr,
            spec.seed,
        );
        engine_config.threads = base.threads;
        engine_config.local_resolver_cpu_us = base.local_resolver_cpu_us;
    }

    let mut engine = Engine::new(engine_config, Arc::clone(universe) as Arc<dyn Universe>);
    engine.add_resolver(tuned_google());
    engine.add_resolver(tuned_cloudflare());
    engine.add_resolver(unbound_resolver());

    let report = match spec.workload {
        Workload::A => {
            let corpus = CtCorpus::new(universe.config().seed, TABLE3_CCTLDS, TABLE3_NGTLDS);
            // Offset the corpus window per seed so consecutive trials do
            // not overlap names (the paper's §4.1 methodology).
            let offset = spec.seed.wrapping_mul(1_000_003) % 1_000_000_000;
            let mut names = (0..spec.jobs).map(move |i| corpus.fqdn(offset + i, (i * 7) % 3));
            let r2 = resolver.clone();
            engine.run(move || {
                let name = names.next()?;
                let parsed: Name = name.parse().ok()?;
                Some(r2.machine(Question::new(parsed, RecordType::A), None))
            })
        }
        Workload::Ptr => {
            let mut ips = Ipv4Walk::new(spec.seed.wrapping_add(77), spec.jobs);
            let r2 = resolver.clone();
            engine.run(move || {
                let ip = ips.next()?;
                Some(r2.machine(Question::new(Name::reverse_ipv4(ip), RecordType::PTR), None))
            })
        }
    };

    ScanOutcome {
        successes_per_sec: report.steady_success_rate(),
        queries_per_sec: report.steady_query_rate(),
        success_rate: report.success_rate(),
        cache_hit_rate: resolver.core().cache.stats.hit_rate(),
        makespan_secs: zdns_netsim::as_secs_f64(report.makespan),
        mean_lookup_secs: report.mean_job_secs(),
        report,
    }
}

/// Format seconds as the paper does: `10.6m`, `12.1h`.
pub fn human_time(secs: f64) -> String {
    if secs < 90.0 {
        format!("{secs:.1}s")
    } else if secs < 5400.0 {
        format!("{:.1}m", secs / 60.0)
    } else {
        format!("{:.1}h", secs / 3600.0)
    }
}

/// Extrapolate a full-scale duration from a steady-state rate.
pub fn extrapolate_time(total_lookups: f64, successes_per_sec: f64) -> f64 {
    if successes_per_sec <= 0.0 {
        return f64::INFINITY;
    }
    total_lookups / successes_per_sec
}

/// `--quick` support: scale job counts down for smoke runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Choose a job count for a sweep point: enough for steady state.
pub fn jobs_for(threads: usize, quick: bool) -> u64 {
    let base = (threads as u64 * 6).max(40_000);
    if quick {
        (threads as u64 * 2).max(5_000).min(base)
    } else {
        base
    }
}

/// Simple aligned table printer for the bench binaries.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Create with column headers.
    pub fn new(headers: &[&str]) -> TablePrinter {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let printer = TablePrinter { widths };
        printer.row(headers);
        let line: Vec<String> = printer.widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", line.join("-+-"));
        printer
    }

    /// Print one row.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) {
        let formatted: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{:>width$}", c.as_ref(), width = w))
            .collect();
        println!("{}", formatted.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_time_formats() {
        assert_eq!(human_time(45.0), "45.0s");
        assert_eq!(human_time(636.0), "10.6m");
        assert_eq!(human_time(43_560.0), "12.1h");
    }

    #[test]
    fn extrapolation_math() {
        let t = extrapolate_time(50_000_000.0, 80_000.0);
        assert!((t - 625.0).abs() < 1.0);
    }

    #[test]
    fn quick_scan_point_runs() {
        let universe = bench_universe();
        let outcome = run_scan(
            &universe,
            &ScanSpec {
                resolver: TargetResolver::Cloudflare,
                workload: Workload::A,
                threads: 256,
                jobs: 3_000,
                ..ScanSpec::default()
            },
        );
        assert!(outcome.success_rate > 0.9, "{}", outcome.success_rate);
        assert!(outcome.successes_per_sec > 0.0);
    }

    #[test]
    fn iterative_point_populates_cache_stats() {
        let universe = bench_universe();
        let outcome = run_scan(
            &universe,
            &ScanSpec {
                resolver: TargetResolver::Iterative,
                workload: Workload::Ptr,
                threads: 256,
                jobs: 3_000,
                ..ScanSpec::default()
            },
        );
        assert!(outcome.cache_hit_rate > 0.0);
        assert!(outcome.success_rate > 0.8, "{}", outcome.success_rate);
    }
}
