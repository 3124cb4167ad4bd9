//! A behavioural model of `dig` (§4.2 "Exposed Lookup Chain").
//!
//! dig can expose the lookup chain with `+trace`, but it "was never
//! designed to be a high performance scanning engine": batch mode walks
//! names sequentially in one process with no shared cache, and forking a
//! process per lookup pays process-startup cost for every name. The paper
//! measures ~0.5 traces/s in batch mode and ~120 lookups/s when forking
//! against Cloudflare.

use std::sync::Arc;

use zdns_core::{Detail, IterativeMachine, ResolverConfig, ResolverCore};
use zdns_netsim::{EngineConfig, SimClient, MILLIS};
use zdns_wire::{Name, Question, RecordType};

/// Build the ZDNS-equivalent of one `dig +trace` invocation: an iterative
/// walk with **no cache** (each dig process starts cold) and tracing on.
pub fn dig_trace_machine(
    root_hints: Vec<(Name, std::net::Ipv4Addr)>,
    name: Name,
    qtype: RecordType,
) -> Box<dyn SimClient> {
    let config = ResolverConfig {
        // A one-entry cache is dig's "no cache": nothing survives between
        // queries of one walk anyway.
        cache_size: 1,
        detail: Detail::Trace,
        retries: 2,
        root_hints,
        ..ResolverConfig::default()
    };
    let core = ResolverCore::new(config);
    Box::new(IterativeMachine::new(
        core,
        Question::new(name, qtype),
        None,
    ))
}

/// Engine configuration for dig's *batch* mode (`dig -f names.txt +trace`):
/// one process, strictly sequential lookups, per-query process overhead
/// (fresh sockets, text formatting).
pub fn dig_batch_engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        threads: 1,
        // dig tears down and recreates sockets per query and renders text:
        // far more per-packet work than a scanning engine.
        per_packet_cpu_us: 4_000,
        cores: 1,
        gc: None,
        seed,
        stagger: 0,
        ..EngineConfig::default()
    }
}

/// Engine configuration for the *forked* mode (`xargs -P dig`): parallel
/// processes, but every lookup pays fork+exec+linker startup, serialized
/// through the spawning shell — the paper measures ~120/s peak.
pub fn dig_forked_engine_config(parallelism: usize, seed: u64) -> EngineConfig {
    EngineConfig {
        threads: parallelism,
        // ~8ms of CPU per packet event ≈ process startup amortized over
        // the (few) packets one dig sends; one effective core serializes
        // the spawn path.
        per_packet_cpu_us: 8_000,
        cores: 1,
        gc: None,
        seed,
        stagger: 50 * MILLIS,
        ..EngineConfig::default()
    }
}

/// A dig-style external query machine (forked mode against a public
/// resolver): one RD=1 query, up to 2 retries.
pub fn dig_external_machine(
    resolver_addr: std::net::Ipv4Addr,
    name: Name,
    qtype: RecordType,
) -> Box<dyn SimClient> {
    let config = ResolverConfig {
        mode: zdns_core::ResolutionMode::External {
            servers: vec![resolver_addr],
        },
        retries: 2,
        cache_size: 1,
        detail: Detail::Normal,
        ..ResolverConfig::default()
    };
    let core: Arc<ResolverCore> = ResolverCore::new(config);
    Box::new(zdns_core::StubMachine::external(
        core,
        Question::new(name, qtype),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_netsim::Engine;
    use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

    #[test]
    fn dig_trace_resolves_but_never_caches() {
        let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
        let hints = universe.root_hints();
        let mut engine = Engine::new(dig_batch_engine_config(1), Arc::clone(&universe) as _);
        let mut i = 0;
        let hints2 = hints.clone();
        let report = engine.run(move || {
            if i >= 30 {
                return None;
            }
            i += 1;
            Some(dig_trace_machine(
                hints2.clone(),
                format!("dig{i}.com").parse().unwrap(),
                RecordType::A,
            ))
        });
        assert_eq!(report.jobs, 30);
        assert!(report.success_rate() > 0.9, "{:?}", report.status_counts);
        // No cache sharing: every lookup re-walks from the root, so the
        // per-lookup query count stays at the full chain depth.
        // (A caching resolver would sit near 1; allow a small margin for
        // the exact mix of existing vs NXDOMAIN names in the sampled set.)
        let qpl = report.queries_sent as f64 / report.jobs as f64;
        assert!(qpl >= 2.8, "dig must re-walk every time, qpl {qpl}");
    }

    #[test]
    fn dig_batch_is_sequential_and_slow() {
        let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
        let hints = universe.root_hints();
        let mut engine = Engine::new(dig_batch_engine_config(2), Arc::clone(&universe) as _);
        let mut i = 0;
        let report = engine.run(move || {
            if i >= 20 {
                return None;
            }
            i += 1;
            Some(dig_trace_machine(
                hints.clone(),
                format!("slow{i}.net").parse().unwrap(),
                RecordType::A,
            ))
        });
        // Single thread: successes/sec is bounded by the serial walk time.
        let rate = report.jobs as f64 / zdns_netsim::as_secs_f64(report.makespan);
        assert!(rate < 30.0, "batch dig should be slow, got {rate:.1}/s");
    }
}
