//! The paper's central operational finding, reproduced as a test: a
//! resolver-side per-client-IP token bucket (Google Public DNS's
//! behaviour — silent drops) crushes an unpaced /32 scan, and the same
//! scan paced under the limiter's budget recovers most of the success
//! rate. The pacer is the identical `zdns_core::ConcurrentPacer` the
//! real-socket reactor uses, plugged into the simulation engine (through
//! a `ConcurrentGate`) as its send gate —
//! the control loop between observed outcomes and send scheduling,
//! closed under deterministic virtual time.

use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_core::{ConcurrentGate, ConcurrentPacer, PacerConfig, Resolver, ResolverConfig};
use zdns_netsim::{
    Engine, EngineConfig, PublicResolverConfig, PublicResolverSim, RunReport, MILLIS,
};
use zdns_wire::{Question, RecordType};
use zdns_zones::{SynthConfig, SyntheticUniverse};

const RESOLVER_IP: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
const NAMES: usize = 1_500;
/// The simulated resolver's per-client budget (queries/second).
const LIMIT_QPS: f64 = 100.0;

fn gate(config: PacerConfig) -> Box<ConcurrentGate> {
    Box::new(ConcurrentGate::new(Arc::new(ConcurrentPacer::new(config))))
}

/// Run one external-mode scan of `NAMES` names against a resolver whose
/// per-client token bucket allows [`LIMIT_QPS`]. Returns the run report
/// and how many queries the limiter silently dropped.
fn scan(pacer: Option<PacerConfig>) -> (RunReport, u64) {
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let mut engine = Engine::new(
        EngineConfig {
            threads: NAMES,
            stagger: 200 * MILLIS,
            seed: 11,
            ..EngineConfig::default()
        },
        universe,
    );
    let mut resolver_model = PublicResolverConfig::google(RESOLVER_IP);
    resolver_model.per_client_qps = Some(LIMIT_QPS);
    engine.add_resolver(PublicResolverSim::new(resolver_model));
    if let Some(config) = pacer {
        engine.set_send_gate(gate(config));
    }

    let mut config = ResolverConfig::external(vec![RESOLVER_IP]);
    config.retries = 1;
    config.timeout = 500 * MILLIS;
    let resolver = Resolver::new(config);
    let mut remaining = NAMES;
    let report = engine.run(move || {
        if remaining == 0 {
            return None;
        }
        remaining -= 1;
        Some(resolver.machine(
            Question::new(
                format!("pol{remaining}.com").parse().unwrap(),
                RecordType::A,
            ),
            None,
        ))
    });
    let rate_limited = engine
        .resolver_stats()
        .iter()
        .map(|(_, limited, _)| *limited)
        .sum();
    (report, rate_limited)
}

#[test]
fn pacing_recovers_success_rate_against_rate_limited_resolver() {
    // Unpaced: 1 500 lookup routines blast the resolver inside ~200ms —
    // two orders of magnitude over the per-client budget. Retries land
    // inside the same starved bucket.
    let (unpaced, unpaced_limited) = scan(None);
    assert_eq!(unpaced.jobs, NAMES as u64);
    assert!(
        unpaced_limited > 1_000,
        "limiter must bite: only {unpaced_limited} drops"
    );
    assert!(
        unpaced.success_rate() < 0.35,
        "unpaced scan should be crushed, got {:.1}%",
        unpaced.success_rate() * 100.0
    );
    assert_eq!(unpaced.paced_deferrals, 0);

    // Paced: same scan, same resolver, global budget below the limiter.
    let (paced, paced_limited) = scan(Some(PacerConfig {
        rate_pps: 80.0,
        ..PacerConfig::default()
    }));
    assert_eq!(paced.jobs, NAMES as u64);
    assert_eq!(paced_limited, 0, "a polite scan never trips the limiter");
    assert!(paced.paced_deferrals > 0, "the gate must actually defer");
    assert!(
        paced.success_rate() > 0.85,
        "paced scan should recover, got {:.1}%",
        paced.success_rate() * 100.0
    );

    // The acceptance bar: ≥ 3× the unpaced success rate — and the cost
    // is time, which is the polite-scanning trade the paper describes.
    assert!(
        paced.success_rate() >= 3.0 * unpaced.success_rate(),
        "paced {:.1}% vs unpaced {:.1}%",
        paced.success_rate() * 100.0,
        unpaced.success_rate() * 100.0
    );
    assert!(paced.makespan > unpaced.makespan);
}

#[test]
fn backoff_throttles_a_destination_that_keeps_timing_out() {
    // A universe where the scanned resolver drops everything: adaptive
    // backoff must grow the gap between attempts so the scan stops
    // hammering a dead/penalizing destination.
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let mut engine = Engine::new(
        EngineConfig {
            threads: 4,
            stagger: 0,
            seed: 3,
            ..EngineConfig::default()
        },
        universe,
    );
    // No resolver model at 8.8.8.8 and no authoritative server either:
    // every query times out.
    engine.set_send_gate(gate(PacerConfig {
        backoff: true,
        ..PacerConfig::default()
    }));
    let mut config = ResolverConfig::external(vec![RESOLVER_IP]);
    config.retries = 3;
    config.timeout = 200 * MILLIS;
    let resolver = Resolver::new(config);
    let mut remaining = 4usize;
    let report = engine.run(move || {
        if remaining == 0 {
            return None;
        }
        remaining -= 1;
        Some(resolver.machine(
            Question::new(
                format!("dead{remaining}.com").parse().unwrap(),
                RecordType::A,
            ),
            None,
        ))
    });
    assert_eq!(report.jobs, 4);
    assert_eq!(report.successes, 0);
    assert!(
        report.paced_deferrals > 0,
        "failure streaks must defer retries"
    );
}
