//! Cross-crate determinism and trace-fidelity tests.

use std::sync::Arc;

use zdns::core::{collecting_sink, Resolver, ResolverConfig};
use zdns::netsim::{Engine, EngineConfig};
use zdns::wire::{Name, Question, RecordType};
use zdns::zones::{SynthConfig, SyntheticUniverse, Universe};

fn run_once(seed: u64) -> (u64, u64, u64) {
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let resolver = Resolver::new(ResolverConfig::iterative(universe.root_hints()));
    let mut engine = Engine::new(
        EngineConfig {
            threads: 32,
            seed,
            ..EngineConfig::default()
        },
        universe as Arc<dyn Universe>,
    );
    let mut i = 0;
    let report = engine.run(move || {
        if i >= 400 {
            return None;
        }
        i += 1;
        Some(resolver.machine(
            Question::new(format!("det{i}.com").parse().unwrap(), RecordType::A),
            None,
        ))
    });
    (report.successes, report.queries_sent, report.makespan)
}

#[test]
fn identical_seeds_produce_identical_runs() {
    assert_eq!(run_once(42), run_once(42));
}

#[test]
fn different_seeds_differ() {
    // Same universe, different engine seed: latencies and loss draws move.
    assert_ne!(run_once(1).2, run_once(2).2);
}

#[test]
fn trace_json_has_appendix_c_fields() {
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let name: Name = (0..50_000)
        .map(|i| format!("tr{i}.com").parse::<Name>().unwrap())
        .find(|n| universe.domain_exists(n))
        .unwrap();
    let resolver = Resolver::new(ResolverConfig::iterative(universe.root_hints()));
    let mut engine = Engine::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&universe) as Arc<dyn Universe>,
    );
    let (sink, results) = collecting_sink();
    let mut once = Some(());
    engine.run(move || {
        once.take()?;
        Some(resolver.machine(
            Question::new(name.clone(), RecordType::A),
            Some(sink.clone()),
        ))
    });
    let results = results.lock();
    let result = results.first().expect("one result");
    let json = result.to_json();
    // Appendix C top level: name, class, status, data, trace.
    for key in ["name", "class", "status", "data", "trace"] {
        assert!(json.get(key).is_some(), "missing {key}");
    }
    let step = &json["trace"][0];
    for key in [
        "cached",
        "class",
        "depth",
        "layer",
        "name",
        "name_server",
        "try",
        "type",
    ] {
        assert!(step.get(key).is_some(), "trace step missing {key}");
    }
    // Step results mirror the per-hop response shape.
    assert!(step["results"]["flags"]["response"]
        .as_bool()
        .unwrap_or(false));
}
