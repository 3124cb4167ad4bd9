//! Appendix C — exposed lookup chain: the same traced A lookup rendered as
//! dig's text output and as ZDNS's JSON.
//!
//! Run: `cargo run --release -p zdns-bench --bin appendix_trace`

use std::sync::Arc;

use parking_lot::Mutex;
use zdns_bench::bench_universe;
use zdns_core::{collecting_sink, Detail, Resolver, ResolverConfig};
use zdns_netsim::{Engine, EngineConfig};
use zdns_wire::{Name, Question, RecordType};
use zdns_zones::Universe;

fn main() {
    let universe = bench_universe();
    // Pick an existing .com domain to play "google.com".
    let name: Name = (0..50_000)
        .map(|i| format!("trace{i}.com").parse::<Name>().unwrap())
        .find(|n| universe.domain_exists(n))
        .expect("an existing domain");

    let mut config = ResolverConfig::iterative(universe.root_hints());
    config.detail = Detail::Trace;
    let resolver = Resolver::new(config);

    let mut engine = Engine::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&universe) as Arc<dyn Universe>,
    );
    let (sink, collected) = collecting_sink();
    let job_name = name.clone();
    let mut remaining = 1;
    engine.run(move || {
        if remaining == 0 {
            return None;
        }
        remaining -= 1;
        Some(resolver.machine(
            Question::new(job_name.clone(), RecordType::A),
            Some(sink.clone()),
        ))
    });
    let results: &Mutex<Vec<zdns_core::LookupResult>> = &collected;
    let results = results.lock();
    let result = results.first().expect("one lookup result");

    println!("=== dig +trace style output (Appendix C, Figure 5) ===\n");
    println!("; <<>> zdns-repro dig-model <<>> {name} +trace");
    println!(";; global options: +cmd");
    for step in &result.trace {
        if let Some(msg) = &step.results {
            for rec in msg.answers.iter().chain(&msg.authorities) {
                println!(
                    "{:<30} {:>8} IN {:<6} {}",
                    rec.name,
                    rec.ttl,
                    rec.rtype.to_string(),
                    summarize(&rec.rdata)
                );
            }
            println!(
                ";; Received from {} (depth {})\n",
                step.name_server, step.depth
            );
        }
    }

    println!("=== ZDNS JSON output (Appendix C, Figure 6) ===\n");
    println!(
        "{}",
        serde_json::to_string_pretty(&result.to_json()).expect("valid JSON")
    );
}

fn summarize(rdata: &zdns_wire::RData) -> String {
    match rdata {
        zdns_wire::RData::A(a) => a.to_string(),
        zdns_wire::RData::Ns(n) => format!("{n}."),
        zdns_wire::RData::Soa(s) => format!("{} {} {}", s.mname, s.rname, s.serial),
        other => format!("{other:?}"),
    }
}
