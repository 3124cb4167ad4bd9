//! Quickstart: resolve a handful of names iteratively against the built-in
//! simulated Internet and print ZDNS-style JSON lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use zdns_core::{collecting_sink, Resolver, ResolverConfig};
use zdns_netsim::{Engine, EngineConfig};
use zdns_wire::{Question, RecordType};
use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

fn main() {
    // 1. A simulated Internet: 1702 TLDs, ~93M base domains, reverse tree.
    //    Everything is derived from the seed — same seed, same Internet.
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));

    // 2. A resolver in iterative mode: ZDNS's own recursion from the roots,
    //    with the selective NS/glue cache.
    let resolver = Resolver::new(ResolverConfig::iterative(universe.root_hints()));

    // 3. The discrete-event engine stands in for the network: thousands of
    //    lookup routines, realistic latency/loss, virtual time.
    let mut engine = Engine::new(
        EngineConfig {
            threads: 64,
            ..EngineConfig::default()
        },
        Arc::clone(&universe) as Arc<dyn Universe>,
    );

    // 4. Queue lookups and run. Results stream into the sink.
    let names = [
        "bluefast0.com",
        "cloudtech1.net",
        "www.primedata2.org",
        "shopzen3.pl",
        "missing-name-xyz.com",
    ];
    let (sink, results) = collecting_sink();
    let mut queue = names.iter();
    let r2 = resolver.clone();
    let report = engine.run(move || {
        let name = queue.next()?;
        let question = Question::new(name.parse().expect("valid name"), RecordType::A);
        Some(r2.machine(question, Some(sink.clone())))
    });

    // 5. Print the ZDNS JSON output lines.
    for result in results.lock().iter() {
        println!("{}", result.to_json());
    }
    eprintln!(
        "\n{} lookups, {:.0}% success, {} queries, {:.2}s virtual time, cache hit rate {:.0}%",
        report.jobs,
        report.success_rate() * 100.0,
        report.queries_sent,
        zdns_netsim::as_secs_f64(report.makespan),
        resolver.core().cache.stats.hit_rate() * 100.0,
    );
}
