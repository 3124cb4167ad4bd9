//! §5 case study in miniature: use the `--all-nameservers` module to probe
//! every authoritative nameserver of a set of domains, measuring
//! per-nameserver availability (retries) and answer consistency.
//!
//! ```text
//! cargo run --release --example nameserver_consistency
//! ```

use std::sync::Arc;

use parking_lot::Mutex;
use zdns_core::{Resolver, ResolverConfig};
use zdns_modules::{AllNameserversModule, LookupModule, ModuleOutput, ModuleSink};
use zdns_netsim::{Engine, EngineConfig};
use zdns_workloads::CtCorpus;
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

fn main() {
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let resolver = Resolver::new(ResolverConfig::iterative(universe.root_hints()));
    let corpus = CtCorpus::new(universe.config().seed, TABLE3_CCTLDS, TABLE3_NGTLDS);
    let module = AllNameserversModule;

    let outputs: Arc<Mutex<Vec<ModuleOutput>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_outputs = Arc::clone(&outputs);
    let sink: ModuleSink = Arc::new(move |o| sink_outputs.lock().push(o));

    let mut engine = Engine::new(
        EngineConfig {
            threads: 256,
            ..EngineConfig::default()
        },
        Arc::clone(&universe) as Arc<dyn Universe>,
    );
    let mut inputs = corpus.base_domains(2_000);
    let r2 = resolver.clone();
    engine.run(move || {
        let domain = inputs.next()?;
        Some(module.make_machine(&domain, &r2, sink.clone()))
    });

    let outputs = outputs.lock();
    let resolvable: Vec<_> = outputs.iter().filter(|o| o.status.is_success()).collect();
    let needing_retries = resolvable
        .iter()
        .filter(|o| o.data["max_retries"].as_u64().unwrap_or(0) >= 2)
        .count();
    let inconsistent = resolvable
        .iter()
        .filter(|o| o.data["consistent"] == false)
        .count();

    println!(
        "scanned {} domains ({} resolvable)",
        outputs.len(),
        resolvable.len()
    );
    println!(
        "domains with a nameserver needing >=2 retries: {} ({:.2}%)  [paper: 0.55%]",
        needing_retries,
        needing_retries as f64 / resolvable.len().max(1) as f64 * 100.0
    );
    println!(
        "domains with inconsistent A records across NS: {} ({:.3}%)  [paper: <0.01%]",
        inconsistent,
        inconsistent as f64 / resolvable.len().max(1) as f64 * 100.0
    );

    // Show one interesting lookup in full.
    if let Some(flaky) = resolvable
        .iter()
        .find(|o| o.data["max_retries"].as_u64().unwrap_or(0) >= 2)
    {
        println!("\nexample flaky domain:\n{}", flaky.to_json());
    }
}
