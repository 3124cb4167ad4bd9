//! §6 case study in miniature: survey CAA deployment across base domains
//! with the CAALOOKUP module (CNAME chains followed per RFC 8659).
//!
//! ```text
//! cargo run --release --example caa_survey
//! ```

use std::sync::Arc;

use parking_lot::Mutex;
use zdns_core::{Resolver, ResolverConfig};
use zdns_modules::{CaaLookupModule, LookupModule, ModuleOutput, ModuleSink};
use zdns_netsim::{Engine, EngineConfig};
use zdns_workloads::CtCorpus;
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

fn main() {
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let resolver = Resolver::new(ResolverConfig::iterative(universe.root_hints()));
    let corpus = CtCorpus::new(universe.config().seed, TABLE3_CCTLDS, TABLE3_NGTLDS);

    let outputs: Arc<Mutex<Vec<ModuleOutput>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_outputs = Arc::clone(&outputs);
    let sink: ModuleSink = Arc::new(move |o| sink_outputs.lock().push(o));

    let mut engine = Engine::new(
        EngineConfig {
            threads: 512,
            ..EngineConfig::default()
        },
        Arc::clone(&universe) as Arc<dyn Universe>,
    );
    // CAA is rare (~1.7% of domains); scan enough to find holders.
    let mut inputs = corpus.base_domains(30_000);
    let module = CaaLookupModule;
    let r2 = resolver.clone();
    engine.run(move || {
        let domain = inputs.next()?;
        Some(module.make_machine(&domain, &r2, sink.clone()))
    });

    let outputs = outputs.lock();
    let noerror: Vec<_> = outputs
        .iter()
        .filter(|o| o.status == zdns_core::Status::NoError)
        .collect();
    let holders: Vec<_> = noerror
        .iter()
        .filter(|o| o.data["records"].as_array().is_some_and(|a| !a.is_empty()))
        .collect();
    println!(
        "scanned {} domains: {} NOERROR, {} CAA holders ({:.2}%)  [paper: 1.69%]",
        outputs.len(),
        noerror.len(),
        holders.len(),
        holders.len() as f64 / noerror.len().max(1) as f64 * 100.0
    );
    let with_le = holders
        .iter()
        .filter(|o| {
            o.data["issue"].as_array().is_some_and(|a| {
                a.iter()
                    .any(|v| v.as_str().unwrap_or("").contains("letsencrypt"))
            })
        })
        .count();
    println!(
        "Let's Encrypt present in {:.0}% of issue sets  [paper: 92.4%]",
        with_le as f64 / holders.len().max(1) as f64 * 100.0
    );
    let via_cname = holders
        .iter()
        .filter(|o| o.data["via_cname"] == true)
        .count();
    println!("CAA reached through a CNAME chain: {via_cname}  [paper: ~0.7% of holders]");
    let invalid = holders
        .iter()
        .filter(|o| {
            o.data["invalid_tags"]
                .as_array()
                .is_some_and(|a| !a.is_empty())
        })
        .count();
    println!("domains with invalid CAA tags: {invalid}  [paper: 0.04% of holders]");

    if let Some(example) = holders.first() {
        println!("\nexample CAA holder:\n{}", example.to_json());
    }
}
