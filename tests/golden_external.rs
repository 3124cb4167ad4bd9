//! Golden differential for the composite modules in external mode: the
//! same 300 seeded inputs, seed, modules and output groups as
//! `golden_output.rs`, scanned through `--name-servers` instead of
//! `--iterative`. The hashes were recorded before the module layer moved
//! to one shared driver; a change to how a module runs its lookups must
//! leave them where they are.

use std::sync::Arc;

use parking_lot::Mutex;
use zdns::framework::{run_sim_scan, Conf, JsonlSink, OutputGroup, OutputSink};
use zdns::modules::ModuleRegistry;
use zdns::workloads::CtCorpus;
use zdns::zones::hashing::h64;
use zdns::zones::{SynthConfig, SyntheticUniverse, Universe};

const SEED: u64 = 0x5DA5_2D45;

fn hash(bytes: &[u8]) -> u64 {
    h64(0, "golden-output", bytes)
}

/// The input lines of `golden_output.rs`: corpus fqdns and base domains,
/// server addresses, `name@ip` forms and a few lines no module accepts.
fn inputs(universe: &SyntheticUniverse) -> Vec<String> {
    let corpus = CtCorpus::new(SEED, 486, 1211);
    let servers: Vec<_> = universe
        .root_hints()
        .into_iter()
        .map(|(_, ip)| ip)
        .collect();
    let mut lines: Vec<String> = corpus.fqdns(200).collect();
    lines.extend(corpus.base_domains(70));
    for i in 0..10 {
        lines.push(servers[i % servers.len()].to_string());
        lines.push(format!(
            "{}@{}",
            corpus.base_domain(i as u64),
            servers[i % servers.len()]
        ));
    }
    lines.extend((0..10).map(|i| format!("not a name!! {i}")));
    assert_eq!(lines.len(), 300);
    lines
}

fn scan_hash(
    universe: &Arc<SyntheticUniverse>,
    registry: &ModuleRegistry,
    module: &str,
    group: OutputGroup,
    lines: &[String],
) -> u64 {
    let seed = SEED.to_string();
    let conf = Conf::parse([
        module,
        "--name-servers",
        "8.8.8.8,1.1.1.1",
        "--threads",
        "64",
        "--seed",
        &seed,
        "--output-fields",
        group.as_str(),
    ])
    .unwrap();
    let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new(), conf.output)));
    let s2 = Arc::clone(&sink);
    let report = run_sim_scan(
        &conf,
        Arc::clone(universe) as Arc<dyn Universe>,
        registry.get(module).unwrap(),
        lines.iter().cloned(),
        move |o| s2.lock().write_output(o).unwrap(),
    );
    assert_eq!(report.jobs as usize, lines.len(), "{module}");
    let sink = Arc::try_unwrap(sink)
        .unwrap_or_else(|_| panic!("sink still shared after the scan"))
        .into_inner();
    assert_eq!(sink.outputs_written() as usize, lines.len(), "{module}");
    hash(&sink.into_inner())
}

#[test]
fn every_module_prints_the_recorded_bytes_through_name_servers() {
    // Stub lookups record no trace steps, so `long` and `trace` agree.
    const GOLDEN: [(OutputGroup, u64); 4] = [
        (OutputGroup::Short, 0x3abb_5f45_bb96_cd77),
        (OutputGroup::Normal, 0x2b7c_ed58_6964_8fc0),
        (OutputGroup::Long, 0xd2e4_7507_f767_cdd2),
        (OutputGroup::Trace, 0xd2e4_7507_f767_cdd2),
    ];
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig {
        seed: SEED,
        ..SynthConfig::default()
    }));
    let registry = ModuleRegistry::standard();
    let lines = inputs(&universe);
    let mut changed = Vec::new();
    for (group, want) in GOLDEN {
        let mut hashes = Vec::new();
        let mut per_module = Vec::new();
        for module in registry.names() {
            let h = scan_hash(&universe, &registry, module, group, &lines);
            hashes.extend(h.to_be_bytes());
            per_module.push(format!("{module}={h:016x}"));
        }
        let folded = hash(&hashes);
        println!(
            "golden external {} over {} modules: {folded:#018x}",
            group.as_str(),
            per_module.len()
        );
        if folded != want {
            changed.push(format!(
                "{} lines changed ({folded:#018x}, recorded {want:#018x}); per-module hashes: {}",
                group.as_str(),
                per_module.join(" ")
            ));
        }
    }
    assert!(changed.is_empty(), "{}", changed.join("\n"));
}
