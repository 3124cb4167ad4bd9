//! Golden differential for the result path: the JSONL bytes every module
//! prints under every `--output-fields` group are pinned as hashes
//! recorded on the commit *before* the result path was rebuilt
//! (trace-on-demand, `data` built once, the index-linked cache). A change
//! to how a line is produced must leave every hash where it is; a change
//! to what a line says must re-record them on purpose.

use std::sync::Arc;

use parking_lot::Mutex;
use zdns::framework::{run_sim_scan, Conf, JsonlSink, OutputGroup, OutputSink};
use zdns::modules::ModuleRegistry;
use zdns::workloads::CtCorpus;
use zdns::zones::hashing::h64;
use zdns::zones::{SynthConfig, SyntheticUniverse, Universe};

const SEED: u64 = 0x5DA5_2D45;

/// The workspace's stable hash (FNV-1a + splitmix64) of printed bytes.
fn hash(bytes: &[u8]) -> u64 {
    h64(0, "golden-output", bytes)
}

/// 300 seeded input lines shaped so every module family gets inputs it
/// can work on: corpus fqdns and base domains for the name modules,
/// server addresses for `PTR`/`BINDVERSION`, `name@ip` forms for `PROBE`,
/// and a few lines no module accepts.
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

/// The JSONL a seeded sim scan of `module` prints under `group`, hashed.
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
        "--iterative",
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
fn every_module_and_output_group_prints_the_recorded_bytes() {
    // Recorded on the parent of the result-path change (commit 15889c5).
    const GOLDEN: [(OutputGroup, u64); 4] = [
        (OutputGroup::Short, 0x6371_c96d_d5d3_747f),
        (OutputGroup::Normal, 0x031e_1f1a_74a7_9681),
        (OutputGroup::Long, 0x3f0b_a2fb_0757_e653),
        (OutputGroup::Trace, 0x8b18_ad91_0026_8c41),
    ];
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig {
        seed: SEED,
        ..SynthConfig::default()
    }));
    let registry = ModuleRegistry::standard();
    let lines = inputs(&universe);
    let mut changed = Vec::new();
    for (group, want) in GOLDEN {
        // One hash per group, folded over the per-module hashes in
        // registry (sorted-name) order.
        let mut hashes = Vec::new();
        let mut per_module = Vec::new();
        for module in registry.names() {
            let h = scan_hash(&universe, &registry, module, group, &lines);
            hashes.extend(h.to_be_bytes());
            per_module.push(format!("{module}={h:016x}"));
        }
        let folded = hash(&hashes);
        println!(
            "golden {} over {} modules: {folded:#018x}",
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
