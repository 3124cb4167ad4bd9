//! Workspace-level integration tests: the full pipeline from framework
//! configuration through modules, resolver, simulator, and JSON output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use zdns::framework::{run_sim_scan, Conf, OutputGroup};
use zdns::modules::{ModuleOutput, ModuleRegistry};
use zdns::workloads::CtCorpus;
use zdns::zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns::zones::{SynthConfig, SyntheticUniverse, Universe};

fn universe() -> Arc<SyntheticUniverse> {
    Arc::new(SyntheticUniverse::new(SynthConfig::default()))
}

#[test]
fn cli_style_scan_produces_parseable_jsonl() {
    let conf = Conf::parse(["A", "--iterative", "--threads", "64"]).unwrap();
    let registry = ModuleRegistry::standard();
    let module = registry.get(&conf.module).unwrap();
    let corpus = CtCorpus::new(0x5DA5_2D45, TABLE3_CCTLDS, TABLE3_NGTLDS);
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    let group = conf.output;
    let report = run_sim_scan(
        &conf,
        universe() as Arc<dyn Universe>,
        module,
        corpus.base_domains(300),
        move |o| {
            sink_lines
                .lock()
                .push(zdns::framework::output::to_line(&o, group))
        },
    );
    assert_eq!(report.jobs, 300);
    let lines = lines.lock();
    assert_eq!(lines.len(), 300);
    for line in lines.iter() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
        assert!(v["name"].is_string());
        assert!(v["status"].is_string());
    }
}

#[test]
fn every_module_in_registry_produces_output() {
    // A smoke test across the whole registry: every module must emit
    // exactly one output line per input and never panic, whatever the
    // input shape.
    let registry = ModuleRegistry::standard();
    let u = universe();
    let conf = Conf::parse(["A", "--iterative", "--threads", "8"]).unwrap();
    for name in registry.names() {
        let module = registry.get(name).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        let inputs: Vec<String> = vec![
            "probe-domain0.com".into(),
            "192.0.2.1".into(),
            "not a name!!".into(),
        ];
        run_sim_scan(
            &conf,
            Arc::clone(&u) as Arc<dyn Universe>,
            module,
            inputs.into_iter(),
            move |_o: ModuleOutput| {
                c2.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 3, "module {name}");
    }
}

#[test]
fn output_groups_are_consistent_across_pipeline() {
    let conf = Conf::parse(["A", "--iterative", "--threads", "8", "--trace"]).unwrap();
    assert_eq!(conf.output, OutputGroup::Trace);
    assert_eq!(conf.resolver.detail, zdns::core::Detail::Trace);
}
