//! Cache pressure costs queries, never answers (§3.4, Figure 2).
//!
//! The selective cache only lets an iterative walk skip layers it already
//! knows; how many entries it may hold must not change what a lookup
//! answers. Each seed's ct-corpus scan runs at the default
//! `--cache-size`, at 50 000 and at 500 entries, and every name must end
//! with the same status and the same answer set at every size.
//!
//! 50 entries (one per shard) is left out on purpose: there a cold
//! lookup can fail for a reason that has nothing to do with eviction
//! (ROADMAP item 11 names the case).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use zdns::framework::{run_sim_scan, Conf};
use zdns::modules::ModuleRegistry;
use zdns::netsim::InputSource;
use zdns::workloads::CtCorpus;
use zdns::zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns::zones::{SynthConfig, SyntheticUniverse, Universe};

const NAMES: u64 = 3_000;

/// Each name's status and its answers in sorted order.
type Outcomes = BTreeMap<String, (String, Vec<String>)>;

/// `zdns A --iterative --workload ct-corpus --max-names 3000 --threads
/// 100 --seed SEED [--cache-size SIZE]` on the simulator.
fn scan(seed: u64, cache_size: Option<usize>) -> Outcomes {
    let seed_arg = seed.to_string();
    let size_arg = cache_size.map(|n| n.to_string());
    let mut args = vec![
        "A",
        "--iterative",
        "--workload",
        "ct-corpus",
        "--max-names",
        "3000",
        "--threads",
        "100",
        "--seed",
        &seed_arg,
    ];
    if let Some(size) = &size_arg {
        args.extend(["--cache-size", size]);
    }
    let conf = Conf::parse(args).expect("a valid scan");
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig {
        seed,
        ..SynthConfig::default()
    }));
    let module = ModuleRegistry::standard().get("A").expect("module A");
    let mut source = CtCorpus::new(seed, TABLE3_CCTLDS, TABLE3_NGTLDS).into_stream(NAMES);
    let outcomes = Arc::new(Mutex::new(Outcomes::new()));
    let sink = Arc::clone(&outcomes);
    run_sim_scan(
        &conf,
        universe as Arc<dyn Universe>,
        module,
        std::iter::from_fn(move || source.next_name()),
        move |o| {
            let mut answers: Vec<String> = o.data["answers"]
                .as_array()
                .map(|list| list.iter().map(|a| a.to_string()).collect())
                .unwrap_or_default();
            answers.sort();
            sink.lock()
                .insert(o.name, (o.status.as_str().to_string(), answers));
        },
    );
    let outcomes = std::mem::take(&mut *outcomes.lock());
    assert_eq!(
        outcomes.len() as u64,
        NAMES,
        "seed {seed}: one line per name"
    );
    outcomes
}

#[test]
fn every_name_answers_the_same_at_every_cache_size() {
    for seed in 1..=4 {
        let default = scan(seed, None);
        for size in [50_000, 500] {
            let pressed = scan(seed, Some(size));
            let differ: Vec<_> = default
                .iter()
                .filter(|(name, want)| pressed.get(*name) != Some(want))
                .collect();
            assert!(
                differ.is_empty(),
                "seed {seed}, --cache-size {size}: {} of {NAMES} names differ from the \
                 default size, first {:?} (got {:?})",
                differ.len(),
                differ[0],
                pressed.get(differ[0].0),
            );
        }
    }
}
