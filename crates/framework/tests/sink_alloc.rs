//! The streaming sink's zero-alloc property, enforced by the counting
//! allocator: once its buffer has grown to the high-water mark,
//! [`zdns_framework::output::write_line`] serializes an output line —
//! shaping, escaping, number formatting and all — without touching the
//! allocator, for every field group. This is the serialization half of
//! the pipeline's per-output cost; [`to_line`] (the one-shot form) is
//! the allocating path it replaces on the hot loop.

use zdns_core::alloc_count::{thread_allocations, CountingAllocator};
use zdns_core::Status;
use zdns_framework::output::{to_line, write_line};
use zdns_framework::OutputGroup;
use zdns_modules::ModuleOutput;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn referral_sized_output() -> ModuleOutput {
    ModuleOutput {
        name: "stream.sink.test".into(),
        module: "A",
        status: Status::NoError,
        data: serde_json::json!({
            "answers": [
                {"answer": "192.0.2.1", "type": "A", "ttl": 300},
                {"answer": "192.0.2.2", "type": "A", "ttl": 300},
                {"answer": "192.0.2.3", "type": "A", "ttl": 300},
            ],
            "additionals": [{"answer": "198.51.100.1", "type": "A"}],
            "flags": {"authoritative": true, "recursion_available": false},
            "resolver": "203.0.113.7:53",
            "protocol": "udp",
        }),
        trace: vec![
            serde_json::json!({"depth": 1, "zone": ".", "cached": false}),
            serde_json::json!({"depth": 2, "zone": "test.", "cached": true}),
        ],
    }
}

#[test]
fn write_line_is_allocation_free_once_warm() {
    let output = referral_sized_output();
    let mut buf = String::new();
    for group in [
        OutputGroup::Short,
        OutputGroup::Normal,
        OutputGroup::Long,
        OutputGroup::Trace,
    ] {
        // Warm the buffer to this group's line length.
        for _ in 0..4 {
            write_line(&output, group, &mut buf);
        }
        let before = thread_allocations();
        for _ in 0..1_000 {
            write_line(&output, group, &mut buf);
        }
        let allocs = thread_allocations() - before;
        assert_eq!(
            allocs, 0,
            "{group:?}: write_line allocated {allocs} times over 1000 lines"
        );
        // And it still produces exactly the one-shot rendering.
        assert_eq!(buf, to_line(&output, group), "{group:?}");
    }
}

#[test]
fn one_shot_to_line_allocates_as_expected() {
    // Sanity check on the measurement itself: the allocating path must
    // register against the same counter the zero-alloc claim uses.
    let output = referral_sized_output();
    let before = thread_allocations();
    let line = to_line(&output, OutputGroup::Trace);
    assert!(thread_allocations() - before > 0);
    assert!(line.contains("stream.sink.test"));
}

/// The whole result path of an iterative lookup, on a warm cache: module
/// `A`'s machine (start + every response), its shaping of the result into
/// a `ModuleOutput`, and `write_line` under the default `normal` group.
/// The universe's answers are produced outside the counted region — the
/// same accounting as zbench's `core.machine.iterative_allocs_per_lookup`
/// (459 before traces were recorded on demand and `data` was built once;
/// ~53 after). The budget leaves room for name-shape drift, not for a
/// second rendering of anything.
#[test]
fn warm_iterative_lookup_stays_inside_its_allocation_budget() {
    use std::sync::Arc;
    use zdns_framework::{runner, Conf};
    use zdns_modules::{ModuleRegistry, ModuleSink};
    use zdns_netsim::{ClientEvent, OutQuery, StepStatus};
    use zdns_workloads::CtCorpus;
    use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

    /// Run one of the machine's own calls, adding what it allocates to
    /// `total` once the cache is warm.
    fn counting(warm: bool, total: &mut u64, step: impl FnOnce() -> StepStatus) -> StepStatus {
        let before = thread_allocations();
        let status = step();
        if warm {
            *total += thread_allocations() - before;
        }
        status
    }

    const BUDGET_PER_LOOKUP: f64 = 80.0;
    const WARMUP: u64 = 1_500;
    const MEASURED: u64 = 400;

    let conf = Conf::parse(["A", "--iterative", "--seed", "1"]).unwrap();
    assert_eq!(conf.output, OutputGroup::Normal);
    let universe = SyntheticUniverse::new(SynthConfig {
        seed: conf.seed,
        ..SynthConfig::default()
    });
    let resolver = runner::resolver_for(&conf, &universe);
    let module = ModuleRegistry::standard().get("A").unwrap();
    let line = Arc::new(parking_lot::Mutex::new((String::new(), 0u64)));
    let l2 = Arc::clone(&line);
    let group = conf.output;
    let sink: ModuleSink = Arc::new(move |output| {
        let (buf, lines) = &mut *l2.lock();
        write_line(&output, group, buf);
        *lines += 1;
    });

    let mut counted = 0u64;
    let mut out: Vec<OutQuery> = Vec::with_capacity(4);
    let mut queue: std::collections::VecDeque<OutQuery> = Default::default();
    let names = CtCorpus::new(conf.seed, 486, 1211).into_stream(WARMUP + MEASURED);
    for (i, input) in names.enumerate() {
        let measured = i as u64 >= WARMUP;
        let mut machine = module.make_machine(&input, &resolver, sink.clone());
        let mut status = counting(measured, &mut counted, || machine.start(0, &mut out));
        queue.extend(out.drain(..));
        while matches!(status, StepStatus::Running) {
            let oq = queue
                .pop_front()
                .expect("a running machine has a query out");
            // The simulator's delivery without its event heap.
            let event = match universe.respond(oq.to, &oq.question) {
                Some(auth) => ClientEvent::Response {
                    tag: oq.tag,
                    from: oq.to,
                    message: zdns_wire::MsgRef::Owned(auth.to_message(&oq.to_message())),
                    protocol: oq.protocol,
                },
                None => ClientEvent::Timeout { tag: oq.tag },
            };
            status = counting(measured, &mut counted, || {
                machine.on_event(event, 1_000, &mut out)
            });
            queue.extend(out.drain(..));
        }
        queue.clear();
    }
    assert_eq!(line.lock().1, WARMUP + MEASURED, "one line per lookup");
    let per_lookup = counted as f64 / MEASURED as f64;
    println!("warm iterative lookup: {per_lookup:.1} allocations (budget {BUDGET_PER_LOOKUP})");
    assert!(
        per_lookup <= BUDGET_PER_LOOKUP,
        "{per_lookup:.1} allocations per warm iterative lookup, budget {BUDGET_PER_LOOKUP}"
    );
}
