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
use zdns_modules::{Data, ModuleOutput};

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
        })
        .into(),
        trace: vec![
            serde_json::json!({"depth": 1, "zone": ".", "cached": false}),
            serde_json::json!({"depth": 2, "zone": "test.", "cached": true}),
        ],
    }
}

/// The same output as a raw lookup emits it: a result whose records are
/// written straight into the line ([`Data::lookup`]).
fn raw_lookup_output() -> ModuleOutput {
    use zdns_core::{Detail, LookupResult};
    use zdns_wire::{Flags, RData, Record, RecordType};

    let owner: zdns_wire::Name = "stream.sink.test".parse().unwrap();
    let a = |last: u8| Record::new(owner.clone(), 300, RData::A([192, 0, 2, last].into()));
    let result = LookupResult {
        name: owner.clone(),
        qtype: RecordType::A,
        status: Status::NoError,
        answers: vec![a(1), a(2), a(3)],
        authorities: vec![Record::new(owner.clone(), 300, RData::Ns(owner.clone()))],
        additionals: vec![a(4)],
        flags: Some(Flags {
            response: true,
            authoritative: true,
            ..Flags::default()
        }),
        resolver: Some([203, 0, 113, 7].into()),
        protocol: "udp",
        trace: Vec::new(),
        delegation: None,
        queries_sent: 1,
        retries_used: 0,
        duration: 1_000,
        timestamp: 2_000,
    };
    ModuleOutput {
        data: Data::lookup(result, Detail::Trace, None),
        ..referral_sized_output()
    }
}

#[test]
fn write_line_is_allocation_free_once_warm() {
    for output in [referral_sized_output(), raw_lookup_output()] {
        write_line_allocates_nothing_once_warm(&output);
    }
}

fn write_line_allocates_nothing_once_warm(output: &ModuleOutput) {
    let mut buf = String::new();
    for group in [
        OutputGroup::Short,
        OutputGroup::Normal,
        OutputGroup::Long,
        OutputGroup::Trace,
    ] {
        // Warm the buffer to this group's line length.
        for _ in 0..4 {
            write_line(output, group, &mut buf);
        }
        let before = thread_allocations();
        for _ in 0..1_000 {
            write_line(output, group, &mut buf);
        }
        let allocs = thread_allocations() - before;
        assert_eq!(
            allocs, 0,
            "{group:?}: write_line allocated {allocs} times over 1000 lines"
        );
        // And it still produces exactly the one-shot rendering.
        assert_eq!(buf, to_line(output, group), "{group:?}");
    }
}

/// A worker's block of finished outputs holds up to 1 000 of them until
/// the sink writes them, so an output's size is paid a thousand times
/// over: a raw lookup's result stays behind a box.
#[test]
fn a_module_output_stays_small() {
    let size = std::mem::size_of::<ModuleOutput>();
    println!("ModuleOutput: {size} bytes");
    assert!(size <= 128, "ModuleOutput is {size} bytes");
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
/// ~53 after; ~29 once names rendered in one pass and `data` left out what
/// `normal` does not print; ~27 once the finish path moved what it owns
/// and candidate lists were sized; ~12 once `data` was written straight
/// into the line and record vectors were sized to their section; ~6 once
/// the result came back by value, with no shared slot and no result
/// closure, and a negative answer's SOA streamed into the line). The
/// budget leaves room for name-shape drift, not for a second rendering
/// of anything.
#[test]
fn warm_iterative_lookup_stays_inside_its_allocation_budget() {
    use std::sync::Arc;
    use zdns_framework::{runner, Conf};
    use zdns_modules::{ModuleRegistry, ModuleSink};
    use zdns_netsim::{ClientEvent, OutQuery, StepStatus};
    use zdns_workloads::CtCorpus;
    use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
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

    const BUDGET_PER_LOOKUP: f64 = 7.2;
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
    let names =
        CtCorpus::new(conf.seed, TABLE3_CCTLDS, TABLE3_NGTLDS).into_stream(WARMUP + MEASURED);
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

/// One warm external `A` lookup end to end, as `zdns A --name-servers`
/// runs it: module `A` builds the machine, the machine sends its query
/// and takes the answer, the module shapes the result and the sink writes
/// its line under the default `normal` group. The answers are encoded
/// outside the counted region. It was 46 allocations per line while
/// `data` carried the `flags` object `normal` never prints, a name's text
/// took a string per label and the input, the resolver text and every
/// string answer were copied; 23 while `data` was a tree of a string per
/// key, record and value; 8 while the result left the machine through a
/// closure into a shared slot and named its resolver in a `String`. It is
/// 4 now: the module machine's box, the input's text, the answer vector
/// and the boxed result in `data`. The budget leaves room for name-shape
/// drift, not for a second rendering of anything.
#[test]
fn warm_external_lookup_stays_inside_its_allocation_budget() {
    use std::sync::Arc;
    use zdns_core::Resolver;
    use zdns_framework::Conf;
    use zdns_modules::{ModuleRegistry, ModuleSink};
    use zdns_netsim::{ClientEvent, OutQuery, Protocol, StepStatus};
    use zdns_wire::{MessageView, MsgRef, RData, Record};

    const BUDGET_PER_LOOKUP: f64 = 5.0;
    const WARMUP: usize = 200;
    const MEASURED: usize = 1_000;

    let conf = Conf::parse(["A", "--name-servers", "127.0.0.1"]).unwrap();
    assert_eq!(conf.output, OutputGroup::Normal);
    let resolver = Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("A").unwrap();
    let line = Arc::new(parking_lot::Mutex::new((String::new(), 0usize)));
    let l2 = Arc::clone(&line);
    let group = conf.output;
    let sink: ModuleSink = Arc::new(move |output| {
        let (buf, lines) = &mut *l2.lock();
        write_line(&output, group, buf);
        *lines += 1;
    });

    let inputs: Vec<String> = (0..WARMUP + MEASURED)
        .map(|i| format!("host{i}.sink-alloc.test"))
        .collect();
    let mut out: Vec<OutQuery> = Vec::with_capacity(4);
    let mut counted = 0u64;
    for (i, input) in inputs.iter().enumerate() {
        let before = thread_allocations();
        let mut machine = module.make_machine(input, &resolver, sink.clone());
        assert!(matches!(machine.start(0, &mut out), StepStatus::Running));
        let mut spent = thread_allocations() - before;

        let query = out.pop().expect("an external machine sends one query");
        let mut answer = query.to_message();
        answer.flags.response = true;
        answer.flags.recursion_available = true;
        answer.answers.push(Record::new(
            query.question.name.clone(),
            300,
            RData::A(std::net::Ipv4Addr::new(192, 0, 2, (i % 250) as u8)),
        ));
        let bytes = answer.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();

        let before = thread_allocations();
        let event = ClientEvent::Response {
            tag: query.tag,
            from: query.to,
            message: MsgRef::View(view),
            protocol: Protocol::Udp,
        };
        assert!(matches!(
            machine.on_event(event, 1_000, &mut out),
            StepStatus::Done(_)
        ));
        spent += thread_allocations() - before;
        if i >= WARMUP {
            counted += spent;
        }
    }
    let (last, lines) = &*line.lock();
    assert_eq!(*lines, WARMUP + MEASURED, "one line per lookup");
    assert!(
        last.contains("\"answers\":[") && !last.contains("\"flags\""),
        "{last}"
    );
    let per_lookup = counted as f64 / MEASURED as f64;
    println!("warm external lookup: {per_lookup:.1} allocations (budget {BUDGET_PER_LOOKUP})");
    assert!(
        per_lookup <= BUDGET_PER_LOOKUP,
        "{per_lookup:.1} allocations per warm external lookup, budget {BUDGET_PER_LOOKUP}"
    );
}
