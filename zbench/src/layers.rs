//! The traced pass: every per-layer metric of `BENCHMARK.json`.
//!
//! Three kinds of number, all taken from this file and `paths.rs`, around
//! public functions of the program — nothing inside the program is
//! instrumented:
//!
//! * micro-timings of one layer call (`*_ns`, `*_us`, `*_ms`): the median
//!   over [`ROUNDS`] rounds of a fixed iteration count, spread printed;
//! * counters and shares the program reports about itself while running a
//!   short pass of each end-to-end workload;
//! * the `path.*` budget from the span-traced replicas, and the `harness.*`
//!   figures that show the load generators are not the bottleneck.

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Instant;

use zdns_core::{
    Admission, BatchIo, Cache, CacheKey, ConcurrentPacer, CreditPool, Driver, PacerConfig,
    PacketCache, PacketLookup, Reactor, ReactorConfig, Resolver, ResolverConfig, TokenBlock,
};
use zdns_framework::checkpoint::{output_done_set, CheckpointKeeper};
use zdns_framework::conf::OutputGroup;
use zdns_framework::output::write_line;
use zdns_framework::Conf;
use zdns_modules::{ModuleOutput, ModuleSink};
use zdns_netsim::{
    ClientEvent, Engine, EngineConfig, InputSource, JobOutcome, OutQuery, Protocol, SimClient,
    StepStatus,
};
use zdns_pacing::AtomicBucket;
use zdns_wire::{
    encode_query_into, Cookie, Flags, Message, MessageView, MsgRef, Name, Question, RData, Record,
    RecordType, ScratchBuf,
};
use zdns_workloads::CtCorpus;
use zdns_zones::{ExplicitUniverse, Universe, Zone};

use crate::client::{self, EchoPeer, MixFilter, ServeClient};
use crate::names;
use crate::paths::{self, PathReport};
use crate::responder::{self, Responder};
use crate::stats::{self, SliceClock, SpanLog};
use crate::sys::{self, DGRAM};
use crate::workloads::{self, EndToEnd, CORPUS_CCTLDS, CORPUS_NGTLDS, SCRATCH_DIR};

/// Rounds behind every micro-timing.
const ROUNDS: usize = 15;

/// Where the span logs go.
pub const OUT_DIR: &str = "zbench/target/zbench-out";

/// Slices of each end-to-end workload the traced pass runs for its
/// counters (bounds do not apply to so short a run).
const COUNTER_SLICES: u64 = 32;

struct Pass {
    metrics: BTreeMap<String, f64>,
    /// Checks that failed on the way; the pass goes on and says so.
    failed: u64,
}

impl Pass {
    /// A correctness check of the pass itself: a failure is counted and
    /// reported, the metrics are printed all the same.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("zbench: CHECK FAILED: {}", what());
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        eprintln!("  {name:<46} {value:>14.3}");
        self.metrics.insert(name.to_string(), value);
    }

    /// Record the median of per-round values, printing the spread.
    fn timing(&mut self, name: &str, rounds: &[f64]) -> f64 {
        let median = stats::median(rounds);
        eprintln!(
            "  {name:<46} {median:>14.3}   (IQR/median {:.3}, {} rounds)",
            stats::spread(rounds),
            rounds.len()
        );
        self.metrics.insert(name.to_string(), median);
        median
    }

    /// Time `ROUNDS` rounds of `iters` calls of `f`; record ns per call.
    fn time(&mut self, name: &str, iters: usize, f: impl FnMut(usize)) -> f64 {
        self.time_in(name, 1.0, iters, f)
    }

    /// [`Pass::time`] in a coarser unit: `ns_per_unit` nanoseconds each.
    fn time_in(
        &mut self,
        name: &str,
        ns_per_unit: f64,
        iters: usize,
        mut f: impl FnMut(usize),
    ) -> f64 {
        let rounds: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let started = Instant::now();
                for i in 0..iters {
                    f(i);
                }
                started.elapsed().as_nanos() as f64 / iters as f64 / ns_per_unit
            })
            .collect();
        self.timing(name, &rounds)
    }
}

/// The two per-layer metrics that differ from workload to workload.
const HARNESS_CPU_SHARE: &str = "harness.cpu_share";
const TRACE_OVERHEAD_SHARE: &str = "trace.overhead_share";

/// What one traced pass measured.
pub struct Traced {
    /// Every per-layer metric that is the same whichever workload is asked
    /// about.
    metrics: BTreeMap<String, f64>,
    /// [`HARNESS_CPU_SHARE`] and [`TRACE_OVERHEAD_SHARE`], per workload.
    per_workload: BTreeMap<&'static str, (f64, f64)>,
    /// Operations of the short end-to-end passes and the replicas, and how
    /// many of them (and of the pass's own checks) failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    /// Every per-layer metric, as reported for `workload`.
    pub fn metrics_for(&self, workload: &str) -> BTreeMap<String, f64> {
        let mut metrics = self.metrics.clone();
        if let Some((cpu_share, overhead_share)) = self.per_workload.get(workload) {
            metrics.insert(HARNESS_CPU_SHARE.to_string(), *cpu_share);
            metrics.insert(TRACE_OVERHEAD_SHARE.to_string(), *overhead_share);
        }
        metrics
    }
}

/// Run the traced pass: every per-layer metric, and the span log of each
/// workload in `span_files_for` written to [`OUT_DIR`].
pub fn traced_pass(seed: u64, quick: bool, span_files_for: &[&str]) -> Result<Traced, String> {
    let started = Instant::now();
    let mut pass = Pass {
        metrics: BTreeMap::new(),
        failed: 0,
    };

    eprintln!("zbench: short end-to-end passes (program counters)");
    let mut e2e: BTreeMap<&str, EndToEnd> = BTreeMap::new();
    let mut flood_ctx_per_op = 0.0;
    for w in workloads::WORKLOADS {
        let ctx_before = sys::context_switches();
        let e = workloads::run(w, seed, COUNTER_SLICES, true)?;
        if w == "scan_flood" {
            flood_ctx_per_op = (sys::context_switches() - ctx_before) as f64 / e.attempted as f64;
        }
        for note in &e.notes {
            eprintln!("{w}: CHECK FAILED: {note}");
        }
        for (name, value) in &e.counters {
            pass.set(name, *value);
        }
        e2e.insert(w, e);
    }
    pass.set("framework.pipeline.ctx_switches_per_op", flood_ctx_per_op);

    std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("{SCRATCH_DIR}: {e}"))?;
    eprintln!("zbench: layer micro-timings (median of {ROUNDS} rounds)");
    wire_layers(&mut pass)?;
    transport_layers(&mut pass)?;
    let responder = Responder::start(false).map_err(|e| e.to_string())?;
    let reactor_ns = reactor_layers(&mut pass, &responder, seed)?;
    machine_layers(&mut pass, seed)?;
    cache_layers(&mut pass);
    serve_layers(&mut pass, seed)?;
    pacer_layers(&mut pass);
    sim_side_layers(&mut pass, seed)?;
    framework_layers(&mut pass, &responder)?;
    pass.set(
        "framework.pipeline.overhead_ns_per_lookup",
        1e9 / e2e["scan_flood"].ops_per_s - reactor_ns,
    );

    eprintln!("zbench: load generators");
    let serve = &e2e["serve_mix"];
    harness_layers(
        &mut pass,
        &responder,
        seed,
        serve.ops_per_s,
        workloads::ops_per_slice("serve_mix") as f64 / serve.slice_wall_median_s,
        quick,
    )?;

    eprintln!("zbench: traced replicas");
    let ops = if quick { 2_000 } else { 20_000 };
    let scan = paths::measure(ops, |log| paths::scan(&responder, seed, ops, log))?;
    let sim = paths::measure(ops / 4, |log| paths::sim(seed, ops / 4, log))?;
    let serve = paths::measure(ops, |log| paths::serve(seed, ops, log))?;
    let span_ns = span_overhead_ns();
    pass.set("trace.span_overhead_ns", span_ns);
    let mut per_workload = BTreeMap::new();
    for (path, report, workloads) in [
        ("scan", &scan, &["scan_flood", "scan_durable"][..]),
        ("sim", &sim, &["sim_iterative"][..]),
        ("serve", &serve, &["serve_mix"][..]),
    ] {
        report_path(&mut pass, path, report);
        pass.check(report.failed == 0, || {
            format!("{path} replica: {} operations failed", report.failed)
        });
        let overhead_share = (report.traced_ns_per_op - report.ns_per_op) / report.ns_per_op;
        for &workload in workloads {
            let cpu_share = e2e[workload].harness_cpu_share;
            eprintln!("  {workload}: {HARNESS_CPU_SHARE} {cpu_share:.3}, {TRACE_OVERHEAD_SHARE} {overhead_share:.3}");
            per_workload.insert(workload, (cpu_share, overhead_share));
            if !span_files_for.contains(&workload) {
                continue;
            }
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            let file = format!("{OUT_DIR}/trace-{workload}.json");
            std::fs::write(&file, stats::spans_json(&report.spans))
                .map_err(|e| format!("{file}: {e}"))?;
            eprintln!(
                "zbench: {} spans written to {file}; end to end, {workload} takes {:.0} ns per \
                 operation (1e9/ops_per_s, all threads overlapped) against the single-threaded \
                 replica's {:.0} ns",
                report.spans.len(),
                1e9 / e2e[workload].ops_per_s,
                report.ns_per_op
            );
        }
    }
    let _ = std::fs::remove_dir_all(SCRATCH_DIR);
    eprintln!(
        "zbench: traced pass took {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let replica_ops = u64::from(ops) * 2 + u64::from(ops / 4);
    Ok(Traced {
        metrics: pass.metrics,
        per_workload,
        attempted: e2e.values().map(|e| e.attempted).sum::<u64>() + replica_ops,
        failed: e2e.values().map(|e| e.failed).sum::<u64>() + pass.failed,
    })
}

fn report_path(pass: &mut Pass, path: &str, report: &PathReport) {
    eprintln!("  {path} path, self time per operation:");
    for (name, ns) in &report.layers {
        eprintln!("    {name:<40} {ns:>12.1} ns");
    }
    eprintln!(
        "    {:<40} {:>12.1} ns\n    {:<40} {:>12.1} ns\n    {:<40} {:>12.1} ns",
        "layer sum",
        report.layer_sum_ns,
        "residual (glue + span cost)",
        report.traced_ns_per_op - report.layer_sum_ns,
        "= traced path time",
        report.traced_ns_per_op,
    );
    pass.set(&format!("path.{path}_ns_per_op"), report.ns_per_op);
    pass.set(&format!("path.{path}_layer_sum_ns"), report.layer_sum_ns);
    pass.set(
        &format!("path.{path}_residual_share"),
        report.residual_share,
    );
}

/// What one empty span costs: the two clock reads and the log push.
fn span_overhead_ns() -> f64 {
    let n = 200_000;
    let mut log = SpanLog::new(true, n);
    let started = Instant::now();
    for i in 0..n {
        log.span("empty", i as u32, |_| {});
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

// ---------------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------------

/// The answer the responder gives to an A query for `name`, as bytes.
fn responder_answer(name: &str, id: u16) -> Result<Vec<u8>, String> {
    let q = Question::new(name.parse().map_err(|_| "bad name")?, RecordType::A);
    let query = Message::query(id, q).encode().map_err(|e| e.to_string())?;
    let mut buf = [0u8; DGRAM];
    buf[..query.len()].copy_from_slice(&query);
    let parsed =
        responder::parse_query(&buf, query.len()).ok_or("responder refused a bench query")?;
    let n = responder::write_answer(&mut buf, parsed, false);
    Ok(buf[..n].to_vec())
}

/// A referral-shaped response: 13 NS records and their 13 glue addresses.
fn referral_bytes() -> Result<Vec<u8>, String> {
    let name = |s: &str| s.parse::<Name>().map_err(|_| format!("bad name {s}"));
    let mut m = Message::query(7, Question::new(name("www.example.com")?, RecordType::A));
    m.flags.response = true;
    for i in 0..13u8 {
        let ns = name(&format!("{}.gtld-servers.net", (b'a' + i) as char))?;
        m.authorities
            .push(Record::new(name("com")?, 172_800, RData::Ns(ns.clone())));
        m.additionals.push(Record::new(
            ns,
            172_800,
            RData::A(Ipv4Addr::new(192, 5, 6, 30 + i)),
        ));
    }
    m.encode().map_err(|e| e.to_string())
}

fn wire_layers(pass: &mut Pass) -> Result<(), String> {
    let dotted = names::scan_name(names::LIVE, 1, 123_456);
    let question = Question::new(dotted.parse().map_err(|_| "bad name")?, RecordType::A);
    let cookie = Cookie::client(*b"zbenchCK");
    let mut scratch = ScratchBuf::new();
    pass.time("wire.encode_query_ns", 50_000, |i| {
        scratch.reset();
        let _ = encode_query_into(&mut scratch, i as u16, &question, true, Some(&cookie));
        std::hint::black_box(scratch.len());
    });
    let answer = responder_answer(&dotted, 9)?;
    pass.time("wire.view_parse_ns", 50_000, |_| {
        let view = MessageView::parse(std::hint::black_box(&answer));
        let addr = view.ok().and_then(|v| v.answers().find_map(|r| r.a_addr()));
        std::hint::black_box(addr);
    });
    pass.time("wire.name_parse_ns", 50_000, |_| {
        std::hint::black_box(std::hint::black_box(dotted.as_str()).parse::<Name>().ok());
    });
    let referral = referral_bytes()?;
    pass.time("wire.owned_decode_ns", 5_000, |_| {
        std::hint::black_box(Message::decode(std::hint::black_box(&referral)).ok());
    });
    let response = Message::decode(&answer).map_err(|e| e.to_string())?;
    pass.time("wire.encode_response_ns", 50_000, |_| {
        scratch.reset();
        let _ = std::hint::black_box(&response).encode_into(&mut scratch);
        std::hint::black_box(scratch.len());
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// core.transport
// ---------------------------------------------------------------------------

/// Send then receive the same 512 datagrams over a loopback socket pair,
/// through `BatchIo`, at batch depth 32 and 1.
fn transport_layers(pass: &mut Pass) -> Result<(), String> {
    const DGRAMS: usize = 512;
    let bind = || -> Result<UdpSocket, String> {
        let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
        sys::set_recv_buffer(std::os::fd::AsRawFd::as_raw_fd(&s), 4 << 20);
        Ok(s)
    };
    let (tx, rx) = (bind()?, bind()?);
    let to = rx.local_addr().map_err(|e| e.to_string())?;
    let payload = responder_answer(&names::scan_name(names::LIVE, 1, 1), 1)?;
    let msgs: Vec<(&[u8], SocketAddr)> = (0..DGRAMS).map(|_| (payload.as_slice(), to)).collect();
    for (suffix, mut tx_io, mut rx_io) in [
        ("", BatchIo::new(32), BatchIo::new(32)),
        ("_b1", BatchIo::per_datagram(1), BatchIo::per_datagram(1)),
    ] {
        let (mut send, mut recv) = (Vec::new(), Vec::new());
        let mut statuses = Vec::with_capacity(DGRAMS);
        for _ in 0..ROUNDS {
            statuses.clear();
            let started = Instant::now();
            let sent = tx_io
                .send_batch(&tx, &msgs, &mut statuses, &mut |_| {})
                .sent;
            send.push(started.elapsed().as_nanos() as f64 / sent.max(1) as f64);
            let started = Instant::now();
            let mut got = 0u64;
            while got < sent {
                let batch = rx_io.recv_into_arena(&rx);
                if batch.count == 0 {
                    break;
                }
                got += batch.count as u64;
            }
            recv.push(started.elapsed().as_nanos() as f64 / got.max(1) as f64);
            pass.check(got == sent, || {
                format!("loopback lost {} of {sent} datagrams", sent - got)
            });
        }
        pass.timing(&format!("core.transport.send_ns_per_dgram{suffix}"), &send);
        pass.timing(&format!("core.transport.recv_ns_per_dgram{suffix}"), &recv);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// core.reactor
// ---------------------------------------------------------------------------

/// The bare reactor: `Reactor::run_scan` over prebuilt external machines,
/// no module, no pipeline, no output. Returns ns per lookup.
fn reactor_layers(pass: &mut Pass, responder: &Responder, seed: u64) -> Result<f64, String> {
    const LOOKUPS: usize = 10_000;
    let dest = SocketAddr::V4(responder.addr());
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 1_000,
            source: Ipv4Addr::LOCALHOST,
            io_backend: zdns_core::IoBackend::Mmsg,
            ..ReactorConfig::default()
        },
        Arc::new(move |_| dest),
    )
    .map_err(|e| e.to_string())?;
    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::LOCALHOST]));
    let questions: Vec<Question> = (0..LOOKUPS as u64)
        .map(|i| {
            names::scan_name('r', seed, i)
                .parse()
                .map(|n| Question::new(n, RecordType::A))
        })
        .collect::<Result<_, _>>()
        .map_err(|_| "bad reactor bench name")?;
    let (mut ns, mut allocs) = (Vec::new(), f64::INFINITY);
    for _ in 0..ROUNDS {
        let mut machines: Vec<Box<dyn SimClient>> = questions
            .iter()
            .map(|q| resolver.machine(q.clone(), None))
            .collect();
        let mut done = 0usize;
        sys::count_allocations(true);
        let before = sys::thread_allocations();
        let started = Instant::now();
        reactor.run_scan(
            &mut || {
                machines
                    .pop()
                    .map_or(Admission::Exhausted, Admission::Admit)
            },
            &mut |outcome: Option<JobOutcome>| {
                done += usize::from(outcome.is_some_and(|o| o.success))
            },
        );
        ns.push(started.elapsed().as_nanos() as f64 / LOOKUPS as f64);
        allocs = allocs.min((sys::thread_allocations() - before) as f64 / LOOKUPS as f64);
        sys::count_allocations(false);
        pass.check(done == LOOKUPS, || {
            format!("bare reactor finished {done} of {LOOKUPS} lookups")
        });
    }
    pass.set("core.reactor.allocs_per_lookup", allocs);
    Ok(pass.timing("core.reactor.scan_ns_per_lookup", &ns))
}

// ---------------------------------------------------------------------------
// core.machine, modules
// ---------------------------------------------------------------------------

/// Step external and iterative machines by hand: no sockets, no engine.
fn machine_layers(pass: &mut Pass, seed: u64) -> Result<(), String> {
    const MACHINES: usize = 2_000;
    let sink: ModuleSink = Arc::new(|o| {
        std::hint::black_box(o);
    });

    // External: start, then the responder's answer as a borrowed view.
    let (module, resolver) = paths::external_a()?;
    let inputs: Vec<String> = (0..MACHINES as u64)
        .map(|i| names::scan_name('m', seed, i))
        .collect();
    let answers: Vec<Vec<u8>> = inputs
        .iter()
        .map(|n| responder_answer(n, 0))
        .collect::<Result<_, _>>()?;
    let mut out: Vec<OutQuery> = Vec::with_capacity(4);
    let mut make = Vec::new();
    let mut step = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut machines: Vec<Box<dyn SimClient>> = inputs
            .iter()
            .map(|input| module.make_machine(input, &resolver, sink.clone()))
            .collect();
        make.push(started.elapsed().as_nanos() as f64 / MACHINES as f64);
        let started = Instant::now();
        for (machine, answer) in machines.iter_mut().zip(&answers) {
            out.clear();
            machine.start(0, &mut out);
            let oq = out.pop().ok_or("external machine emitted no query")?;
            let view = MessageView::parse(answer).map_err(|e| e.to_string())?;
            let event = ClientEvent::Response {
                tag: oq.tag,
                from: oq.to,
                message: MsgRef::View(view.with_id(oq.id)),
                protocol: Protocol::Udp,
            };
            if !matches!(
                machine.on_event(event, 1_000, &mut out),
                StepStatus::Done(_)
            ) {
                return Err("external machine did not finish on its answer".into());
            }
        }
        // Two calls per machine: start and on_event.
        step.push(started.elapsed().as_nanos() as f64 / (2 * MACHINES) as f64);
    }
    pass.timing("modules.make_machine_ns", &make);
    pass.timing("core.machine.external_step_ns", &step);

    // Iterative: the machine against the universe's answers, timing only
    // the machine's own calls (and counting only its allocations).
    let (universe, resolver) = paths::iterative_a(seed)?;
    let mut source =
        CtCorpus::new(seed, CORPUS_CCTLDS, CORPUS_NGTLDS).into_stream((ROUNDS * 400) as u64);
    let (mut step, mut allocs) = (Vec::new(), f64::INFINITY);
    for _ in 0..ROUNDS {
        let mut meter = MachineMeter::default();
        for _ in 0..400 {
            let input = source.next_name().ok_or("corpus ran dry")?;
            let mut machine = module.make_machine(&input, &resolver, sink.clone());
            let mut queue: std::collections::VecDeque<OutQuery> = Default::default();
            out.clear();
            let mut status = meter.call(|| machine.start(0, &mut out));
            queue.extend(out.drain(..));
            while matches!(status, StepStatus::Running) {
                let oq = queue.pop_front().ok_or("iterative machine wedged")?;
                let event = paths::universe_event(&universe, &oq);
                status = meter.call(|| machine.on_event(event, 1_000, &mut out));
                queue.extend(out.drain(..));
            }
        }
        step.push(meter.ns as f64 / meter.calls as f64);
        allocs = allocs.min(meter.allocations as f64 / 400.0);
    }
    pass.timing("core.machine.iterative_step_ns", &step);
    pass.set("core.machine.iterative_allocs_per_lookup", allocs);
    Ok(())
}

/// Time and allocation count of the machine's own calls, with everything
/// between them (the universe answering) left out.
#[derive(Default)]
struct MachineMeter {
    ns: u128,
    calls: u64,
    allocations: u64,
}

impl MachineMeter {
    fn call(&mut self, step: impl FnOnce() -> StepStatus) -> StepStatus {
        sys::count_allocations(true);
        let before = sys::thread_allocations();
        let started = Instant::now();
        let status = step();
        self.ns += started.elapsed().as_nanos();
        self.allocations += sys::thread_allocations() - before;
        sys::count_allocations(false);
        self.calls += 1;
        status
    }
}

// ---------------------------------------------------------------------------
// core.cache, core.packet_cache, core.serve
// ---------------------------------------------------------------------------

fn bench_name(i: usize) -> Name {
    format!("c{i}.zbench.test").parse().expect("static shape")
}

fn a_record(name: &Name, i: usize) -> Record {
    Record::new(
        name.clone(),
        names::ANSWER_TTL,
        RData::A(Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8)),
    )
}

fn cache_layers(pass: &mut Pass) {
    const ENTRIES: usize = 10_000;
    let names: Vec<Name> = (0..ENTRIES).map(bench_name).collect();
    let cache = Cache::new(600_000);
    for (i, name) in names.iter().enumerate() {
        let key = CacheKey {
            name: name.clone(),
            rtype: RecordType::A,
        };
        cache.put(key, vec![a_record(name, i)], 0);
    }
    pass.time("core.cache.get_hit_ns", ENTRIES, |i| {
        std::hint::black_box(cache.get(&names[i], RecordType::A, 1));
    });
    // Put: fresh keys into a fresh cache each round; building the entries
    // is outside the timing.
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let fresh = Cache::new(600_000);
            let entries: Vec<(CacheKey, Vec<Record>)> = names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let key = CacheKey {
                        name: name.clone(),
                        rtype: RecordType::A,
                    };
                    (key, vec![a_record(name, i)])
                })
                .collect();
            let started = Instant::now();
            for (key, records) in entries {
                fresh.put(key, records, 0);
            }
            started.elapsed().as_nanos() as f64 / ENTRIES as f64
        })
        .collect();
    pass.timing("core.cache.put_ns", &rounds);
    // Deepest cut: the TLD's NS set is cached, the three deeper suffixes
    // of a four-label name are probed and missed first.
    let zone: Name = "test".parse().expect("static name");
    let ns = Record::new(
        zone.clone(),
        172_800,
        RData::Ns("ns1.nic.test".parse().expect("static name")),
    );
    cache.put(
        CacheKey {
            name: zone,
            rtype: RecordType::NS,
        },
        vec![ns],
        0,
    );
    let deep: Vec<Name> = (0..ENTRIES)
        .map(|i| {
            format!("www.c{i}.zbench.test")
                .parse()
                .expect("static shape")
        })
        .collect();
    pass.time("core.cache.deepest_cut_ns", ENTRIES, |i| {
        std::hint::black_box(cache.deepest_cut(&deep[i], 1));
    });
}

fn hot_query(seed: u64, hot: u32, mask: u32, id: u16) -> Vec<u8> {
    let mut label = names::hot_label(seed, hot).into_bytes();
    names::apply_case_mask(&mut label, mask);
    let mut buf = [0u8; DGRAM];
    let n = names::write_query(&mut buf, id, &label);
    buf[..n].to_vec()
}

fn serve_layers(pass: &mut Pass, seed: u64) -> Result<(), String> {
    const HOT: u32 = names::HOT_NAMES as u32;
    let peer: SocketAddr = (Ipv4Addr::LOCALHOST, 50_000).into();
    let exact: Vec<Vec<u8>> = (0..HOT).map(|h| hot_query(seed, h, 0, h as u16)).collect();

    // Packet hits: every hot name queried twice before timing.
    let (mut role, resolver) = paths::hot_role(seed)?;
    for _ in 0..2 {
        for q in &exact {
            role.handle_datagram(q, peer, 1)
                .ok_or("hot name not served from cache")?;
        }
    }
    pass.time("core.serve.packet_hit_ns", HOT as usize, |i| {
        std::hint::black_box(role.handle_datagram(&exact[i], peer, 2));
    });

    // The packet cache on its own, with the entries the role just filled.
    let pc = Arc::clone(
        resolver
            .core()
            .cache
            .packet_cache()
            .ok_or("no packet cache")?,
    );
    let keys: Vec<Name> = (0..HOT)
        .map(|h| format!("{}.zbench.test", names::hot_label(seed, h)).parse())
        .collect::<Result<_, _>>()
        .map_err(|_| "bad hot name")?;
    let mut entries = Vec::new();
    for name in &keys {
        match pc.lookup(name, RecordType::A, 2) {
            PacketLookup::Hit(entry) => entries.push(entry),
            _ => return Err("hot name missing from the packet cache".into()),
        }
    }
    pass.time("core.packet_cache.lookup_ns", HOT as usize, |i| {
        std::hint::black_box(matches!(
            pc.lookup(&keys[i], RecordType::A, 2),
            PacketLookup::Hit(_)
        ));
    });
    let cookie = Cookie::client(*b"zbenchCK");
    let flags = Flags {
        recursion_desired: true,
        ..Flags::default()
    };
    let mut scratch = ScratchBuf::new();
    pass.time("core.packet_cache.serve_into_ns", HOT as usize, |i| {
        std::hint::black_box(entries[i].serve_into(
            &mut scratch,
            i as u16,
            flags,
            true,
            Some(&cookie),
            1232,
        ));
    });
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let fresh = PacketCache::new(zdns_core::DEFAULT_PACKET_CACHE_CAPACITY);
            let clones: Vec<_> = entries.iter().map(Arc::clone).collect();
            let started = Instant::now();
            for entry in clones {
                fresh.fill(entry);
            }
            started.elapsed().as_nanos() as f64 / HOT as f64
        })
        .collect();
    pass.timing("core.packet_cache.fill_ns", &rounds);

    // Record hits: a case variant the packet cache has never seen — probe
    // miss, record walk, canonical encode, packet fill, patch. Fresh role
    // per round so every variant is new again.
    let variants: Vec<Vec<u8>> = (0..HOT)
        .map(|h| hot_query(seed, h, 1 + h % 1023, h as u16))
        .collect();
    let mut record_hit = Vec::new();
    let mut miss = Vec::new();
    let fresh: Vec<Vec<u8>> = (0..HOT)
        .map(|i| {
            let mut buf = [0u8; DGRAM];
            let n = names::write_query(&mut buf, i as u16, names::fresh_label(seed, i).as_bytes());
            buf[..n].to_vec()
        })
        .collect();
    for _ in 0..ROUNDS {
        let (mut role, _) = paths::hot_role(seed)?;
        let started = Instant::now();
        for q in &variants {
            std::hint::black_box(role.handle_datagram(q, peer, 1));
        }
        record_hit.push(started.elapsed().as_nanos() as f64 / HOT as f64);
        // Misses: a forwarding machine is built and queued; nothing is sent.
        let started = Instant::now();
        for q in &fresh {
            std::hint::black_box(role.handle_datagram(q, peer, 1));
        }
        miss.push(started.elapsed().as_nanos() as f64 / HOT as f64);
        let stats = role.stats();
        pass.check(
            stats.forwarded() == u64::from(HOT) && stats.packet_fills() == u64::from(HOT),
            || {
                format!(
                    "serve layer timing took the wrong path: {} forwarded, {} packet fills",
                    stats.forwarded(),
                    stats.packet_fills()
                )
            },
        );
    }
    pass.timing("core.serve.record_hit_ns", &record_hit);
    pass.timing("core.serve.miss_forward_ns", &miss);
    Ok(())
}

// ---------------------------------------------------------------------------
// core.pacer, pacing
// ---------------------------------------------------------------------------

fn durable_pacer() -> ConcurrentPacer {
    // scan_durable's budgets: far above capacity, backoff armed.
    ConcurrentPacer::new(PacerConfig {
        rate_pps: 10_000_000.0,
        per_host_pps: 10_000_000.0,
        backoff: true,
        backoff_base: 1_000_000,
        backoff_cap: 2_000_000,
        ..PacerConfig::default()
    })
}

fn admit_round(pacer: &ConcurrentPacer, epoch: Instant, iters: usize) -> f64 {
    let mut block = TokenBlock::default();
    let started = Instant::now();
    for i in 0..iters {
        let dest = Ipv4Addr::new(203, 0, 113, 10 + (i % 16) as u8);
        let now = epoch.elapsed().as_nanos() as u64;
        std::hint::black_box(pacer.admit(&mut block, dest, now));
    }
    let ns = started.elapsed().as_nanos() as f64 / iters as f64;
    pacer.return_block(&mut block);
    ns
}

fn pacer_layers(pass: &mut Pass) {
    const ADMITS: usize = 20_000;
    let epoch = Instant::now();
    let pacer = durable_pacer();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| admit_round(&pacer, epoch, ADMITS))
        .collect();
    pass.timing("core.pacer.admit_ns", &rounds);

    // Two threads admitting at once on one pacer.
    let shared = durable_pacer();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            std::thread::scope(|scope| {
                let other = scope.spawn(|| {
                    // The second CPU, or there is no contention to see.
                    let _guest = sys::HarnessGuest::enter();
                    admit_round(&shared, epoch, ADMITS)
                });
                let mine = admit_round(&shared, epoch, ADMITS);
                (mine + other.join().unwrap_or(mine)) / 2.0
            })
        })
        .collect();
    pass.timing("core.pacer.admit_2t_ns", &rounds);
    pass.set(
        "core.pacer.admit_2t_cas_retries",
        shared.cas_retries() as f64,
    );

    let bucket = AtomicBucket::new(10_000_000.0, 500_000.0);
    pass.time("pacing.atomic_bucket_reserve_ns", 50_000, |_| {
        let now = epoch.elapsed().as_nanos() as u64;
        std::hint::black_box(bucket.reserve(now, 8));
    });
    let pool = CreditPool::new(1_000);
    pass.time("pacing.credit_lease_ns", 50_000, |_| {
        std::hint::black_box(pool.try_lease(1));
        pool.release(1);
    });
}

// ---------------------------------------------------------------------------
// zones, netsim, workloads
// ---------------------------------------------------------------------------

/// The cheapest lookup an engine can host: one query, done on its answer.
struct OneQuery {
    to: Ipv4Addr,
    question: Question,
}

impl SimClient for OneQuery {
    fn start(&mut self, _now: u64, out: &mut Vec<OutQuery>) -> StepStatus {
        out.push(OutQuery {
            to: self.to,
            id: 1,
            question: self.question.clone(),
            recursion_desired: false,
            cookie: None,
            protocol: Protocol::Udp,
            timeout: 2_000_000_000,
            tag: 1,
        });
        StepStatus::Running
    }

    fn on_event(&mut self, _: ClientEvent<'_>, _: u64, _: &mut Vec<OutQuery>) -> StepStatus {
        StepStatus::Done(JobOutcome {
            success: true,
            status: "NOERROR",
        })
    }
}

fn sim_side_layers(pass: &mut Pass, seed: u64) -> Result<(), String> {
    // The (server, question) pairs an iterative walk really asks.
    let (universe, resolver) = paths::iterative_a(seed)?;
    let mut asked: Vec<(Ipv4Addr, Question)> = Vec::new();
    let mut source = CtCorpus::new(seed, CORPUS_CCTLDS, CORPUS_NGTLDS).into_stream(500);
    let mut out = Vec::new();
    while let Some(input) = source.next_name() {
        let name: Name = input.parse().map_err(|_| "bad corpus name")?;
        let mut machine = resolver.machine(Question::new(name, RecordType::A), None);
        let mut status = machine.start(0, &mut out);
        while matches!(status, StepStatus::Running) {
            let Some(oq) = out.pop() else { break };
            let event = paths::universe_event(&universe, &oq);
            asked.push((oq.to, oq.question));
            status = machine.on_event(event, 1_000, &mut out);
        }
        out.clear();
    }
    pass.time("zones.synth_answer_ns", asked.len(), |i| {
        std::hint::black_box(universe.respond(asked[i].0, &asked[i].1));
    });

    // Engine bookkeeping per event: trivial machines, a one-zone universe.
    const JOBS: usize = 5_000;
    let server = Ipv4Addr::new(198, 51, 100, 1);
    let origin: Name = "engine.test".parse().map_err(|_| "bad name")?;
    let host: Name = "x.engine.test".parse().map_err(|_| "bad name")?;
    let mut zone = Zone::new(
        origin,
        "ns.engine.test".parse().map_err(|_| "bad name")?,
        300,
    );
    zone.add(a_record(&host, 1));
    let mut explicit = ExplicitUniverse::new();
    explicit.host(server, zone);
    let explicit: Arc<dyn Universe> = Arc::new(explicit);
    let question = Question::new(host, RecordType::A);
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut engine = Engine::new(
                EngineConfig {
                    threads: 1_000,
                    seed,
                    ..EngineConfig::default()
                },
                Arc::clone(&explicit),
            );
            let mut left = JOBS;
            let started = Instant::now();
            let report = engine.run(|| {
                left = left.checked_sub(1)?;
                Some(Box::new(OneQuery {
                    to: server,
                    question: question.clone(),
                }) as Box<dyn SimClient>)
            });
            // Two events per job: its start and its one outcome.
            started.elapsed().as_nanos() as f64 / (2 * report.jobs.max(1)) as f64
        })
        .collect();
    pass.timing("netsim.engine_ns_per_event", &rounds);

    let mut stream =
        CtCorpus::new(seed, CORPUS_CCTLDS, CORPUS_NGTLDS).into_stream((ROUNDS * 20_000) as u64);
    pass.time("workloads.corpus_next_name_ns", 20_000, |_| {
        std::hint::black_box(stream.next_name());
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// framework
// ---------------------------------------------------------------------------

/// One real output of the external A module (what `scan_flood` serialises).
fn sample_output(seed: u64) -> Result<ModuleOutput, String> {
    let (module, resolver) = paths::external_a()?;
    let captured = Arc::new(parking_lot::Mutex::new(None));
    let slot = Arc::clone(&captured);
    let sink: ModuleSink = Arc::new(move |o| *slot.lock() = Some(o));
    let input = names::scan_name('o', seed, 1);
    let mut machine = module.make_machine(&input, &resolver, sink);
    let mut out = Vec::new();
    machine.start(0, &mut out);
    let oq = out.pop().ok_or("external machine emitted no query")?;
    let answer = responder_answer(&input, oq.id)?;
    let view = MessageView::parse(&answer).map_err(|e| e.to_string())?;
    machine.on_event(
        ClientEvent::Response {
            tag: oq.tag,
            from: oq.to,
            message: MsgRef::View(view),
            protocol: Protocol::Udp,
        },
        1_000,
        &mut out,
    );
    let output = captured.lock().take();
    output.ok_or_else(|| "module A produced no output".to_string())
}

fn framework_layers(pass: &mut Pass, responder: &Responder) -> Result<(), String> {
    let output = sample_output(1)?;
    let mut line = String::new();
    pass.time("framework.output.write_line_ns", 20_000, |_| {
        write_line(
            std::hint::black_box(&output),
            OutputGroup::Normal,
            &mut line,
        );
        std::hint::black_box(line.len());
    });
    pass.set("framework.output.bytes_per_line", line.len() as f64 + 1.0);

    // Checkpoint keeper: one dispatch + one completion, snapshots off the
    // timed path; then a snapshot with a full window outstanding.
    let manifest = std::path::Path::new(SCRATCH_DIR).join("layers.manifest.json");
    let inputs: Vec<String> = (0..20_000u64)
        .map(|i| names::scan_name('k', 1, i))
        .collect();
    let mut keeper = CheckpointKeeper::new("layers".into(), &manifest, u64::MAX);
    pass.time(
        "framework.checkpoint.dispatch_complete_ns",
        inputs.len(),
        |i| {
            keeper.dispatched(&inputs[i]);
            std::hint::black_box(keeper.completed(&inputs[i]));
        },
    );
    for input in &inputs[..1_000] {
        keeper.dispatched(input);
    }
    let mut failed = false;
    pass.time_in("framework.checkpoint.snapshot_write_us", 1e3, 20, |_| {
        failed |= keeper.write_snapshot(Vec::new()).is_err();
    });
    pass.check(!failed, || "checkpoint snapshot write failed".into());

    // Done-set load: the program's own serialisation of 10k outputs.
    let done_path = std::path::Path::new(SCRATCH_DIR).join("layers-done.jsonl");
    let mut text = String::new();
    for i in 0..10_000u64 {
        let mut o = output.clone();
        o.name = names::scan_name(names::DONE, 1, i);
        write_line(&o, OutputGroup::Normal, &mut line);
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(&done_path, text).map_err(|e| e.to_string())?;
    let mut loaded = 0;
    // One call loads 10 klines, so a kline-microsecond is 1e4 ns of it.
    pass.time_in(
        "framework.checkpoint.done_set_load_us_per_kline",
        1e4,
        1,
        |_| {
            loaded = output_done_set(&done_path).map_or(0, |s| s.len());
        },
    );
    pass.check(loaded == 10_000, || {
        format!("done-set load found {loaded} of 10000 names")
    });

    let flags: Vec<String> = "PROBE --real --threads 1 --max-in-flight 1000 --io-backend mmsg \
        --timeout 0.5 --rate-pps 10000000 --per-host-pps 10000000 --backoff-base 0.001 \
        --backoff-cap 0.002 --checkpoint-every 1000 --input-file names.txt --output-file out.jsonl \
        --checkpoint scan.manifest.json"
        .split_whitespace()
        .map(str::to_string)
        .collect();
    pass.time_in("framework.conf.parse_us", 1e3, 2_000, |_| {
        std::hint::black_box(Conf::parse(flags.iter().cloned()).is_ok());
    });

    // Serve fleet start: sockets bound, worker up, role installed.
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let options = serve_options(responder);
        let started = Instant::now();
        let handle = zdns_framework::serve::start(&options).map_err(|e| e.to_string())?;
        rounds.push(started.elapsed().as_secs_f64() * 1e3);
        handle.stop();
    }
    pass.timing("framework.serve.start_ms", &rounds);
    Ok(())
}

// ---------------------------------------------------------------------------
// harness
// ---------------------------------------------------------------------------

/// One mmsg serve shard on an ephemeral port, forwarding to the responder.
fn serve_options(responder: &Responder) -> zdns_framework::ServeOptions {
    zdns_framework::ServeOptions {
        listen: (Ipv4Addr::LOCALHOST, 0).into(),
        upstreams: vec![SocketAddr::V4(responder.addr())],
        io_backend: zdns_core::IoBackend::Mmsg,
        ..zdns_framework::ServeOptions::default()
    }
}

/// Ceilings of the two load generators, the closed-loop client's headroom
/// over the served rate (undisturbed against undisturbed), and the open-loop
/// latency at half the rate the closed loop sustained (its median slice: an
/// open loop offered half the undisturbed rate falls behind whenever the
/// machine is disturbed, and its latencies then measure the backlog).
fn harness_layers(
    pass: &mut Pass,
    responder: &Responder,
    seed: u64,
    serve_ops_per_s: f64,
    serve_sustained_ops_per_s: f64,
    quick: bool,
) -> Result<(), String> {
    let queries: u64 = if quick { 50_000 } else { 300_000 };
    let closed_loop_rate = |client: &mut ServeClient| {
        let mut clock = SliceClock::new(queries / 10, vec![]);
        client.run_closed_loop(queries, &mut clock);
        clock.ops_per_s()
    };

    // The responder against a client that checks nothing and keeps 512
    // exact-repeat queries outstanding. The blaster stands in for the
    // program, so it runs here, in the program's place, and blocks in
    // recvmmsg like the program would.
    let mut blaster = ServeClient::new(SocketAddr::V4(responder.addr()), seed)?;
    blaster.verify = false;
    blaster.filter = MixFilter::ExactOnly;
    blaster.tick = None;
    blaster.set_window(512);
    pass.set(
        "harness.responder_ceiling_qps",
        closed_loop_rate(&mut blaster),
    );

    client::on_harness_thread(|| -> Result<(), String> {
        // The client against a peer that only flips QR and sends back.
        let echo = EchoPeer::start()?;
        let mut client = ServeClient::new(echo.addr(), seed)?;
        client.verify = false;
        let client_ceiling = closed_loop_rate(&mut client);
        drop(echo);
        pass.set("harness.client_ceiling_qps", client_ceiling);
        let headroom = client_ceiling / serve_ops_per_s;
        pass.set("harness.client_headroom", headroom);
        if headroom < 1.3 {
            eprintln!(
                "zbench: WARNING: the serve client's ceiling is only {headroom:.2}x the served \
                 rate; serve_mix/ops_per_s may be measuring the client"
            );
        }

        // Open loop at half the sustained closed-loop rate, against a fresh
        // serve fleet.
        let options = serve_options(responder);
        let handle = zdns_framework::serve::start(&options).map_err(|e| e.to_string())?;
        let mut open = ServeClient::new(handle.local_addr(), seed)?;
        let warm_up_failed = open.warm_up();
        let rate = serve_sustained_ops_per_s / 2.0;
        let (outcome, latency_us, late_us) =
            open.run_open_loop(queries.min((rate * 2.0) as u64), rate);
        handle.stop();
        pass.check(warm_up_failed + outcome.failed == 0, || {
            format!(
                "open loop: {warm_up_failed} warm-up and {} timed queries failed",
                outcome.failed
            )
        });
        pass.set(
            "framework.serve.open_p50_us",
            stats::percentile(&latency_us, 0.5),
        );
        pass.set(
            "framework.serve.open_p99_us",
            stats::percentile(&latency_us, 0.99),
        );
        pass.set(
            "harness.open_loop_late_p99_us",
            stats::percentile(&late_us, 0.99),
        );
        Ok(())
    })
}
