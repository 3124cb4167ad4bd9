//! Reactor perf A/Bs, recorded in `BENCH_reactor.json`:
//!
//! * **Syscall batching** — lookups/sec for the batched
//!   (`sendmmsg`/`recvmmsg`, `--batch-size 32`) reactor versus
//!   per-datagram syscalls (`--batch-size 1`) on a zero-latency loopback
//!   workload with a 1000-lookup admission window — the configuration
//!   where syscall cost, not network latency, is the binding constraint.
//! * **Codec** — owned `Message::decode` versus the borrowed
//!   `MessageView` sweep on a referral corpus.
//! * **Checkpoint overhead** — the full `run_scan_pipeline`
//!   orchestration on a uniform all-healthy fleet, plain versus with a
//!   durable checkpoint attached (manifest + rolling snapshots — what
//!   `--checkpoint` costs the hot path).
//! * **I/O backends** — the io_uring ring (`--io-backend uring`) versus
//!   the mmsg arena on the same 1000-in-flight loopback workload,
//!   recording ring submission counters (SQEs/enter, enters/lookup, CQE
//!   batches, SQ-full stalls) alongside throughput. Skipped — recorded
//!   as `available: false` — on kernels without io_uring.
//! * **Serve mode** — a `zdns_framework::serve` fleet on loopback,
//!   answering the same scanning reactor out of a warmed cache, versus
//!   the scan path's direct lookups/sec. The serve figure is the
//!   bidirectional engine's whole answer path per query: arena recv,
//!   borrowed view parse, per-client gate, cache probe, scratch
//!   re-encode, send.
//! * **Packet cache** — the serve hot path's memoized-answer A/B
//!   (PR-10 tentpole): identical hot-key query streams driven straight
//!   through `ServerRole::handle_datagram` against a role with
//!   `--packet-cache-capacity 0` (record-path reference: shard lock,
//!   RRset walk, scratch re-encode per hit) and a role with the packet
//!   cache on (memcpy + ID/flags patch + cookie splice). Measured
//!   in-process because the loopback e2e round trip is client-dominated;
//!   an e2e hot-key fleet pair is recorded alongside as informational.
//!
//! Gates (exit non-zero below the bar): `--min-speedup X` on the batched
//! ratio, `--min-view-speedup X` on the codec ratio,
//! `--min-uring-ratio X` on uring/mmsg (auto-pass when the
//! kernel has no io_uring — the fallback path is the product behaviour
//! there, not a regression), `--min-serve-ratio X` on serve/scan
//! throughput, `--min-checkpoint-ratio X` on the checkpointed
//! pipeline's throughput relative to the plain pipeline,
//! and `--min-packet-ratio X` on the packet-hit-over-record-hit direct
//! serve ratio (best per-pair over alternating rounds).
//!
//! Run: `cargo run --release -p zdns-bench --bin bench_reactor -- [--quick]
//! [--out PATH] [--min-speedup X] [--min-view-speedup X]
//! [--min-uring-ratio X] [--min-serve-ratio X]
//! [--min-checkpoint-ratio X] [--min-packet-ratio X]`

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use zdns_bench::quick_mode;
use zdns_core::alloc_count::{thread_allocations, CountingAllocator};
use zdns_core::{
    AddrMap, Admission, Driver, DriverReport, IoBackend, Reactor, ReactorConfig, Resolver,
    ResolverConfig,
};
use zdns_netsim::{SimClient, WireServer, SECONDS};
use zdns_wire::{Message, MessageView, Name, Question, RData, Record, RecordType};
use zdns_zones::{ExplicitUniverse, Universe, Zone};

// Count every heap allocation (per thread) so the artifact records
// allocations/lookup alongside lookups/sec.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The admission window the acceptance criterion names.
const IN_FLIGHT: usize = 1_000;
/// Batch depth for the batched configuration (the reactor default).
const BATCH: usize = 32;

/// `n` A records behind `servers` zero-latency loopback wire servers;
/// external-mode lookups hash across the servers, spreading server-side
/// work over several OS threads so the measured bottleneck is the
/// client's syscall layer.
fn loopback_fleet(
    n: usize,
    servers: usize,
) -> (Vec<WireServer>, Resolver, Arc<AddrMap>, Vec<Question>) {
    let server_ips: Vec<Ipv4Addr> = (0..servers)
        .map(|i| Ipv4Addr::new(203, 0, 113, 50 + i as u8))
        .collect();
    let mut fleet = Vec::new();
    let mut mapping = Vec::new();
    for ip in &server_ips {
        let mut zone = Zone::new(
            "bench.test".parse().unwrap(),
            "ns1.bench.test".parse().unwrap(),
            300,
        );
        for i in 0..n {
            zone.add(Record::new(
                format!("b{i}.bench.test").parse().unwrap(),
                300,
                RData::A(Ipv4Addr::new(10, 9, (i / 256) as u8, (i % 256) as u8)),
            ));
        }
        let mut universe = ExplicitUniverse::new();
        universe.host(*ip, zone);
        let server = WireServer::start(Arc::new(universe) as Arc<dyn Universe>, *ip).unwrap();
        mapping.push((*ip, server.addr()));
        fleet.push(server);
    }
    let addr_map: Arc<AddrMap> = Arc::new(move |ip| {
        mapping
            .iter()
            .find(|(sim, _)| *sim == ip)
            .map(|(_, real)| *real)
            .expect("every query targets a bench server")
    });
    let mut config = ResolverConfig::external(server_ips);
    config.timeout = 2 * SECONDS;
    config.retries = 2;
    let resolver = Resolver::new(config);
    let questions = (0..n)
        .map(|i| {
            Question::new(
                format!("b{i}.bench.test").parse::<Name>().unwrap(),
                RecordType::A,
            )
        })
        .collect();
    (fleet, resolver, addr_map, questions)
}

/// One timed scan: lookups/sec, the driver report, and heap allocations
/// per lookup on this thread during the scan. Machines are pre-built so
/// the measured region is the reactor loop itself (admission, scratch
/// encode, batched syscalls, view decode, machine stepping) — the same
/// boundary the `zero_alloc` integration test enforces at exactly 0 on
/// the view path.
fn reactor_for(addr_map: &Arc<AddrMap>, batch_size: usize, io_backend: IoBackend) -> Reactor {
    Reactor::new(
        ReactorConfig {
            max_in_flight: IN_FLIGHT,
            source: Ipv4Addr::LOCALHOST,
            batch_size,
            io_backend,
            ..ReactorConfig::default()
        },
        Arc::clone(addr_map),
    )
    .unwrap()
}

fn run_once(
    reactor: &mut Reactor,
    resolver: &Resolver,
    questions: &[Question],
) -> (f64, DriverReport, f64) {
    let mut machines: Vec<Box<dyn SimClient>> = questions
        .iter()
        .rev()
        .map(|q| resolver.machine(q.clone(), None))
        .collect();
    let mut done = 0usize;
    let allocs_before = thread_allocations();
    let started = Instant::now();
    let report = {
        let mut feed = || match machines.pop() {
            Some(machine) => Admission::Admit(machine),
            None => Admission::Exhausted,
        };
        let mut on_done = |_| done += 1;
        reactor.run_scan(&mut feed, &mut on_done)
    };
    let elapsed = started.elapsed();
    let allocs = thread_allocations() - allocs_before;
    assert_eq!(done, questions.len(), "every lookup must complete");
    (
        questions.len() as f64 / elapsed.as_secs_f64(),
        report,
        allocs as f64 / questions.len() as f64,
    )
}

/// Best of `rounds` runs (loopback benches are noisy on shared runners).
/// The allocation figure reported is the *minimum* across rounds: later
/// rounds run on warmed allocator pools, which is the steady state the
/// zero-alloc claim is about.
fn best_of(
    rounds: usize,
    resolver: &Resolver,
    addr_map: &Arc<AddrMap>,
    questions: &[Question],
    batch_size: usize,
    io_backend: IoBackend,
) -> (f64, DriverReport, f64) {
    // One reactor for all rounds: the first round grows the pools, the
    // later rounds run the warmed steady state the allocation figure is
    // about.
    let mut reactor = reactor_for(addr_map, batch_size, io_backend);
    let mut best: Option<(f64, DriverReport)> = None;
    let mut min_allocs = f64::INFINITY;
    for _ in 0..rounds {
        let (rate, report, allocs) = run_once(&mut reactor, resolver, questions);
        min_allocs = min_allocs.min(allocs);
        if best.as_ref().map(|(r, _)| rate > *r).unwrap_or(true) {
            best = Some((rate, report));
        }
    }
    let (rate, report) = best.expect("rounds >= 1");
    (rate, report, min_allocs)
}

/// A referral-shaped response (13 NS + 13 glue A records), the wire shape
/// an iterative scan decodes most often.
fn sample_referral_bytes() -> Vec<u8> {
    let mut m = Message::query(
        0x1234,
        Question::new("www.example.com".parse().unwrap(), RecordType::A),
    );
    m.flags.response = true;
    for i in 0..13u8 {
        let ns: Name = format!("{}.gtld-servers.net", (b'a' + i) as char)
            .parse()
            .unwrap();
        m.authorities.push(Record::new(
            "com".parse().unwrap(),
            172_800,
            RData::Ns(ns.clone()),
        ));
        m.additionals.push(Record::new(
            ns,
            172_800,
            RData::A(Ipv4Addr::new(192, 5, 6, 30 + i)),
        ));
    }
    m.encode().unwrap()
}

/// Decode-path A/B on the referral corpus: owned `Message::decode` versus
/// the borrowed `MessageView` (parse + the same section scan a machine
/// performs). Returns (owned ns/decode, view ns/decode).
fn measure_codec() -> (f64, f64) {
    let bytes = sample_referral_bytes();
    let iters = 200_000u32;
    // Interleave a warmup round before each timed loop.
    for _ in 0..2_000 {
        let m = Message::decode(&bytes).unwrap();
        std::hint::black_box(m.answers.len());
        let v = MessageView::parse(&bytes).unwrap();
        std::hint::black_box(v.answer_count());
    }
    let started = Instant::now();
    for _ in 0..iters {
        let m = Message::decode(std::hint::black_box(&bytes)).unwrap();
        let mut ns = 0usize;
        for rec in &m.authorities {
            ns += usize::from(rec.rtype == RecordType::NS);
        }
        let mut addrs = 0usize;
        for rec in &m.additionals {
            addrs += usize::from(matches!(rec.rdata, RData::A(_)));
        }
        std::hint::black_box((m.rcode(), ns, addrs));
    }
    let owned_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let started = Instant::now();
    for _ in 0..iters {
        let view = MessageView::parse(std::hint::black_box(&bytes)).unwrap();
        let mut ns = 0usize;
        for rec in view.authorities() {
            ns += usize::from(rec.rtype == RecordType::NS);
        }
        let mut addrs = 0usize;
        for rec in view.additionals() {
            addrs += usize::from(rec.a_addr().is_some());
        }
        std::hint::black_box((view.rcode(), ns, addrs));
    }
    let view_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    (owned_ns, view_ns)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

// ---------------------------------------------------------------------------
// Scan pipeline: what a durable checkpoint costs
// ---------------------------------------------------------------------------

/// One `run_scan_pipeline` pass (2 workers, 256-credit window) over the
/// PROBE workload described by `inputs`, optionally with a durable
/// checkpoint attached. Returns lookups/sec.
fn run_pipeline_case(
    checkpoint: Option<&std::path::Path>,
    addr_map: &Arc<AddrMap>,
    inputs: &[String],
) -> f64 {
    use zdns_framework::{run_scan_pipeline, CallbackSink, Conf};
    let mut args: Vec<String> = "PROBE --threads 2 --max-in-flight 256 --retries 1"
        .split(' ')
        .map(String::from)
        .collect();
    if let Some(manifest) = checkpoint {
        // A durable pipeline: the keeper tracks every dispatch and
        // completion and snapshots on cadence. The input/output paths
        // only need to satisfy `--checkpoint`'s replayability checks —
        // the bench feeds its own source and sink.
        args.extend([
            "--real".into(),
            "--input-file".into(),
            "bench-names.txt".into(),
            "--output-file".into(),
            manifest
                .with_extension("jsonl")
                .to_string_lossy()
                .into_owned(),
            "--checkpoint".into(),
            manifest.to_string_lossy().into_owned(),
            "--checkpoint-every".into(),
            "1000".into(),
        ]);
    }
    let mut conf = Conf::parse(args).unwrap();
    conf.resolver.timeout = 2 * SECONDS;
    let resolver = Resolver::new(conf.resolver.clone());
    let module = zdns_modules::ModuleRegistry::standard()
        .get("PROBE")
        .unwrap();
    let mut source = inputs.iter().cloned();
    let mut sink = CallbackSink::new(|_| {});
    let started = Instant::now();
    let report = run_scan_pipeline(
        &conf,
        &resolver,
        module,
        Arc::clone(addr_map),
        &mut source,
        &mut sink,
    );
    let rate = inputs.len() as f64 / started.elapsed().as_secs_f64();
    assert_eq!(
        report.lookups as usize,
        inputs.len(),
        "pipeline must complete every input: {:?}",
        report.worker_errors
    );
    rate
}

/// Measure the pipeline on a uniform all-healthy fleet, plain and with a
/// durable checkpoint attached (keeper bookkeeping on every dispatch and
/// completion, a snapshot every 1000): `(plain, checkpointed, ratio)`
/// where the rates are each side's best round and the ratio is measured
/// pairwise (see below) for the overhead gate.
fn measure_pipeline(quick: bool) -> (f64, f64, f64) {
    let healthy_ip = Ipv4Addr::new(203, 0, 113, 60);
    let zone = Zone::new(
        Name::root(),
        "ns1.bench-pipeline.test".parse().unwrap(),
        300,
    );
    let mut universe = ExplicitUniverse::new();
    universe.host(healthy_ip, zone);
    let healthy = WireServer::start(Arc::new(universe) as Arc<dyn Universe>, healthy_ip).unwrap();
    let healthy_addr = healthy.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| healthy_addr);

    let uniform_n = if quick { 3_000 } else { 10_000 };
    let uniform: Vec<String> = (0..uniform_n)
        .map(|i| format!("u{i}.bench-pipeline.test@{healthy_ip}"))
        .collect();
    let ckpt_dir = std::env::temp_dir().join(format!("zdns-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let manifest = ckpt_dir.join("bench.manifest.json");
    // Checkpointed (identical workload, durable manifest + rolling
    // snapshots attached) vs plain is measured as alternating
    // (plain, durable) pairs, and the overhead gate takes the best
    // per-pair ratio: each ~50ms loopback round individually wanders
    // ±10% with scheduler/thermal drift — far more than the few-percent
    // effect being measured — but drift within an adjacent pair
    // largely cancels.
    let mut best_plain = 0.0f64;
    let mut best_durable = 0.0f64;
    let mut checkpoint_ratio = 0.0f64;
    for _ in 0..3 {
        let plain = run_pipeline_case(None, &addr_map, &uniform);
        let durable = run_pipeline_case(Some(&manifest), &addr_map, &uniform);
        best_plain = best_plain.max(plain);
        best_durable = best_durable.max(durable);
        checkpoint_ratio = checkpoint_ratio.max(durable / plain);
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    drop(healthy);
    (best_plain, best_durable, checkpoint_ratio)
}

/// Serve-mode throughput: a one-shard `zdns_framework::serve` fleet on
/// loopback (forwarding to a `WireServer` upstream), answering the same
/// kind of scanning reactor the direct benches use. A warmup pass fills
/// the serve cache, so the measured rounds are the steady state the
/// acceptance criterion names: nearly every query answered in place from
/// the cache, no forwarding on the hot path. Returns (best lookups/sec,
/// cache-hit fraction, packet-hit fraction over the measured rounds).
fn measure_serve(
    lookups: usize,
    rounds: usize,
    distinct: usize,
    packet_capacity: usize,
) -> (f64, f64, f64) {
    use zdns_framework::serve::{start, ServeOptions};

    let mut zone = Zone::new(
        "serve-bench.test".parse().unwrap(),
        "ns1.serve-bench.test".parse().unwrap(),
        300,
    );
    for i in 0..distinct {
        zone.add(Record::new(
            format!("s{i}.serve-bench.test").parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(10, 11, (i / 256) as u8, (i % 256) as u8)),
        ));
    }
    let mut universe = ExplicitUniverse::new();
    universe.host(Ipv4Addr::LOCALHOST, zone);
    let upstream =
        WireServer::start(Arc::new(universe) as Arc<dyn Universe>, Ipv4Addr::LOCALHOST).unwrap();
    let handle = start(&ServeOptions {
        listen: (Ipv4Addr::LOCALHOST, 0).into(),
        upstreams: vec![upstream.addr()],
        cache_capacity: 100_000,
        packet_cache_capacity: packet_capacity,
        io_backend: IoBackend::Mmsg,
        ..ServeOptions::default()
    })
    .unwrap();
    let serve_addr = handle.local_addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| serve_addr);
    let mut config = ResolverConfig::external(vec![Ipv4Addr::LOCALHOST]);
    config.timeout = 2 * SECONDS;
    config.retries = 2;
    let resolver = Resolver::new(config);
    let names: Vec<Question> = (0..distinct)
        .map(|i| {
            Question::new(
                format!("s{i}.serve-bench.test").parse::<Name>().unwrap(),
                RecordType::A,
            )
        })
        .collect();

    // Warmup: one pass over every distinct name forwards each miss
    // upstream once and fills the serve cache.
    let mut warm_reactor = reactor_for(&addr_map, BATCH, IoBackend::Mmsg);
    let _ = run_once(&mut warm_reactor, &resolver, &names);
    drop(warm_reactor);

    let questions: Vec<Question> = (0..lookups).map(|i| names[i % distinct].clone()).collect();
    let hits_before = handle.cache_hits();
    let packet_hits_before = handle.packet_hits();
    let queries_before = handle.queries();
    let mut reactor = reactor_for(&addr_map, BATCH, IoBackend::Mmsg);
    let mut best = 0.0f64;
    for _ in 0..rounds {
        let (rate, _, _) = run_once(&mut reactor, &resolver, &questions);
        best = best.max(rate);
    }
    let measured_queries = (handle.queries() - queries_before).max(1) as f64;
    let hit_fraction = (handle.cache_hits() - hits_before) as f64 / measured_queries;
    let packet_hit_fraction = (handle.packet_hits() - packet_hits_before) as f64 / measured_queries;
    (best, hit_fraction, packet_hit_fraction)
}

/// Direct serve hot-path A/B (the PR-10 tentpole): identical hot-key
/// query streams driven straight through `ServerRole::handle_datagram`
/// — no sockets, no client thread — once against a role with the packet
/// cache disabled (`packet_cache_capacity: 0`, the record-path
/// reference: shard lock + RRset walk + full scratch re-encode per hit)
/// and once with it on (memcpy + ID/flags patch + cookie splice).
/// Loopback e2e serve numbers are client-dominated, so this in-process
/// pair is where the memoized-packet win is measurable and gateable.
/// Returns (record qps, packet qps, best-of-pairs ratio, packet-side
/// allocs/query) — rates are each side's best round, the gated ratio is
/// the best *paired* ratio over alternating (record, packet) rounds.
fn measure_packet_cache(quick: bool) -> (f64, f64, f64, f64) {
    use zdns_core::{CacheKey, Clock, ServeConfig, ServerRole};
    use zdns_wire::{encode_query_into, Cookie, ScratchBuf};

    const HOT: usize = 16;
    let queries_per_round = if quick { 50_000 } else { 200_000 };
    let pairs = if quick { 2 } else { 3 };

    let build_role = |packet_capacity: usize| {
        let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(192, 0, 2, 53)]));
        for i in 0..HOT {
            let name: Name = format!("h{i}.packet-bench.test").parse().unwrap();
            let records: Vec<Record> = (0..4)
                .map(|j| {
                    Record::new(
                        name.clone(),
                        3600,
                        RData::A(Ipv4Addr::new(10, 13, j, i as u8)),
                    )
                })
                .collect();
            resolver.core().cache.put(
                CacheKey {
                    name,
                    rtype: RecordType::A,
                },
                records,
                0,
            );
        }
        ServerRole::new(
            resolver,
            Clock::new(),
            ServeConfig {
                packet_cache_capacity: packet_capacity,
                ..ServeConfig::default()
            },
        )
    };
    let cookie = Cookie::client(*b"benchPKT");
    let queries: Vec<Vec<u8>> = (0..HOT)
        .map(|i| {
            let mut scratch = ScratchBuf::new();
            let q = Question::new(
                format!("h{i}.packet-bench.test").parse().unwrap(),
                RecordType::A,
            );
            encode_query_into(&mut scratch, i as u16, &q, true, Some(&cookie)).unwrap();
            scratch.take_bytes()
        })
        .collect();
    let peer: std::net::SocketAddr = (Ipv4Addr::LOCALHOST, 50_000).into();

    let mut record_role = build_role(0);
    let mut packet_role = build_role(zdns_core::DEFAULT_PACKET_CACHE_CAPACITY);
    let run = |role: &mut ServerRole, n: usize| -> f64 {
        let started = Instant::now();
        for i in 0..n {
            std::hint::black_box(role.handle_datagram(&queries[i % HOT], peer, 1));
        }
        n as f64 / started.elapsed().as_secs_f64()
    };
    // Warmup: memoizes the hot set on the packet side and grows both
    // scratch buffers to steady state.
    run(&mut record_role, HOT * 8);
    run(&mut packet_role, HOT * 8);

    let mut best_record = 0.0f64;
    let mut best_packet = 0.0f64;
    let mut best_ratio = 0.0f64;
    let mut packet_allocs = 0.0f64;
    for _ in 0..pairs {
        let record_qps = run(&mut record_role, queries_per_round);
        let before = thread_allocations();
        let packet_qps = run(&mut packet_role, queries_per_round);
        packet_allocs = (thread_allocations() - before) as f64 / queries_per_round as f64;
        best_record = best_record.max(record_qps);
        best_packet = best_packet.max(packet_qps);
        best_ratio = best_ratio.max(packet_qps / record_qps);
    }
    // Every measured packet-side query must actually ride the packet
    // path — a miss-y workload would gate the wrong code.
    let stats = packet_role.stats();
    assert!(
        stats.packet_hits() >= (pairs * queries_per_round) as u64,
        "packet-side rounds must be pure hits ({} hits)",
        stats.packet_hits()
    );
    (best_record, best_packet, best_ratio, packet_allocs)
}

/// Measure this kernel's raw per-datagram send cost through `BatchIo`
/// itself — per-datagram path vs batched path — so the artifact records
/// how expensive syscall *boundaries* are where the bench ran. On
/// mitigation-heavy kernels (KPTI etc.) the boundary runs 0.5–1.5µs and
/// batching pays off ~10×; on paravirt kernels with cheap entry it can
/// be tens of nanoseconds, bounding the achievable end-to-end speedup.
fn measure_syscall_costs() -> (f64, f64) {
    use zdns_core::BatchIo;
    let tx = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let rx = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let to = rx.local_addr().unwrap();
    tx.set_nonblocking(true).unwrap();
    let payload = vec![0u8; 40];
    let n = 32_000usize;
    let msgs: Vec<(&[u8], std::net::SocketAddr)> =
        (0..n).map(|_| (payload.as_slice(), to)).collect();
    let mut statuses = Vec::new();
    let mut time_path = |io: &mut BatchIo| {
        statuses.clear();
        let started = Instant::now();
        let stats = io.send_batch(&tx, &msgs, &mut statuses, &mut |_| {});
        started.elapsed().as_nanos() as f64 / stats.sent.max(1) as f64
    };
    let per_dg = time_path(&mut BatchIo::per_datagram(1));
    let batched = time_path(&mut BatchIo::new(BATCH));
    (per_dg, batched)
}

fn main() {
    let quick = quick_mode();
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_reactor.json".to_string());
    let min_speedup: Option<f64> = arg_value("--min-speedup").map(|v| v.parse().unwrap());
    let min_view_speedup: Option<f64> = arg_value("--min-view-speedup").map(|v| v.parse().unwrap());
    let min_uring_ratio: Option<f64> = arg_value("--min-uring-ratio").map(|v| v.parse().unwrap());
    let min_serve_ratio: Option<f64> = arg_value("--min-serve-ratio").map(|v| v.parse().unwrap());
    let min_checkpoint_ratio: Option<f64> =
        arg_value("--min-checkpoint-ratio").map(|v| v.parse().unwrap());
    let min_packet_ratio: Option<f64> = arg_value("--min-packet-ratio").map(|v| v.parse().unwrap());
    let lookups = if quick { 8_000 } else { 30_000 };
    let rounds = if quick { 2 } else { 3 };

    let (sendto_ns, sendmmsg_ns) = measure_syscall_costs();
    println!(
        "kernel syscall layer: {sendto_ns:.0} ns/dg per-datagram, {sendmmsg_ns:.0} ns/dg \
         batched ({:.0} ns boundary saved per datagram)",
        sendto_ns - sendmmsg_ns
    );
    let (owned_decode_ns, view_decode_ns) = measure_codec();
    let view_speedup = owned_decode_ns / view_decode_ns;
    println!(
        "codec (13-NS referral): owned decode {owned_decode_ns:.0} ns, borrowed view \
         {view_decode_ns:.0} ns ({view_speedup:.2}x)"
    );

    let (_fleet, resolver, addr_map, questions) = loopback_fleet(lookups, 4);

    // Warm up server threads, caches, and the page allocator before
    // either timed configuration runs.
    let warm: Vec<Question> = questions.iter().take(lookups / 4).cloned().collect();
    let mut warm_reactor = reactor_for(&addr_map, BATCH, IoBackend::Mmsg);
    let _ = run_once(&mut warm_reactor, &resolver, &warm);
    drop(warm_reactor);

    // The historic A/B stays pinned to explicit backends so the numbers
    // keep meaning the same thing now that `Auto` resolves to uring on
    // capable kernels.
    let (per_datagram_rate, per_datagram_report, per_datagram_allocs) = best_of(
        rounds,
        &resolver,
        &addr_map,
        &questions,
        1,
        IoBackend::Syscall,
    );
    let (batched_rate, batched_report, batched_allocs) = best_of(
        rounds,
        &resolver,
        &addr_map,
        &questions,
        BATCH,
        IoBackend::Mmsg,
    );
    let speedup = batched_rate / per_datagram_rate;

    // io_uring vs mmsg on the identical workload. Availability is what
    // the reactor actually resolved, not what we asked for — a kernel
    // without rings reports `mmsg` here and the section records that.
    let uring_available = reactor_for(&addr_map, BATCH, IoBackend::Uring).io_backend() == "uring";
    let uring_result = uring_available.then(|| {
        best_of(
            rounds,
            &resolver,
            &addr_map,
            &questions,
            BATCH,
            IoBackend::Uring,
        )
    });

    let batched_fill = batched_report.datagrams_sent as f64 / batched_report.send_syscalls as f64;
    println!(
        "reactor loopback bench: {lookups} lookups, {IN_FLIGHT} in-flight window, 4 servers \
         (peak in flight: {} per-datagram / {} batched)",
        per_datagram_report.peak_in_flight, batched_report.peak_in_flight
    );
    println!(
        "  per-datagram (batch 1):  {per_datagram_rate:>9.0} lookups/s  \
         ({} send syscalls, {per_datagram_allocs:.3} allocs/lookup)",
        per_datagram_report.send_syscalls
    );
    println!(
        "  batched     (batch {BATCH}): {batched_rate:>9.0} lookups/s  \
         ({} send syscalls, {batched_fill:.1} dg/syscall, fill {}, \
         {batched_allocs:.3} allocs/lookup)",
        batched_report.send_syscalls,
        batched_report.send_batch_fill.summary()
    );
    println!(
        "  speedup: {speedup:.2}x, ns/lookup: {:.0}",
        1e9 / batched_rate
    );

    let uring_ratio = match &uring_result {
        Some((uring_rate, uring_report, uring_allocs)) => {
            let sqes_per_enter =
                uring_report.ring_sqes as f64 / uring_report.ring_enters.max(1) as f64;
            let enters_per_lookup = uring_report.ring_enters as f64 / lookups as f64;
            println!(
                "  io_uring    (batch {BATCH}): {uring_rate:>9.0} lookups/s  \
                 ({} enters, {sqes_per_enter:.1} sqe/enter, {enters_per_lookup:.2} \
                 enters/lookup, {} cqe batches, {} sq-full stalls, \
                 {uring_allocs:.3} allocs/lookup)",
                uring_report.ring_enters, uring_report.cqe_batches, uring_report.sq_full_stalls
            );
            let ratio = uring_rate / batched_rate;
            println!("  uring/mmsg: {ratio:.2}x");
            Some(ratio)
        }
        None => {
            println!("  io_uring: unavailable on this kernel (auto degrades to mmsg)");
            None
        }
    };

    let (serve_rate, serve_hit_fraction, serve_packet_fraction) = measure_serve(
        lookups,
        rounds,
        2_000,
        zdns_core::DEFAULT_PACKET_CACHE_CAPACITY,
    );
    let serve_ratio = serve_rate / batched_rate;
    println!(
        "serve mode (1 shard, mmsg, warmed cache): {serve_rate:>9.0} queries/s \
         ({:.1}% cache hits, {:.1}% packet hits, {serve_ratio:.2}x of the scan path)",
        serve_hit_fraction * 100.0,
        serve_packet_fraction * 100.0
    );

    let (packet_record_qps, packet_hit_qps, packet_ratio, packet_allocs) =
        measure_packet_cache(quick);
    println!("packet cache (direct handle_datagram, 16 hot keys, EDNS+cookie):");
    println!(
        "  record path (capacity 0): {packet_record_qps:>9.0} queries/s \
         (shard lock + RRset walk + re-encode)"
    );
    println!(
        "  packet path (default):    {packet_hit_qps:>9.0} queries/s \
         ({packet_allocs:.3} allocs/query, memcpy + patch + cookie splice)"
    );
    println!("  packet/record: {packet_ratio:.2}x (best of alternating pairs)");
    // E2e hot-key pair, informational: the loopback client round trip
    // dominates, compressing whatever the hot path saves.
    let (e2e_packet_on, _, e2e_on_fraction) = measure_serve(
        lookups,
        rounds,
        16,
        zdns_core::DEFAULT_PACKET_CACHE_CAPACITY,
    );
    let (e2e_packet_off, _, _) = measure_serve(lookups, rounds, 16, 0);
    let e2e_packet_ratio = e2e_packet_on / e2e_packet_off;
    println!(
        "  e2e hot-key fleet (informational): on {e2e_packet_on:>8.0} vs off \
         {e2e_packet_off:>8.0} queries/s ({e2e_packet_ratio:.2}x, {:.1}% packet hits)",
        e2e_on_fraction * 100.0
    );

    let (plain_rate, checkpoint_rate, checkpoint_ratio) = measure_pipeline(quick);
    println!(
        "scan pipeline (2 workers, uniform fleet): checkpointed {checkpoint_rate:>8.0} vs plain \
         {plain_rate:>8.0} lookups/s ({checkpoint_ratio:.2}x paired — keeper bookkeeping + \
         snapshot every 1000)"
    );

    let io_backend_json = match &uring_result {
        Some((uring_rate, uring_report, uring_allocs)) => serde_json::json!({
            "available": true,
            "uring": {
                "lookups_per_sec": uring_rate,
                "ns_per_lookup": 1e9 / uring_rate,
                "allocs_per_lookup": uring_allocs,
                "ring_sqes": uring_report.ring_sqes,
                "ring_enters": uring_report.ring_enters,
                "sqes_per_enter":
                    uring_report.ring_sqes as f64 / uring_report.ring_enters.max(1) as f64,
                "enters_per_lookup": uring_report.ring_enters as f64 / lookups as f64,
                "cqe_batches": uring_report.cqe_batches,
                "sq_full_stalls": uring_report.sq_full_stalls,
            },
            "mmsg": {
                "lookups_per_sec": batched_rate,
                "ns_per_lookup": 1e9 / batched_rate,
            },
            "uring_over_mmsg": uring_ratio,
        }),
        None => serde_json::json!({
            "available": false,
            "note": "kernel refused io_uring setup; auto degrades to mmsg",
        }),
    };

    let json = serde_json::json!({
        "bench": "reactor_batched_vs_per_datagram",
        "schema_version": 7,
        "kernel": {
            "sendto_ns_per_datagram": sendto_ns,
            "sendmmsg_ns_per_datagram": sendmmsg_ns,
            "syscall_boundary_ns_saved_per_datagram": sendto_ns - sendmmsg_ns,
        },
        "codec": {
            "corpus": "13-NS referral + 13 glue A",
            "owned_decode_ns": owned_decode_ns,
            "view_decode_ns": view_decode_ns,
            "view_speedup": view_speedup,
        },
        "workload": {
            "lookups": lookups,
            "in_flight": IN_FLIGHT,
            "servers": 4,
            "latency_ms": 0,
            "quick": quick,
        },
        "per_datagram": {
            "batch_size": 1,
            "lookups_per_sec": per_datagram_rate,
            "ns_per_lookup": 1e9 / per_datagram_rate,
            "allocs_per_lookup": per_datagram_allocs,
            "send_syscalls": per_datagram_report.send_syscalls,
            "recv_syscalls": per_datagram_report.recv_syscalls,
        },
        "batched": {
            "batch_size": BATCH,
            "lookups_per_sec": batched_rate,
            "ns_per_lookup": 1e9 / batched_rate,
            "allocs_per_lookup": batched_allocs,
            "send_syscalls": batched_report.send_syscalls,
            "recv_syscalls": batched_report.recv_syscalls,
            "datagrams_per_send_syscall": batched_fill,
            "send_batch_fill": batched_report.send_batch_fill.summary(),
            "recv_batch_fill": batched_report.recv_batch_fill.summary(),
        },
        "speedup": speedup,
        "io_backend": io_backend_json,
        "serve": {
            "shards": 1,
            "io_backend": "mmsg",
            "distinct_names": 2_000,
            "queries_per_sec": serve_rate,
            "ns_per_query": 1e9 / serve_rate,
            "cache_hit_fraction": serve_hit_fraction,
            "packet_hit_fraction": serve_packet_fraction,
            "serve_over_scan": serve_ratio,
            "packet_cache": {
                "hot_names": 16,
                "direct": {
                    "record_path_qps": packet_record_qps,
                    "packet_path_qps": packet_hit_qps,
                    "ns_per_query": 1e9 / packet_hit_qps,
                    "packet_allocs_per_query": packet_allocs,
                    "packet_over_record": packet_ratio,
                    "measurement": "best per-pair ratio over alternating (record, packet) rounds through ServerRole::handle_datagram; qps are each side's best round",
                },
                "e2e": {
                    "packet_on_qps": e2e_packet_on,
                    "packet_off_qps": e2e_packet_off,
                    "packet_hit_fraction": e2e_on_fraction,
                    "packet_over_record": e2e_packet_ratio,
                    "note": "informational — the loopback client round trip dominates e2e latency, compressing the hot-path win the direct pair isolates",
                },
            },
        },
        "pipeline": {
            "workers": 2,
            "checkpoint": {
                "checkpoint_every": 1000,
                "checkpointed_lookups_per_sec": checkpoint_rate,
                "plain_lookups_per_sec": plain_rate,
                "checkpointed_over_plain": checkpoint_ratio,
                "measurement": "best per-pair ratio over 3 alternating (plain, durable) rounds; lookups/s are each side's best round",
            },
        },
    });
    std::fs::write(&out_path, serde_json::to_string_pretty(&json).unwrap()).unwrap();
    println!("wrote {out_path}");

    if let Some(min) = min_speedup {
        if speedup < min {
            eprintln!("bench_reactor: FAIL — speedup {speedup:.2}x below the {min:.2}x gate");
            std::process::exit(1);
        }
        println!("bench_reactor: speedup gate passed ({speedup:.2}x >= {min:.2}x)");
    }
    if let Some(min) = min_view_speedup {
        if view_speedup < min {
            eprintln!(
                "bench_reactor: FAIL — view decode {view_speedup:.2}x below the {min:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("bench_reactor: view-decode gate passed ({view_speedup:.2}x >= {min:.2}x)");
    }
    if let Some(min) = min_uring_ratio {
        match uring_ratio {
            Some(ratio) if ratio < min => {
                eprintln!(
                    "bench_reactor: FAIL — uring throughput {ratio:.2}x of mmsg, below \
                     the {min:.2}x gate"
                );
                std::process::exit(1);
            }
            Some(ratio) => {
                println!("bench_reactor: uring gate passed ({ratio:.2}x >= {min:.2}x)");
            }
            None => {
                // No ring on this kernel: degrading to mmsg *is* the
                // specified behaviour, so the gate passes vacuously.
                println!("bench_reactor: uring gate skipped (io_uring unavailable)");
            }
        }
    }
    if let Some(min) = min_serve_ratio {
        if serve_ratio < min {
            eprintln!(
                "bench_reactor: FAIL — serve throughput {serve_ratio:.2}x of the scan \
                 path, below the {min:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("bench_reactor: serve gate passed ({serve_ratio:.2}x >= {min:.2}x)");
    }
    if let Some(min) = min_packet_ratio {
        if packet_ratio < min {
            eprintln!(
                "bench_reactor: FAIL — packet-hit path at {packet_ratio:.2}x of the \
                 record-hit path, below the {min:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("bench_reactor: packet-cache gate passed ({packet_ratio:.2}x >= {min:.2}x)");
    }
    if let Some(min) = min_checkpoint_ratio {
        if checkpoint_ratio < min {
            eprintln!(
                "bench_reactor: FAIL — checkpointed pipeline at {checkpoint_ratio:.2}x of \
                 the plain pipeline, below the {min:.2}x overhead gate"
            );
            std::process::exit(1);
        }
        println!(
            "bench_reactor: checkpoint overhead gate passed \
             ({checkpoint_ratio:.2}x >= {min:.2}x)"
        );
    }
}
