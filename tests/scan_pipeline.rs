//! The shared-queue scan pipeline, end to end (companion to
//! `tests/polite_scan.rs`):
//!
//! * **Work stealing / stranded-window recovery** — a loopback scan
//!   where most destinations are blackholes serving long backoff
//!   penalties. Lookups waiting out a penalty *park* (returning their
//!   credits to the shared pool) instead of pinning the admission
//!   window, so the scan finishes well under the time a window that
//!   held them through their penalties would need.
//! * **CT-corpus workload** — `--workload ct-corpus` streamed through a
//!   `--real` scan against a loopback server, never materializing the
//!   name set.
//! * **Bounded output backpressure** — a slow sink throttles the scan
//!   instead of growing an unbounded backlog.
//! * **Block hand-offs that never wait** — names and outputs cross the
//!   pipeline's queues in blocks, but no name or output is ever held
//!   across a blocking call: a producer that waits for each answer before
//!   writing the next name is served, and a slow scan's lines reach the
//!   sink as their lookups complete.
//! * **Sim/real convergence** — the simulator drains the same
//!   `InputSource` stream the real pipeline uses.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use zdns::core::{AddrMap, Resolver};
use zdns::framework::{
    run_scan_pipeline, run_sim_scan, CallbackSink, Conf, JsonlSink, OutputSink, RealScanReport,
};
use zdns::modules::{LookupModule, ModuleOutput, ModuleRegistry, ModuleSink};
use zdns::netsim::{SimClient, WireServer, MILLIS};
use zdns::wire::Name;
use zdns::workloads::CtCorpus;
use zdns::zones::{ExplicitUniverse, SynthConfig, SyntheticUniverse, Universe, Zone};

/// A loopback server whose root-apex zone authoritatively answers every
/// name (NXDOMAIN counts as a successful lookup).
fn catch_all_server(sim_ip: Ipv4Addr) -> WireServer {
    let zone = Zone::new(Name::root(), "ns1.rootish.test".parse().unwrap(), 300);
    let mut universe = ExplicitUniverse::new();
    universe.host(sim_ip, zone);
    WireServer::start(Arc::new(universe) as Arc<dyn Universe>, sim_ip).unwrap()
}

/// A module that shows the test every output the moment its lookup
/// completes — on the worker, before any hand-off — and otherwise is the
/// module it wraps.
struct Tapped {
    inner: Arc<dyn LookupModule>,
    tap: Arc<dyn Fn(&ModuleOutput) + Send + Sync>,
}

impl LookupModule for Tapped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let tap = Arc::clone(&self.tap);
        let tapped: ModuleSink = Arc::new(move |output| {
            tap(&output);
            sink(output)
        });
        self.inner.make_machine(input, resolver, tapped)
    }
}

const HEALTHY_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

/// Sim addresses for destinations that swallow every packet.
fn dead_ips(n: usize) -> Vec<Ipv4Addr> {
    (0..n)
        .map(|i| Ipv4Addr::new(203, 0, 113, 100 + i as u8))
        .collect()
}

/// The mostly-backed-off scenario's constants: 60 lookups at blackholed
/// destinations and 20 healthy ones over a 16-credit window; every dead
/// lookup holds the wire for two 120 ms timeouts and sits out one
/// constant 1 s penalty (base == cap) between them.
const DEAD_LOOKUPS: usize = 60;
const HEALTHY_LOOKUPS: usize = 20;
const WINDOW: usize = 16;
const TIMEOUT_MS: u64 = 120;
const PENALTY_SECS: u64 = 1;

/// One run of the mostly-backed-off scenario. Returns the report and the
/// wall-clock seconds the scan took.
fn run_mostly_dead_scan() -> (RealScanReport, f64) {
    let healthy = catch_all_server(HEALTHY_IP);
    let dead = dead_ips(5);
    // Blackholes: bound sockets nobody ever reads — sends succeed, no
    // ICMP error comes back, every query to them times out.
    let blackholes: Vec<UdpSocket> = dead
        .iter()
        .map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap())
        .collect();
    let mut mapping: Vec<(Ipv4Addr, SocketAddr)> = vec![(HEALTHY_IP, healthy.addr())];
    for (sim, sock) in dead.iter().zip(&blackholes) {
        mapping.push((*sim, sock.local_addr().unwrap()));
    }
    let addr_map: Arc<AddrMap> = Arc::new(move |ip| {
        mapping
            .iter()
            .find(|(sim, _)| *sim == ip)
            .map(|(_, real)| *real)
            .expect("every probe targets a mapped server")
    });

    // Up to 2 workers. The constant penalty keeps the scenario
    // deterministic: every dead retry parks for exactly 1s while holding
    // the wire for only ~240ms total.
    let (window, penalty) = (WINDOW.to_string(), PENALTY_SECS.to_string());
    let mut conf = Conf::parse([
        "PROBE",
        "--threads",
        "2",
        "--max-in-flight",
        &window,
        "--retries",
        "1",
        "--backoff-base",
        &penalty,
        "--backoff-cap",
        &penalty,
    ])
    .unwrap();
    conf.resolver.timeout = TIMEOUT_MS * MILLIS;
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("PROBE").unwrap();

    let inputs: Vec<String> = (0..DEAD_LOOKUPS + HEALTHY_LOOKUPS)
        .map(|i| {
            if i % 4 == 3 {
                format!("ok{i}.pipeline.test@{HEALTHY_IP}")
            } else {
                format!("dead{i}.pipeline.test@{}", dead[i % dead.len()])
            }
        })
        .collect();

    let started = std::time::Instant::now();
    let mut source = inputs.into_iter();
    let mut sink = CallbackSink::new(|_| {});
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    let elapsed = started.elapsed().as_secs_f64();
    drop(healthy);
    (report, elapsed)
}

#[test]
fn shared_queue_absorbs_stranded_window_from_backed_off_destinations() {
    let (report, secs) = run_mostly_dead_scan();

    // The whole scan completes: healthy probes answer (NXDOMAIN from the
    // catch-all zone = success), dead destinations time out.
    assert_eq!(
        report.lookups as usize,
        DEAD_LOOKUPS + HEALTHY_LOOKUPS,
        "{:?}",
        report.worker_errors
    );
    assert_eq!(
        report.status_counts.get("TIMEOUT").copied().unwrap_or(0) as usize,
        DEAD_LOOKUPS,
        "{:?}",
        report.status_counts
    );
    assert_eq!(report.successes as usize, HEALTHY_LOOKUPS);
    assert!(
        report.driver.queries_deferred > 0,
        "backoff must defer retries"
    );

    // Backed-off lookups park instead of holding window slots:
    assert!(
        report.driver.credit_leases > 0,
        "the window is leased from the credit pool"
    );
    assert!(
        report.driver.idle_credit_returns > 0,
        "fully-backed-off lookups must park and return their credits: {:?}",
        report.driver
    );
    if report.workers >= 2 {
        assert!(
            report.driver.inputs_stolen > 0,
            "some worker must admit beyond its static fair share"
        );
    }
    let line = report.summary_line();
    assert!(
        line.contains("credit leases"),
        "the --real summary must print the lease telemetry: {line}"
    );

    // The acceptance bar. A window that held every dead lookup through
    // its penalty (two timeouts on the wire plus the penalty between
    // them, WINDOW at a time) could not finish before this floor —
    // 60 × 1.24 s ÷ 16 = 4.65 s. The scenario is timer-bound, so wall
    // time barely moves: 22 local runs (12 release, 10 debug with the
    // other tests of this file running alongside) took 2.64–2.77 s,
    // leaving 1.9 s (40 % of the floor) of slack for noisy runners.
    let held_secs = (2 * TIMEOUT_MS) as f64 / 1e3 + PENALTY_SECS as f64;
    let stranded_floor = DEAD_LOOKUPS as f64 * held_secs / WINDOW as f64;
    assert!(
        secs < stranded_floor,
        "parked lookups must free the window: {secs:.2}s vs floor {stranded_floor:.2}s"
    );
}

#[test]
fn ct_corpus_workload_streams_through_real_scan_on_loopback() {
    let server_ip = Ipv4Addr::new(203, 0, 113, 42);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);

    let conf = Conf::parse([
        "A",
        "--name-servers",
        "203.0.113.42",
        "--threads",
        "2",
        "--max-in-flight",
        "64",
        "--workload",
        "ct-corpus",
        "--max-names",
        "300",
        "--retries",
        "2",
    ])
    .unwrap();
    assert_eq!(conf.workload, zdns::framework::Workload::CtCorpus);
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("A").unwrap();

    // The exact source the CLI builds for `--workload ct-corpus`:
    // generated, streaming, never materialized.
    let mut source = CtCorpus::new(conf.seed, 486, 1211).into_stream(conf.max_names as u64);
    let mut sink = JsonlSink::new(Vec::new(), conf.output);
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);

    assert_eq!(report.lookups, 300, "{:?}", report.worker_errors);
    assert_eq!(
        report.status_counts.get("NXDOMAIN").copied().unwrap_or(0),
        300,
        "the catch-all zone answers every corpus name authoritatively: {:?}",
        report.status_counts
    );
    assert_eq!(sink.outputs_written(), 300);
    assert_eq!(report.sink_errors, 0);
    let bytes = sink.into_inner();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 300);
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
        assert_eq!(v["status"], "NXDOMAIN");
        assert!(v["name"].is_string());
    }
    drop(server);
}

#[test]
fn slow_sink_backpressure_bounds_the_output_queue() {
    let server_ip = Ipv4Addr::new(203, 0, 113, 43);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);

    let conf = Conf::parse([
        "A",
        "--name-servers",
        "203.0.113.43",
        "--threads",
        "2",
        "--max-in-flight",
        "32",
        "--retries",
        "2",
    ])
    .unwrap();
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    // Outputs alive anywhere between a lookup's completion and the sink:
    // in a worker's block, in the queue, or in the writer's block.
    let live = Arc::new(AtomicUsize::new(0));
    let peak_live = Arc::new(AtomicUsize::new(0));
    let module = Arc::new(Tapped {
        inner: ModuleRegistry::standard().get("A").unwrap(),
        tap: {
            let (live, peak_live) = (Arc::clone(&live), Arc::clone(&peak_live));
            Arc::new(move |_| {
                peak_live.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            })
        },
    });

    let mut source = (0..600).map(|i| format!("slow{i}.sink.test"));
    // A sink an order of magnitude slower than the lookups.
    let mut sink = CallbackSink::new(|_| {
        std::thread::sleep(Duration::from_micros(500));
        live.fetch_sub(1, Ordering::SeqCst);
    });
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);

    assert_eq!(report.lookups, 600, "{:?}", report.worker_errors);
    // The queue is bounded at (2 * window).max(64) = 64 outputs, counted
    // in items however they cross it: the writer can never find more.
    const CAP: usize = 64;
    assert!(
        (1..=CAP).contains(&report.peak_output_queue),
        "bounded queue violated: peak {}",
        report.peak_output_queue
    );
    // And however slow the sink, the outputs alive at once are the full
    // queue, one block (the default batch size) per worker that found it
    // full, and the block the writer is working through.
    let bound = CAP + report.workers * zdns::core::DEFAULT_BATCH_SIZE + CAP;
    let peak = peak_live.load(Ordering::SeqCst);
    assert!(
        peak <= bound,
        "{peak} outputs alive at once, bound {bound} ({} workers)",
        report.workers
    );
    assert_eq!(live.load(Ordering::SeqCst), 0);
    drop(server);
}

#[test]
fn a_producer_that_waits_for_its_answers_is_never_starved() {
    // Name k+1 is written only after the sink has seen name k — a caller
    // feeding stdin from what it reads on stdout. Were any name or output
    // held back until a block filled (or across a blocking call for more),
    // the two would wait for each other forever.
    const NAMES: usize = 50;
    let server_ip = Ipv4Addr::new(203, 0, 113, 45);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);
    let conf = Conf::parse([
        "A",
        "--name-servers",
        "203.0.113.45",
        "--threads",
        "2",
        "--max-in-flight",
        "64",
    ])
    .unwrap();
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("A").unwrap();

    let seen = Arc::new((Mutex::new(0usize), Condvar::new()));
    let source_seen = Arc::clone(&seen);
    let mut source = (0..NAMES).map(move |k| {
        let (count, arrived) = &*source_seen;
        let (_count, wait) = arrived
            .wait_timeout_while(count.lock().unwrap(), Duration::from_secs(20), |n| *n < k)
            .unwrap();
        assert!(!wait.timed_out(), "the answer to name {} never came", k - 1);
        format!("turn{k}.pipeline.test")
    });
    let mut sink = CallbackSink::new(|_| {
        let (count, arrived) = &*seen;
        *count.lock().unwrap() += 1;
        arrived.notify_all();
    });
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    assert_eq!(report.lookups as usize, NAMES, "{:?}", report.worker_errors);
    assert_eq!(sink.outputs_written() as usize, NAMES);
    drop(server);
}

#[test]
fn a_slow_scan_prints_each_line_within_a_tick() {
    // 20 names at about 20 per second: a block of outputs never fills, so
    // it must cross to the writer when the worker's loop next sleeps. Each
    // output has to reach the sink within 50 ms of its lookup completing
    // (it takes well under one on an idle machine).
    const NAMES: usize = 20;
    let server_ip = Ipv4Addr::new(203, 0, 113, 46);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);
    let conf = Conf::parse([
        "A",
        "--name-servers",
        "203.0.113.46",
        "--threads",
        "2",
        "--max-in-flight",
        "64",
    ])
    .unwrap();
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let completed: Arc<Mutex<HashMap<String, Instant>>> = Arc::default();
    let module = Arc::new(Tapped {
        inner: ModuleRegistry::standard().get("A").unwrap(),
        tap: {
            let completed = Arc::clone(&completed);
            Arc::new(move |output| {
                let mut completed = completed.lock().unwrap();
                completed.insert(output.name.clone(), Instant::now());
            })
        },
    });

    let mut source = (0..NAMES).map(|k| {
        std::thread::sleep(Duration::from_millis(50));
        format!("paced{k}.pipeline.test")
    });
    let mut waits = Vec::new();
    let mut sink = CallbackSink::new(|output: ModuleOutput| {
        let arrived = Instant::now();
        waits.push(arrived - completed.lock().unwrap()[&output.name]);
    });
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    assert_eq!(report.lookups as usize, NAMES, "{:?}", report.worker_errors);
    assert_eq!(waits.len(), NAMES);
    let worst = waits.iter().max().unwrap();
    assert!(
        *worst <= Duration::from_millis(50),
        "an output waited {worst:?} for its hand-off: {waits:?}"
    );
    drop(server);
}

#[test]
fn sim_scan_drains_the_same_input_source_stream() {
    let conf = Conf::parse(["A", "--name-servers", "8.8.8.8", "--threads", "64"]).unwrap();
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let module = ModuleRegistry::standard().get("A").unwrap();
    // The identical generator type the real pipeline consumed above.
    let source = CtCorpus::new(7, 486, 1211).into_stream(250);
    let outputs = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let o2 = Arc::clone(&outputs);
    let report = run_sim_scan(&conf, universe, module, source, move |_| {
        o2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(report.jobs, 250);
    assert_eq!(outputs.load(std::sync::atomic::Ordering::Relaxed), 250);
}

#[test]
fn probe_over_loopback_prints_the_recorded_bytes() {
    // The real-socket half of `tests/golden_output.rs`: PROBE's `long`
    // lines (flags, authorities, resolver, server) over the loopback
    // harness, hashed as a sorted set because completion order is the
    // network's. Recorded on the parent of the result-path change.
    const GOLDEN: u64 = 0xaee2_ebf2_d395_c5c4;
    let server_ip = Ipv4Addr::new(203, 0, 113, 44);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);

    let conf = Conf::parse([
        "PROBE",
        "--threads",
        "2",
        "--max-in-flight",
        "64",
        "--retries",
        "2",
        "--output-fields",
        "long",
    ])
    .unwrap();
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("PROBE").unwrap();
    let mut source = CtCorpus::new(7, 486, 1211)
        .into_stream(300)
        .enumerate()
        .map(|(i, name)| {
            let qtype = if i % 5 == 0 { "#TXT" } else { "" };
            format!("{name}@{server_ip}{qtype}")
        });
    let mut sink = JsonlSink::new(Vec::new(), conf.output);
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    assert_eq!(report.lookups, 300, "{:?}", report.worker_errors);
    drop(server);

    let text = String::from_utf8(sink.into_inner()).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 300);
    lines.sort_unstable();
    let hash = zdns::zones::hashing::h64(0, "golden-output", lines.join("\n").as_bytes());
    assert_eq!(
        hash, GOLDEN,
        "PROBE long lines changed ({hash:#018x}); first line: {}",
        lines[0]
    );
}
