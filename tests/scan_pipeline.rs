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
//! * **Concurrent writers** — two workers writing into one JSONL sink
//!   print every line whole and once.
//! * **Block hand-offs that never wait** — names cross the input queue
//!   and outputs reach the sink in blocks, but no name or output is held
//!   across a blocking call: a producer that waits for each answer before
//!   writing the next name is served, and a slow scan's lines reach the
//!   sink as their lookups complete — also while every core is busy with
//!   something else.
//! * **Sim/real convergence** — the simulator drains the same
//!   `InputSource` stream the real pipeline uses.
//! * **Every lookup ends through its line** — a durable scan whose
//!   lookups all wedge still prints one `ERROR` line per input, counts
//!   each once, and closes its checkpoint `complete`.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use zdns::core::{AddrMap, Resolver};
use zdns::framework::{
    run_scan_pipeline, run_sim_scan, CallbackSink, Checkpoint, Conf, JsonlSink, OutputSink,
    RealScanReport, ScanManifest,
};
use zdns::modules::{LookupModule, ModuleOutput, ModuleRegistry, ModuleSink};
use zdns::netsim::{
    ClientEvent, JobOutcome, OutQuery, SimClient, SimTime, StepStatus, WireServer, MILLIS,
};
use zdns::wire::Name;
use zdns::workloads::CtCorpus;
use zdns::zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
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
    let _beside = beside_others();
    let (report, secs) = run_mostly_dead_scan();

    // The whole scan completes: healthy probes answer (NXDOMAIN from the
    // catch-all zone = success), dead destinations time out.
    assert_eq!(
        report.driver.completed as usize,
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
    assert_eq!(report.driver.successes as usize, HEALTHY_LOOKUPS);
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

/// A scan of `inputs` with `argv` against one mute destination (bound,
/// never read): every query it sends times out.
fn scan_a_mute_destination(argv: &[&str], inputs: Vec<String>) -> RealScanReport {
    let mute = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let dest = mute.local_addr().unwrap();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| dest);
    let mut conf = Conf::parse(argv.iter().copied()).unwrap();
    conf.resolver.timeout = 100 * MILLIS;
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get(argv[0]).unwrap();
    let mut source = inputs.into_iter();
    let mut sink = CallbackSink::new(|_| {});
    run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink)
}

#[test]
fn probe_and_external_scans_count_every_retry() {
    let _beside = beside_others();
    // Each lookup times out twice under `--retries 1`, and both timeouts
    // count as retries — for a probe of one server as for a lookup
    // against `--name-servers`.
    const N: usize = 8;
    const MUTE: &str = "203.0.113.47";
    let names = |kind: &str, suffix: &str| -> Vec<String> {
        (0..N)
            .map(|i| format!("{kind}{i}.retries.test{suffix}"))
            .collect()
    };
    let probe = scan_a_mute_destination(
        &["PROBE", "--threads", "2", "--retries", "1"],
        names("probe", &format!("@{MUTE}")),
    );
    let external = scan_a_mute_destination(
        &[
            "A",
            "--name-servers",
            MUTE,
            "--threads",
            "2",
            "--retries",
            "1",
        ],
        names("external", ""),
    );
    for (kind, report) in [("PROBE", probe), ("A", external)] {
        assert_eq!(
            report.driver.completed as usize, N,
            "{kind}: {:?}",
            report.worker_errors
        );
        assert_eq!(
            report.status_counts.get("TIMEOUT"),
            Some(&(N as u64)),
            "{kind}"
        );
        assert_eq!(report.driver.queries_sent as usize, 2 * N, "{kind}");
        assert_eq!(report.driver.retries as usize, 2 * N, "{kind}");
    }
}

#[test]
fn ct_corpus_workload_streams_through_real_scan_on_loopback() {
    let _beside = beside_others();
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
    let mut source =
        CtCorpus::new(conf.seed, TABLE3_CCTLDS, TABLE3_NGTLDS).into_stream(conf.max_names as u64);
    let mut sink = JsonlSink::new(Vec::new(), conf.output);
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);

    assert_eq!(report.driver.completed, 300, "{:?}", report.worker_errors);
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

/// Scan `names` on 2 threads with a 32-lookup window into a sink an order
/// of magnitude slower than the lookups. Returns the report, the most
/// outputs alive at once anywhere between a lookup's completion and the
/// sink, and their bound: a window of finished outputs per worker, since
/// a worker writes what one pass of its loop completed before it admits
/// again, and a slow sink stalls it there.
fn slow_sink_scan(
    server_ip: Ipv4Addr,
    names: impl Iterator<Item = String>,
) -> (RealScanReport, usize, usize) {
    const WINDOW: usize = 32;
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);
    let conf = Conf::parse([
        "A",
        "--name-servers",
        &server_ip.to_string(),
        "--threads",
        "2",
        "--max-in-flight",
        &WINDOW.to_string(),
        "--retries",
        "2",
    ])
    .unwrap();
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
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
    let mut source = names;
    let mut sink = CallbackSink::new(|_| {
        std::thread::sleep(Duration::from_micros(500));
        live.fetch_sub(1, Ordering::SeqCst);
    });
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    drop(server);
    assert_eq!(live.load(Ordering::SeqCst), 0);
    let (peak, bound) = (peak_live.load(Ordering::SeqCst), report.workers * WINDOW);
    eprintln!("peak {peak} outputs alive, bound {bound}");
    (report, peak, bound)
}

#[test]
fn slow_sink_backpressure_bounds_live_outputs() {
    let _beside = beside_others();
    let names = (0..600).map(|i| format!("slow{i}.sink.test"));
    let (report, peak, bound) = slow_sink_scan(Ipv4Addr::new(203, 0, 113, 43), names);
    assert_eq!(report.driver.completed, 600, "{:?}", report.worker_errors);
    assert!(
        peak <= bound,
        "{peak} outputs alive at once, bound {bound} ({} workers)",
        report.workers
    );
}

#[test]
fn lookups_that_end_on_admission_are_written_a_block_at_a_time() {
    let _beside = beside_others();
    // An illegal input's lookup ends as it starts, inside admission, which
    // goes on while the input queue holds names: no loop pass ends to
    // write what piles up, so admission writes each full block itself.
    let names = (0..600).map(|i| format!("bad..{i}.sink.test"));
    let (report, peak, bound) = slow_sink_scan(Ipv4Addr::new(203, 0, 113, 50), names);
    assert_eq!(
        report.status_counts.get("ILLEGAL_INPUT"),
        Some(&600),
        "{:?}",
        report.status_counts
    );
    assert!(peak <= bound, "{peak} outputs alive at once, bound {bound}");
}

#[test]
fn concurrent_workers_write_every_line_whole_and_once() {
    let _beside = beside_others();
    const NAMES: usize = 5_000;
    let server_ip = Ipv4Addr::new(203, 0, 113, 49);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);
    let conf = Conf::parse([
        "A",
        "--name-servers",
        "203.0.113.49",
        "--threads",
        "2",
        "--max-in-flight",
        "256",
        "--retries",
        "2",
    ])
    .unwrap();
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("A").unwrap();
    let mut source = (0..NAMES).map(|i| format!("host{i}.writers.test"));
    let mut sink = JsonlSink::new(Vec::new(), conf.output);
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    drop(server);

    assert_eq!(
        report.driver.completed as usize, NAMES,
        "{:?}",
        report.worker_errors
    );
    assert_eq!(report.sink_errors, 0);
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let mut seen: HashMap<String, usize> = HashMap::new();
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("a whole JSON line");
        *seen
            .entry(v["name"].as_str().unwrap().to_string())
            .or_default() += 1;
    }
    assert_eq!(seen.len(), NAMES, "every input name appears");
    assert!(seen.values().all(|&n| n == 1), "and only once");
    assert!((0..NAMES).all(|i| seen.contains_key(&format!("host{i}.writers.test"))));
}

/// A test that holds a wall-clock bound runs alone ([`alone`]); the other
/// scans of this file may run beside each other ([`beside_others`]).
/// Otherwise one test's scan, or the busy threads of the stress case, is
/// another test's load.
static SCANS: RwLock<()> = RwLock::new(());

fn alone() -> RwLockWriteGuard<'static, ()> {
    SCANS.write().unwrap_or_else(PoisonError::into_inner)
}

fn beside_others() -> RwLockReadGuard<'static, ()> {
    SCANS.read().unwrap_or_else(PoisonError::into_inner)
}

/// Two CPU-bound threads per core (for at most 16 cores), until dropped.
struct BusyCores {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl BusyCores {
    fn start() -> BusyCores {
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..2 * cores.min(16))
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        n = std::hint::black_box(n.wrapping_add(1));
                    }
                })
            })
            .collect();
        BusyCores { stop, threads }
    }
}

impl Drop for BusyCores {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Scan `turns + 1` names through a producer that writes name k+1 only
/// after the sink has seen name k — a caller feeding stdin from what it
/// reads on stdout — and return how long each of the last `turns` turns
/// took, from one answer reaching the sink to the next. The first name's
/// lookup is not a turn: it waits for the pipeline to start (a fresh
/// thread for each worker), which takes a scheduling wait per thread —
/// tens of milliseconds when every core is busy.
fn ping_pong(turns: usize, server_ip: Ipv4Addr) -> Vec<Duration> {
    let names = turns + 1;
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);
    let conf = Conf::parse([
        "A",
        "--name-servers",
        &server_ip.to_string(),
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
    let mut source = (0..names).map(move |k| {
        let (count, arrived) = &*source_seen;
        let (_count, wait) = arrived
            .wait_timeout_while(count.lock().unwrap(), Duration::from_secs(20), |n| *n < k)
            .unwrap();
        assert!(!wait.timed_out(), "the answer to name {} never came", k - 1);
        format!("turn{k}.pipeline.test")
    });
    let mut answered = Vec::with_capacity(names);
    let mut sink = CallbackSink::new(|_| {
        answered.push(Instant::now());
        let (count, arrived) = &*seen;
        *count.lock().unwrap() += 1;
        arrived.notify_all();
    });
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    assert_eq!(
        report.driver.completed as usize, names,
        "{:?}",
        report.worker_errors
    );
    assert_eq!(sink.outputs_written() as usize, names);
    drop(server);
    answered.windows(2).map(|pair| pair[1] - pair[0]).collect()
}

/// A turn slower than this waited for more than its round trip: a worker
/// that sleeps through its name until the 2 ms poll runs out takes
/// 1.4–2.4 ms a turn, where a rung bell answers well under a millisecond.
const SLOW_TURN: Duration = Duration::from_millis(1);

/// How many `turns` were slower than [`SLOW_TURN`], after logging their
/// distribution.
fn slow_turns(label: &str, turns: &[Duration]) -> usize {
    let mut sorted = turns.to_vec();
    sorted.sort();
    let at = |q: usize| sorted[(sorted.len() - 1) * q / 100];
    let slow = turns.iter().filter(|&&t| t > SLOW_TURN).count();
    eprintln!(
        "{label}: {} turns, p50 {:?} p90 {:?} max {:?}, {slow} slower than {SLOW_TURN:?}",
        turns.len(),
        at(50),
        at(90),
        at(100),
    );
    slow
}

#[test]
fn a_producer_that_waits_for_its_answers_is_never_starved() {
    let _beside = beside_others();
    // Were any name or output held back until a block filled (or across a
    // blocking call for more), the producer and the scan would wait for
    // each other forever.
    assert_eq!(ping_pong(50, Ipv4Addr::new(203, 0, 113, 45)).len(), 50);
}

#[test]
fn a_waiting_producer_is_served_within_a_round_trip() {
    // Each name reaches a worker that has been asleep since it found the
    // queue empty. Its bell wakes it on the name, so a turn costs a
    // loopback round trip (well under a millisecond); a worker that
    // waited out its 2 ms poll instead would take 1.4–2.4 ms. On an idle
    // two-core box, with the bell rung, at most one turn in 200 was slow
    // in 20 runs (and 7 in 100 once); a feeder that skips the bell on
    // every fifth name made 20–25 of 200 slow.
    const TURNS: usize = 200;
    let _alone = alone();
    let turns = ping_pong(TURNS, Ipv4Addr::new(203, 0, 113, 47));
    let slow = slow_turns("alone", &turns);
    assert!(slow <= TURNS / 20, "{slow} of {TURNS} turns were slow");
}

#[test]
fn a_waiting_producer_is_served_within_a_round_trip_beside_busy_cores() {
    // The same turns while two CPU-bound threads compete for every core.
    // A turn is four thread wake-ups (feeder, worker, responder, worker,
    // which writes the line itself); each may wait out a busy thread's
    // time slice, and most do not: on two cores, with the bell rung, 3.5
    // turns in 50 were slow on average (14 in the worst round, 6.2 a
    // round over the worst run of twelve); with a feeder that skips the
    // bell on every fifth name, 8–10. So the bound holds over sixteen
    // rounds together, at seven turns in 50. The pipeline's start-up
    // does not fit a turn at all: its fresh worker threads each wait for
    // a core, which is why the turns are timed from the first answer.
    const TURNS: usize = 50;
    const ROUNDS: usize = 16;
    let _alone = alone();
    let _busy = BusyCores::start();
    let slow: usize = (0..ROUNDS)
        .map(|round| {
            let turns = ping_pong(TURNS, Ipv4Addr::new(203, 0, 113, 48));
            slow_turns(&format!("busy round {round}"), &turns)
        })
        .sum();
    assert!(
        slow <= ROUNDS * TURNS * 7 / 50,
        "{slow} of {} turns were slow",
        ROUNDS * TURNS
    );
}

#[test]
fn a_slow_scan_prints_each_line_within_a_tick() {
    // 20 names at about 20 per second: a block of outputs never fills, so
    // the worker must write it when its loop next sleeps. Each
    // output has to reach the sink within 50 ms of its lookup completing
    // (it takes well under one on an idle machine).
    const NAMES: usize = 20;
    let _alone = alone();
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
    assert_eq!(
        report.driver.completed as usize, NAMES,
        "{:?}",
        report.worker_errors
    );
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
    let _beside = beside_others();
    let conf = Conf::parse(["A", "--name-servers", "8.8.8.8", "--threads", "64"]).unwrap();
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let module = ModuleRegistry::standard().get("A").unwrap();
    // The identical generator type the real pipeline consumed above.
    let source = CtCorpus::new(7, TABLE3_CCTLDS, TABLE3_NGTLDS).into_stream(250);
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
    assert_eq!(report.driver.completed, 300, "{:?}", report.worker_errors);
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

/// A module whose machines drop every query the module they wrap emits:
/// each lookup is left running with nothing in flight — wedged — and ends
/// through `abandon`, which the wrapper forwards.
struct Mute(Arc<dyn LookupModule>);

impl LookupModule for Mute {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn description(&self) -> &'static str {
        self.0.description()
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        Box::new(MuteMachine(self.0.make_machine(input, resolver, sink)))
    }
}

struct MuteMachine(Box<dyn SimClient>);

impl SimClient for MuteMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        let step = self.0.start(now, out);
        out.clear();
        step
    }

    fn on_event(
        &mut self,
        event: ClientEvent,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        let step = self.0.on_event(event, now, out);
        out.clear();
        step
    }

    fn abandon(&mut self, now: SimTime) -> JobOutcome {
        self.0.abandon(now)
    }
}

#[test]
fn a_durable_scan_of_wedged_lookups_prints_every_line_and_completes() {
    let _beside = beside_others();
    const N: usize = 50;
    let dir = std::env::temp_dir().join(format!("zdns-wedged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |file: &str| dir.join(file).to_str().unwrap().to_string();
    let (names, output, manifest) = (path("names.txt"), path("out.jsonl"), path("scan.json"));
    let inputs: Vec<String> = (0..N).map(|i| format!("wedged{i}.pipeline.test")).collect();
    std::fs::write(&names, inputs.join("\n")).unwrap();
    let conf = Conf::parse([
        "A",
        "--real",
        "--name-servers",
        "192.0.2.53",
        "--input-file",
        &names,
        "--output-file",
        &output,
        "--checkpoint",
        &manifest,
    ])
    .unwrap();
    let resolver = Resolver::new(conf.resolver.clone());
    let module = Arc::new(Mute(ModuleRegistry::standard().get("A").unwrap()));
    // No query ever leaves, so no destination needs to exist.
    let addr_map: Arc<AddrMap> = Arc::new(|ip| SocketAddr::new(ip.into(), 53));
    let mut source = inputs.clone().into_iter();
    let mut sink = JsonlSink::new(Vec::new(), conf.output);
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);

    let text = String::from_utf8(sink.into_inner()).unwrap();
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("valid JSONL"))
        .collect();
    assert_eq!(lines.len(), N, "one line per input");
    let mut printed: Vec<&str> = lines.iter().map(|v| v["name"].as_str().unwrap()).collect();
    printed.sort_unstable();
    let mut expected: Vec<&str> = inputs.iter().map(String::as_str).collect();
    expected.sort_unstable();
    assert_eq!(printed, expected);
    let error_lines = lines.iter().filter(|v| v["status"] == "ERROR").count();
    assert_eq!(error_lines, N);
    assert_eq!(report.status_counts.get("ERROR").copied(), Some(N as u64));

    let checkpoint = ScanManifest::checkpoint_file(std::path::Path::new(&manifest));
    let last = Checkpoint::load_latest(&checkpoint).expect("a final checkpoint");
    assert!(last.complete, "outstanding: {:?}", last.outstanding);
    assert_eq!(last.completed, N as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}
