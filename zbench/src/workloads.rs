//! The four end-to-end workloads. Each runs the program in-process through
//! the entry points the `zdns` binary itself calls, performs a fixed
//! amount of work for a given seed and slice count, checks every output,
//! and reports the five end-to-end metrics.
//!
//! The timed section of a workload is one uninterrupted run of the program
//! cut into equal fixed-work slices (see [`SliceClock`]); a timing metric
//! is the 5th percentile over slices, the machine left alone (see
//! [`stats::UNDISTURBED`]). Set-up time is measured separately, half
//! before the timed section and half after it, as the median over
//! fresh-state repetitions.

use std::collections::HashMap;
use std::io::{BufRead, BufWriter, Write};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use zdns_core::{AddrMap, Resolver, Status};
use zdns_framework::output::{JsonlSink, OutputSink};
use zdns_framework::{pipeline, runner, Conf};
use zdns_modules::{ModuleOutput, ModuleRegistry};
use zdns_netsim::InputSource;
use zdns_wire::{Name, Question, RData, Rcode, RecordType};
use zdns_workloads::CtCorpus;
use zdns_zones::{SynthConfig, SyntheticUniverse};

use crate::client::{self, ServeClient};
use crate::names::{self, DONE, LIVE};
use crate::responder::Responder;
use crate::stats::{self, SliceClock};
use crate::sys;

/// Files the workloads create live here (relative to the checkout root the
/// benchmark is run from); wiped when a run starts and when it ends.
pub const SCRATCH_DIR: &str = "zbench/target/zbench-scratch";

/// Nominal slices per second of `--seconds`: slice sizes below are tuned
/// so one slice takes about 50 ms on the reference box — short enough that
/// many slices fall wholly between the host's disturbances (see
/// [`stats::UNDISTURBED`]), long enough to hold over a thousand packets.
pub const SLICES_PER_SECOND: u64 = 20;

/// Operations per slice, per workload. Constants, tuned once: a run's
/// work is `slices × ops_per_slice` whatever the machine's speed.
pub fn ops_per_slice(workload: &str) -> u64 {
    match workload {
        "scan_flood" => 3_000,
        "scan_durable" => 2_500,
        "sim_iterative" => 750,
        "serve_mix" => 13_750,
        _ => 0,
    }
}

pub const WORKLOADS: [&str; 4] = ["scan_flood", "scan_durable", "sim_iterative", "serve_mix"];

/// Names already in the output when `scan_durable` resumes.
const DONE_NAMES: u64 = 50_000;

/// Names a set-up repetition pushes through the pipeline.
const SETUP_NAMES: u64 = 64;

/// The simulated destinations `scan_durable` spreads its probes over; the
/// address map lands all of them on the one responder.
const DURABLE_DESTINATIONS: u8 = 16;

/// The corpus registry shape the `zdns` binary uses for `ct-corpus`.
pub const CORPUS_CCTLDS: usize = 486;
pub const CORPUS_NGTLDS: usize = 1211;

/// What one workload run measured.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    pub wire_queries_per_op: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Diagnostics printed next to the metrics.
    pub slices: usize,
    pub slice_wall_p5_s: f64,
    pub slice_wall_p90_s: f64,
    pub slice_wall_median_s: f64,
    pub slice_wall_spread: f64,
    pub setup_reps: usize,
    pub setup_spread: f64,
    /// Share of the process's CPU spent in harness threads.
    pub harness_cpu_share: f64,
    /// Program-side counters for the traced pass (name, value).
    pub counters: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// Run `workload` for `slices` fixed-work slices. `quick` cuts the set-up
/// repetitions to 4 (the smoke run; its numbers are not comparable).
pub fn run(workload: &str, seed: u64, slices: u64, quick: bool) -> Result<EndToEnd, String> {
    let spec = RunSpec {
        seed,
        slices,
        quick,
        process_cpu_before_ns: sys::process_cpu_ns(),
    };
    let _ = std::fs::remove_dir_all(SCRATCH_DIR);
    std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("{SCRATCH_DIR}: {e}"))?;
    let result = match workload {
        "scan_flood" => scan_flood(spec),
        "scan_durable" => scan_durable(spec),
        "sim_iterative" => sim_iterative(spec),
        "serve_mix" => serve_mix(spec),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(SCRATCH_DIR);
    result.map(|mut e| {
        e.peak_rss_mb = sys::peak_rss_mb();
        e
    })
}

fn scratch(file: &str) -> PathBuf {
    Path::new(SCRATCH_DIR).join(file)
}

fn path_str(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

#[derive(Clone, Copy)]
struct RunSpec {
    seed: u64,
    slices: u64,
    quick: bool,
    /// The process's CPU time when the workload began (the traced pass runs
    /// all four in one process).
    process_cpu_before_ns: u64,
}

/// One set-up repetition: seconds from the first call into the program to
/// the first completed operation (NaN when none completed), and how many of
/// its operations failed their check or never completed.
struct SetupRep {
    to_first_s: f64,
    failed: u64,
}

impl SetupRep {
    /// A repetition that pushed [`SETUP_NAMES`] names through a scan.
    fn of_scan(sink: &CheckingSink, to_first_s: f64) -> SetupRep {
        SetupRep {
            to_first_s,
            failed: sink.failed + SETUP_NAMES.saturating_sub(sink.outputs),
        }
    }
}

/// What the set-up repetitions of a workload measured.
#[derive(Default)]
struct Setup {
    /// Seconds to the first completed operation, per repetition that
    /// completed one.
    times: Vec<f64>,
    repetitions: usize,
    failed: u64,
}

/// Half of a workload's set-up repetitions. Called once before the timed
/// section and once after it: this machine's speed drifts in spells of
/// several seconds, and repetitions all taken within one second would
/// report the spell, not the set-up.
///
/// A repetition that takes more than 50 ms to its first completed
/// operation is repeated 8 times per call; a faster one — whose time is
/// mostly thread start-up, and varies by half from one repetition to the
/// next — at least 16 times and on to 400 while the repetitions fit in
/// 0.75 s. A repetition whose checks fail is counted, not fatal; `Err` is
/// for a program that cannot be run at all.
fn repeat_setup(
    quick: bool,
    setup: &mut Setup,
    one: &mut impl FnMut(usize) -> Result<SetupRep, String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut slow = false;
    for n in 0.. {
        let enough = match (quick, slow, n) {
            (_, _, 0) => false,
            (true, _, n) => n >= 2,
            (false, true, n) => n >= 8,
            (false, false, n) => n >= 400 || (n >= 16 && started.elapsed().as_secs_f64() > 0.75),
        };
        if enough {
            break;
        }
        let rep = one(setup.repetitions)?;
        slow |= n == 0 && rep.to_first_s > 0.05;
        setup.repetitions += 1;
        setup.failed += rep.failed;
        if rep.to_first_s.is_finite() {
            setup.times.push(rep.to_first_s);
        }
    }
    Ok(())
}

fn fill_timing(
    e: &mut EndToEnd,
    spec: RunSpec,
    clock: &SliceClock,
    setup: &Setup,
    harness_cpu_ns: u64,
) {
    e.ops_per_s = clock.ops_per_s();
    e.cpu_us_per_op = clock.cpu_us_per_op();
    e.slices = clock.wall_s.len();
    e.slice_wall_p5_s = stats::percentile(&clock.wall_s, stats::UNDISTURBED);
    e.slice_wall_median_s = stats::median(&clock.wall_s);
    e.slice_wall_p90_s = stats::percentile(&clock.wall_s, 0.9);
    e.slice_wall_spread = stats::spread(&clock.wall_s);
    e.setup_s = stats::median(&setup.times);
    e.setup_reps = setup.repetitions;
    e.setup_spread = stats::spread(&setup.times);
    if setup.failed > 0 {
        e.failed += setup.failed;
        e.notes.push(format!(
            "set-up: {} operations failed over {} repetitions",
            setup.failed, setup.repetitions
        ));
    }
    let process_cpu_ns = sys::process_cpu_ns() - spec.process_cpu_before_ns;
    e.harness_cpu_share = harness_cpu_ns as f64 / process_cpu_ns.max(1) as f64;
}

// ---------------------------------------------------------------------------
// Output checking
// ---------------------------------------------------------------------------

/// The sink every scan writes through: checks each output, forwards it to
/// the program's own [`JsonlSink`], and ticks the slice clock.
struct CheckingSink {
    inner: JsonlSink<Box<dyn Write + Send>>,
    clock: SliceClock,
    /// Statuses an output may carry without counting as failed.
    accepted: &'static [Status],
    /// The sampled 1-in-64 answer check.
    answer_ok: Box<dyn Fn(&ModuleOutput) -> bool + Send>,
    outputs: u64,
    failed: u64,
    /// The first few failed outputs, for the report.
    examples: Vec<String>,
    first_output: Option<Instant>,
}

impl CheckingSink {
    fn new(
        writer: Box<dyn Write + Send>,
        conf: &Conf,
        clock: SliceClock,
        accepted: &'static [Status],
        answer_ok: Box<dyn Fn(&ModuleOutput) -> bool + Send>,
    ) -> CheckingSink {
        CheckingSink {
            inner: JsonlSink::new(writer, conf.output),
            clock,
            accepted,
            answer_ok,
            outputs: 0,
            failed: 0,
            examples: Vec::new(),
            first_output: None,
        }
    }
}

impl OutputSink for CheckingSink {
    fn write_output(&mut self, output: ModuleOutput) -> std::io::Result<()> {
        if self.first_output.is_none() {
            self.first_output = Some(Instant::now());
        }
        let mut ok = self.accepted.contains(&output.status);
        if ok && self.outputs.is_multiple_of(64) {
            ok = (self.answer_ok)(&output);
        }
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(format!(
                    "{}: {} {}",
                    output.name,
                    output.status.as_str(),
                    output.data
                ));
            }
        }
        self.outputs += 1;
        let written = self.inner.write_output(output);
        self.clock.tick();
        written
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn outputs_written(&self) -> u64 {
        self.outputs
    }
}

/// The A addresses in an output's `data.answers`, sorted.
fn answer_addresses(output: &ModuleOutput) -> Vec<String> {
    let answers = output.data.get("answers").and_then(|a| a.as_array());
    let mut addrs: Vec<String> = answers
        .into_iter()
        .flatten()
        .filter(|a| a.get("type").and_then(|t| t.as_str()) == Some("A"))
        .filter_map(|a| a.get("answer").and_then(|v| v.as_str()).map(str::to_string))
        .collect();
    addrs.sort();
    addrs
}

/// A scan output must carry exactly the hash-derived address of its name
/// (`name` or `name@ip`).
fn has_hash_answer(output: &ModuleOutput) -> bool {
    let name = output.name.split('@').next().unwrap_or(&output.name);
    answer_addresses(output) == [names::answer_for(names::hash_dotted(name)).to_string()]
}

/// A simulated lookup that succeeded must agree with the instant oracle
/// walk over the same universe: same status, same set of A addresses.
fn agrees_with_oracle(universe: &SyntheticUniverse, output: &ModuleOutput) -> bool {
    if !output.status.is_success() {
        return true;
    }
    let Ok(name) = output.name.parse::<Name>() else {
        return false;
    };
    let truth = zdns_netsim::oracle::resolve(universe, &Question::new(name.clone(), RecordType::A));
    let mut expected: Vec<String> = truth
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::A(a) => Some(a.to_string()),
            _ => None,
        })
        .collect();
    expected.sort();
    let status = match truth.rcode {
        Rcode::NoError => Status::NoError,
        Rcode::NxDomain => Status::NxDomain,
        // The oracle gives up at the first broken server of a flaky zone;
        // the resolver may still succeed through another. No verdict.
        _ => return true,
    };
    if output.status == status && answer_addresses(output) == expected {
        return true;
    }
    // The universe's rare inconsistent domains (the paper's §5) answer
    // differently per nameserver, and the walk may have asked another one
    // than the oracle did: no verdict on a chain that touches one.
    std::iter::once(&name)
        .chain(truth.answers.iter().map(|r| &r.name))
        .filter_map(|n| universe.base_of(n))
        .any(|base| universe.domain_profile(&base).inconsistent)
}

// ---------------------------------------------------------------------------
// Real-socket scans
// ---------------------------------------------------------------------------

/// What a scan run needs besides its flags.
struct ScanEnv<'a> {
    responder: &'a Responder,
    /// Route every simulated destination to the responder (`scan_durable`);
    /// otherwise route by `--name-servers` like the binary does.
    all_to_responder: bool,
}

/// One `zdns MODULE --real …` invocation, following the binary's `main`
/// step for step: parse, registry, resolver, line source, resume, JSONL
/// sink, pipeline. Returns the checking sink and the wall time from the
/// first call into the program to the first completed output.
fn run_scan(
    args: &[String],
    env: &ScanEnv<'_>,
    ops_per_slice: u64,
) -> Result<(CheckingSink, runner::RealScanReport, f64), String> {
    let entered = Instant::now();
    let mut conf = Conf::parse(args.iter().cloned()).map_err(|e| e.to_string())?;
    let registry = ModuleRegistry::standard();
    let module = registry
        .get(&conf.module)
        .ok_or_else(|| format!("no module {}", conf.module))?;
    let resolver = Resolver::new(conf.resolver.clone());

    let file = std::fs::File::open(&conf.input_path)
        .map_err(|e| format!("cannot open {}: {e}", conf.input_path))?;
    let mut source: Box<dyn InputSource> = Box::new(
        std::io::BufReader::new(file)
            .lines()
            .map_while(Result::ok)
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#')),
    );
    if conf.resume {
        let plan = zdns_framework::prepare_resume(&conf, Path::new(&conf.checkpoint_path))?;
        conf.output_path = plan.manifest.output.clone();
        source = Box::new(zdns_framework::DedupSource::new(source, plan.done));
    }
    let mut opts = std::fs::OpenOptions::new();
    opts.write(true).create(true);
    if conf.resume {
        opts.append(true);
    } else {
        opts.truncate(true);
    }
    let out = opts
        .open(&conf.output_path)
        .map_err(|e| format!("cannot create {}: {e}", conf.output_path))?;
    let clock = SliceClock::new(ops_per_slice, vec![env.responder.cpu_clock()]);
    let mut sink = CheckingSink::new(
        Box::new(BufWriter::new(out)),
        &conf,
        clock,
        &[Status::NoError],
        Box::new(has_hash_answer),
    );

    let responder_addr = SocketAddr::V4(env.responder.addr());
    let addr_map: Arc<AddrMap> = if env.all_to_responder {
        Arc::new(move |_| responder_addr)
    } else {
        let ports: HashMap<Ipv4Addr, SocketAddr> = conf
            .name_server_addrs
            .iter()
            .filter_map(|sa| match sa {
                SocketAddr::V4(v4) => Some((*v4.ip(), *sa)),
                _ => None,
            })
            .collect();
        Arc::new(move |ip| {
            ports
                .get(&ip)
                .copied()
                .unwrap_or_else(|| SocketAddr::new(ip.into(), 53))
        })
    };
    sink.clock.restart();
    let report = pipeline::run_scan_pipeline(
        &conf,
        &resolver,
        module,
        addr_map,
        source.as_mut(),
        &mut sink,
    );
    if !report.worker_errors.is_empty() {
        return Err(report.worker_errors.join("; "));
    }
    let to_first = sink
        .first_output
        .map_or(f64::NAN, |t| (t - entered).as_secs_f64());
    Ok((sink, report, to_first))
}

fn write_lines(path: &Path, lines: impl Iterator<Item = String>) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    for line in lines {
        w.write_all(line.as_bytes())
            .and_then(|_| w.write_all(b"\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// What the reactor reports about a flood: how full its batches were.
fn flood_counters(report: &runner::RealScanReport) -> Vec<(&'static str, f64)> {
    let d = &report.driver;
    vec![
        ("core.reactor.peak_in_flight", d.peak_in_flight as f64),
        (
            "core.transport.dgrams_per_send_call",
            d.datagrams_sent as f64 / d.send_syscalls.max(1) as f64,
        ),
    ]
}

/// What the reactor and pacer report about a durable scan: the work the
/// injected faults and the budgets caused.
fn durable_counters(report: &runner::RealScanReport, ops: u64) -> Vec<(&'static str, f64)> {
    let d = &report.driver;
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    vec![
        (
            "core.reactor.retries_per_lookup",
            per_op(d.datagrams_sent + d.tcp_fallbacks).max(1.0) - 1.0,
        ),
        (
            "core.reactor.timer_fires_per_lookup",
            per_op(d.timeouts_fired),
        ),
        (
            "core.reactor.tcp_exchanges_per_lookup",
            per_op(d.tcp_fallbacks),
        ),
        ("core.pacer.cas_retries", d.pacer_cas_retries as f64),
        ("core.pacer.deferred_per_lookup", per_op(d.queries_deferred)),
    ]
}

/// `scan_flood`: an unpaced external-mode A scan of unique names at the
/// responder, output to `/dev/null`.
fn scan_flood(spec: RunSpec) -> Result<EndToEnd, String> {
    let RunSpec {
        seed,
        slices,
        quick,
        ..
    } = spec;
    let per_slice = ops_per_slice("scan_flood");
    let total = slices * per_slice;
    let responder = Responder::start(false).map_err(|e| e.to_string())?;
    let env = ScanEnv {
        responder: &responder,
        all_to_responder: false,
    };
    let input = scratch("flood-names.txt");
    let setup_input = scratch("flood-setup-names.txt");
    write_lines(&input, (0..total).map(|i| names::scan_name(LIVE, seed, i)))?;
    write_lines(
        &setup_input,
        (0..SETUP_NAMES).map(|i| names::scan_name('s', seed, i)),
    )?;
    let args = |input: &Path| {
        let mut a = strings(&["A", "--real", "--threads", "1", "--max-in-flight", "1000"]);
        a.extend(strings(&[
            "--io-backend",
            "mmsg",
            "--output-file",
            "/dev/null",
        ]));
        a.extend(["--name-servers".to_string(), responder.addr().to_string()]);
        a.extend(["--input-file".to_string(), path_str(input)]);
        a
    };

    let mut one_setup = |_| {
        let (sink, _, to_first) = run_scan(&args(&setup_input), &env, SETUP_NAMES)?;
        Ok(SetupRep::of_scan(&sink, to_first))
    };
    let mut setup = Setup::default();
    repeat_setup(quick, &mut setup, &mut one_setup)?;

    let wire_before = responder.stats().wire_queries();
    let (sink, report, _) = run_scan(&args(&input), &env, per_slice)?;
    let wire = responder.stats().wire_queries() - wire_before;
    repeat_setup(quick, &mut setup, &mut one_setup)?;

    let mut e = EndToEnd {
        attempted: total,
        failed: sink.failed + total.saturating_sub(sink.outputs),
        wire_queries_per_op: wire as f64 / total as f64,
        counters: flood_counters(&report),
        notes: sink.examples.clone(),
        ..EndToEnd::default()
    };
    fill_timing(
        &mut e,
        spec,
        &sink.clock,
        &setup,
        responder.cpu_clock().ns(),
    );
    Ok(e)
}

/// A PROBE output line as the program writes it, for the done-set.
fn done_line(input: &str, dest: Ipv4Addr, port: u16) -> String {
    let name = input.split('@').next().unwrap_or(input);
    let answer = names::answer_for(names::hash_dotted(name));
    format!(
        "{{\"name\":\"{input}\",\"class\":\"IN\",\"status\":\"NOERROR\",\"module\":\"PROBE\",\
         \"data\":{{\"answers\":[{{\"answer\":\"{answer}\",\"class\":\"IN\",\"name\":\"{name}\",\
         \"ttl\":300,\"type\":\"A\"}}],\"protocol\":\"udp\",\"resolver\":\"{dest}:{port}\",\
         \"server\":\"{dest}\"}}}}"
    )
}

fn durable_input(family: char, seed: u64, i: u64) -> (String, Ipv4Addr) {
    let dest = Ipv4Addr::new(
        203,
        0,
        113,
        10 + (i % u64::from(DURABLE_DESTINATIONS)) as u8,
    );
    (
        format!("{}@{dest}", names::scan_name(family, seed, i)),
        dest,
    )
}

/// `scan_durable`: a paced, backing-off, checkpointed PROBE scan over 16
/// destinations with injected loss and truncation, measured as a
/// `--resume` over an input whose first [`DONE_NAMES`] names are already done.
fn scan_durable(spec: RunSpec) -> Result<EndToEnd, String> {
    let RunSpec {
        seed,
        slices,
        quick,
        ..
    } = spec;
    let per_slice = ops_per_slice("scan_durable");
    let total = slices * per_slice;
    let responder = Responder::start(true).map_err(|e| e.to_string())?;
    let env = ScanEnv {
        responder: &responder,
        all_to_responder: true,
    };
    let port = responder.addr().port();

    // Two scans share the done-set: the timed one and the set-up one, each
    // with its own manifest, input and output.
    let done = || (0..DONE_NAMES).map(|i| durable_input(DONE, seed, i));
    let prepare = |tag: &str, live_family: char, live: u64| -> Result<Vec<String>, String> {
        let (input, output, manifest) = (
            scratch(&format!("durable-{tag}-names.txt")),
            scratch(&format!("durable-{tag}-out.jsonl")),
            scratch(&format!("durable-{tag}.manifest.json")),
        );
        write_lines(
            &input,
            done()
                .map(|(line, _)| line)
                .chain((0..live).map(|i| durable_input(live_family, seed, i).0)),
        )?;
        write_lines(
            &output,
            done().map(|(line, dest)| done_line(&line, dest, port)),
        )?;
        let mut a = strings(&[
            "PROBE",
            "--real",
            "--threads",
            "1",
            "--max-in-flight",
            "1000",
        ]);
        a.extend(strings(&["--io-backend", "mmsg", "--timeout", "0.5"]));
        a.extend(strings(&[
            "--rate-pps",
            "10000000",
            "--per-host-pps",
            "10000000",
        ]));
        a.extend(strings(&[
            "--backoff-base",
            "0.001",
            "--backoff-cap",
            "0.002",
        ]));
        a.extend(strings(&["--checkpoint-every", "1000"]));
        a.extend(["--input-file".to_string(), path_str(&input)]);
        // The manifest a fresh `--checkpoint` run of these flags writes.
        let mut fresh = a.clone();
        fresh.extend(["--output-file".to_string(), path_str(&output)]);
        fresh.extend(["--checkpoint".to_string(), path_str(&manifest)]);
        let conf = Conf::parse(fresh).map_err(|e| e.to_string())?;
        zdns_framework::ScanManifest::from_conf(&conf)
            .write(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        a.extend(["--resume".to_string(), path_str(&manifest)]);
        Ok(a)
    };
    let setup_args = prepare("setup", 's', SETUP_NAMES)?;
    let args = prepare("run", LIVE, total)?;

    let setup_output = scratch("durable-setup-out.jsonl");
    let done_bytes = std::fs::metadata(&setup_output)
        .map_err(|e| e.to_string())?
        .len();
    let mut one_setup = |_| {
        let (sink, _, to_first) = run_scan(&setup_args, &env, SETUP_NAMES)?;
        let rep = SetupRep::of_scan(&sink, to_first);
        // Back to the state the repetition found: done-set only, no
        // checkpoint generations.
        drop(sink);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&setup_output)
            .and_then(|f| f.set_len(done_bytes))
            .map_err(|e| e.to_string())?;
        for suffix in [".ckpt", ".ckpt.prev"] {
            let _ = std::fs::remove_file(scratch(&format!("durable-setup.manifest.json{suffix}")));
        }
        Ok(rep)
    };
    let mut setup = Setup::default();
    repeat_setup(quick, &mut setup, &mut one_setup)?;

    let stats = responder.stats();
    let wire_before = stats.wire_queries();
    let swallowed_before = stats.swallowed.load(Ordering::Relaxed);
    let tcp_before = stats.tcp_exchanges.load(Ordering::Relaxed);
    let (sink, report, _) = run_scan(&args, &env, per_slice)?;
    let wire = stats.wire_queries() - wire_before;

    // Both fault classes are chosen by name hash, so the expected retries
    // and TCP exchanges are known exactly.
    let live_hashes = (0..total).map(|i| names::hash_dotted(&names::scan_name(LIVE, seed, i)));
    let (mut lossy, mut tc) = (0u64, 0u64);
    for h in live_hashes {
        lossy += u64::from(names::loses_first_attempt(h));
        tc += u64::from(names::truncates(h));
    }
    let swallowed = stats.swallowed.load(Ordering::Relaxed) - swallowed_before;
    let tcp = stats.tcp_exchanges.load(Ordering::Relaxed) - tcp_before;
    let reprobed = stats.done_names.load(Ordering::Relaxed);
    repeat_setup(quick, &mut setup, &mut one_setup)?;
    let mut notes = sink.examples.clone();
    if reprobed > 0 {
        notes.push(format!(
            "{reprobed} queries for names already in the output"
        ));
    }
    // Every lossy name must have been retried and every truncated one
    // taken to TCP, or its output could not have been NOERROR; more than
    // that (a stall firing timeouts early) only costs wire queries.
    if swallowed != lossy || tcp < tc {
        notes.push(format!(
            "swallowed {swallowed} first attempts (expected {lossy}), {tcp} TCP exchanges \
             (expected {tc})"
        ));
    }

    let mut e = EndToEnd {
        attempted: total,
        failed: sink.failed
            + total.saturating_sub(sink.outputs)
            + swallowed.abs_diff(lossy)
            + tc.saturating_sub(tcp)
            + reprobed,
        wire_queries_per_op: wire as f64 / total as f64,
        counters: durable_counters(&report, total),
        notes,
        ..EndToEnd::default()
    };
    fill_timing(
        &mut e,
        spec,
        &sink.clock,
        &setup,
        responder.cpu_clock().ns(),
    );
    Ok(e)
}

// ---------------------------------------------------------------------------
// Simulated iterative scan
// ---------------------------------------------------------------------------

/// `sim_iterative`: `A --iterative --threads 1000 --workload ct-corpus`
/// through the simulator — one OS thread, no sockets. `run_sim_scan` is
/// `resolver_for` + `run_sim_scan_with`; calling the two halves here keeps
/// the resolver in hand, so its cache counters can be read afterwards.
fn sim_iterative(spec: RunSpec) -> Result<EndToEnd, String> {
    let RunSpec {
        seed,
        slices,
        quick,
        ..
    } = spec;
    let per_slice = ops_per_slice("sim_iterative");
    let total = slices * per_slice;
    let output = scratch("sim-out.jsonl");

    // The binary's sim path: parse, registry, universe, corpus stream,
    // JSONL sink behind a lock, run_sim_scan.
    let run = |names: u64,
               per_slice: u64|
     -> Result<(CheckingSink, zdns_netsim::RunReport, f64, f64), String> {
        let entered = Instant::now();
        let mut a = strings(&[
            "A",
            "--iterative",
            "--threads",
            "1000",
            "--workload",
            "ct-corpus",
        ]);
        a.extend(["--max-names".to_string(), names.to_string()]);
        a.extend(["--seed".to_string(), seed.to_string()]);
        a.extend(["--output-file".to_string(), path_str(&output)]);
        let conf = Conf::parse(a).map_err(|e| e.to_string())?;
        let registry = ModuleRegistry::standard();
        let module = registry.get(&conf.module).ok_or("no module A")?;
        let universe = Arc::new(SyntheticUniverse::new(SynthConfig {
            seed: conf.seed,
            ..SynthConfig::default()
        }));
        let mut source = CtCorpus::new(conf.seed, CORPUS_CCTLDS, CORPUS_NGTLDS)
            .into_stream(conf.max_names as u64);
        let file = std::fs::File::create(&conf.output_path)
            .map_err(|e| format!("cannot create {}: {e}", conf.output_path))?;
        let oracle_universe = Arc::clone(&universe);
        let sink = Arc::new(Mutex::new(CheckingSink::new(
            Box::new(BufWriter::new(file)),
            &conf,
            SliceClock::new(per_slice, Vec::new()),
            &[
                Status::NoError,
                Status::NxDomain,
                Status::ServFail,
                Status::Timeout,
            ],
            Box::new(move |o| agrees_with_oracle(&oracle_universe, o)),
        )));
        let sink2 = Arc::clone(&sink);
        sink.lock().clock.restart();
        let resolver = runner::resolver_for(&conf, universe.as_ref());
        let report = runner::run_sim_scan_with(
            &conf,
            universe,
            module,
            &resolver,
            std::iter::from_fn(move || source.next_name()),
            move |o| {
                let _ = sink2.lock().write_output(o);
            },
        );
        let _ = sink.lock().flush();
        let sink = Arc::try_unwrap(sink)
            .map_err(|_| "sim sink still shared after the scan".to_string())?
            .into_inner();
        let to_first = sink
            .first_output
            .map_or(f64::NAN, |t| (t - entered).as_secs_f64());
        Ok((
            sink,
            report,
            to_first,
            resolver.core().cache.stats.hit_rate(),
        ))
    };

    let mut one_setup = |_| {
        let (sink, _, to_first, _) = run(SETUP_NAMES, SETUP_NAMES)?;
        Ok(SetupRep::of_scan(&sink, to_first))
    };
    let mut setup = Setup::default();
    repeat_setup(quick, &mut setup, &mut one_setup)?;
    let (sink, report, _, cache_hit_share) = run(total, per_slice)?;
    repeat_setup(quick, &mut setup, &mut one_setup)?;
    let unsuccessful = report.jobs - report.successes;
    let mut e = EndToEnd {
        attempted: total,
        // The simulated Internet has broken and lossy zones, so a few
        // SERVFAIL/TIMEOUT outcomes are correct; more than 1 % is not.
        failed: sink.failed
            + total.saturating_sub(sink.outputs)
            + unsuccessful.saturating_sub(total / 100),
        wire_queries_per_op: report.queries_sent as f64 / report.jobs.max(1) as f64,
        counters: vec![("core.cache.hit_share", cache_hit_share)],
        notes: sink.examples.clone(),
        ..EndToEnd::default()
    };
    fill_timing(&mut e, spec, &sink.clock, &setup, 0);
    Ok(e)
}

// ---------------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------------

/// `serve_mix`: one serve shard with default caches, forwarding to the
/// responder, under the 85/10/5 mix from a closed-loop client with
/// [`client::OUTSTANDING`] queries outstanding.
fn serve_mix(spec: RunSpec) -> Result<EndToEnd, String> {
    let RunSpec {
        seed,
        slices,
        quick,
        ..
    } = spec;
    let per_slice = ops_per_slice("serve_mix");
    let total = slices * per_slice;
    let responder = Responder::start(false).map_err(|e| e.to_string())?;
    let serve_args = || {
        let mut a = strings(&[
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--io-backend",
            "mmsg",
        ]);
        a.extend(["--upstream".to_string(), responder.addr().to_string()]);
        a
    };
    let start = || -> Result<zdns_framework::ServeHandle, String> {
        let conf = zdns_framework::ServeConf::parse(serve_args()).map_err(|e| e.to_string())?;
        zdns_framework::serve::start(&conf.options()).map_err(|e| e.to_string())
    };

    // Set-up: parse → start → first answer to a never-seen name (one
    // forward through the whole path), then stop.
    let mut one_setup = |rep| {
        let entered = Instant::now();
        let handle = start()?;
        let label = format!("u{rep}s{seed:x}");
        let answered = client::one_query(handle.local_addr(), label.as_bytes());
        handle.stop();
        Ok(match answered? {
            Some(at) => SetupRep {
                to_first_s: (at - entered).as_secs_f64(),
                failed: 0,
            },
            None => SetupRep {
                to_first_s: f64::NAN,
                failed: 1,
            },
        })
    };
    let mut setup = Setup::default();
    repeat_setup(quick, &mut setup, &mut one_setup)?;

    let handle = start()?;
    let (outcome, warm_up_failed, clock, harness_cpu_ns, wire_before, before) =
        client::on_harness_thread(|| {
            let mut client = ServeClient::new(handle.local_addr(), seed)?;
            let warm_up_failed = client.warm_up();
            let wire_before = responder.stats().wire_queries();
            let before = (
                handle.queries(),
                handle.packet_hits(),
                handle.cache_hits(),
                handle.forwarded(),
            );
            let client_cpu = sys::ThreadCpuClock::current();
            let mut clock = SliceClock::new(per_slice, vec![responder.cpu_clock(), client_cpu]);
            let outcome = client.run_closed_loop(total, &mut clock);
            let harness_cpu_ns = responder.cpu_clock().ns() + client_cpu.ns();
            Ok::<_, String>((
                outcome,
                warm_up_failed,
                clock,
                harness_cpu_ns,
                wire_before,
                before,
            ))
        })?;
    let wire = responder.stats().wire_queries() - wire_before;
    let forwarded = handle.forwarded() - before.3;
    let queries = (handle.queries() - before.0).max(1) as f64;
    let packet_hit_share = (handle.packet_hits() - before.1) as f64 / queries;
    let record_hit_share = (handle.cache_hits() - before.2) as f64 / queries - packet_hit_share;
    handle.stop();
    repeat_setup(quick, &mut setup, &mut one_setup)?;

    let mut notes = Vec::new();
    if warm_up_failed > 0 {
        notes.push(format!(
            "serve_mix warm-up: {warm_up_failed} hot-name queries went unanswered or wrong"
        ));
    }
    let fresh = u64::from(outcome.fresh_sent);
    if forwarded != fresh {
        notes.push(format!(
            "serve_mix: server forwarded {forwarded} queries, client sent {fresh} fresh names"
        ));
    }
    let mut e = EndToEnd {
        attempted: total,
        failed: outcome.failed + warm_up_failed + forwarded.abs_diff(fresh),
        wire_queries_per_op: wire as f64 / total as f64,
        counters: vec![
            ("core.serve.packet_hit_share", packet_hit_share),
            ("core.serve.record_hit_share", record_hit_share),
            ("core.serve.forwarded_share", forwarded as f64 / queries),
        ],
        notes,
        ..EndToEnd::default()
    };
    fill_timing(&mut e, spec, &clock, &setup, harness_cpu_ns);
    Ok(e)
}
