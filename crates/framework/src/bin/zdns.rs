//! The `zdns` command-line tool.
//!
//! ```text
//! zdns MODULE [flags] < names.txt > results.jsonl
//! ```
//!
//! Scans run against the built-in simulated Internet (deterministic per
//! `--seed`), making the CLI a self-contained demonstration of the whole
//! pipeline: input decoding, module dispatch, lookup routines, JSON output,
//! and run-time statistics on stderr.

use std::io::{BufRead, Write};
use std::sync::Arc;

use parking_lot::Mutex;
use zdns_framework::conf::{Conf, MergeConf, Workload, MERGE_FLAGS, SCAN_FLAGS, SERVE_FLAGS};
use zdns_framework::output::{JsonlSink, OutputSink};
use zdns_framework::{pipeline, runner};
use zdns_modules::ModuleRegistry;
use zdns_netsim::InputSource;
use zdns_workloads::CtCorpus;
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::{SynthConfig, SyntheticUniverse};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_help();
        return;
    }
    if args[0] == "serve" {
        run_serve(&args[1..]);
        return;
    }
    if args[0] == "merge" {
        run_merge(&args[1..]);
        return;
    }
    let mut conf = match Conf::parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("zdns: {e}");
            std::process::exit(2);
        }
    };
    let registry = ModuleRegistry::standard();
    let Some(module) = registry.get(&conf.module) else {
        eprintln!(
            "zdns: unknown module {:?}; available: {}",
            conf.module,
            registry.names().join(", ")
        );
        std::process::exit(2);
    };

    let universe = Arc::new(SyntheticUniverse::new(SynthConfig {
        seed: conf.seed,
        ..SynthConfig::default()
    }));

    // Input: a streaming source — lines from a file/stdin, or the
    // generated CT corpus (`--workload ct-corpus --max-names N`), which
    // is never materialized.
    let mut source: Box<dyn InputSource> = match conf.workload {
        Workload::CtCorpus => Box::new(
            CtCorpus::new(conf.seed, TABLE3_CCTLDS, TABLE3_NGTLDS)
                .into_stream(conf.max_names as u64),
        ),
        Workload::Lines => {
            let reader: Box<dyn BufRead> = if conf.input_path == "-" {
                Box::new(std::io::stdin().lock())
            } else {
                match std::fs::File::open(&conf.input_path) {
                    Ok(f) => Box::new(std::io::BufReader::new(f)),
                    Err(e) => {
                        eprintln!("zdns: cannot open {}: {e}", conf.input_path);
                        std::process::exit(2);
                    }
                }
            };
            let max = conf.max_names;
            Box::new(
                reader
                    .lines()
                    .map_while(Result::ok)
                    .map(trim_in_place)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .take(if max == 0 { usize::MAX } else { max }),
            )
        }
    };

    // Sharding: filter the (already name-capped) stream down to this
    // process's partition. --max-names applies *before* the shard
    // filter, so the union of all shards equals the unsharded run.
    if let Some((index, count)) = conf.shard {
        if count > 1 {
            source = Box::new(zdns_netsim::ShardedSource::new(source, index, count));
        }
    }

    // Resume: verify the manifest matches this configuration, repair the
    // output's torn trailing line, and skip every name whose output line
    // already exists — zero completed names are re-probed.
    if conf.resume {
        match zdns_framework::prepare_resume(&conf, std::path::Path::new(&conf.checkpoint_path)) {
            Ok(plan) => {
                if plan.repaired_bytes > 0 {
                    eprintln!(
                        "zdns: dropped {} torn trailing byte(s) from {}",
                        plan.repaired_bytes, plan.manifest.output
                    );
                }
                eprintln!(
                    "zdns: resuming scan {} — {} name(s) already complete (output scanned in {:.3}s){}",
                    plan.manifest.scan_id,
                    plan.done.len(),
                    plan.done_scan.as_secs_f64(),
                    plan.checkpoint
                        .as_ref()
                        .map(|c| format!(
                            ", checkpoint at cursor {} ({} outstanding)",
                            c.cursor,
                            c.outstanding.len()
                        ))
                        .unwrap_or_default(),
                );
                // The manifest owns the output location — the path is
                // deliberately outside the scan fingerprint, so flags
                // cannot redirect a resumed shard's output.
                conf.output_path = plan.manifest.output.clone();
                source = Box::new(zdns_framework::DedupSource::new(source, plan.done));
            }
            Err(e) => {
                eprintln!("zdns: {e}");
                std::process::exit(2);
            }
        }
    }

    // Output: a JSONL sink over file or stdout, serializing every line
    // through one reusable buffer. A resumed scan appends to the
    // (already repaired) output instead of truncating it.
    let writer: Box<dyn Write + Send> = if conf.output_path == "-" {
        Box::new(std::io::BufWriter::new(std::io::stdout()))
    } else {
        let mut opts = std::fs::OpenOptions::new();
        opts.write(true).create(true);
        if conf.resume {
            opts.append(true);
        } else {
            opts.truncate(true);
        }
        match opts.open(&conf.output_path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("zdns: cannot create {}: {e}", conf.output_path);
                std::process::exit(2);
            }
        }
    };
    let mut sink = JsonlSink::new(writer, conf.output);

    if conf.real {
        // Real sockets: the reactor drives --max-in-flight concurrent
        // lookups over a handful of long-lived UDP sockets, addressing
        // servers directly (`ip:53`). Iterative mode is refused: its root
        // hints come from the *synthetic* universe, so a real iterative
        // scan would spray live packets at third-party addresses that are
        // not DNS servers. Input-addressed modules (PROBE, BINDVERSION)
        // take every destination from their input lines and are exempt.
        if matches!(conf.resolver.mode, zdns_core::ResolutionMode::Iterative)
            && !module.input_addressed()
        {
            eprintln!(
                "zdns: --real requires --name-servers (iterative mode has no \
                 real root hints yet; the built-in hints are simulation-only)"
            );
            std::process::exit(2);
        }
        let resolver = runner::resolver_for(&conf, universe.as_ref());
        let addr_map = runner::addr_map(&conf.name_server_addrs);
        let report = pipeline::run_scan_pipeline(
            &conf,
            &resolver,
            module,
            addr_map,
            source.as_mut(),
            &mut sink,
        );
        for error in &report.worker_errors {
            eprintln!("zdns: {error}");
        }
        eprintln!("{}", report.summary_line());
        if report.driver.completed == 0 && !report.worker_errors.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    // Sim path: same source, same sink — the sink sits behind a lock
    // because the engine's output callback must be Send.
    let sink = Arc::new(Mutex::new(sink));
    let sink2 = Arc::clone(&sink);
    let report = runner::run_sim_scan(
        &conf,
        universe,
        module,
        std::iter::from_fn(move || source.next_name()),
        move |o| {
            let _ = sink2.lock().write_output(o);
        },
    );
    let _ = sink.lock().flush();

    if conf.status_updates {
        eprintln!(
            "zdns: {} lookups, {:.1}% success, {} queries, {:.1}s virtual time, {:.0} successes/s steady-state",
            report.jobs,
            report.success_rate() * 100.0,
            report.queries_sent,
            zdns_netsim::as_secs_f64(report.makespan),
            report.steady_success_rate(),
        );
    }
}

/// An input line without its surrounding whitespace, in the `String`
/// `lines()` built for it — not in a second one.
fn trim_in_place(mut line: String) -> String {
    line.truncate(line.trim_end().len());
    let leading = line.len() - line.trim_start().len();
    line.drain(..leading);
    line
}

/// `zdns merge`: verify that per-shard manifests describe the same scan
/// (equal fingerprints, shard indices covering exactly `0..n`, every
/// shard complete unless `--allow-partial`) and concatenate their JSONL
/// outputs in shard-index order.
fn run_merge(args: &[String]) {
    if args.is_empty() || args[0] == "--help" {
        print_merge_help();
        if args.is_empty() {
            std::process::exit(2);
        }
        return;
    }
    let conf = match MergeConf::parse(args.iter().cloned()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("zdns merge: {e}");
            std::process::exit(2);
        }
    };
    let output = &conf.output;
    match zdns_framework::merge_shards(
        &conf.manifests,
        std::path::Path::new(output),
        conf.allow_partial,
    ) {
        Ok(report) => {
            let partial = if report.partial_shards.is_empty() {
                String::new()
            } else {
                format!(" (shards not complete: {:?})", report.partial_shards)
            };
            eprintln!(
                "zdns merge: {} shard(s), {} line(s) -> {output}{partial}",
                report.shards, report.lines
            );
        }
        Err(e) => {
            eprintln!("zdns merge: {e}");
            std::process::exit(1);
        }
    }
}

fn print_merge_help() {
    println!(
        "zdns merge - combine per-shard scan outputs into one JSONL file

USAGE: zdns merge --output merged.jsonl shard0.manifest.json shard1.manifest.json ...

Verifies the shard manifests first: every manifest must carry the same
scan fingerprint (same module/workload/input/seed/max-names/shard-count),
the shard indices must cover exactly 0..n with no duplicates, and every
shard's checkpoint must be marked complete. Outputs are concatenated in
shard-index order.

FLAGS:
{}",
        MERGE_FLAGS.help()
    );
}

/// `zdns serve`: run a caching forwarding DNS server on real sockets —
/// the reactor's bidirectional mode. Listens on UDP + TCP, answers from
/// the selective cache, forwards misses to `--upstream`, and applies a
/// per-client token-bucket gate when `--client-pps` is set.
fn run_serve(args: &[String]) {
    if args.first().map(String::as_str) == Some("--help") {
        print_serve_help();
        return;
    }
    let conf = match zdns_framework::ServeConf::parse(args.iter().cloned()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("zdns serve: {e}");
            std::process::exit(2);
        }
    };
    let handle = match zdns_framework::serve::start(conf.options()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("zdns serve: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "zdns serve: listening on {} (udp+tcp), {} worker{}, forwarding to {}",
        handle.local_addr(),
        handle.stats().len(),
        if handle.stats().len() == 1 { "" } else { "s" },
        conf.options
            .upstreams
            .iter()
            .map(|u| u.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(250));
        if conf.status_updates && started.elapsed().as_millis() % 1000 < 250 {
            eprintln!("{}", handle.summary_line());
        }
        if conf.duration > 0.0 && started.elapsed().as_secs_f64() >= conf.duration {
            break;
        }
    }
    eprintln!("{}", handle.summary_line());
    let mut total = zdns_core::DriverReport::default();
    for report in handle.stop() {
        total.merge(&report);
    }
    eprintln!(
        "zdns serve: io backend {}, {} upstream queries sent, {} datagrams received",
        total.io_backend, total.datagrams_sent, total.datagrams_received,
    );
}

fn print_serve_help() {
    println!(
        "zdns serve - caching forwarding DNS server (reactor serve mode)

USAGE: zdns serve --upstream IP[:PORT] [flags]

FLAGS:
{}",
        SERVE_FLAGS.help()
    );
}

fn print_help() {
    println!(
        "zdns - fast DNS measurement toolkit (Rust reproduction, simulated Internet)

USAGE: zdns MODULE [flags] < names.txt
       zdns serve --upstream IP[:PORT] [flags]   (see: zdns serve --help)
       zdns merge --output merged.jsonl MANIFEST...  (see: zdns merge --help)

MODULES: A, AAAA, MX, TXT, PTR, CAA, ... plus ALOOKUP, MXLOOKUP, NSLOOKUP,
         CAALOOKUP, SPF, DMARC, BINDVERSION, ALLNAMESERVERS

FLAGS:
{}",
        SCAN_FLAGS.help()
    );
}
