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
use zdns_framework::conf::{Conf, Workload};
use zdns_framework::output::{JsonlSink, OutputSink};
use zdns_framework::{pipeline, runner};
use zdns_modules::ModuleRegistry;
use zdns_netsim::InputSource;
use zdns_workloads::CtCorpus;
use zdns_zones::{SynthConfig, SyntheticUniverse};

/// The corpus registry shape every evaluation workload uses (486 ccTLDs,
/// 1211 new gTLDs — the Table 3 registry mix).
const CORPUS_CCTLDS: usize = 486;
const CORPUS_NGTLDS: usize = 1211;

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
            CtCorpus::new(conf.seed, CORPUS_CCTLDS, CORPUS_NGTLDS)
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
        // Route by the --name-servers entries: `ip:port` forms keep their
        // port (a scan can point at a local `zdns serve`), everything
        // else goes to ip:53.
        let ports: std::collections::HashMap<std::net::Ipv4Addr, std::net::SocketAddr> = conf
            .name_server_addrs
            .iter()
            .filter_map(|sa| match sa {
                std::net::SocketAddr::V4(v4) => Some((*v4.ip(), *sa)),
                _ => None,
            })
            .collect();
        let addr_map: Arc<zdns_core::AddrMap> = Arc::new(move |ip: std::net::Ipv4Addr| {
            ports
                .get(&ip)
                .copied()
                .unwrap_or_else(|| std::net::SocketAddr::new(ip.into(), 53))
        });
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
        if report.lookups == 0 && !report.worker_errors.is_empty() {
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
    let mut output = String::new();
    let mut allow_partial = false;
    let mut manifests: Vec<std::path::PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--output" | "--output-file" => {
                i += 1;
                match args.get(i) {
                    Some(v) => output = v.clone(),
                    None => {
                        eprintln!("zdns merge: --output needs a path");
                        std::process::exit(2);
                    }
                }
            }
            "--allow-partial" => allow_partial = true,
            flag if flag.starts_with("--") => {
                eprintln!("zdns merge: unknown flag {flag}");
                std::process::exit(2);
            }
            manifest => manifests.push(std::path::PathBuf::from(manifest)),
        }
        i += 1;
    }
    if output.is_empty() {
        eprintln!("zdns merge: --output PATH is required");
        std::process::exit(2);
    }
    match zdns_framework::merge_shards(&manifests, std::path::Path::new(&output), allow_partial) {
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
  --output PATH        merged JSONL destination (required)
  --allow-partial      merge even if some shards have not finished
                       (their indices are reported on stderr)"
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
    let handle = match zdns_framework::serve::start(&conf.options()) {
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
        conf.upstreams
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
    let reports = handle.stop();
    if let Some(report) = reports.first() {
        eprintln!(
            "zdns serve: io backend {}, {} upstream queries sent, {} datagrams received",
            report.io_backend, report.datagrams_sent, report.datagrams_received,
        );
    }
}

fn print_serve_help() {
    println!(
        "zdns serve - caching forwarding DNS server (reactor serve mode)

USAGE: zdns serve --upstream IP[:PORT] [flags]

FLAGS:
  --listen IP:PORT         listen address, UDP + TCP (default 127.0.0.1:5353;
                           port 0 = ephemeral)
  --upstream IP[:PORT][,…] upstream recursive resolvers misses are forwarded
                           to (required; port defaults to 53)
  --cache-capacity N       selective cache entries (default 600000)
  --packet-cache-capacity N
                           pre-encoded answer packets kept in front of the
                           record cache; hot repeats skip record iteration
                           and re-encoding (default 65536; 0 disables)
  --client-pps N           per-client UDP budget in queries/s; over-budget
                           queries are dropped, TCP is never gated
                           (default: off)
  --io-backend KIND        forwarding syscall strategy: auto | mmsg | syscall
                           (as in scan mode)
  --shards N               worker count: 1 (default) serves and forwards on
                           one dual-role socket; N>1 shards the listen port
                           across workers via SO_REUSEPORT
  --batch-size N           datagrams per syscall on the forwarding path
                           (default 32; at most 1024)
  --duration SECS          serve for SECS then exit (default: run forever)
  --status-updates         print a stats line to stderr every second"
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
  --iterative              resolve iteratively from the roots (default)
  --name-servers IP[,IP]   use external recursive resolvers; ip:port forms
                           keep their port under --real (e.g. a local
                           `zdns serve` instance). Simulated runs have
                           Google at 8.8.8.8, Cloudflare at 1.1.1.1
  --threads N              concurrent lookup routines (default 1000)
  --cache-size N           selective cache entries (default 600000)
  --retries N              per-query retries (default 3)
  --timeout SECS           external query timeout
  --iteration-timeout SECS per-step timeout for iterative walks
  --tcp-only               send every query over TCP (no UDP attempt)
  --no-tcp-fallback        never retry truncated (TC=1) answers over TCP
  --trace                  same as --output-fields trace
  --output-fields GROUP    short: name, status, answers | normal (default):
                           all but flags, additionals | long: all of data |
                           trace: long plus the lookup chain. The chain is
                           recorded only when it is printed; in iterative
                           mode it costs ~2.8x the time and ~7x the bytes
                           of a normal line. The last of --trace and
                           --output-fields on the command line decides
  --input-file PATH        newline-delimited names (default: stdin)
  --workload KIND          name source: lines (default) reads --input-file;
                           ct-corpus streams the generated CT-log-like corpus
                           (requires --max-names N; never materialized)
  --output-file PATH       output JSONL (default: stdout)
  --source-ips N           scanning source addresses (1=/32, 8=/29, 16=/28)
  --seed N                 simulated-Internet seed
  --max-names N            stop after N inputs
  --status-updates         print run statistics to stderr
  --real                   scan over real sockets (servers at ip:53) using
                           the event-driven reactor instead of the simulator
  --max-in-flight N        reactor admission window: concurrent lookups in
                           flight across all workers (default: --threads)
  --batch-size N           datagrams per syscall on the reactor hot path:
                           same-tick sends coalesce into one sendmmsg and
                           receives drain through an N-buffer recvmmsg arena
                           (default 32; 1 = per-datagram syscalls; at most
                           1024)
  --io-backend KIND        reactor syscall strategy: auto (default) and mmsg
                           use sendmmsg/recvmmsg where the platform has them
                           and --batch-size is above 1, per-datagram
                           otherwise; syscall forces per-datagram
  --pin-cores              pin each reactor worker to its own CPU core
                           (sched_setaffinity; best-effort)
  --rate-pps N             polite scanning: global send budget in packets/s,
                           one scan-wide budget the workers lease from
                           (default: unlimited)
  --per-host-pps N         per-destination send budget in packets/s
  --backoff                adaptive per-destination backoff: timeout/error
                           streaks grow a penalty multiplicatively, successes
                           decay it
  --backoff-base SECS      first backoff penalty (implies --backoff)
  --backoff-cap SECS       backoff penalty growth cap (implies --backoff)
  --cookie-secret S        derive EDNS client cookies from a keyed hash of S
                           and the destination (RFC 7873 \u{a7}6): 32 hex digits
                           are literal, anything else is stretched; default
                           stays the reproducible per-name hash
  --shard I/N              deterministic horizontal partition: scan only the
                           names whose stable hash lands on shard I of N;
                           run all N shards (any machines, any order) to
                           cover the input exactly once
  --checkpoint PATH        durable scan: write a scan manifest to PATH and a
                           rotating progress checkpoint to PATH.ckpt
                           (requires --real, --output-file, and a replayable
                           input). A killed scan restarts with --resume PATH
  --resume PATH            resume the scan described by the manifest at PATH:
                           repairs the output's torn trailing line, skips
                           every name already in the output, re-admits the
                           in-flight remainder, and restores pacer backoff
  --checkpoint-every N     completions between checkpoint snapshots
                           (default 1000; needs --checkpoint or --resume)"
    );
}
