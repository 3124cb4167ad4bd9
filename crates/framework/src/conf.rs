//! Scan configuration: the framework's command-line surface.
//!
//! The framework "is responsible for facilitating command-line
//! configuration ... and is absent of most DNS-specific logic" (§3.2).
//! Parsing is argv-vector based so tests and benches drive it directly.

use std::net::{Ipv4Addr, SocketAddr};

use zdns_core::{IoBackend, PacerConfig, ResolutionMode, ResolverConfig, MAX_BATCH};
use zdns_netsim::{SimTime, MILLIS, SECONDS};

use crate::serve::ServeOptions;

/// Which output fields to keep (ZDNS's `--output-fields` groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputGroup {
    /// Name + status only.
    Short,
    /// Everything except the trace.
    #[default]
    Normal,
    /// Everything including flags/additionals.
    Long,
    /// Everything including the lookup chain.
    Trace,
}

impl OutputGroup {
    /// The `--output-fields` spelling of this group.
    pub fn as_str(self) -> &'static str {
        match self {
            OutputGroup::Short => "short",
            OutputGroup::Normal => "normal",
            OutputGroup::Long => "long",
            OutputGroup::Trace => "trace",
        }
    }

    /// Parse an `--output-fields` value.
    pub fn parse(v: &str) -> Option<OutputGroup> {
        match v {
            "short" => Some(OutputGroup::Short),
            "normal" => Some(OutputGroup::Normal),
            "long" => Some(OutputGroup::Long),
            "trace" => Some(OutputGroup::Trace),
            _ => None,
        }
    }
}

/// Where a scan's names come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workload {
    /// Newline-delimited names from `--input-file` / stdin (streaming).
    #[default]
    Lines,
    /// The generated CT-log-like corpus (`zdns_workloads::CtCorpus`),
    /// streamed — `--max-names N` bounds it; the set is never
    /// materialized.
    CtCorpus,
}

impl Workload {
    /// The `--workload` spelling of this source.
    pub fn as_str(self) -> &'static str {
        match self {
            Workload::Lines => "lines",
            Workload::CtCorpus => "ct-corpus",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(v: &str) -> Option<Workload> {
        match v {
            "lines" | "input" => Some(Workload::Lines),
            "ct-corpus" => Some(Workload::CtCorpus),
            _ => None,
        }
    }
}

/// Parsed scan configuration.
#[derive(Debug, Clone)]
pub struct Conf {
    /// Module name (`A`, `MXLOOKUP`, ...).
    pub module: String,
    /// Lookup routine count (the paper's threads).
    pub threads: usize,
    /// Resolver configuration handed to `zdns-core`.
    pub resolver: ResolverConfig,
    /// Output verbosity group.
    pub output: OutputGroup,
    /// Input path (`-` = stdin) when run as a CLI.
    pub input_path: String,
    /// Output path (`-` = stdout).
    pub output_path: String,
    /// Simulation seed (the CLI scans the simulated Internet).
    pub seed: u64,
    /// Number of scanning source IPs (/32=1, /29=8, /28=16).
    pub source_ips: usize,
    /// Print periodic status lines to stderr.
    pub status_updates: bool,
    /// Cap on names read from input (0 = unlimited).
    pub max_names: usize,
    /// Scan over real sockets instead of the simulator.
    pub real: bool,
    /// Admission window for the real-socket reactor: total lookups in
    /// flight across all reactor workers (0 = use `threads`).
    pub max_in_flight: usize,
    /// Global send budget in packets/second, shared across all workers
    /// (0 = unlimited). Polite scanning's primary knob.
    pub rate_pps: f64,
    /// Per-destination send budget in packets/second (0 = unlimited).
    pub per_host_pps: f64,
    /// Adaptive per-destination backoff on timeout/error streaks.
    pub backoff: bool,
    /// First backoff penalty in nanoseconds (0 = pacer default). Doubles
    /// per consecutive failure up to `backoff_cap`.
    pub backoff_base: SimTime,
    /// Backoff penalty growth cap in nanoseconds (0 = pacer default).
    pub backoff_cap: SimTime,
    /// Datagrams per syscall on the reactor hot path: same-tick sends
    /// coalesce into one `sendmmsg` of up to this many datagrams, and the
    /// receive arena holds this many pre-allocated buffers. `0` = the
    /// reactor default; `1` = per-datagram syscalls; at most
    /// [`MAX_BATCH`].
    pub batch_size: usize,
    /// Name source for the scan (`--workload`).
    pub workload: Workload,
    /// Syscall strategy for the reactor hot path (`--io-backend`):
    /// `auto` (default) and `mmsg` run `sendmmsg`/`recvmmsg` where the
    /// platform has them and the batch size is above 1; `syscall` forces
    /// one datagram per syscall.
    pub io_backend: IoBackend,
    /// Pin each reactor worker to its own CPU core
    /// (`sched_setaffinity`), best-effort. Off by default.
    pub pin_cores: bool,
    /// The `--name-servers` entries with their ports: `ip:port` forms
    /// keep the given port, bare IPs get 53. Real-socket scans build
    /// their address map from this, so a scan can point at a non-53
    /// resolver — e.g. a local `zdns serve` instance.
    pub name_server_addrs: Vec<SocketAddr>,
    /// Deterministic horizontal partition (`--shard i/n`): this process
    /// scans only the names whose stable hash assigns them to shard `i`
    /// of `n`. Every shard streams the same input; `None` = unsharded.
    pub shard: Option<(u32, u32)>,
    /// Scan-manifest path (`--checkpoint PATH`): a durable scan writes
    /// its manifest here and periodic checkpoints next to it, so a
    /// killed scan resumes with `--resume PATH`. Empty = not durable.
    pub checkpoint_path: String,
    /// This run resumes the manifest at `checkpoint_path` (`--resume`):
    /// names already in the shard's output are skipped, the in-flight
    /// remainder is re-admitted, and spilled backoff state is restored.
    pub resume: bool,
    /// Completions between checkpoint snapshots (`--checkpoint-every`;
    /// 0 = the default cadence, 1000).
    pub checkpoint_every: u64,
}

impl Default for Conf {
    fn default() -> Self {
        Conf {
            module: "A".to_string(),
            threads: 1_000,
            resolver: ResolverConfig::default(),
            output: OutputGroup::Normal,
            input_path: "-".to_string(),
            output_path: "-".to_string(),
            seed: 1,
            source_ips: 1,
            status_updates: false,
            max_names: 0,
            real: false,
            max_in_flight: 0,
            rate_pps: 0.0,
            per_host_pps: 0.0,
            backoff: false,
            backoff_base: 0,
            backoff_cap: 0,
            batch_size: 0,
            workload: Workload::Lines,
            io_backend: IoBackend::default(),
            pin_cores: false,
            name_server_addrs: Vec::new(),
            shard: None,
            checkpoint_path: String::new(),
            resume: false,
            checkpoint_every: 0,
        }
    }
}

/// Configuration parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfError(pub String);

impl std::fmt::Display for ConfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "configuration error: {}", self.0)
    }
}

impl std::error::Error for ConfError {}

/// Parse a server address: `ip` (port 53) or `ip:port`. IPv4 only — the
/// resolver core routes by v4 address.
fn parse_server_addr(v: &str) -> Result<(Ipv4Addr, SocketAddr), ConfError> {
    if let Ok(ip) = v.parse::<Ipv4Addr>() {
        return Ok((ip, SocketAddr::new(ip.into(), 53)));
    }
    match v.parse::<SocketAddr>() {
        Ok(SocketAddr::V4(v4)) => Ok((*v4.ip(), SocketAddr::V4(v4))),
        _ => Err(ConfError(format!(
            "bad server address {v:?} (expected IP or IP:PORT, IPv4)"
        ))),
    }
}

fn parse_duration_secs(v: &str) -> Result<SimTime, ConfError> {
    v.parse::<f64>()
        .map(|s| (s * SECONDS as f64) as SimTime)
        .map_err(|_| ConfError(format!("bad duration {v:?}")))
}

/// Parse a `--cookie-secret` value into the 16-octet client secret the
/// resolver's keyed cookie derivation uses (RFC 7873 §6): exactly 32 hex
/// digits are taken literally; any other non-empty string is treated as
/// a passphrase and stretched deterministically (two FNV-1a rounds with
/// distinct seeds).
fn parse_cookie_secret(v: &str) -> Result<[u8; 16], ConfError> {
    if v.is_empty() {
        return Err(ConfError("--cookie-secret must not be empty".into()));
    }
    let mut secret = [0u8; 16];
    if v.len() == 32 && v.bytes().all(|b| b.is_ascii_hexdigit()) {
        for (i, chunk) in secret.iter_mut().enumerate() {
            *chunk =
                u8::from_str_radix(&v[2 * i..2 * i + 2], 16).expect("checked hex digits above");
        }
        return Ok(secret);
    }
    for (round, out) in secret.chunks_exact_mut(8).enumerate() {
        // The workspace's one seeded-hash helper, with a distinct facet
        // per 8-byte round.
        let h = zdns_zones::hashing::h64(round as u64 + 1, "cookie-secret", v.as_bytes());
        out.copy_from_slice(&h.to_be_bytes());
    }
    Ok(secret)
}

/// Parse an `--io-backend` value (shared by the scan and serve parsers).
fn parse_io_backend(v: &str) -> Result<IoBackend, ConfError> {
    IoBackend::parse(v)
        .ok_or_else(|| ConfError(format!("bad --io-backend {v:?} (auto|mmsg|syscall)")))
}

/// Parse a `--batch-size` value (shared by the scan and serve parsers):
/// 1 up to [`MAX_BATCH`], the most datagrams one syscall takes.
fn parse_batch_size(v: &str) -> Result<usize, ConfError> {
    v.parse()
        .ok()
        .filter(|n| (1..=MAX_BATCH).contains(n))
        .ok_or_else(|| ConfError(format!("bad --batch-size {v:?} (1 to {MAX_BATCH})")))
}

/// Parse a `--shard` value: `i/n` with `0 <= i < n` and `n >= 1`.
fn parse_shard(v: &str) -> Result<(u32, u32), ConfError> {
    let bad = || {
        ConfError(format!(
            "bad --shard {v:?} (expected I/N with 0 <= I < N, e.g. 0/4)"
        ))
    };
    let (index, count) = v.split_once('/').ok_or_else(bad)?;
    let index: u32 = index.trim().parse().map_err(|_| bad())?;
    let count: u32 = count.trim().parse().map_err(|_| bad())?;
    if count == 0 || index >= count {
        return Err(bad());
    }
    Ok((index, count))
}

impl Conf {
    /// Parse an argv-style vector: `zdns MODULE [flags]`.
    pub fn parse<I, S>(args: I) -> Result<Conf, ConfError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut conf = Conf::default();
        let mut args: Vec<String> = args.into_iter().map(Into::into).collect();
        if args.is_empty() {
            return Err(ConfError("expected a module name".into()));
        }
        conf.module = args.remove(0);
        if conf.module.starts_with('-') {
            return Err(ConfError(format!(
                "expected a module name first, got flag {:?}",
                conf.module
            )));
        }
        let mut name_servers: Vec<Ipv4Addr> = Vec::new();
        let mut iterative = false;
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].clone();
            let take_value = |i: &mut usize| -> Result<String, ConfError> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| ConfError(format!("flag {flag} needs a value")))
            };
            match flag.as_str() {
                "--threads" | "-t" => {
                    conf.threads = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --threads".into()))?;
                }
                "--iterative" => iterative = true,
                "--name-servers" => {
                    for part in take_value(&mut i)?.split(',') {
                        let (ip, addr) = parse_server_addr(part.trim())?;
                        name_servers.push(ip);
                        conf.name_server_addrs.push(addr);
                    }
                }
                "--cache-size" => {
                    conf.resolver.cache_size = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --cache-size".into()))?;
                }
                "--retries" => {
                    conf.resolver.retries = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --retries".into()))?;
                }
                "--timeout" => {
                    conf.resolver.timeout = parse_duration_secs(&take_value(&mut i)?)?;
                }
                "--iteration-timeout" => {
                    conf.resolver.iteration_timeout = parse_duration_secs(&take_value(&mut i)?)?;
                }
                "--tcp-only" => conf.resolver.tcp_only = true,
                "--no-tcp-fallback" => conf.resolver.tcp_on_truncated = false,
                "--trace" => conf.output = OutputGroup::Trace,
                "--output-fields" => {
                    let v = take_value(&mut i)?;
                    conf.output = OutputGroup::parse(&v)
                        .ok_or_else(|| ConfError(format!("bad output group {v:?}")))?;
                }
                "--input-file" | "-f" => conf.input_path = take_value(&mut i)?,
                "--output-file" | "-o" => conf.output_path = take_value(&mut i)?,
                "--seed" => {
                    conf.seed = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --seed".into()))?;
                }
                "--source-ips" => {
                    conf.source_ips = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --source-ips".into()))?;
                }
                "--status-updates" => conf.status_updates = true,
                "--real" => conf.real = true,
                "--max-in-flight" => {
                    conf.max_in_flight = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --max-in-flight".into()))?;
                }
                "--rate-pps" => {
                    conf.rate_pps = take_value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| ConfError("bad --rate-pps".into()))?;
                }
                "--per-host-pps" => {
                    conf.per_host_pps = take_value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| ConfError("bad --per-host-pps".into()))?;
                }
                "--backoff" => conf.backoff = true,
                "--backoff-base" => {
                    conf.backoff = true;
                    conf.backoff_base = parse_duration_secs(&take_value(&mut i)?)?;
                }
                "--backoff-cap" => {
                    conf.backoff = true;
                    conf.backoff_cap = parse_duration_secs(&take_value(&mut i)?)?;
                }
                "--batch-size" => conf.batch_size = parse_batch_size(&take_value(&mut i)?)?,
                "--max-names" => {
                    conf.max_names = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --max-names".into()))?;
                }
                "--workload" => {
                    let v = take_value(&mut i)?;
                    conf.workload = Workload::parse(&v)
                        .ok_or_else(|| ConfError(format!("unknown workload {v:?}")))?;
                }
                "--io-backend" => conf.io_backend = parse_io_backend(&take_value(&mut i)?)?,
                "--pin-cores" => conf.pin_cores = true,
                "--cookie-secret" => {
                    conf.resolver.cookie_secret = Some(parse_cookie_secret(&take_value(&mut i)?)?);
                }
                "--shard" => {
                    conf.shard = Some(parse_shard(&take_value(&mut i)?)?);
                }
                "--checkpoint" => {
                    conf.checkpoint_path = take_value(&mut i)?;
                    if conf.checkpoint_path.is_empty() {
                        return Err(ConfError("--checkpoint needs a manifest path".into()));
                    }
                }
                "--resume" => {
                    conf.checkpoint_path = take_value(&mut i)?;
                    conf.resume = true;
                    if conf.checkpoint_path.is_empty() {
                        return Err(ConfError("--resume needs a manifest path".into()));
                    }
                }
                "--checkpoint-every" => {
                    conf.checkpoint_every = take_value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|v: &u64| *v >= 1)
                        .ok_or_else(|| ConfError("bad --checkpoint-every".into()))?;
                }
                other => return Err(ConfError(format!("unknown flag {other:?}"))),
            }
            i += 1;
        }
        if iterative && !name_servers.is_empty() {
            return Err(ConfError(
                "--iterative and --name-servers are mutually exclusive".into(),
            ));
        }
        // A lookup chain is recorded only when the line will print it:
        // the final output group decides, whatever the flag order.
        conf.resolver.trace = conf.output == OutputGroup::Trace;
        conf.resolver.mode = if name_servers.is_empty() {
            ResolutionMode::Iterative
        } else {
            ResolutionMode::External {
                servers: name_servers,
            }
        };
        if conf.workload == Workload::CtCorpus && conf.max_names == 0 {
            return Err(ConfError(
                "--workload ct-corpus needs --max-names N (the corpus is \
                 unbounded; pick how many fqdns to stream)"
                    .into(),
            ));
        }
        if conf.checkpoint_path.is_empty() {
            if conf.checkpoint_every > 0 {
                return Err(ConfError(
                    "--checkpoint-every needs --checkpoint PATH or --resume PATH \
                     (there is no checkpoint to pace otherwise)"
                        .into(),
                ));
            }
        } else {
            // A durable scan must be re-runnable from its manifest alone:
            // real sockets (the sim is already deterministic end to end),
            // an output file to dedup completed names against, and an
            // input that can be streamed again (a file path or a seeded
            // generator — a drained stdin cannot be replayed).
            if !conf.real {
                return Err(ConfError(
                    "--checkpoint/--resume require --real (simulated scans \
                     are deterministic; rerun them instead)"
                        .into(),
                ));
            }
            // A resume takes its output location from the manifest (the
            // output path is outside the scan fingerprint), so only a
            // fresh durable scan needs these checked at parse time.
            if !conf.resume {
                if conf.output_path == "-" {
                    return Err(ConfError(
                        "--checkpoint requires --output-file PATH (resume skips \
                         the names already present in the output file)"
                            .into(),
                    ));
                }
                if conf.workload == Workload::Lines && conf.input_path == "-" {
                    return Err(ConfError(
                        "--checkpoint requires --input-file PATH or --workload \
                         ct-corpus (stdin cannot be replayed on resume)"
                            .into(),
                    ));
                }
            }
        }
        // Default timeouts favour scanning: tighter than stub-resolver
        // defaults, looser than LAN assumptions.
        if conf.resolver.iteration_timeout == 0 {
            conf.resolver.iteration_timeout = 1_500 * MILLIS;
        }
        Ok(conf)
    }

    /// The pacing + backoff budgets this scan was asked for (the whole
    /// scan's budget — every worker leases from one shared pacer).
    pub fn pacer_config(&self) -> PacerConfig {
        let defaults = PacerConfig::default();
        PacerConfig {
            rate_pps: self.rate_pps,
            per_host_pps: self.per_host_pps,
            backoff: self.backoff,
            backoff_base: if self.backoff_base > 0 {
                self.backoff_base
            } else {
                defaults.backoff_base
            },
            backoff_cap: if self.backoff_cap > 0 {
                self.backoff_cap
            } else {
                defaults.backoff_cap
            },
            ..defaults
        }
    }

    /// The scanning source addresses derived from `source_ips`.
    pub fn client_ips(&self) -> Vec<Ipv4Addr> {
        (0..self.source_ips.max(1))
            .map(|i| Ipv4Addr::new(192, 0, 2, (i + 1) as u8))
            .collect()
    }
}

/// Parsed `zdns serve` configuration: the forwarding-server subcommand's
/// own flag surface (a serve is not a scan — it has no module, no input,
/// and runs until stopped).
#[derive(Debug, Clone)]
pub struct ServeConf {
    /// Listen address (`--listen`), UDP + TCP.
    pub listen: SocketAddr,
    /// Upstream recursive resolvers (`--upstream ip[:port][,...]`).
    pub upstreams: Vec<SocketAddr>,
    /// Selective-cache capacity in entries (`--cache-capacity`).
    pub cache_capacity: usize,
    /// Per-client UDP budget in queries/second (`--client-pps`; 0 = off).
    pub client_pps: f64,
    /// Reactor syscall strategy (`--io-backend`).
    pub io_backend: IoBackend,
    /// Worker count (`--shards`; 1 = dual-role socket).
    pub shards: usize,
    /// Datagrams per syscall on the forwarding path (`--batch-size`).
    pub batch_size: usize,
    /// Pre-encoded packet-cache slots (`--packet-cache-capacity`; 0
    /// disables the layer and serves every hit via scratch-encode).
    pub packet_cache_capacity: usize,
    /// Run for this many seconds then exit (`--duration`; 0 = forever).
    pub duration: f64,
    /// Print a status line to stderr every second (`--status-updates`).
    pub status_updates: bool,
}

impl Default for ServeConf {
    fn default() -> Self {
        ServeConf {
            listen: "127.0.0.1:5353".parse().expect("static address"),
            upstreams: Vec::new(),
            cache_capacity: 600_000,
            client_pps: 0.0,
            io_backend: IoBackend::default(),
            shards: 1,
            batch_size: 0,
            packet_cache_capacity: zdns_core::DEFAULT_PACKET_CACHE_CAPACITY,
            duration: 0.0,
            status_updates: false,
        }
    }
}

impl ServeConf {
    /// Parse the argv vector that followed `zdns serve`.
    pub fn parse<I, S>(args: I) -> Result<ServeConf, ConfError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut conf = ServeConf::default();
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].clone();
            let take_value = |i: &mut usize| -> Result<String, ConfError> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| ConfError(format!("flag {flag} needs a value")))
            };
            match flag.as_str() {
                "--listen" => {
                    let v = take_value(&mut i)?;
                    conf.listen = v
                        .parse()
                        .map_err(|_| ConfError(format!("bad --listen {v:?} (expected IP:PORT)")))?;
                }
                "--upstream" => {
                    for part in take_value(&mut i)?.split(',') {
                        let (_, addr) = parse_server_addr(part.trim())?;
                        conf.upstreams.push(addr);
                    }
                }
                "--cache-capacity" => {
                    conf.cache_capacity = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --cache-capacity".into()))?;
                }
                "--client-pps" => {
                    conf.client_pps = take_value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| ConfError("bad --client-pps".into()))?;
                }
                "--io-backend" => conf.io_backend = parse_io_backend(&take_value(&mut i)?)?,
                "--shards" => {
                    conf.shards = take_value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|v: &usize| *v >= 1)
                        .ok_or_else(|| ConfError("bad --shards".into()))?;
                }
                "--batch-size" => conf.batch_size = parse_batch_size(&take_value(&mut i)?)?,
                "--packet-cache-capacity" => {
                    conf.packet_cache_capacity = take_value(&mut i)?
                        .parse()
                        .map_err(|_| ConfError("bad --packet-cache-capacity".into()))?;
                }
                "--duration" => {
                    conf.duration = take_value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| ConfError("bad --duration".into()))?;
                }
                "--status-updates" => conf.status_updates = true,
                other => return Err(ConfError(format!("unknown serve flag {other:?}"))),
            }
            i += 1;
        }
        if conf.upstreams.is_empty() {
            return Err(ConfError(
                "serve needs --upstream IP[:PORT] (where forwarded queries go)".into(),
            ));
        }
        Ok(conf)
    }

    /// The fleet options this configuration asks for.
    pub fn options(&self) -> ServeOptions {
        ServeOptions {
            listen: self.listen,
            upstreams: self.upstreams.clone(),
            cache_capacity: self.cache_capacity,
            client_pps: self.client_pps,
            io_backend: self.io_backend,
            shards: self.shards,
            batch_size: self.batch_size,
            packet_cache_capacity: self.packet_cache_capacity,
            ..ServeOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_iterative_scan() {
        let conf = Conf::parse([
            "A",
            "--iterative",
            "--threads",
            "5000",
            "--cache-size",
            "100000",
            "--retries",
            "5",
        ])
        .unwrap();
        assert_eq!(conf.module, "A");
        assert_eq!(conf.threads, 5000);
        assert_eq!(conf.resolver.cache_size, 100_000);
        assert_eq!(conf.resolver.retries, 5);
        assert!(matches!(conf.resolver.mode, ResolutionMode::Iterative));
    }

    #[test]
    fn parse_external_servers() {
        let conf = Conf::parse(["MXLOOKUP", "--name-servers", "8.8.8.8,1.1.1.1"]).unwrap();
        match conf.resolver.mode {
            ResolutionMode::External { ref servers } => assert_eq!(servers.len(), 2),
            _ => panic!("expected external mode"),
        }
    }

    #[test]
    fn iterative_and_servers_conflict() {
        assert!(Conf::parse(["A", "--iterative", "--name-servers", "8.8.8.8"]).is_err());
    }

    #[test]
    fn trace_is_recorded_exactly_when_the_final_group_prints_it() {
        let untraced = Conf::parse(["A", "--iterative"]).unwrap();
        assert_eq!(untraced.output, OutputGroup::Normal);
        assert!(!untraced.resolver.trace);
        for args in [
            &["A", "--trace"][..],
            &["A", "--output-fields", "trace"],
            &["A", "--output-fields", "short", "--trace"],
        ] {
            let conf = Conf::parse(args.iter().copied()).unwrap();
            assert_eq!(conf.output, OutputGroup::Trace, "{args:?}");
            assert!(conf.resolver.trace, "{args:?}");
        }
        // A later --output-fields wins over an earlier --trace, and takes
        // the recording with it.
        let overridden = Conf::parse(["A", "--trace", "--output-fields", "normal"]).unwrap();
        assert_eq!(overridden.output, OutputGroup::Normal);
        assert!(!overridden.resolver.trace);
    }

    #[test]
    fn timeout_parsing_accepts_fractions() {
        let conf = Conf::parse(["A", "--timeout", "2.5"]).unwrap();
        assert_eq!(conf.resolver.timeout, 2_500 * MILLIS);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(Conf::parse(["A", "--bogus"]).is_err());
        assert!(
            Conf::parse(["--threads", "5"]).is_err(),
            "module must come first"
        );
    }

    #[test]
    fn source_ips_expand_to_prefix() {
        let conf = Conf::parse(["A", "--source-ips", "8"]).unwrap();
        assert_eq!(conf.client_ips().len(), 8);
    }

    #[test]
    fn pacing_flags() {
        let conf = Conf::parse([
            "A",
            "--rate-pps",
            "5000",
            "--per-host-pps",
            "250.5",
            "--backoff",
        ])
        .unwrap();
        assert_eq!(conf.rate_pps, 5000.0);
        assert_eq!(conf.per_host_pps, 250.5);
        assert!(conf.backoff);
        let pc = conf.pacer_config();
        assert!(pc.enabled());

        let default = Conf::parse(["A"]).unwrap();
        assert!(!default.pacer_config().enabled(), "pacing is opt-in");
        assert!(Conf::parse(["A", "--rate-pps", "-3"]).is_err());
        assert!(Conf::parse(["A", "--rate-pps", "x"]).is_err());
        assert!(Conf::parse(["A", "--per-host-pps", "inf"]).is_err());
    }

    #[test]
    fn real_scan_flags() {
        let conf = Conf::parse(["A", "--real", "--max-in-flight", "2048"]).unwrap();
        assert!(conf.real);
        assert_eq!(conf.max_in_flight, 2048);
        let default = Conf::parse(["A"]).unwrap();
        assert!(!default.real);
        assert_eq!(default.max_in_flight, 0, "0 = derive from --threads");
        assert!(Conf::parse(["A", "--max-in-flight", "x"]).is_err());
    }

    #[test]
    fn workload_flag() {
        let conf = Conf::parse(["A", "--workload", "ct-corpus", "--max-names", "500"]).unwrap();
        assert_eq!(conf.workload, Workload::CtCorpus);
        assert_eq!(conf.max_names, 500);
        let default = Conf::parse(["A"]).unwrap();
        assert_eq!(default.workload, Workload::Lines);
        assert!(
            Conf::parse(["A", "--workload", "ct-corpus"]).is_err(),
            "corpus workload requires --max-names"
        );
        assert!(Conf::parse(["A", "--workload", "bogus"]).is_err());
    }

    #[test]
    fn backoff_tuning_flags() {
        let conf = Conf::parse(["A", "--backoff-base", "0.5", "--backoff-cap", "2"]).unwrap();
        assert!(conf.backoff, "tuning a penalty implies --backoff");
        let pc = conf.pacer_config();
        assert_eq!(pc.backoff_base, 500 * MILLIS);
        assert_eq!(pc.backoff_cap, 2 * SECONDS);
        let defaults = Conf::parse(["A", "--backoff"]).unwrap().pacer_config();
        assert_eq!(defaults.backoff_base, PacerConfig::default().backoff_base);
        assert_eq!(defaults.backoff_cap, PacerConfig::default().backoff_cap);
    }

    #[test]
    fn retired_admission_levers_are_unknown_flags() {
        for flag in ["--pacer", "--static-split"] {
            let err = Conf::parse(["A", flag, "concurrent"]).unwrap_err();
            assert_eq!(err.0, format!("unknown flag {flag:?}"));
        }
    }

    #[test]
    fn cookie_secret_flag() {
        let hex =
            Conf::parse(["A", "--cookie-secret", "000102030405060708090a0b0c0d0e0f"]).unwrap();
        assert_eq!(
            hex.resolver.cookie_secret,
            Some([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])
        );
        let phrase = Conf::parse(["A", "--cookie-secret", "hunter2"]).unwrap();
        let again = Conf::parse(["A", "--cookie-secret", "hunter2"]).unwrap();
        assert_eq!(phrase.resolver.cookie_secret, again.resolver.cookie_secret);
        assert_ne!(phrase.resolver.cookie_secret, hex.resolver.cookie_secret);
        let secret = phrase.resolver.cookie_secret.unwrap();
        assert_ne!(secret[..8], secret[8..], "rounds use distinct seeds");
        assert!(Conf::parse(["A", "--cookie-secret", ""]).is_err());
        assert_eq!(
            Conf::parse(["A"]).unwrap().resolver.cookie_secret,
            None,
            "default derivation unchanged"
        );
    }

    #[test]
    fn batch_size_flag() {
        let conf = Conf::parse(["A", "--batch-size", "64"]).unwrap();
        assert_eq!(conf.batch_size, 64);
        let one = Conf::parse(["A", "--batch-size", "1"]).unwrap();
        assert_eq!(one.batch_size, 1, "1 = per-datagram syscalls");
        let default = Conf::parse(["A"]).unwrap();
        assert_eq!(default.batch_size, 0, "0 = reactor default");
        assert!(Conf::parse(["A", "--batch-size", "0"]).is_err());
        assert!(Conf::parse(["A", "--batch-size", "x"]).is_err());
        // The pipeline sizes its blocks from this value, so one above what
        // a syscall takes is refused here, not clamped further down.
        let cap = MAX_BATCH.to_string();
        let over = (MAX_BATCH + 1).to_string();
        assert_eq!(
            Conf::parse(["A", "--batch-size", &cap]).unwrap().batch_size,
            MAX_BATCH
        );
        let scan_err = Conf::parse(["A", "--batch-size", &over]).unwrap_err();
        let serve_err =
            ServeConf::parse(["--upstream", "127.0.0.1", "--batch-size", &over]).unwrap_err();
        for err in [scan_err, serve_err] {
            assert!(err.0.contains(&cap), "names the cap: {}", err.0);
        }
    }

    #[test]
    fn io_backend_flag() {
        let default = Conf::parse(["A"]).unwrap();
        assert_eq!(default.io_backend, IoBackend::Auto);
        for (v, want) in [
            ("auto", IoBackend::Auto),
            ("syscall", IoBackend::Syscall),
            ("mmsg", IoBackend::Mmsg),
        ] {
            let conf = Conf::parse(["A", "--io-backend", v]).unwrap();
            assert_eq!(conf.io_backend, want, "{v}");
        }
        // Any other value is an error that lists what is accepted, in
        // both parsers — never a silent substitute.
        let scan_err = Conf::parse(["A", "--io-backend", "uring"]).unwrap_err();
        let serve_err =
            ServeConf::parse(["--upstream", "127.0.0.1", "--io-backend", "uring"]).unwrap_err();
        for err in [scan_err, serve_err] {
            assert!(err.0.contains("auto|mmsg|syscall"), "{}", err.0);
        }
        assert!(Conf::parse(["A", "--io-backend", "epoll"]).is_err());
        assert!(Conf::parse(["A", "--io-backend"]).is_err(), "missing value");
    }

    #[test]
    fn pin_cores_flag() {
        assert!(!Conf::parse(["A"]).unwrap().pin_cores, "off by default");
        assert!(Conf::parse(["A", "--pin-cores"]).unwrap().pin_cores);
    }

    #[test]
    fn name_servers_accept_ports() {
        let conf = Conf::parse(["A", "--name-servers", "8.8.8.8,127.0.0.1:5533"]).unwrap();
        match conf.resolver.mode {
            ResolutionMode::External { ref servers } => assert_eq!(servers.len(), 2),
            _ => panic!("expected external mode"),
        }
        assert_eq!(
            conf.name_server_addrs,
            vec![
                "8.8.8.8:53".parse::<SocketAddr>().unwrap(),
                "127.0.0.1:5533".parse().unwrap(),
            ],
            "bare IPs default to 53, explicit ports survive"
        );
        assert!(Conf::parse(["A", "--name-servers", "[::1]:53"]).is_err());
        assert!(Conf::parse(["A", "--name-servers", "example.com"]).is_err());
    }

    #[test]
    fn shard_flag() {
        let conf = Conf::parse(["A", "--shard", "1/4"]).unwrap();
        assert_eq!(conf.shard, Some((1, 4)));
        assert_eq!(Conf::parse(["A"]).unwrap().shard, None, "unsharded default");
        assert_eq!(
            Conf::parse(["A", "--shard", "0/1"]).unwrap().shard,
            Some((0, 1))
        );
        for bad in ["4/4", "2/1", "0/0", "1", "a/b", "-1/2", "1/2/3"] {
            assert!(Conf::parse(["A", "--shard", bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn checkpoint_flags() {
        let conf = Conf::parse([
            "A",
            "--real",
            "--name-servers",
            "8.8.8.8",
            "--input-file",
            "names.txt",
            "--output-file",
            "out.jsonl",
            "--checkpoint",
            "scan.manifest.json",
            "--checkpoint-every",
            "500",
        ])
        .unwrap();
        assert_eq!(conf.checkpoint_path, "scan.manifest.json");
        assert!(!conf.resume);
        assert_eq!(conf.checkpoint_every, 500);

        let resumed = Conf::parse(["A", "--real", "--resume", "scan.manifest.json"]).unwrap();
        assert!(resumed.resume);
        assert_eq!(resumed.checkpoint_path, "scan.manifest.json");

        let default = Conf::parse(["A"]).unwrap();
        assert!(default.checkpoint_path.is_empty());
        assert_eq!(default.checkpoint_every, 0, "0 = default cadence");

        // A durable scan must be replayable from its manifest alone.
        let base = ["A", "--checkpoint", "m.json"];
        assert!(Conf::parse(base).is_err(), "--checkpoint needs --real");
        assert!(
            Conf::parse(["A", "--real", "--checkpoint", "m.json"]).is_err(),
            "stdout output cannot be deduped on resume"
        );
        assert!(
            Conf::parse([
                "A",
                "--real",
                "--output-file",
                "o.jsonl",
                "--checkpoint",
                "m.json"
            ])
            .is_err(),
            "stdin input cannot be replayed on resume"
        );
        assert!(Conf::parse(["A", "--checkpoint-every", "0"]).is_err());
        let err = Conf::parse(["A", "--iterative", "--checkpoint-every", "5"]).unwrap_err();
        assert!(
            err.0.contains("--checkpoint-every needs --checkpoint"),
            "a cadence without a checkpoint must not be silently ignored: {err}"
        );
    }

    #[test]
    fn serve_conf_parses() {
        let conf = ServeConf::parse([
            "--listen",
            "127.0.0.1:5533",
            "--upstream",
            "8.8.8.8,9.9.9.9:5353",
            "--cache-capacity",
            "50000",
            "--client-pps",
            "100",
            "--shards",
            "4",
            "--io-backend",
            "mmsg",
            "--packet-cache-capacity",
            "1024",
            "--duration",
            "2.5",
        ])
        .unwrap();
        assert_eq!(conf.listen, "127.0.0.1:5533".parse().unwrap());
        assert_eq!(
            conf.upstreams,
            vec![
                "8.8.8.8:53".parse::<SocketAddr>().unwrap(),
                "9.9.9.9:5353".parse().unwrap(),
            ]
        );
        assert_eq!(conf.cache_capacity, 50_000);
        assert_eq!(conf.client_pps, 100.0);
        assert_eq!(conf.shards, 4);
        assert_eq!(conf.io_backend, IoBackend::Mmsg);
        assert_eq!(conf.packet_cache_capacity, 1024);
        assert_eq!(conf.duration, 2.5);
        let opts = conf.options();
        assert_eq!(opts.shards, 4);
        assert_eq!(opts.cache_capacity, 50_000);
        assert_eq!(opts.packet_cache_capacity, 1024);
    }

    #[test]
    fn serve_conf_rejects_bad_input() {
        assert!(
            ServeConf::parse::<[&str; 0], &str>([]).is_err(),
            "no upstream"
        );
        assert!(ServeConf::parse(["--upstream", "example.com"]).is_err());
        assert!(ServeConf::parse(["--upstream", "8.8.8.8", "--shards", "0"]).is_err());
        assert!(ServeConf::parse(["--upstream", "8.8.8.8", "--bogus"]).is_err());
        assert!(ServeConf::parse(["--upstream", "8.8.8.8", "--client-pps", "-1"]).is_err());
        assert!(
            ServeConf::parse(["--upstream", "8.8.8.8", "--packet-cache-capacity", "x"]).is_err()
        );
        let minimal = ServeConf::parse(["--upstream", "8.8.8.8"]).unwrap();
        assert_eq!(minimal.shards, 1, "dual-role socket by default");
        assert_eq!(minimal.client_pps, 0.0, "gate off by default");
        assert_eq!(
            minimal.packet_cache_capacity,
            zdns_core::DEFAULT_PACKET_CACHE_CAPACITY,
            "packet cache on by default"
        );
        // 0 is valid: it is the disable lever.
        let off =
            ServeConf::parse(["--upstream", "8.8.8.8", "--packet-cache-capacity", "0"]).unwrap();
        assert_eq!(off.packet_cache_capacity, 0);
    }
}
