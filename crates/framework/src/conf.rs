//! Scan configuration: the framework's command-line surface.
//!
//! The framework "is responsible for facilitating command-line
//! configuration ... and is absent of most DNS-specific logic" (§3.2).
//! Parsing is argv-vector based so tests and benches drive it directly.
//!
//! Every flag is declared once, as a [`Flag`] in one of three tables —
//! [`SCAN_FLAGS`], [`SERVE_FLAGS`], [`MERGE_FLAGS`]. The same entry is
//! what the parser matches, what `--help` prints and what `docs_check`
//! inventories, so a flag cannot be parsed without being documented.

use std::net::{IpAddr, Ipv4Addr, SocketAddr, SocketAddrV4};
use std::path::PathBuf;
use std::str::FromStr;

use zdns_core::{
    Detail, IoBackend, PacerConfig, ResolutionMode, ResolverConfig, MAX_CACHE_CAPACITY,
};
use zdns_netsim::{SimTime, SECONDS};

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

    /// The result detail this group prints.
    pub fn detail(self) -> Detail {
        match self {
            OutputGroup::Short | OutputGroup::Normal => Detail::Normal,
            OutputGroup::Long => Detail::Long,
            OutputGroup::Trace => Detail::Trace,
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
    /// Number of scanning source IPs (/32=1, /29=8, /28=16), 1 to 254.
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
    /// The pacing and backoff budgets of the whole scan — every worker
    /// leases from one pacer built from this (`--rate-pps`,
    /// `--per-host-pps`, `--backoff`, `--backoff-base`, `--backoff-cap`).
    pub pacer: PacerConfig,
    /// Name source for the scan (`--workload`).
    pub workload: Workload,
    /// Syscall strategy for the reactor hot path (`--io-backend`):
    /// `mmsg` (default) runs `sendmmsg`/`recvmmsg` where the platform
    /// has them; `syscall` forces one datagram per syscall.
    pub io_backend: IoBackend,
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
            pacer: PacerConfig::default(),
            workload: Workload::Lines,
            io_backend: IoBackend::default(),
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

/// One command-line flag, declared once: the parser matches its
/// spellings, `--help` renders its placeholder and help lines, and
/// `docs_check` inventories it.
pub struct Flag<C> {
    /// Every accepted spelling, long form first.
    pub names: &'static [&'static str],
    /// The value placeholder `--help` shows (`N`, `PATH`, ...); `None`
    /// for a switch, which takes no value.
    pub value: Option<&'static str>,
    /// The help text, one printed line per `\n`.
    pub help: &'static str,
    /// Applies the flag to the configuration being built, given its
    /// value (`""` for a switch). A refused value comes back as what the
    /// flag accepts (`""` when the placeholder says it all); the parse
    /// loop puts the spelling the user typed and the value in front.
    pub set: fn(&mut C, &str) -> Result<(), String>,
}

/// The flags of one command, in `--help` order.
pub struct FlagTable<C: 'static> {
    /// Width of the help screen's left column (spellings and
    /// placeholder); a longer head gets a line of its own.
    pub column: usize,
    /// The flags.
    pub flags: &'static [Flag<C>],
}

impl<C: 'static> FlagTable<C> {
    /// Walk `args`: a listed spelling applies its flag (taking the next
    /// argument as the value unless it is a switch); any other argument
    /// goes to `other`, which keeps it or rejects it.
    fn parse(
        &self,
        conf: &mut C,
        args: impl IntoIterator<Item = String>,
        mut other: impl FnMut(&mut C, String) -> Result<(), ConfError>,
    ) -> Result<(), ConfError> {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = self.flags.iter().find(|f| f.names.contains(&arg.as_str())) else {
                other(conf, arg)?;
                continue;
            };
            let value = match flag.value {
                Some(_) => args
                    .next()
                    .ok_or_else(|| ConfError(format!("flag {arg} needs a value")))?,
                None => String::new(),
            };
            (flag.set)(conf, &value).map_err(|accepts| {
                let accepts = if accepts.is_empty() {
                    accepts
                } else {
                    format!(" ({accepts})")
                };
                ConfError(format!("bad {arg} {value:?}{accepts}"))
            })?;
        }
        Ok(())
    }

    /// Each flag's `--help` entry, in table order.
    pub fn help_entries(&self) -> impl Iterator<Item = String> + '_ {
        let column = self.column;
        self.flags.iter().map(move |flag| {
            let mut head = flag.names.join(", ");
            if let Some(value) = flag.value {
                head = format!("{head} {value}");
            }
            let mut lines = flag.help.lines();
            let mut entry = if head.chars().count() < column {
                format!("  {head:<column$}{}", lines.next().unwrap_or_default())
            } else {
                format!("  {head}")
            };
            for line in lines {
                entry.push_str(&format!("\n  {:column$}{line}", ""));
            }
            entry
        })
    }

    /// The FLAGS block of the command's `--help` screen.
    pub fn help(&self) -> String {
        self.help_entries().collect::<Vec<_>>().join("\n")
    }
}

/// Builds a [`FlagTable`]: `flag_table! { column N; FLAG... }`, one
/// `SPELLING, ... <"PLACEHOLDER"> "help" => SETTER;` a flag. A switch has
/// no placeholder. The setter is a closure, or `field.path = parse(args)`,
/// which stores `parse(value, args)` into that field of the state.
macro_rules! flag_table {
    (@value) => { None };
    (@value $value:literal) => { Some($value) };
    (column $column:literal; $($($name:literal),+ $(<$value:literal>)? $help:literal =>
        $($($field:ident).+ = $parse:ident $(($($arg:expr),*))?)?
        $(|$state:tt, $v:tt| $set:expr)?;)*) => {
        FlagTable {
            column: $column,
            flags: &[$(Flag {
                names: &[$($name),+],
                value: flag_table!(@value $($value)?),
                help: $help,
                set: $(|c, v| $parse(v $($(, $arg)*)?).map(|x| c.$($field).+ = x))?
                    $(|$state, $v| $set)?,
            }),*],
        }
    };
}

/// A switch's setter: turn `setting` on.
fn on(setting: &mut bool) -> Result<(), String> {
    put(setting, true)
}

/// A switch's setter: store `value`.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// Parse `v` as a `T` that `ok` accepts.
fn parse_checked<T: FromStr>(v: &str, ok: impl Fn(&T) -> bool) -> Result<T, String> {
    v.parse().ok().filter(ok).ok_or_else(String::new)
}

/// Parse a count from `lo` to `hi`; a refusal names the range.
fn count_in(v: &str, lo: usize, hi: usize) -> Result<usize, String> {
    parse_checked(v, |n| (lo..=hi).contains(n)).map_err(|_| format!("{lo} to {hi}"))
}

/// Parse any `T` (a count, a seed, a path that may be `-`).
fn parsed<T: FromStr>(v: &str) -> Result<T, String> {
    parse_checked(v, |_| true)
}

/// Parse a budget or a run length: finite and not negative (0 = off).
fn non_negative(v: &str) -> Result<f64, String> {
    parse_checked(v, |r: &f64| r.is_finite() && *r >= 0.0)
}

/// Longest duration `--timeout`, `--iteration-timeout`, `--backoff-base`
/// and `--backoff-cap` accept, in seconds: far past any DNS exchange or
/// useful penalty, and small enough that deadline arithmetic on
/// [`SimTime`] nanoseconds cannot overflow.
const MAX_DURATION_SECS: f64 = 3_600.0;

/// Parse a duration in seconds: finite, above 0 (after rounding to
/// nanoseconds) and at most [`MAX_DURATION_SECS`].
fn duration_secs(v: &str) -> Result<SimTime, String> {
    v.parse::<f64>()
        .ok()
        .filter(|s| (0.0..=MAX_DURATION_SECS).contains(s))
        .map(|s| (s * SECONDS as f64) as SimTime)
        .filter(|ns| *ns > 0)
        .ok_or_else(|| format!("seconds, above 0 and at most {MAX_DURATION_SECS}"))
}

/// Most scanning source addresses `--source-ips` hands out: the usable
/// hosts `192.0.2.1` to `192.0.2.254` of one /24.
const MAX_SOURCE_IPS: usize = 254;

/// Most slots `--packet-cache-capacity` takes: the table is allocated
/// whole at start-up (24 bytes a slot, so 384 MiB here).
const MAX_PACKET_CACHE_CAPACITY: usize = 1 << 24;

/// Most workers `--shards` starts: each binds a listener pair and an
/// upstream socket and runs on its own thread.
const MAX_SHARDS: usize = 256;

/// Append a comma-separated list of server addresses to `list`: `ip`
/// (port 53) or `ip:port`. IPv4 only — the resolver core routes by v4
/// address.
fn push_servers(list: &mut Vec<SocketAddr>, v: &str) -> Result<(), String> {
    for part in v.split(',').map(str::trim) {
        let addr = match part.parse::<Ipv4Addr>() {
            Ok(ip) => SocketAddrV4::new(ip, 53),
            Err(_) => part.parse().map_err(|_| "expected IP or IP:PORT, IPv4")?,
        };
        list.push(addr.into());
    }
    Ok(())
}

/// Parse a `--cookie-secret` value into the 16-octet client secret the
/// resolver's keyed cookie derivation uses (RFC 7873 §6): exactly 32 hex
/// digits are taken literally; any other non-empty string is treated as
/// a passphrase and stretched deterministically (two FNV-1a rounds with
/// distinct seeds).
fn parse_cookie_secret(v: &str) -> Result<[u8; 16], String> {
    if v.is_empty() {
        return Err("must not be empty".into());
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

/// Parse an `--io-backend` value (shared by the scan and serve tables).
fn parse_io_backend(v: &str) -> Result<IoBackend, String> {
    IoBackend::parse(v).ok_or_else(|| "auto|mmsg|syscall".into())
}

/// Parse a `--shard` value: `i/n` with `0 <= i < n` and `n >= 1`.
fn parse_shard(v: &str) -> Result<(u32, u32), String> {
    let bad = || String::from("expected I/N with 0 <= I < N, e.g. 0/4");
    let (index, count) = v.split_once('/').ok_or_else(bad)?;
    let index: u32 = index.trim().parse().map_err(|_| bad())?;
    let count: u32 = count.trim().parse().map_err(|_| bad())?;
    if count == 0 || index >= count {
        return Err(bad());
    }
    Ok((index, count))
}

/// A path flag's value: anything but empty.
fn path(v: &str) -> Result<String, String> {
    if v.is_empty() {
        return Err("expected a path".into());
    }
    Ok(v.to_string())
}

/// The scan parser's state: the [`Conf`] being built plus `--iterative`,
/// which is checked against `--name-servers` after the last flag (the two
/// exclude each other and pick the resolution mode).
pub struct ScanArgs {
    conf: Conf,
    iterative: bool,
}

/// Every `zdns MODULE` flag.
pub static SCAN_FLAGS: FlagTable<ScanArgs> = flag_table! { column 25;
    "--iterative" "resolve iteratively from the roots (default)" => |a, _| on(&mut a.iterative);
    "--name-servers" <"IP[,IP]"> "use external recursive resolvers; ip:port forms\n\
        keep their port under --real (e.g. a local\n\
        `zdns serve` instance). Simulated runs have\n\
        Google at 8.8.8.8, Cloudflare at 1.1.1.1"
        => |a, v| push_servers(&mut a.conf.name_server_addrs, v);
    "--threads", "-t" <"N"> "concurrent lookup routines (default 1000)" => conf.threads = parsed;
    "--cache-size" <"N"> "selective cache entries (default 600000)"
        => conf.resolver.cache_size = count_in(0, MAX_CACHE_CAPACITY);
    "--retries" <"N"> "per-query retries (default 3)" => conf.resolver.retries = parsed;
    "--timeout" <"SECS"> "external query timeout" => conf.resolver.timeout = duration_secs;
    "--iteration-timeout" <"SECS"> "per-step timeout for iterative walks"
        => conf.resolver.iteration_timeout = duration_secs;
    "--tcp-only" "send every query over TCP (no UDP attempt)"
        => |a, _| on(&mut a.conf.resolver.tcp_only);
    "--no-tcp-fallback" "never retry truncated (TC=1) answers over TCP"
        => |a, _| put(&mut a.conf.resolver.tcp_on_truncated, false);
    "--trace" "same as --output-fields trace"
        => |a, _| put(&mut a.conf.output, OutputGroup::Trace);
    "--output-fields" <"GROUP"> "short: name, status, answers | normal (default):\n\
        all but flags, additionals | long: all of data |\n\
        trace: long plus the lookup chain. The chain is\n\
        recorded only when it is printed; in iterative\n\
        mode it costs ~2x the time and ~7x the bytes\n\
        of a normal line. The last of --trace and\n\
        --output-fields on the command line decides"
        => |a, v| OutputGroup::parse(v).map(|g| a.conf.output = g)
            .ok_or_else(|| "short|normal|long|trace".into());
    "--input-file", "-f" <"PATH"> "newline-delimited names (default: stdin)"
        => conf.input_path = parsed;
    "--workload" <"KIND"> "name source: lines (default) reads --input-file;\n\
        ct-corpus streams the generated CT-log-like corpus\n\
        (requires --max-names N; never materialized)"
        => |a, v| Workload::parse(v).map(|w| a.conf.workload = w)
            .ok_or_else(|| "lines|ct-corpus".into());
    "--output-file", "-o" <"PATH"> "output JSONL (default: stdout)"
        => conf.output_path = parsed;
    "--source-ips" <"N"> "scanning source addresses (1=/32, 8=/29, 16=/28)"
        => conf.source_ips = count_in(1, MAX_SOURCE_IPS);
    "--seed" <"N"> "simulated-Internet seed" => conf.seed = parsed;
    "--max-names" <"N"> "stop after N inputs" => conf.max_names = parsed;
    "--status-updates" "print run statistics to stderr" => |a, _| on(&mut a.conf.status_updates);
    "--real" "scan over real sockets (servers at ip:53) using\n\
        the event-driven reactor instead of the simulator"
        => |a, _| on(&mut a.conf.real);
    "--max-in-flight" <"N"> "reactor admission window: concurrent lookups in\n\
        flight across all workers (default: --threads)"
        => conf.max_in_flight = parsed;
    "--io-backend" <"KIND"> "reactor syscall strategy: auto (default) and mmsg\n\
        use sendmmsg/recvmmsg where the platform has them,\n\
        per-datagram otherwise; syscall forces\n\
        per-datagram"
        => conf.io_backend = parse_io_backend;
    "--rate-pps" <"N"> "polite scanning: global send budget in packets/s,\n\
        one scan-wide budget the workers lease from\n\
        (default: unlimited)"
        => conf.pacer.rate_pps = non_negative;
    "--per-host-pps" <"N"> "per-destination send budget in packets/s"
        => conf.pacer.per_host_pps = non_negative;
    "--backoff" "adaptive per-destination backoff: timeout/error\n\
        streaks grow a penalty multiplicatively, successes\n\
        decay it"
        => |a, _| on(&mut a.conf.pacer.backoff);
    "--backoff-base" <"SECS"> "first backoff penalty (implies --backoff)"
        => |a, v| duration_secs(v)
            .map(|t| (a.conf.pacer.backoff, a.conf.pacer.backoff_base) = (true, t));
    "--backoff-cap" <"SECS"> "backoff penalty growth cap (implies --backoff)"
        => |a, v| duration_secs(v)
            .map(|t| (a.conf.pacer.backoff, a.conf.pacer.backoff_cap) = (true, t));
    "--cookie-secret" <"S"> "derive EDNS client cookies from a keyed hash of S\n\
        and the destination (RFC 7873 \u{a7}6): 32 hex digits\n\
        are literal, anything else is stretched; default\n\
        stays the reproducible per-name hash"
        => |a, v| parse_cookie_secret(v).map(|s| a.conf.resolver.cookie_secret = Some(s));
    "--shard" <"I/N"> "deterministic horizontal partition: scan only the\n\
        names whose stable hash lands on shard I of N;\n\
        run all N shards (any machines, any order) to\n\
        cover the input exactly once"
        => |a, v| parse_shard(v).map(|s| a.conf.shard = Some(s));
    "--checkpoint" <"PATH"> "durable scan: write a scan manifest to PATH and a\n\
        rotating progress checkpoint to PATH.ckpt\n\
        (requires --real, --output-file, and a replayable\n\
        input). A killed scan restarts with --resume PATH"
        => conf.checkpoint_path = path;
    "--resume" <"PATH"> "resume the scan described by the manifest at PATH:\n\
        repairs the output's torn trailing line, skips\n\
        every name already in the output, re-admits the\n\
        in-flight remainder, and restores pacer backoff"
        => |a, v| path(v).map(|p| (a.conf.checkpoint_path, a.conf.resume) = (p, true));
    "--checkpoint-every" <"N"> "completions between checkpoint snapshots\n\
        (default 1000; needs --checkpoint or --resume)"
        => conf.checkpoint_every = parse_checked(|n: &u64| *n >= 1);
};

impl Conf {
    /// Parse an argv-style vector: `zdns MODULE [flags]`.
    pub fn parse<I, S>(args: I) -> Result<Conf, ConfError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = args.into_iter().map(Into::into);
        let module = args
            .next()
            .ok_or_else(|| ConfError("expected a module name".into()))?;
        if module.starts_with('-') {
            return Err(ConfError(format!(
                "expected a module name first, got flag {module:?}"
            )));
        }
        let mut scan = ScanArgs {
            conf: Conf {
                module,
                ..Conf::default()
            },
            iterative: false,
        };
        SCAN_FLAGS.parse(&mut scan, args, |_, other| {
            Err(ConfError(format!("unknown flag {other:?}")))
        })?;
        let ScanArgs {
            mut conf,
            iterative,
        } = scan;
        if iterative && !conf.name_server_addrs.is_empty() {
            return Err(ConfError(
                "--iterative and --name-servers are mutually exclusive".into(),
            ));
        }
        // A result carries only what the line will print — the lookup
        // chain under `trace`, `flags` and `additionals` from `long` up:
        // the final output group decides, whatever the flag order.
        conf.resolver.detail = conf.output.detail();
        conf.resolver.mode = if conf.name_server_addrs.is_empty() {
            ResolutionMode::Iterative
        } else {
            let servers = conf.name_server_addrs.iter().map(|addr| match addr.ip() {
                IpAddr::V4(ip) => ip,
                IpAddr::V6(_) => unreachable!("--name-servers takes IPv4 only"),
            });
            ResolutionMode::External {
                servers: servers.collect(),
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
        Ok(conf)
    }

    /// The scanning source addresses derived from `source_ips`.
    pub fn client_ips(&self) -> Vec<Ipv4Addr> {
        (1..=self.source_ips)
            .map(|i| {
                let host = u8::try_from(i).expect("--source-ips is at most MAX_SOURCE_IPS");
                Ipv4Addr::new(192, 0, 2, host)
            })
            .collect()
    }
}

/// Parsed `zdns serve` configuration: the forwarding-server subcommand's
/// own flag surface (a serve is not a scan — it has no module, no input,
/// and runs until stopped).
#[derive(Debug, Clone, Default)]
pub struct ServeConf {
    /// What the fleet is started with.
    pub options: ServeOptions,
    /// Run for this many seconds then exit (`--duration`; 0 = forever).
    pub duration: f64,
    /// Print a status line to stderr every second (`--status-updates`).
    pub status_updates: bool,
}

/// Every `zdns serve` flag.
pub static SERVE_FLAGS: FlagTable<ServeConf> = flag_table! { column 25;
    "--listen" <"IP:PORT"> "listen address, UDP + TCP (default 127.0.0.1:5353;\n\
        port 0 = ephemeral)"
        => |c, v| v.parse().map(|addr| c.options.listen = addr)
            .map_err(|_| "expected IP:PORT".into());
    "--upstream" <"IP[:PORT][,\u{2026}]"> "upstream recursive resolvers misses are forwarded\n\
        to (required; port defaults to 53)"
        => |c, v| push_servers(&mut c.options.upstreams, v);
    "--cache-capacity" <"N"> "record-cache entries; every forwarded answer is\n\
        kept (default 600000)"
        => options.cache_capacity = count_in(0, MAX_CACHE_CAPACITY);
    "--packet-cache-capacity" <"N"> "pre-encoded answer packets kept in front of the\n\
        record cache; hot repeats skip record iteration\n\
        and re-encoding (default 65536; 0 disables)"
        => options.packet_cache_capacity = count_in(0, MAX_PACKET_CACHE_CAPACITY);
    "--client-pps" <"N"> "per-client UDP budget in queries/s; over-budget\n\
        queries are dropped, TCP is never gated\n\
        (default: off)"
        => options.client_pps = non_negative;
    "--io-backend" <"KIND"> "syscall strategy of the listener and the upstream\n\
        socket: auto | mmsg | syscall (as in scan mode)"
        => options.io_backend = parse_io_backend;
    "--shards" <"N"> "worker count (default 1; at most 256): each worker\n\
        owns a UDP + TCP listener on the listen port,\n\
        N>1 shares it across workers via SO_REUSEPORT"
        => options.shards = count_in(1, MAX_SHARDS);
    "--duration" <"SECS"> "serve for SECS then exit (default: run forever)"
        => duration = non_negative;
    "--status-updates" "print a stats line to stderr every second"
        => |c, _| on(&mut c.status_updates);
};

impl ServeConf {
    /// Parse the argv vector that followed `zdns serve`.
    pub fn parse<I, S>(args: I) -> Result<ServeConf, ConfError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut conf = ServeConf::default();
        SERVE_FLAGS.parse(&mut conf, args.into_iter().map(Into::into), |_, other| {
            Err(ConfError(format!("unknown serve flag {other:?}")))
        })?;
        if conf.options.upstreams.is_empty() {
            return Err(ConfError(
                "serve needs --upstream IP[:PORT] (where forwarded queries go)".into(),
            ));
        }
        Ok(conf)
    }

    /// The fleet options this configuration asks for.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }
}

/// Parsed `zdns merge` configuration.
#[derive(Debug, Clone, Default)]
pub struct MergeConf {
    /// The merged JSONL destination (`--output`; required).
    pub output: String,
    /// Merge even if some shards have not finished (`--allow-partial`).
    pub allow_partial: bool,
    /// The per-shard manifests, in argv order.
    pub manifests: Vec<PathBuf>,
}

/// Every `zdns merge` flag.
pub static MERGE_FLAGS: FlagTable<MergeConf> = flag_table! { column 21;
    "--output", "--output-file" <"PATH"> "merged JSONL destination (required)" => output = path;
    "--allow-partial" "merge even if some shards have not finished\n\
        (their indices are reported on stderr)"
        => |m, _| on(&mut m.allow_partial);
};

impl MergeConf {
    /// Parse the argv vector that followed `zdns merge`: flags, and
    /// every other argument a manifest path.
    pub fn parse<I, S>(args: I) -> Result<MergeConf, ConfError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut conf = MergeConf::default();
        MERGE_FLAGS.parse(&mut conf, args.into_iter().map(Into::into), |m, arg| {
            if arg.starts_with("--") {
                return Err(ConfError(format!("unknown flag {arg:?}")));
            }
            m.manifests.push(PathBuf::from(arg));
            Ok(())
        })?;
        if conf.output.is_empty() {
            return Err(ConfError("--output PATH is required".into()));
        }
        Ok(conf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_netsim::MILLIS;

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
        assert_eq!(untraced.resolver.detail, Detail::Normal);
        for args in [
            &["A", "--trace"][..],
            &["A", "--output-fields", "trace"],
            &["A", "--output-fields", "short", "--trace"],
        ] {
            let conf = Conf::parse(args.iter().copied()).unwrap();
            assert_eq!(conf.output, OutputGroup::Trace, "{args:?}");
            assert_eq!(conf.resolver.detail, Detail::Trace, "{args:?}");
        }
        // A later --output-fields wins over an earlier --trace, and takes
        // the recording with it.
        let overridden = Conf::parse(["A", "--trace", "--output-fields", "normal"]).unwrap();
        assert_eq!(overridden.output, OutputGroup::Normal);
        assert_eq!(overridden.resolver.detail, Detail::Normal);
        for (group, detail) in [
            ("short", Detail::Normal),
            ("normal", Detail::Normal),
            ("long", Detail::Long),
            ("trace", Detail::Trace),
        ] {
            let conf = Conf::parse(["A", "--output-fields", group]).unwrap();
            assert_eq!(conf.resolver.detail, detail, "{group}");
        }
    }

    #[test]
    fn timeout_parsing_accepts_fractions() {
        let conf = Conf::parse(["A", "--timeout", "2.5"]).unwrap();
        assert_eq!(conf.resolver.timeout, 2_500 * MILLIS);
    }

    /// Every duration flag refuses `v`.
    fn rejected_by_every_duration_flag(v: &str) {
        for flag in [
            "--timeout",
            "--iteration-timeout",
            "--backoff-base",
            "--backoff-cap",
        ] {
            assert!(Conf::parse(["A", flag, v]).is_err(), "{flag} {v}");
        }
    }

    #[test]
    fn a_refused_value_is_named_with_the_spelling_typed() {
        let err = |args: &[&str]| Conf::parse(args.iter().copied()).unwrap_err().0;
        assert_eq!(err(&["A", "-t", "x"]), r#"bad -t "x""#);
        assert_eq!(err(&["A", "--threads", "x"]), r#"bad --threads "x""#);
        assert_eq!(
            err(&["A", "--timeout", "inf"]),
            r#"bad --timeout "inf" (seconds, above 0 and at most 3600)"#
        );
    }

    #[test]
    fn durations_reject_infinity() {
        // It used to saturate to u64::MAX ns and overflow the first
        // deadline computed from it.
        rejected_by_every_duration_flag("inf");
    }

    #[test]
    fn durations_reject_nan() {
        rejected_by_every_duration_flag("nan");
    }

    #[test]
    fn durations_reject_negative() {
        rejected_by_every_duration_flag("-1");
    }

    #[test]
    fn durations_reject_zero() {
        rejected_by_every_duration_flag("0");
        rejected_by_every_duration_flag("0.0000000001");
    }

    #[test]
    fn durations_reject_more_than_an_hour() {
        rejected_by_every_duration_flag("3600.5");
        let conf = Conf::parse(["A", "--timeout", "3600"]).unwrap();
        assert_eq!(conf.resolver.timeout, 3_600 * SECONDS);
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
    fn source_ips_stay_inside_one_prefix() {
        let all = Conf::parse(["A", "--source-ips", "254"])
            .unwrap()
            .client_ips();
        assert_eq!(all.len(), 254);
        assert_eq!(all.first(), Some(&Ipv4Addr::new(192, 0, 2, 1)));
        assert_eq!(all.last(), Some(&Ipv4Addr::new(192, 0, 2, 254)));
        // 255 and up used to wrap to .255, .0 and duplicates.
        for bad in ["0", "255", "300", "-1", "x"] {
            assert!(Conf::parse(["A", "--source-ips", bad]).is_err(), "{bad}");
        }
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
        assert_eq!(conf.pacer.rate_pps, 5000.0);
        assert_eq!(conf.pacer.per_host_pps, 250.5);
        assert!(conf.pacer.backoff);
        let pc = &conf.pacer;
        assert!(pc.enabled());

        let default = Conf::parse(["A"]).unwrap();
        assert!(!default.pacer.enabled(), "pacing is opt-in");
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
        assert!(conf.pacer.backoff, "tuning a penalty implies --backoff");
        let pc = &conf.pacer;
        assert_eq!(pc.backoff_base, 500 * MILLIS);
        assert_eq!(pc.backoff_cap, 2 * SECONDS);
        let defaults = Conf::parse(["A", "--backoff"]).unwrap().pacer;
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
    fn io_backend_flag() {
        let default = Conf::parse(["A"]).unwrap();
        assert_eq!(default.io_backend, IoBackend::Mmsg);
        for (v, want) in [
            ("auto", IoBackend::Mmsg),
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
        assert_eq!(conf.options.listen, "127.0.0.1:5533".parse().unwrap());
        assert_eq!(
            conf.options.upstreams,
            vec![
                "8.8.8.8:53".parse::<SocketAddr>().unwrap(),
                "9.9.9.9:5353".parse().unwrap(),
            ]
        );
        assert_eq!(conf.options.cache_capacity, 50_000);
        assert_eq!(conf.options.client_pps, 100.0);
        assert_eq!(conf.options.shards, 4);
        assert_eq!(conf.options.io_backend, IoBackend::Mmsg);
        assert_eq!(conf.options.packet_cache_capacity, 1024);
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
        assert_eq!(minimal.options.shards, 1, "one worker by default");
        assert_eq!(minimal.options.client_pps, 0.0, "gate off by default");
        assert_eq!(
            minimal.options.packet_cache_capacity,
            zdns_core::DEFAULT_PACKET_CACHE_CAPACITY,
            "packet cache on by default"
        );
        // 0 is valid: it is the disable lever.
        let off =
            ServeConf::parse(["--upstream", "8.8.8.8", "--packet-cache-capacity", "0"]).unwrap();
        assert_eq!(off.options.packet_cache_capacity, 0);
    }

    #[test]
    fn packet_cache_capacity_is_bounded() {
        let parse = |v| ServeConf::parse(["--upstream", "8.8.8.8", "--packet-cache-capacity", v]);
        let most = MAX_PACKET_CACHE_CAPACITY.to_string();
        assert_eq!(
            parse(&most).unwrap().options.packet_cache_capacity,
            MAX_PACKET_CACHE_CAPACITY
        );
        // The slot table is allocated up front: this one used to abort
        // the process on a 3 PB allocation instead of refusing the flag.
        let err = parse("99999999999999").unwrap_err().to_string();
        assert_eq!(
            err,
            "configuration error: bad --packet-cache-capacity \"99999999999999\" (0 to 16777216)"
        );
        let over = (MAX_PACKET_CACHE_CAPACITY + 1).to_string();
        for bad in [over.as_str(), "-1", "x"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn cache_size_is_bounded() {
        // Parse only: the cache allocates nothing up front, and a shard's
        // probe table addresses no more than this.
        let parse = |v| Conf::parse(["A", "--cache-size", v]);
        let most = MAX_CACHE_CAPACITY.to_string();
        assert_eq!(
            parse(&most).unwrap().resolver.cache_size,
            MAX_CACHE_CAPACITY
        );
        assert_eq!(parse("0").unwrap().resolver.cache_size, 0);
        assert_eq!(
            parse("18446744073709551615").unwrap_err().to_string(),
            "configuration error: bad --cache-size \"18446744073709551615\" (0 to 120259084224)"
        );
        let over = (MAX_CACHE_CAPACITY + 1).to_string();
        for bad in [over.as_str(), "-1", "x"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let parse = |v| ServeConf::parse(["--upstream", "8.8.8.8", "--cache-capacity", v]);
        let most = MAX_CACHE_CAPACITY.to_string();
        assert_eq!(
            parse(&most).unwrap().options.cache_capacity,
            MAX_CACHE_CAPACITY
        );
        assert_eq!(
            parse("99999999999999").unwrap_err().to_string(),
            "configuration error: bad --cache-capacity \"99999999999999\" (0 to 120259084224)"
        );
        let over = (MAX_CACHE_CAPACITY + 1).to_string();
        for bad in [over.as_str(), "-1", "x"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn shards_are_bounded() {
        // Parse only: every shard is a thread and three sockets, so no
        // large value is ever started here.
        let parse = |v| ServeConf::parse(["--upstream", "8.8.8.8", "--shards", v]);
        let most = MAX_SHARDS.to_string();
        assert_eq!(parse(&most).unwrap().options.shards, MAX_SHARDS);
        assert_eq!(
            parse("257").unwrap_err().to_string(),
            "configuration error: bad --shards \"257\" (1 to 256)"
        );
        for bad in ["0", "99999999999999", "-1", "x"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn merge_conf_parses() {
        let conf = MergeConf::parse([
            "a.json",
            "--output-file",
            "m.jsonl",
            "--allow-partial",
            "b.json",
        ])
        .unwrap();
        assert_eq!(conf.output, "m.jsonl");
        assert!(conf.allow_partial);
        assert_eq!(
            conf.manifests,
            [PathBuf::from("a.json"), PathBuf::from("b.json")]
        );
        assert!(
            MergeConf::parse(["a.json"]).is_err(),
            "--output is required"
        );
        assert!(MergeConf::parse(["--output", "m.jsonl", "--bogus", "a.json"]).is_err());
        assert!(MergeConf::parse(["--output"]).is_err(), "missing value");
    }
}
