//! Durable scans: manifest, periodic checkpoint, resume, shard merge.
//!
//! A paper-scale scan runs for hours over millions of names; a crash at
//! name 900,000 must not restart from zero. `--checkpoint PATH` makes a
//! `--real` scan durable with two artifacts:
//!
//! * **Manifest** (`PATH`) — the scan's identity, written once at start:
//!   the configuration fingerprint ([`scan_id`]), the input/output
//!   locations, and the shard coordinates. Every shard of one logical
//!   scan shares the same `scan_id` (the fingerprint deliberately
//!   excludes the shard index and output path), which is what lets
//!   `zdns merge` verify that per-shard outputs belong together.
//! * **Checkpoint** (`PATH.ckpt`, rotated to `PATH.ckpt.prev`) — a
//!   periodic snapshot of scan progress: the input cursor, the set of
//!   dispatched-but-incomplete names, and the pacer's backoff table
//!   spilled as `(host, streak, remaining penalty)` rather than held as
//!   live credits. Each write is atomic (temp file + rename) and
//!   self-validating (payload line + checksum line), so a torn write —
//!   the process died mid-`rename`, the disk filled — is detected and
//!   the previous generation used instead.
//!
//! **Resume correctness does not depend on the checkpoint.** The scan's
//! own JSONL output is the authoritative record of completion: on
//! `--resume`, the output file's trailing torn line (if any) is
//! repaired away, every `"name"` already present becomes the done-set,
//! and a [`DedupSource`] replays the input skipping exactly those
//! names. Names in flight at the kill — dispatched, never written — are
//! therefore re-admitted automatically. The checkpoint contributes the
//! parts the output cannot: the spilled backoff state (so a resumed
//! scan keeps honouring penalties it had already incurred) and the
//! `complete` flag `zdns merge` checks before concatenating shards.
//!
//! **Resume costs what is left to scan, not what is done.** The output
//! of a scan killed at 50 M names is ~14 GB, so nothing here reads it
//! whole: [`repair_jsonl`] looks for the last newline from the end of
//! the file backwards, one 64 KiB chunk at a time; [`output_done_set`]
//! reads the file once, front to back, one line in one reused buffer,
//! validating every line in full and skipping — never failing on — a
//! line that is malformed or not UTF-8; and the names it finds go into
//! a [`DoneSet`], which holds them packed (a name's octets + ≤ 12 B) and
//! hashes them a word at a time. What is left per done name is the
//! validating pass (~140 ns of a 267-octet line on a 2.1 GHz Xeon core,
//! bound by finding where one string ends before the next can start),
//! reading the line (~40 ns) and the set (~45 ns to add the name, ~30 ns
//! when the replay skips it). `zdns merge` finds each shard's torn tail
//! the same way, read-only.
//!
//! The [`CheckpointKeeper`] counts the copies of each outstanding name in
//! flight — an input may list a name twice — so a snapshot is `complete`
//! only once the last copy is done, and lists each name once.
//!
//! This is the fingerprint → state store → timeout-transition lifecycle
//! idiom: identity is a stable hash of the configuration, progress is an
//! append-only record plus a compact rotating snapshot, and recovery is
//! a pure function of the two.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, Read, Seek, SeekFrom, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use zdns_netsim::InputSource;

use crate::conf::Conf;
use crate::done_set::BuildNameHasher;
pub use crate::done_set::DoneSet;

/// Manifest/checkpoint format version (bump on incompatible change).
pub const CHECKPOINT_VERSION: u64 = 1;

/// The configuration fingerprint shared by every shard of one logical
/// scan: a stable hash over the fields that define *what* is being
/// scanned (module, workload, input, seed, name cap, output shape,
/// shard count) and deliberately not *where this shard* runs (shard
/// index, output path, checkpoint path). Two manifests with equal
/// `scan_id`s describe partitions of the same scan and may be merged.
pub fn scan_id(conf: &Conf) -> String {
    let input = match conf.workload {
        crate::conf::Workload::Lines => conf.input_path.as_str(),
        crate::conf::Workload::CtCorpus => "ct-corpus",
    };
    let shard_count = conf.shard.map_or(1, |(_, n)| n);
    let canon = format!(
        "{}|{}|{}|{}|{}|{}|{}",
        conf.module,
        conf.workload.as_str(),
        input,
        conf.seed,
        conf.max_names,
        conf.output.as_str(),
        shard_count,
    );
    format!(
        "{:016x}",
        zdns_zones::hashing::h64(0, "scan-id", canon.as_bytes())
    )
}

/// The durable identity of one shard of a scan, written to the
/// `--checkpoint` path at scan start and read back by `--resume` and
/// `zdns merge`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanManifest {
    /// Configuration fingerprint ([`scan_id`]); equal across shards.
    pub scan_id: String,
    /// Lookup module name.
    pub module: String,
    /// `--workload` spelling of the input source.
    pub workload: String,
    /// Input path (`lines` workload) or `"ct-corpus"`.
    pub input: String,
    /// Simulation/corpus seed.
    pub seed: u64,
    /// Name cap (0 = unlimited), applied *before* the shard filter.
    pub max_names: u64,
    /// This shard's index (0-based).
    pub shard_index: u32,
    /// Total shard count (1 = unsharded).
    pub shard_count: u32,
    /// Where this shard's JSONL lands.
    pub output: String,
}

impl ScanManifest {
    /// The manifest a configuration describes.
    pub fn from_conf(conf: &Conf) -> ScanManifest {
        let (shard_index, shard_count) = conf.shard.unwrap_or((0, 1));
        ScanManifest {
            scan_id: scan_id(conf),
            module: conf.module.clone(),
            workload: conf.workload.as_str().to_string(),
            input: match conf.workload {
                crate::conf::Workload::Lines => conf.input_path.clone(),
                crate::conf::Workload::CtCorpus => "ct-corpus".to_string(),
            },
            seed: conf.seed,
            max_names: conf.max_names as u64,
            shard_index,
            shard_count,
            output: conf.output_path.clone(),
        }
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&json!({
            "version": CHECKPOINT_VERSION,
            "scan_id": self.scan_id,
            "module": self.module,
            "workload": self.workload,
            "input": self.input,
            "seed": self.seed,
            "max_names": self.max_names,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "output": self.output,
        }))
        .expect("json serialization is infallible")
    }

    /// Parse a manifest from its JSON form.
    pub fn from_json(text: &str) -> Result<ScanManifest, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("manifest is not JSON: {e}"))?;
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing string field {k:?}"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("manifest missing integer field {k:?}"))
        };
        let u32_field = |k: &str| -> Result<u32, String> {
            let n = u64_field(k)?;
            u32::try_from(n).map_err(|_| format!("manifest field {k:?} out of range: {n}"))
        };
        let version = u64_field("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "manifest version {version} unsupported (expected {CHECKPOINT_VERSION})"
            ));
        }
        let (shard_index, shard_count) = (u32_field("shard_index")?, u32_field("shard_count")?);
        if shard_index >= shard_count {
            return Err(format!(
                "manifest shard {shard_index}/{shard_count} is not I/N, I < N"
            ));
        }
        Ok(ScanManifest {
            scan_id: str_field("scan_id")?,
            module: str_field("module")?,
            workload: str_field("workload")?,
            input: str_field("input")?,
            seed: u64_field("seed")?,
            max_names: u64_field("max_names")?,
            shard_index,
            shard_count,
            output: str_field("output")?,
        })
    }

    /// Write the manifest to `path` atomically (temp + rename). Like the
    /// periodic checkpoints, the guarantee is kill-safety, not
    /// power-loss durability: after the rename the manifest is either
    /// absent or whole, never torn.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, self.to_json().as_bytes(), false)
    }

    /// Load a manifest from `path`.
    pub fn load(path: &Path) -> Result<ScanManifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
        ScanManifest::from_json(&text)
    }

    /// This shard's checkpoint file (`<manifest>.ckpt`).
    pub fn checkpoint_file(manifest_path: &Path) -> PathBuf {
        let mut s = manifest_path.as_os_str().to_os_string();
        s.push(".ckpt");
        PathBuf::from(s)
    }
}

/// One progress snapshot: how far the input cursor got, which names were
/// dispatched but had not completed, and the pacer backoff table spilled
/// with each host's remaining penalty. Written periodically during the
/// scan and once more — with `complete: true` — when the input is
/// exhausted and the last lookup has drained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the scan this snapshot belongs to.
    pub scan_id: String,
    /// Names dispatched from the input so far.
    pub cursor: u64,
    /// Outputs written so far.
    pub completed: u64,
    /// Dispatched but not yet completed at snapshot time.
    pub outstanding: Vec<String>,
    /// Spilled backoff state: `(host, failure streak, penalty remaining
    /// at snapshot time, in nanoseconds)`.
    pub backoff: Vec<(Ipv4Addr, u32, u64)>,
    /// The scan finished: input exhausted, nothing outstanding.
    pub complete: bool,
}

impl Checkpoint {
    /// Serialize the payload line (compact JSON, no trailing newline).
    pub fn to_json(&self) -> String {
        render_payload(
            &self.scan_id,
            self.cursor,
            self.completed,
            &self.outstanding,
            &self.backoff,
            self.complete,
        )
    }

    /// Parse a payload line.
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("checkpoint is not JSON: {e}"))?;
        if v.get("version").and_then(Value::as_u64) != Some(CHECKPOINT_VERSION) {
            return Err("checkpoint version mismatch".to_string());
        }
        let scan_id = v
            .get("scan_id")
            .and_then(Value::as_str)
            .ok_or("checkpoint missing scan_id")?
            .to_string();
        let outstanding = v
            .get("outstanding")
            .and_then(Value::as_array)
            .ok_or("checkpoint missing outstanding")?
            .iter()
            .filter_map(Value::as_str)
            .map(str::to_string)
            .collect();
        let mut backoff = Vec::new();
        for entry in v
            .get("backoff")
            .and_then(Value::as_array)
            .ok_or("checkpoint missing backoff")?
        {
            let parts = entry.as_array().ok_or("bad backoff entry")?;
            let ip: Ipv4Addr = parts
                .first()
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("bad backoff host")?;
            let streak = parts
                .get(1)
                .and_then(Value::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("bad streak")?;
            let remaining = parts.get(2).and_then(Value::as_u64).ok_or("bad penalty")?;
            backoff.push((ip, streak, remaining));
        }
        Ok(Checkpoint {
            scan_id,
            cursor: v.get("cursor").and_then(Value::as_u64).unwrap_or(0),
            completed: v.get("completed").and_then(Value::as_u64).unwrap_or(0),
            outstanding,
            backoff,
            complete: v.get("complete").and_then(Value::as_bool).unwrap_or(false),
        })
    }

    /// Write this snapshot to `path` torn-write-safely: the file holds
    /// the payload line plus a checksum line, is staged in a temp file
    /// and renamed into place, and the previous generation is rotated to
    /// `<path>.prev` first — so at every instant at least one of the two
    /// generations is a fully valid snapshot.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        write_payload(self.to_json(), path, true)
    }

    /// Load the newest *valid* snapshot: `path` if its checksum holds,
    /// else `<path>.prev`, else `None`. A torn or corrupted current
    /// generation therefore degrades to the previous one rather than
    /// failing the resume (the output-file done-set keeps resume correct
    /// regardless of which generation survives).
    pub fn load_latest(path: &Path) -> Option<Checkpoint> {
        Checkpoint::load_one(path).or_else(|| Checkpoint::load_one(&prev_path(path)))
    }

    fn load_one(path: &Path) -> Option<Checkpoint> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        let payload = lines.next()?;
        let crc = lines.next()?;
        if crc != payload_crc(payload) {
            return None;
        }
        Checkpoint::from_json(payload).ok()
    }
}

/// The payload line of a snapshot: the one place that knows its member
/// order and spelling ([`Checkpoint::to_json`] for an owned snapshot,
/// [`CheckpointKeeper::write_snapshot`] for the keeper's borrowed window).
fn render_payload<S: AsRef<str>>(
    scan_id: &str,
    cursor: u64,
    completed: u64,
    outstanding: &[S],
    backoff: &[(Ipv4Addr, u32, u64)],
    complete: bool,
) -> String {
    const INFALLIBLE: &str = "writing to a String cannot fail";
    let names: usize = outstanding.iter().map(|n| n.as_ref().len() + 3).sum();
    let mut out = String::with_capacity(160 + scan_id.len() + names + 40 * backoff.len());
    write!(out, "{{\"version\":{CHECKPOINT_VERSION},\"scan_id\":").expect(INFALLIBLE);
    serde_json::write_escaped(scan_id, &mut out).expect(INFALLIBLE);
    write!(
        out,
        ",\"cursor\":{cursor},\"completed\":{completed},\"outstanding\":["
    )
    .expect(INFALLIBLE);
    for (i, name) in outstanding.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::write_escaped(name.as_ref(), &mut out).expect(INFALLIBLE);
    }
    out.push_str("],\"backoff\":[");
    for (i, (ip, streak, remaining)) in backoff.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "[\"{ip}\",{streak},{remaining}]").expect(INFALLIBLE);
    }
    write!(out, "],\"complete\":{complete}}}").expect(INFALLIBLE);
    out
}

/// Write a payload line and its checksum line to `path`, rotating the
/// current generation to `<path>.prev` first. `sync` is for the final,
/// `complete` snapshot, which `zdns merge` trusts. Periodic ones go
/// without: they are already torn-write-safe against a process kill
/// (rename is atomic, the checksum rejects a torn file, `.prev` is the
/// fallback, and the output done-set keeps resume correct even with no
/// checkpoint at all), so the flush would only buy power-loss durability
/// — not worth a disk round trip on a scan worker every cadence.
fn write_payload(mut payload: String, path: &Path, sync: bool) -> std::io::Result<()> {
    let crc = payload_crc(&payload);
    payload.push('\n');
    payload.push_str(&crc);
    payload.push('\n');
    // Rotate: the current generation becomes the fallback. A failure
    // here (no current generation yet) is fine.
    let _ = std::fs::rename(path, prev_path(path));
    write_atomic(path, payload.as_bytes(), sync)
}

fn payload_crc(payload: &str) -> String {
    format!(
        "{:016x}",
        zdns_zones::hashing::h64(0, "checkpoint-crc", payload.as_bytes())
    )
}

fn prev_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".prev");
    PathBuf::from(s)
}

/// Stage `bytes` in `<path>.tmp` and rename into place; `sync` forces
/// the bytes to disk before the rename.
fn write_atomic(path: &Path, bytes: &[u8], sync: bool) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
    }
    std::fs::rename(&tmp, path)
}

/// What a `--resume` run recovered before the pipeline starts.
#[derive(Debug)]
pub struct ResumePlan {
    /// The verified manifest — its `output` is where the resumed shard
    /// must keep appending (the output path is deliberately outside the
    /// fingerprint, so the manifest, not the flags, is authoritative).
    pub manifest: ScanManifest,
    /// Names whose output line already exists — never re-probed.
    pub done: DoneSet,
    /// How long reading the output for `done` took.
    pub done_scan: Duration,
    /// The newest valid checkpoint, if any generation survived.
    pub checkpoint: Option<Checkpoint>,
    /// Bytes trimmed from the output file's torn trailing line.
    pub repaired_bytes: u64,
}

/// Prepare a resume: verify the manifest at `manifest_path` matches
/// `conf`'s fingerprint, repair the output file's torn trailing line
/// (a SIGKILL can land mid-`write`), collect the done-set from the
/// output's `"name"` fields, and load the newest valid checkpoint.
pub fn prepare_resume(conf: &Conf, manifest_path: &Path) -> Result<ResumePlan, String> {
    let manifest = ScanManifest::load(manifest_path)?;
    let expected = scan_id(conf);
    if manifest.scan_id != expected {
        return Err(format!(
            "manifest {} was written by a different scan configuration \
             (scan_id {} != {expected}); refusing to resume — rerun with the \
             original module/workload/input/seed/max-names/shard settings",
            manifest_path.display(),
            manifest.scan_id,
        ));
    }
    let shard = conf.shard.unwrap_or((0, 1));
    if (manifest.shard_index, manifest.shard_count) != shard {
        return Err(format!(
            "manifest {} belongs to shard {}/{} but this run is shard {}/{}",
            manifest_path.display(),
            manifest.shard_index,
            manifest.shard_count,
            shard.0,
            shard.1,
        ));
    }
    let repaired_bytes = repair_jsonl(Path::new(&manifest.output))
        .map_err(|e| format!("cannot repair output {}: {e}", manifest.output))?;
    let scan_started = Instant::now();
    let done = output_done_set(Path::new(&manifest.output))
        .map_err(|e| format!("cannot read output {}: {e}", manifest.output))?;
    let done_scan = scan_started.elapsed();
    let checkpoint = Checkpoint::load_latest(&ScanManifest::checkpoint_file(manifest_path))
        .filter(|c| c.scan_id == expected);
    Ok(ResumePlan {
        manifest,
        done,
        done_scan,
        checkpoint,
        repaired_bytes,
    })
}

/// What the tail scan and the done-set scan read at a time.
const CHUNK: usize = 64 << 10;

/// Where `file`'s complete lines end — just past its last `\n`, 0 when
/// it has none — and the file's length. Reads from the end backwards in
/// [`CHUNK`]s and stops at the first newline it meets, so it costs the
/// torn tail, not the file.
fn complete_len(file: &mut File) -> std::io::Result<(u64, u64)> {
    let len = file.metadata()?.len();
    let mut chunk = vec![0u8; CHUNK.min(usize::try_from(len).unwrap_or(CHUNK))];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(chunk.len() as u64);
        let tail = &mut chunk[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(tail)?;
        if let Some(newline) = tail.iter().rposition(|&b| b == b'\n') {
            return Ok((start + newline as u64 + 1, len));
        }
        end = start;
    }
    Ok((0, len))
}

/// Truncate a JSONL file after its last complete line (returns how many
/// torn trailing bytes were dropped). A missing file is zero lines, not
/// an error — the scan died before its first write. Only the tail is
/// read (backwards, 64 KiB at a time), and a file that ends in a newline
/// is not written to at all.
pub fn repair_jsonl(path: &Path) -> std::io::Result<u64> {
    let mut file = match std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
    {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let (keep, len) = complete_len(&mut file)?;
    if keep < len {
        file.set_len(keep)?;
        file.sync_all()?;
    }
    Ok(len - keep)
}

/// The names already completed according to a (repaired) JSONL output:
/// every parseable line's `"name"` field. Module outputs carry the raw
/// input line as their `name`, so this set keys directly against the
/// input stream. The file is read once, front to back, one line at a
/// time in one reused buffer. Each line is validated in full — a torn,
/// garbage or non-UTF-8 line contributes nothing and stops nothing — but
/// only its name is looked at, in place unless it has escapes. The set
/// is sized when the first name is found, taking every line to be about
/// as long as that one.
pub fn output_done_set(path: &Path) -> std::io::Result<DoneSet> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(DoneSet::default()),
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    let mut reader = std::io::BufReader::with_capacity(CHUNK, file);
    let mut done = DoneSet::default();
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let Some(name) = serde_json::top_level_str_bytes(&line, "name") else {
            continue;
        };
        if done.is_empty() {
            let lines = usize::try_from(len / line.len() as u64).unwrap_or(0);
            done.reserve(lines, name.len());
        }
        done.insert(&name);
    }
    done.shrink_to_fit();
    Ok(done)
}

/// An [`InputSource`] filter that skips names already completed — the
/// resume path wraps the replayed input in one of these so zero
/// completed names are re-probed.
pub struct DedupSource<S> {
    inner: S,
    done: DoneSet,
    /// Names skipped because their output already existed.
    pub skipped: u64,
}

impl<S: InputSource> DedupSource<S> {
    /// Wrap `inner`, skipping every name in `done`.
    pub fn new(inner: S, done: DoneSet) -> DedupSource<S> {
        DedupSource {
            inner,
            done,
            skipped: 0,
        }
    }
}

impl<S: InputSource> InputSource for DedupSource<S> {
    fn next_name(&mut self) -> Option<String> {
        loop {
            let name = self.inner.next_name()?;
            if self.done.contains(&name) {
                self.skipped += 1;
                continue;
            }
            return Some(name);
        }
    }

    fn size_hint(&self) -> Option<u64> {
        None
    }
}

/// The scan pipeline's checkpoint bookkeeper, shared (behind a mutex)
/// between the feeder thread (records dispatches) and the workers (record
/// completions and decide when a snapshot is due). Snapshots are rare:
/// the worker that crosses the cadence serializes at most one per
/// `every` completions.
pub struct CheckpointKeeper {
    scan_id: String,
    path: PathBuf,
    every: u64,
    cursor: u64,
    completed: u64,
    since_snapshot: u64,
    /// Names dispatched and not yet completed, with how many copies of
    /// each are in flight (see the module docs). Hashed like the done-set,
    /// not with SipHash: the keys are the operator's own input names.
    outstanding: HashMap<String, u32, BuildNameHasher>,
    exhausted: bool,
}

/// Default completions between snapshots when `--checkpoint-every` is
/// not given: frequent enough that a crash loses seconds of backoff
/// state, rare enough to be invisible in lookups/s.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1000;

impl CheckpointKeeper {
    /// A keeper snapshotting to `<manifest>.ckpt` every `every`
    /// completions (0 = [`DEFAULT_CHECKPOINT_EVERY`]).
    pub fn new(scan_id: String, manifest_path: &Path, every: u64) -> CheckpointKeeper {
        CheckpointKeeper {
            scan_id,
            path: ScanManifest::checkpoint_file(manifest_path),
            every: if every == 0 {
                DEFAULT_CHECKPOINT_EVERY
            } else {
                every
            },
            cursor: 0,
            completed: 0,
            since_snapshot: 0,
            outstanding: HashMap::default(),
            exhausted: false,
        }
    }

    /// Seed counters from a resumed checkpoint so cursor/completed keep
    /// counting across the scan's whole life, not just this process.
    pub fn resume_from(&mut self, checkpoint: &Checkpoint) {
        self.cursor = checkpoint.cursor;
        self.completed = checkpoint.completed;
    }

    /// Record a name entering the pipeline (feeder thread, *before* the
    /// channel send — so every in-flight name is in `outstanding` by the
    /// time its completion can possibly be observed).
    pub fn dispatched(&mut self, name: &str) {
        self.cursor += 1;
        *self.outstanding.entry(name.to_string()).or_insert(0) += 1;
    }

    /// The input source is drained; with an empty outstanding set the
    /// final snapshot may be marked complete.
    pub fn input_exhausted(&mut self) {
        self.exhausted = true;
    }

    /// Record a completed output (a scan worker). Returns `true` when a
    /// periodic snapshot is due — the caller then collects the backoff
    /// spill and calls [`CheckpointKeeper::write_snapshot`].
    pub fn completed(&mut self, name: &str) -> bool {
        if let Some((name, copies)) = self.outstanding.remove_entry(name) {
            if copies > 1 {
                self.outstanding.insert(name, copies - 1);
            }
        }
        self.completed += 1;
        self.since_snapshot += 1;
        if self.since_snapshot >= self.every {
            self.since_snapshot = 0;
            true
        } else {
            false
        }
    }

    /// Whether the scan has fully drained (input exhausted, nothing
    /// outstanding).
    pub fn is_complete(&self) -> bool {
        self.exhausted && self.outstanding.is_empty()
    }

    /// Build and write one snapshot with the given backoff spill; the
    /// `complete` flag is derived from drain state. Write failures are
    /// returned but non-fatal to the scan (the next snapshot retries).
    pub fn write_snapshot(&self, backoff: Vec<(Ipv4Addr, u32, u64)>) -> std::io::Result<()> {
        let mut outstanding: Vec<&str> = self.outstanding.keys().map(String::as_str).collect();
        outstanding.sort_unstable();
        let complete = self.is_complete();
        let payload = render_payload(
            &self.scan_id,
            self.cursor,
            self.completed,
            &outstanding,
            &backoff,
            complete,
        );
        write_payload(payload, &self.path, complete)
    }
}

/// What `zdns merge` did.
#[derive(Debug, Default)]
pub struct MergeReport {
    /// Shards concatenated, in index order.
    pub shards: u32,
    /// Output lines written: the newlines copied.
    pub lines: u64,
    /// Shards whose checkpoints were not marked complete (only non-empty
    /// when merging with `--allow-partial`).
    pub partial_shards: Vec<u32>,
}

/// Merge per-shard outputs into `output_path` after verifying the shard
/// manifests agree: same `scan_id`, same shard count, indices covering
/// exactly `0..n` with no duplicates, and (unless `allow_partial`) every
/// shard's checkpoint marked complete. Shard outputs are concatenated in
/// index order, byte for byte up to each one's last newline: the torn
/// trailing line of a killed shard (`--allow-partial`) is left out, found
/// from the end of the file, as [`repair_jsonl`] does, without writing to a shard
/// this command does not own.
pub fn merge_shards(
    manifest_paths: &[PathBuf],
    output_path: &Path,
    allow_partial: bool,
) -> Result<MergeReport, String> {
    if manifest_paths.is_empty() {
        return Err("zdns merge needs at least one shard manifest".to_string());
    }
    let mut manifests = Vec::new();
    for path in manifest_paths {
        manifests.push((path.clone(), ScanManifest::load(path)?));
    }
    let scan_id = manifests[0].1.scan_id.clone();
    let count = manifests[0].1.shard_count;
    for (path, m) in &manifests {
        if m.scan_id != scan_id {
            return Err(format!(
                "{}: scan_id {} does not match {} from {} — these shards \
                 belong to different scans",
                path.display(),
                m.scan_id,
                scan_id,
                manifests[0].0.display(),
            ));
        }
        if m.shard_count != count {
            return Err(format!(
                "{}: shard count {} does not match {}",
                path.display(),
                m.shard_count,
                count
            ));
        }
    }
    if manifests.len() != count as usize {
        return Err(format!(
            "scan has {count} shards but {} manifests were given",
            manifests.len()
        ));
    }
    let mut seen = vec![false; count as usize];
    for (path, m) in &manifests {
        let i = m.shard_index as usize;
        if i >= seen.len() || seen[i] {
            return Err(format!(
                "{}: shard index {} duplicated or out of range 0..{count}",
                path.display(),
                m.shard_index
            ));
        }
        seen[i] = true;
    }
    let mut report = MergeReport::default();
    for (path, m) in &manifests {
        let complete = Checkpoint::load_latest(&ScanManifest::checkpoint_file(path))
            .map(|c| c.scan_id == scan_id && c.complete)
            .unwrap_or(false);
        if !complete {
            if !allow_partial {
                return Err(format!(
                    "shard {} ({}) is not marked complete — finish or resume it, \
                     or pass --allow-partial to merge anyway",
                    m.shard_index,
                    path.display()
                ));
            }
            report.partial_shards.push(m.shard_index);
        }
    }
    // Concatenate in shard-index order (deterministic merged output).
    manifests.sort_by_key(|(_, m)| m.shard_index);
    let mut out = LineCounter {
        inner: std::io::BufWriter::with_capacity(
            CHUNK,
            File::create(output_path)
                .map_err(|e| format!("cannot create {}: {e}", output_path.display()))?,
        ),
        lines: 0,
    };
    for (_, m) in &manifests {
        let mut file = match File::open(&m.output) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(format!("cannot read shard output {}: {e}", m.output)),
        };
        let unreadable = |e| format!("cannot read shard output {}: {e}", m.output);
        let (keep, _) = complete_len(&mut file).map_err(unreadable)?;
        file.seek(SeekFrom::Start(0)).map_err(unreadable)?;
        // `io::copy` reports one error for both ends; name both files.
        std::io::copy(&mut file.take(keep), &mut out)
            .map_err(|e| format!("cannot copy {} to {}: {e}", m.output, output_path.display()))?;
        report.shards += 1;
    }
    out.flush()
        .map_err(|e| format!("cannot write {}: {e}", output_path.display()))?;
    report.lines = out.lines;
    Ok(report)
}

/// A writer that counts the newlines passing through it.
struct LineCounter<W> {
    inner: W,
    lines: u64,
}

impl<W: Write> Write for LineCounter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.lines += buf[..written].iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conf::Conf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zdns-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_conf(dir: &Path, shard: Option<(u32, u32)>) -> Conf {
        let mut argv = vec![
            "A".to_string(),
            "--real".to_string(),
            "--input-file".to_string(),
            dir.join("names.txt").display().to_string(),
            "--output-file".to_string(),
            dir.join("out.jsonl").display().to_string(),
            "--checkpoint".to_string(),
            dir.join("scan.manifest.json").display().to_string(),
        ];
        if let Some((i, n)) = shard {
            argv.push("--shard".to_string());
            argv.push(format!("{i}/{n}"));
        }
        Conf::parse(argv).unwrap()
    }

    #[test]
    fn scan_id_is_shard_invariant_but_config_sensitive() {
        let dir = temp_dir("scanid");
        let a = durable_conf(&dir, Some((0, 2)));
        let b = durable_conf(&dir, Some((1, 2)));
        assert_eq!(scan_id(&a), scan_id(&b), "shard index must not matter");

        let mut c = durable_conf(&dir, Some((0, 2)));
        c.seed = 999;
        assert_ne!(scan_id(&a), scan_id(&c), "seed must matter");
        let mut d = durable_conf(&dir, Some((0, 2)));
        d.shard = Some((0, 3));
        assert_ne!(scan_id(&a), scan_id(&d), "shard count must matter");
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("manifest");
        let conf = durable_conf(&dir, Some((1, 4)));
        let manifest = ScanManifest::from_conf(&conf);
        let path = dir.join("m.json");
        manifest.write(&path).unwrap();
        let loaded = ScanManifest::load(&path).unwrap();
        assert_eq!(loaded, manifest);
        assert_eq!(loaded.shard_index, 1);
        assert_eq!(loaded.shard_count, 4);
    }

    #[test]
    fn out_of_range_shards_and_streaks_are_refused_at_load() {
        let manifest = |index: &str, count: &str| {
            let text = ScanManifest::from_conf(&Conf::default())
                .to_json()
                .replace("\"shard_index\": 0", &format!("\"shard_index\": {index}"))
                .replace("\"shard_count\": 1", &format!("\"shard_count\": {count}"));
            ScanManifest::from_json(&text)
        };
        assert_eq!(manifest("0", "1").unwrap().shard_count, 1);
        // 2^32 + 1 used to load as 1 and pass an unsharded resume's check.
        for (index, count) in [("0", "4294967297"), ("0", "0"), ("4", "4")] {
            let loaded = manifest(index, count);
            assert!(loaded.is_err(), "{index}/{count} loaded as {loaded:?}");
        }

        let checkpoint = |streak: &str| {
            let text = Checkpoint {
                backoff: vec![(Ipv4Addr::new(192, 0, 2, 1), 7, 1)],
                ..Checkpoint::default()
            }
            .to_json()
            .replace(",7,", &format!(",{streak},"));
            Checkpoint::from_json(&text).map(|c| c.backoff[0].1)
        };
        assert_eq!(checkpoint("7"), Ok(7));
        assert!(
            checkpoint("4294967296").is_err(),
            "streak 2^32 wrapped to 0"
        );
    }

    #[test]
    fn checkpoint_round_trips_and_rotates() {
        let dir = temp_dir("ckpt");
        let path = dir.join("scan.ckpt");
        let first = Checkpoint {
            scan_id: "abc".into(),
            cursor: 10,
            completed: 7,
            outstanding: vec!["a.test".into(), "b.test".into()],
            backoff: vec![(Ipv4Addr::new(192, 0, 2, 1), 3, 700_000_000)],
            complete: false,
        };
        first.write(&path).unwrap();
        assert_eq!(Checkpoint::load_latest(&path).unwrap(), first);

        let second = Checkpoint {
            cursor: 20,
            ..first.clone()
        };
        second.write(&path).unwrap();
        assert_eq!(Checkpoint::load_latest(&path).unwrap(), second);

        // Tear the current generation: the previous one is used instead.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(
            Checkpoint::load_latest(&path).unwrap(),
            first,
            "torn current generation must fall back to .prev"
        );
    }

    #[test]
    fn torn_output_lines_are_repaired_and_deduped() {
        let dir = temp_dir("repair");
        let out = dir.join("out.jsonl");
        std::fs::write(
            &out,
            "{\"name\":\"a.test\",\"status\":\"NOERROR\"}\n\
             {\"name\":\"b.test\",\"status\":\"NXDOMAIN\"}\n\
             {\"name\":\"c.te",
        )
        .unwrap();
        let torn = repair_jsonl(&out).unwrap();
        assert_eq!(torn, "{\"name\":\"c.te".len() as u64);
        let done = output_done_set(&out).unwrap();
        assert_eq!(done.len(), 2);
        assert!(done.contains("a.test") && done.contains("b.test"));
        assert!(!done.contains("c.te"), "torn line must not count as done");

        // Names come back unescaped, and a line that is not one complete
        // JSON object (garbage, a valid prefix glued to junk, a non-string
        // name) contributes nothing.
        std::fs::write(
            &out,
            "{\"name\":\"we\\\"ird\\\\n\\u00e9.tést@192.0.2.1\",\"data\":{\"name\":\"inner\"}}\n\
             not json at all\n\
             {\"name\":\"glued.test\"}{\"name\":\"x\"}\n\
             {\"name\":\"unclosed.test\",\"data\":{\"answers\":[1,2}\n\
             {\"name\":17}\n\
             {\"status\":\"NOERROR\",\"name\":\"last.test\"}\n",
        )
        .unwrap();
        let done = output_done_set(&out).unwrap();
        assert_eq!(done.len(), 2);
        assert!(done.contains("last.test") && done.contains("we\"ird\\né.tést@192.0.2.1"));

        // Missing output = nothing done, not an error.
        assert_eq!(repair_jsonl(&dir.join("absent.jsonl")).unwrap(), 0);
        assert!(output_done_set(&dir.join("absent.jsonl"))
            .unwrap()
            .is_empty());
    }

    /// Regression: `BufRead::lines()` turned one line that is not UTF-8
    /// into `InvalidData` for the whole file, and `zdns --resume` exited 2
    /// ("stream did not contain valid UTF-8") on an output it could have
    /// resumed from.
    #[test]
    fn a_line_that_is_not_utf8_is_skipped_not_fatal() {
        let dir = temp_dir("nonutf8");
        let out = dir.join("out.jsonl");
        std::fs::write(
            &out,
            b"{\"name\":\"a.test\"}\n{\"name\":\"\xff\xfe.test\"}\n{\"name\":\"c.test\"}\n",
        )
        .unwrap();
        assert_eq!(repair_jsonl(&out).unwrap(), 0);
        let done = output_done_set(&out).unwrap();
        assert_eq!(done.len(), 2);
        assert!(done.contains("a.test") && done.contains("c.test"));
    }

    #[test]
    fn dedup_source_skips_exactly_the_done_names() {
        let names: Vec<String> = ["a.test", "b.test", "c.test", "d.test"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let done: DoneSet = ["b.test", "d.test"].into_iter().collect();
        let mut source = DedupSource::new(names.into_iter(), done);
        assert_eq!(source.next_name().as_deref(), Some("a.test"));
        assert_eq!(source.next_name().as_deref(), Some("c.test"));
        assert_eq!(source.next_name(), None);
        assert_eq!(source.skipped, 2);
    }

    #[test]
    fn keeper_tracks_outstanding_and_cadence() {
        let dir = temp_dir("keeper");
        let manifest_path = dir.join("m.json");
        let mut keeper = CheckpointKeeper::new("id".into(), &manifest_path, 2);
        keeper.dispatched("a.test");
        keeper.dispatched("b.test");
        keeper.dispatched("c.test");
        assert!(!keeper.completed("a.test"), "1 of 2: not due yet");
        assert!(keeper.completed("b.test"), "2 of 2: snapshot due");
        keeper.input_exhausted();
        assert!(!keeper.is_complete(), "c.test still outstanding");
        keeper.completed("c.test");
        assert!(keeper.is_complete());
        keeper.write_snapshot(Vec::new()).unwrap();
        let ckpt = Checkpoint::load_latest(&ScanManifest::checkpoint_file(&manifest_path)).unwrap();
        assert!(ckpt.complete);
        assert_eq!(ckpt.cursor, 3);
        assert_eq!(ckpt.completed, 3);
        assert!(ckpt.outstanding.is_empty());
    }

    /// Regression: the outstanding names were a set, so a name the input
    /// lists twice, in flight twice, left it at its first completion — and
    /// a snapshot taken after input exhaustion said `complete: true` (which
    /// `zdns merge` trusts) while the second lookup still ran.
    #[test]
    fn a_name_in_flight_twice_is_outstanding_until_both_complete() {
        let dir = temp_dir("twice");
        let manifest_path = dir.join("m.json");
        let ckpt_path = ScanManifest::checkpoint_file(&manifest_path);
        let mut keeper = CheckpointKeeper::new("id".into(), &manifest_path, u64::MAX);
        keeper.dispatched("x");
        keeper.dispatched("x");
        keeper.input_exhausted();
        keeper.completed("x");
        assert!(!keeper.is_complete(), "the second x is still in flight");
        keeper.write_snapshot(Vec::new()).unwrap();
        let ckpt = Checkpoint::load_latest(&ckpt_path).unwrap();
        assert!(!ckpt.complete);
        assert_eq!(ckpt.outstanding, ["x"], "listed once, as before");
        assert_eq!((ckpt.cursor, ckpt.completed), (2, 1));

        keeper.completed("x");
        assert!(keeper.is_complete());
        keeper.write_snapshot(Vec::new()).unwrap();
        let ckpt = Checkpoint::load_latest(&ckpt_path).unwrap();
        assert!(ckpt.complete && ckpt.outstanding.is_empty());
        // A completion nothing dispatched (the counts never go below zero).
        keeper.completed("x");
        assert!(keeper.is_complete());
    }

    #[test]
    fn merge_verifies_manifests_and_concatenates_in_order() {
        let dir = temp_dir("merge");
        std::fs::write(dir.join("names.txt"), "x\n").unwrap();
        let mut paths = Vec::new();
        for i in 0..2u32 {
            let mut conf = durable_conf(&dir, Some((i, 2)));
            conf.output_path = dir.join(format!("out{i}.jsonl")).display().to_string();
            let manifest_path = dir.join(format!("shard{i}.manifest.json"));
            ScanManifest::from_conf(&conf)
                .write(&manifest_path)
                .unwrap();
            std::fs::write(&conf.output_path, format!("{{\"name\":\"s{i}\"}}\n")).unwrap();
            let keeper = {
                let mut k = CheckpointKeeper::new(scan_id(&conf), &manifest_path, 1);
                k.dispatched(&format!("s{i}"));
                k.completed(&format!("s{i}"));
                k.input_exhausted();
                k
            };
            keeper.write_snapshot(Vec::new()).unwrap();
            paths.push(manifest_path);
        }
        let merged = dir.join("merged.jsonl");
        // Reversed order in, index order out.
        let reversed: Vec<PathBuf> = paths.iter().rev().cloned().collect();
        let report = merge_shards(&reversed, &merged, false).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.lines, 2);
        let text = std::fs::read_to_string(&merged).unwrap();
        assert_eq!(text, "{\"name\":\"s0\"}\n{\"name\":\"s1\"}\n");

        // A foreign manifest is rejected.
        let mut foreign = durable_conf(&dir, Some((1, 2)));
        foreign.seed = 777;
        foreign.output_path = dir.join("outf.jsonl").display().to_string();
        let fpath = dir.join("foreign.manifest.json");
        ScanManifest::from_conf(&foreign).write(&fpath).unwrap();
        let bad = vec![paths[0].clone(), fpath];
        let err = merge_shards(&bad, &merged, false).unwrap_err();
        assert!(err.contains("different scans"), "{err}");

        // Missing shard index is rejected.
        let err = merge_shards(&paths[..1], &merged, false).unwrap_err();
        assert!(err.contains("2 shards"), "{err}");
    }

    #[test]
    fn merge_rejects_incomplete_shards_unless_partial() {
        let dir = temp_dir("partial");
        std::fs::write(dir.join("names.txt"), "x\n").unwrap();
        let conf = durable_conf(&dir, None);
        let manifest_path = dir.join("scan.manifest.json");
        ScanManifest::from_conf(&conf)
            .write(&manifest_path)
            .unwrap();
        std::fs::write(&conf.output_path, "{\"name\":\"x\"}\n").unwrap();
        // No checkpoint at all → not complete.
        let merged = dir.join("merged.jsonl");
        let err = merge_shards(std::slice::from_ref(&manifest_path), &merged, false).unwrap_err();
        assert!(err.contains("not marked complete"), "{err}");
        let report = merge_shards(std::slice::from_ref(&manifest_path), &merged, true).unwrap();
        assert_eq!(report.partial_shards, vec![0]);
        assert_eq!(report.lines, 1);

        // A killed shard's torn tail — and a line that is not UTF-8 — in a
        // partial merge: the tail stays out of the merged file and out of
        // the count, the shard's own file is not touched, nothing aborts.
        let shard: &[u8] = b"{\"name\":\"a.test\"}\n{\"name\":\"\xff.test\"}\n{\"name\":\"c.te";
        std::fs::write(&conf.output_path, shard).unwrap();
        let report = merge_shards(&[manifest_path], &merged, true).unwrap();
        assert_eq!(report.lines, 2);
        let text = std::fs::read(&merged).unwrap();
        assert_eq!(text, &shard[..shard.len() - "{\"name\":\"c.te".len()]);
        assert_eq!(std::fs::read(&conf.output_path).unwrap(), shard);
    }
}
