//! Docs-rot guard: the CLI flag tables in `conf.rs` ([`SCAN_FLAGS`],
//! [`SERVE_FLAGS`], [`MERGE_FLAGS`]) are cross-checked against the
//! documentation, in both directions; every spelling is actually parsed
//! through [`Conf::parse`] / [`ServeConf::parse`] / [`MergeConf::parse`]
//! with a sample value, and every entry is printed by the binary's
//! `--help`. Internal markdown links (including `#anchors`) in README.md
//! and docs/*.md must resolve, and neither the documents, the examples
//! nor any crate's sources may name deleted code ([`DELETED_NAMES`]).
//!
//! When a flag is added to a table, `conf_flag_inventory_is_curated`
//! fails until every spelling gets a sample argv here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use zdns_framework::conf::{FlagTable, MERGE_FLAGS, SCAN_FLAGS, SERVE_FLAGS};
use zdns_framework::{Conf, MergeConf, ServeConf};

/// Flag spellings, each with an argv that uses it and must parse.
type Samples = &'static [(&'static str, &'static [&'static str])];

/// Every scan flag, with a complete argv that must parse. The argv also
/// satisfies the flag's validation dependencies (e.g. `--checkpoint`
/// requires `--real` plus file-backed input and output).
const SCAN_SAMPLES: Samples = &[
    ("--threads", &["A", "--threads", "64"]),
    ("-t", &["A", "-t", "64"]),
    ("--iterative", &["A", "--iterative"]),
    (
        "--name-servers",
        &["A", "--name-servers", "192.0.2.53,192.0.2.54:5353"],
    ),
    ("--cache-size", &["A", "--cache-size", "10000"]),
    ("--retries", &["A", "--retries", "2"]),
    ("--timeout", &["A", "--timeout", "2.5"]),
    ("--iteration-timeout", &["A", "--iteration-timeout", "1.5"]),
    ("--tcp-only", &["A", "--tcp-only"]),
    ("--no-tcp-fallback", &["A", "--no-tcp-fallback"]),
    ("--trace", &["A", "--trace"]),
    ("--output-fields", &["A", "--output-fields", "long"]),
    ("--input-file", &["A", "--input-file", "names.txt"]),
    ("-f", &["A", "-f", "names.txt"]),
    ("--output-file", &["A", "--output-file", "out.jsonl"]),
    ("-o", &["A", "-o", "out.jsonl"]),
    ("--seed", &["A", "--seed", "7"]),
    ("--source-ips", &["A", "--source-ips", "8"]),
    ("--status-updates", &["A", "--status-updates"]),
    ("--real", &["A", "--real", "--name-servers", "192.0.2.53"]),
    ("--max-in-flight", &["A", "--max-in-flight", "2000"]),
    ("--rate-pps", &["A", "--rate-pps", "5000"]),
    ("--per-host-pps", &["A", "--per-host-pps", "400"]),
    ("--backoff", &["A", "--backoff"]),
    ("--backoff-base", &["A", "--backoff-base", "0.2"]),
    ("--backoff-cap", &["A", "--backoff-cap", "8"]),
    ("--max-names", &["A", "--max-names", "1000000"]),
    (
        "--workload",
        &["A", "--workload", "ct-corpus", "--max-names", "100"],
    ),
    ("--io-backend", &["A", "--io-backend", "mmsg"]),
    (
        "--cookie-secret",
        &["A", "--cookie-secret", "000102030405060708090a0b0c0d0e0f"],
    ),
    ("--shard", &["A", "--shard", "0/4"]),
    (
        "--checkpoint",
        &[
            "A",
            "--real",
            "--name-servers",
            "192.0.2.53",
            "--input-file",
            "names.txt",
            "--output-file",
            "out.jsonl",
            "--checkpoint",
            "scan.manifest.json",
        ],
    ),
    (
        "--resume",
        &[
            "A",
            "--real",
            "--name-servers",
            "192.0.2.53",
            "--resume",
            "scan.manifest.json",
        ],
    ),
    (
        "--checkpoint-every",
        &[
            "A",
            "--real",
            "--name-servers",
            "192.0.2.53",
            "--input-file",
            "names.txt",
            "--output-file",
            "out.jsonl",
            "--checkpoint",
            "scan.manifest.json",
            "--checkpoint-every",
            "250",
        ],
    ),
];

/// Every `zdns serve` flag with a parsing sample argv.
const SERVE_SAMPLES: Samples = &[
    (
        "--listen",
        &["--listen", "127.0.0.1:5300", "--upstream", "192.0.2.53"],
    ),
    ("--upstream", &["--upstream", "192.0.2.53:5353,192.0.2.54"]),
    (
        "--cache-capacity",
        &["--cache-capacity", "100000", "--upstream", "192.0.2.53"],
    ),
    (
        "--packet-cache-capacity",
        &[
            "--packet-cache-capacity",
            "65536",
            "--upstream",
            "192.0.2.53",
        ],
    ),
    (
        "--client-pps",
        &["--client-pps", "100", "--upstream", "192.0.2.53"],
    ),
    (
        "--io-backend",
        &["--io-backend", "syscall", "--upstream", "192.0.2.53"],
    ),
    ("--shards", &["--shards", "4", "--upstream", "192.0.2.53"]),
    (
        "--duration",
        &["--duration", "10", "--upstream", "192.0.2.53"],
    ),
    (
        "--status-updates",
        &["--status-updates", "--upstream", "192.0.2.53"],
    ),
];

/// Every `zdns merge` flag with a parsing sample argv.
const MERGE_SAMPLES: Samples = &[
    (
        "--output",
        &["--output", "merged.jsonl", "s0.manifest.json"],
    ),
    (
        "--output-file",
        &["--output-file", "merged.jsonl", "s0.manifest.json"],
    ),
    (
        "--allow-partial",
        &[
            "--output",
            "merged.jsonl",
            "--allow-partial",
            "s0.manifest.json",
        ],
    ),
];

/// Flags that are real but live outside `conf.rs`: the cargo and zbench
/// flags quoted in build and benchmark instructions.
const DOC_ONLY_FLAGS: &[&str] = &[
    "--help",
    "--release",
    "--bench",
    "--bin",
    "--workspace",
    "--offline",
    "--manifest-path",
    "--quick", // zbench
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The documentation set the flag checks run against.
fn doc_files() -> Vec<(String, String)> {
    let mut files = vec![("README.md".to_string(), read("README.md"))];
    let docs = repo_root().join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "docs/ holds no markdown");
    for path in entries {
        let rel = format!("docs/{}", path.file_name().unwrap().to_string_lossy());
        files.push((rel.clone(), read(&rel)));
    }
    files
}

/// Every `--flag`-shaped token in a document.
fn doc_flag_tokens(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut tokens = BTreeSet::new();
    let mut i = 0;
    while i + 2 < bytes.len() {
        let at_flag = bytes[i] == b'-'
            && bytes[i + 1] == b'-'
            && bytes[i + 2].is_ascii_lowercase()
            && (i == 0 || !matches!(bytes[i - 1], b'-' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9'));
        if !at_flag {
            i += 1;
            continue;
        }
        let mut end = i + 2;
        while end < bytes.len() && matches!(bytes[end], b'a'..=b'z' | b'0'..=b'9' | b'-') {
            end += 1;
        }
        let token = text[i..end].trim_end_matches('-');
        tokens.insert(token.to_string());
        i = end;
    }
    tokens
}

/// Every spelling of every flag in a table.
fn spellings<C>(table: &FlagTable<C>) -> impl Iterator<Item = &'static str> + '_ {
    table
        .flags
        .iter()
        .flat_map(|flag| flag.names.iter().copied())
}

/// A table's spellings beside the keys of its samples.
fn tables_and_samples() -> [(Vec<&'static str>, Samples); 3] {
    [
        (spellings(&SCAN_FLAGS).collect(), SCAN_SAMPLES),
        (spellings(&SERVE_FLAGS).collect(), SERVE_SAMPLES),
        (spellings(&MERGE_FLAGS).collect(), MERGE_SAMPLES),
    ]
}

#[test]
fn conf_flag_inventory_is_curated() {
    for (table, samples) in tables_and_samples() {
        let parsed: BTreeSet<&str> = table.iter().copied().collect();
        let curated: BTreeSet<&str> = samples.iter().map(|(flag, _)| *flag).collect();
        let undocumented: Vec<&&str> = parsed.difference(&curated).collect();
        let stale: Vec<&&str> = curated.difference(&parsed).collect();
        assert!(
            undocumented.is_empty(),
            "conf.rs parses flags this test never heard of: {undocumented:?} \
             — add a sample argv here, and documentation"
        );
        assert!(
            stale.is_empty(),
            "sample flags no longer in a conf.rs table: {stale:?}"
        );
    }
}

#[test]
fn no_spelling_appears_twice_in_a_table() {
    // A `match` warns about an unreachable arm; a table would silently
    // shadow the second entry instead.
    for (table, _) in tables_and_samples() {
        let unique: BTreeSet<&str> = table.iter().copied().collect();
        assert_eq!(unique.len(), table.len(), "duplicate spelling in {table:?}");
    }
}

#[test]
fn every_flag_parses_with_its_sample_argv() {
    for (flag, argv) in SCAN_SAMPLES {
        assert!(argv.contains(flag), "sample for {flag} must use {flag}");
        Conf::parse(argv.iter().copied())
            .unwrap_or_else(|e| panic!("sample argv for {flag} failed to parse: {e}"));
    }
    for (flag, argv) in SERVE_SAMPLES {
        assert!(argv.contains(flag), "sample for {flag} must use {flag}");
        ServeConf::parse(argv.iter().copied())
            .unwrap_or_else(|e| panic!("serve sample argv for {flag} failed to parse: {e}"));
    }
    for (flag, argv) in MERGE_SAMPLES {
        assert!(argv.contains(flag), "sample for {flag} must use {flag}");
        MergeConf::parse(argv.iter().copied())
            .unwrap_or_else(|e| panic!("merge sample argv for {flag} failed to parse: {e}"));
    }
}

/// What `zdns ARGS` prints on stdout.
fn zdns_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_zdns"))
        .args(args)
        .output()
        .expect("running the zdns binary");
    assert!(out.status.success(), "zdns {args:?}: {}", out.status);
    String::from_utf8(out.stdout).expect("help is UTF-8")
}

/// Every entry of `table` as the binary's help prints it.
fn assert_help_lists<C>(args: &[&str], table: &FlagTable<C>) {
    let help = zdns_stdout(args);
    for (flag, entry) in table.flags.iter().zip(table.help_entries()) {
        assert!(
            help.contains(&entry),
            "zdns {args:?} does not print the entry for {}:\n{entry}",
            flag.names[0]
        );
    }
}

#[test]
fn every_flag_appears_in_the_binary_help_text() {
    assert_help_lists(&["--help"], &SCAN_FLAGS);
    assert_help_lists(&["serve", "--help"], &SERVE_FLAGS);
    assert_help_lists(&["merge", "--help"], &MERGE_FLAGS);
}

#[test]
fn docs_mention_only_real_flags() {
    let real: BTreeSet<&str> = spellings(&SCAN_FLAGS)
        .chain(spellings(&SERVE_FLAGS))
        .chain(spellings(&MERGE_FLAGS))
        .chain(DOC_ONLY_FLAGS.iter().copied())
        .collect();
    for (name, text) in doc_files() {
        for token in doc_flag_tokens(&text) {
            assert!(
                real.contains(token.as_str()),
                "{name} mentions {token}, which no parser implements \
                 (extend DOC_ONLY_FLAGS for new subcommand flags)"
            );
        }
    }
}

/// Names of deleted code and of the mechanisms it was: a doc comment or a
/// document that still names one describes a program that is gone. (The
/// names CI also greps the whole tree for are spelled in pieces, so that
/// this file does not trip those greps.)
const DELETED_NAMES: &[&str] = &[
    concat!("wire_", "fidelity"),
    concat!("estimate_", "size"),
    "TcpPool",
    "UdpTransport",
    "drive_blocking",
    "side-pool",
    "blocking driver",
    "blocking transport",
    "bench_reactor",
    "BENCH_reactor",
    "IoBackend::Auto",
    concat!("Direct", "Machine"),
    concat!("External", "Machine"),
    concat!("inputs_", "stolen"),
    concat!("fair_", "share"),
    "pin_to_core",
    "--pin-cores",
    "BatchHistogram",
    "StatsSnapshot",
    "send_batch_fill",
    "recv_batch_fill",
    "recv_partial_batches",
    "pacer_stripe_waits",
    "token_blocks_leased",
    "stripe_waits",
    "ResolveTarget",
    "RawMachine",
    "ProbeMachine",
    "BindVersionMachine",
    "TxtFilterMachine",
    "CaaMachine",
    "ALookupMachine",
    "MxMachine",
    "NsMachine",
    "NsPhase",
    "max_exchanges",
    "max_servers",
    concat!("reap_if_", "wedged"),
    concat!("on_done(", "None)"),
    "after_step",
    "drain_actions",
    "take_out_buf",
    "put_out_buf",
    "out_pool",
    concat!("parse_batch", "_size"),
    concat!("dual", "-role"),
    concat!("STAMP_", "STRIPES"),
    concat!("CutMemo", "Stats"),
    concat!("memo_", "stats"),
    concat!("Pre", "Hashed"),
    concat!("same_", "hash"),
    concat!("repoint_", "index"),
    concat!("run_real", "_scan"),
    concat!("dig_trace", "_machine"),
    concat!("dig_batch", "_engine_config"),
    concat!("dig_forked", "_engine_config"),
    concat!("dig_external", "_machine"),
    concat!("profile_", "oracle"),
    concat!("respond_", "arpa"),
    concat!("send_", "many"),
    concat!("peak_output", "_queue"),
    "wheel_granularity",
    "HitEncoding",
    "edns_cookies",
    "data_json",
    "data_with",
];

#[test]
fn sources_and_docs_name_no_deleted_code() {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let mut dirs = vec![root.join("docs"), root.join("examples")];
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        dirs.push(krate.unwrap().path().join("src"));
    }
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue; // a crate without `src` (the vendored stand-ins)
        };
        for path in entries.map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        for name in DELETED_NAMES {
            assert!(
                !text.contains(name),
                "{} mentions {name}, which no longer exists",
                path.display()
            );
        }
    }
}

/// GitHub's heading-anchor slug: lowercase, punctuation dropped, spaces
/// to hyphens.
fn slug(heading: &str) -> String {
    heading
        .to_lowercase()
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == ' ' || *c == '-')
        .map(|c| if c == ' ' { '-' } else { c })
        .collect()
}

/// Headings of a markdown document, as anchor slugs (fenced code blocks
/// excluded — a `# comment` in a console example is not a heading).
fn anchors(text: &str) -> BTreeSet<String> {
    let mut fenced = false;
    let mut out = BTreeSet::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced && line.starts_with('#') {
            out.insert(slug(line.trim_start_matches('#').trim()));
        }
    }
    out
}

/// `](target)` link targets of a markdown document.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("](") {
        let start = i + pos + 2;
        match text[start..].find(')') {
            Some(len) => {
                targets.push(text[start..start + len].to_string());
                i = start + len;
            }
            None => break,
        }
    }
    targets
}

#[test]
fn internal_markdown_links_resolve() {
    let files = doc_files();
    for (name, text) in &files {
        let dir = repo_root().join(name);
        let dir = dir.parent().unwrap();
        for target in link_targets(text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a.to_string())),
                None => (target.as_str(), None),
            };
            let linked_text = if path_part.is_empty() {
                text.clone()
            } else {
                let path = dir.join(path_part);
                assert!(
                    path.exists(),
                    "{name} links to {target}, but {} does not exist",
                    path.display()
                );
                if path_part.ends_with(".md") {
                    std::fs::read_to_string(&path).unwrap()
                } else {
                    continue; // a non-markdown file can't carry anchors
                }
            };
            if let Some(anchor) = anchor {
                assert!(
                    anchors(&linked_text).contains(&anchor),
                    "{name} links to {target}, but no heading slugs to {anchor:?}"
                );
            }
        }
    }
}
