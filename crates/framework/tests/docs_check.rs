//! Docs-rot guard: the CLI flag surface in `conf.rs` is cross-checked
//! against the documentation, in both directions, and every documented
//! flag is actually parsed through [`Conf::parse`] / [`ServeConf::parse`]
//! with a sample value. Internal markdown links (including `#anchors`)
//! in README.md and docs/*.md must resolve.
//!
//! When a flag is added to `conf.rs`, `conf_flag_inventory_is_curated`
//! fails until the flag gets a sample argv here *and* a mention in the
//! `zdns` help text — which is exactly the docs update being guarded.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use zdns_framework::{Conf, ServeConf};

/// Every scan flag, with a complete argv that must parse. The argv also
/// satisfies the flag's validation dependencies (e.g. `--checkpoint`
/// requires `--real` plus file-backed input and output).
const SCAN_SAMPLES: &[(&str, &[&str])] = &[
    ("--threads", &["A", "--threads", "64"]),
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
    ("--output-file", &["A", "--output-file", "out.jsonl"]),
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
    ("--batch-size", &["A", "--batch-size", "64"]),
    ("--max-names", &["A", "--max-names", "1000000"]),
    (
        "--workload",
        &["A", "--workload", "ct-corpus", "--max-names", "100"],
    ),
    ("--io-backend", &["A", "--io-backend", "mmsg"]),
    ("--pin-cores", &["A", "--pin-cores"]),
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
const SERVE_SAMPLES: &[(&str, &[&str])] = &[
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
        "--batch-size",
        &["--batch-size", "32", "--upstream", "192.0.2.53"],
    ),
    (
        "--duration",
        &["--duration", "10", "--upstream", "192.0.2.53"],
    ),
    (
        "--status-updates",
        &["--status-updates", "--upstream", "192.0.2.53"],
    ),
];

/// Flags that are real but live outside `conf.rs`: the `zdns merge`
/// subcommand's own flags, and the cargo and zbench flags quoted in
/// build and benchmark instructions.
const DOC_ONLY_FLAGS: &[&str] = &[
    "--output",        // zdns merge
    "--allow-partial", // zdns merge
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

/// Extract the flag literals from `conf.rs` *match arms* — a clean
/// `"--flag"` string immediately followed by `=>` or `|` — ignoring the
/// test module and flag names quoted inside error messages.
fn conf_arm_flags() -> BTreeSet<String> {
    let src = read("crates/framework/src/conf.rs");
    let src = src.split("#[cfg(test)]").next().unwrap();
    let bytes = src.as_bytes();
    let mut flags = BTreeSet::new();
    let mut i = 0;
    while let Some(pos) = src[i..].find("\"--") {
        let start = i + pos + 1; // first '-'
        let mut end = start;
        while end < bytes.len() && matches!(bytes[end], b'a'..=b'z' | b'0'..=b'9' | b'-') {
            end += 1;
        }
        i = end;
        if end < bytes.len() && bytes[end] == b'"' && end > start + 2 {
            let rest = src[end + 1..].trim_start();
            if rest.starts_with("=>") || rest.starts_with('|') {
                flags.insert(src[start..end].to_string());
            }
        }
    }
    flags
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

#[test]
fn conf_flag_inventory_is_curated() {
    let parsed: BTreeSet<String> = conf_arm_flags();
    let curated: BTreeSet<String> = SCAN_SAMPLES
        .iter()
        .chain(SERVE_SAMPLES)
        .map(|(flag, _)| flag.to_string())
        .collect();
    let undocumented: Vec<&String> = parsed.difference(&curated).collect();
    let stale: Vec<&String> = curated.difference(&parsed).collect();
    assert!(
        undocumented.is_empty(),
        "conf.rs parses flags this test (and so the docs) never heard of: \
         {undocumented:?} — add a sample argv here, a help-text entry in \
         bin/zdns.rs, and documentation"
    );
    assert!(
        stale.is_empty(),
        "sample flags no longer parsed by conf.rs: {stale:?}"
    );
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
}

#[test]
fn every_flag_appears_in_the_binary_help_text() {
    let help_src = read("crates/framework/src/bin/zdns.rs");
    let help_tokens = doc_flag_tokens(&help_src);
    for (flag, _) in SCAN_SAMPLES.iter().chain(SERVE_SAMPLES) {
        assert!(
            help_tokens.contains(*flag),
            "{flag} is parsed by conf.rs but absent from the zdns help text"
        );
    }
}

#[test]
fn docs_mention_only_real_flags() {
    let real: BTreeSet<String> = SCAN_SAMPLES
        .iter()
        .chain(SERVE_SAMPLES)
        .map(|(flag, _)| flag.to_string())
        .chain(DOC_ONLY_FLAGS.iter().map(|f| f.to_string()))
        .collect();
    for (name, text) in doc_files() {
        for token in doc_flag_tokens(&text) {
            assert!(
                real.contains(&token),
                "{name} mentions {token}, which no parser implements \
                 (extend DOC_ONLY_FLAGS for new subcommand flags)"
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
