//! The validating pass `--resume` reads its output with, held to the tree
//! parser over hostile lines (north star 3).
//!
//! The lines are the program's own: seeded simulator scans of `A`, `PROBE`
//! and `MX`, and an `A` scan under the `trace` group, written through the
//! JSONL sink. Each is damaged the ways a killed, truncated or foreign
//! output can be — every truncation, byte flips, `\n`/`\r`/spaces between
//! tokens, escaped keys, duplicate `"name"` members (string and not),
//! invalid and overlong UTF-8, nesting 126–130 levels deep — and for every
//! case the streamed answer, `top_level_str_bytes(line, "name")`, must be
//! the tree's, `from_str(line)?.get("name")?.as_str()`.
//!
//! Failing seeds replay through `PROPTEST_SEED`.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use proptest::prelude::*;
use zdns_framework::{run_sim_scan, Conf, JsonlSink, OutputSink};
use zdns_modules::ModuleRegistry;
use zdns_workloads::CtCorpus;
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

const SEED: u64 = 0x7a11_da7e;

/// Lines per module and group.
const PER_KIND: usize = 8;

/// The lines a seeded sim scan of `module` prints under `group`.
fn scan_lines(
    universe: &Arc<SyntheticUniverse>,
    module: &str,
    group: &str,
    inputs: Vec<String>,
) -> Vec<Vec<u8>> {
    let seed = SEED.to_string();
    let conf = Conf::parse([
        module,
        "--iterative",
        "--seed",
        &seed,
        "--output-fields",
        group,
    ])
    .unwrap();
    let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new(), conf.output)));
    let into = Arc::clone(&sink);
    run_sim_scan(
        &conf,
        Arc::clone(universe) as Arc<dyn Universe>,
        ModuleRegistry::standard().get(module).unwrap(),
        inputs.into_iter(),
        move |o| into.lock().write_output(o).unwrap(),
    );
    let text = Arc::try_unwrap(sink)
        .unwrap_or_else(|_| panic!("sink still shared after the scan"))
        .into_inner()
        .into_inner();
    let lines: Vec<Vec<u8>> = text
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    assert_eq!(lines.len(), PER_KIND, "{module} {group}");
    lines
}

/// `PER_KIND` lines each of `A`, `PROBE`, `MX` and trace-group `A`.
fn program_lines() -> &'static [Vec<u8>] {
    static LINES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    LINES.get_or_init(|| {
        let universe = Arc::new(SyntheticUniverse::new(SynthConfig {
            seed: SEED,
            ..SynthConfig::default()
        }));
        let corpus = CtCorpus::new(SEED, TABLE3_CCTLDS, TABLE3_NGTLDS);
        let names = || corpus.fqdns(PER_KIND as u64).collect::<Vec<_>>();
        let servers: Vec<_> = universe
            .root_hints()
            .into_iter()
            .map(|(_, ip)| ip)
            .collect();
        let probes = corpus
            .base_domains(PER_KIND as u64)
            .zip(servers.iter().cycle())
            .map(|(name, ip)| format!("{name}@{ip}"))
            .collect();
        let mut lines = scan_lines(&universe, "A", "normal", names());
        lines.extend(scan_lines(&universe, "PROBE", "long", probes));
        lines.extend(scan_lines(&universe, "MX", "normal", names()));
        lines.extend(scan_lines(&universe, "A", "trace", names()));
        lines
    })
}

fn streamed(line: &[u8]) -> Option<String> {
    serde_json::top_level_str_bytes(line, "name").map(|name| name.into_owned())
}

fn via_tree(line: &[u8]) -> Option<String> {
    let tree = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()?;
    tree.get("name")?.as_str().map(str::to_string)
}

fn agree(line: &[u8]) {
    assert_eq!(
        streamed(line),
        via_tree(line),
        "{}",
        String::from_utf8_lossy(line)
    );
}

/// Where the string literals of `line` start and end (the offsets of their
/// quotes), and whether a `:` follows each — a key. Lenient: on a damaged
/// line the spans are only approximate, which is all a mutation needs.
fn strings(line: &[u8]) -> Vec<(usize, usize, bool)> {
    let mut spans = Vec::new();
    let mut at = 0;
    while at < line.len() {
        if line[at] != b'"' {
            at += 1;
            continue;
        }
        let open = at;
        at += 1;
        while at < line.len() && line[at] != b'"' {
            at += if line[at] == b'\\' { 2 } else { 1 };
        }
        let close = at.min(line.len() - 1);
        let key = line[close + 1..]
            .iter()
            .find(|b| !b.is_ascii_whitespace())
            .is_some_and(|&b| b == b':');
        spans.push((open, close, key));
        at += 1;
    }
    spans
}

/// Offsets next to a structural octet, outside every string: where
/// whitespace may go without changing what the line says.
fn between_tokens(line: &[u8]) -> Vec<usize> {
    let spans = strings(line);
    let inside = |at: usize| {
        spans
            .iter()
            .any(|&(open, close, _)| open < at && at <= close)
    };
    (0..=line.len())
        .filter(|&at| !inside(at))
        .filter(|&at| {
            let before = at.checked_sub(1).map(|i| line[i]);
            let after = line.get(at).copied();
            matches!(before, Some(b'{' | b'[' | b',' | b':'))
                || matches!(after, Some(b'}' | b']' | b',' | b':'))
        })
        .collect()
}

const WHITESPACE: [&[u8]; 6] = [b"\n", b"\r", b" ", b"\t", b"\r\n", b"  "];

/// Values a duplicate `"name"` member may carry.
const DUPLICATES: [&str; 8] = [
    r#""dup.test""#,
    "7",
    "null",
    "true",
    r#"["x"]"#,
    r#"{"name":"inner"}"#,
    r#""A.test""#,
    "-1.5e3",
];

/// Octet sequences that are not UTF-8 (overlong, surrogate, beyond U+10FFFF,
/// stray or cut short), and three that are.
const OCTETS: [&[u8]; 13] = [
    &[0xc0, 0x80],
    &[0xc1, 0xbf],
    &[0xe0, 0x80, 0x80],
    &[0xed, 0xa0, 0x80],
    &[0xf0, 0x80, 0x80, 0x80],
    &[0xf4, 0x90, 0x80, 0x80],
    &[0xf8, 0x88, 0x80, 0x80, 0x80],
    &[0xff],
    &[0x80],
    &[0xe2, 0x82],
    &[0xc3, 0xa9],
    &[0xe2, 0x82, 0xac],
    &[0xf0, 0x9f, 0x98, 0x80],
];

/// Apply mutation `kind` to `line`, its places and values drawn from `a`,
/// `b` and `c`.
fn mutate(line: &mut Vec<u8>, kind: u8, a: u64, b: u64, c: u8) {
    let pick = |n: usize, from: u64| (from % n.max(1) as u64) as usize;
    match kind {
        // A byte flipped to any other value.
        0 if !line.is_empty() => {
            let at = pick(line.len(), a);
            line[at] = if line[at] == c { c ^ 1 } else { c };
        }
        // JSON whitespace — `\n`, `\r`, spaces, a tab — between tokens.
        1 => {
            let places = between_tokens(line);
            let at = places.get(pick(places.len(), a)).copied().unwrap_or(0);
            let ws = WHITESPACE[pick(WHITESPACE.len(), b)];
            line.splice(at..at, ws.iter().copied());
        }
        // One octet of a key spelled as a `\u` escape.
        2 => {
            let keys: Vec<_> = strings(line).into_iter().filter(|s| s.2).collect();
            if let Some(&(open, close, _)) = keys.get(pick(keys.len(), a)) {
                if close > open + 1 {
                    let at = open + 1 + pick(close - open - 1, b);
                    let escape = format!("\\u{:04x}", line[at]);
                    line.splice(at..=at, escape.bytes());
                }
            }
        }
        // A duplicate `"name"` first or last in the top-level object.
        3 => {
            let value = DUPLICATES[pick(DUPLICATES.len(), a)];
            let end = line.iter().rposition(|&b| b == b'}').unwrap_or(0);
            if b & 1 == 0 && line.first() == Some(&b'{') {
                line.splice(1..1, format!(r#""name":{value},"#).bytes());
            } else {
                line.splice(end..end, format!(r#","name":{value}"#).bytes());
            }
        }
        // Octets that are not UTF-8 (or are), inside a string or anywhere.
        4 => {
            let octets = OCTETS[pick(OCTETS.len(), a)];
            let spans = strings(line);
            let at = match spans.get(pick(spans.len(), b)) {
                Some(&(open, close, _)) if c & 1 == 0 => open + 1 + pick(close - open, b >> 8),
                _ => pick(line.len() + 1, b),
            };
            line.splice(at..at, octets.iter().copied());
        }
        // A member nested 126 to 130 levels deep, the object included.
        5 => {
            let depth = 126 + pick(5, a);
            let member = format!(
                r#""deep":{}{},"#,
                "[".repeat(depth - 1),
                "]".repeat(depth - 1)
            );
            if line.first() == Some(&b'{') {
                line.splice(1..1, member.bytes());
            }
        }
        // Cut anywhere.
        _ => line.truncate(pick(line.len() + 1, a)),
    }
}

#[test]
fn every_truncation_of_the_program_lines_agrees() {
    let lines = program_lines();
    let mut named = 0;
    for line in lines {
        named += usize::from(streamed(line).is_some());
        for end in 0..=line.len() {
            agree(&line[..end]);
        }
    }
    // Every whole line names its input.
    assert_eq!(named, lines.len());
}

#[test]
fn nesting_at_the_limit_agrees() {
    let line = &program_lines()[0];
    for depth in [127, 128, 129] {
        let mut deep = line.clone();
        mutate(&mut deep, 5, (depth - 126) as u64, 0, 0);
        agree(&deep);
        // The object is one level, so 128 is the deepest either accepts.
        assert_eq!(streamed(&deep).is_some(), depth <= 128, "depth {depth}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn damaged_program_lines_agree(
        which in any::<prop::sample::Index>(),
        steps in prop::collection::vec((0u8..7, any::<u64>(), any::<u64>(), any::<u8>()), 1..=3),
    ) {
        let lines = program_lines();
        let mut line = lines[which.index(lines.len())].clone();
        for (kind, a, b, c) in steps {
            mutate(&mut line, kind, a, b, c);
            agree(&line);
        }
    }
}
