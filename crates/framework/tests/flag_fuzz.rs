//! Every flag of the three tables — [`SCAN_FLAGS`], [`SERVE_FLAGS`],
//! [`MERGE_FLAGS`] — fed generated values: empty, ±huge, `inf` / `nan` /
//! `-0`, unicode, 10 KB, the flag typed up to three times in its
//! spellings turn about, and a last value left off. Every argv must parse
//! or come back as a [`ConfError`] that names a spelling it typed; none
//! may panic. An accepted configuration is only read back (a serve
//! configuration through [`ServeConf::options`]): nothing here binds a
//! socket or starts a fleet.
//!
//! Failing seeds replay through `PROPTEST_SEED`.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use zdns_framework::conf::{FlagTable, MERGE_FLAGS, SCAN_FLAGS, SERVE_FLAGS};
use zdns_framework::{Conf, ConfError, MergeConf, ServeConf};

/// Cases per table; each case types every flag of the table.
const CASES: u32 = 256;

/// Values chosen to sit on or just past an edge some flag checks.
const EDGES: &[&str] = &[
    "",
    "0",
    "-0",
    "+0",
    "-0.0",
    "1",
    "-1",
    "+1",
    " 1",
    "1 ",
    "0x10",
    "1_000",
    "inf",
    "-inf",
    "+inf",
    "infinity",
    "nan",
    "NaN",
    "-nan",
    "1e308",
    "-1e308",
    "1e309",
    "4.9e-324",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "340282366920938463463374607431768211456",
    "254",
    "255",
    "256",
    "257",
    "1024",
    "1025",
    "16777216",
    "16777217",
    "3600",
    "3600.0000001",
    "0/1",
    "1/1",
    "0/0",
    "4294967295/4294967295",
    "127.0.0.1",
    "127.0.0.1:0",
    "127.0.0.1:65536",
    "0.0.0.0:53",
    "[::1]:53",
    "::1",
    "8.8.8.8,",
    ",",
    "auto",
    "mmsg",
    "syscall",
    "uring",
    "lines",
    "ct-corpus",
    "short",
    "trace",
    "000102030405060708090a0b0c0d0e0f",
    "000102030405060708090a0b0c0d0e0g",
    "ünïcødé",
    "名前.example",
    "\u{202e}1",
    "\u{661}\u{662}",
    "\u{ff11}\u{ff12}",
    "\0",
    "\n",
    "-",
    "--",
    "--threads",
    "-t",
];

/// One generated value.
fn value() -> impl Strategy<Value = String> {
    let edges: Vec<String> = EDGES
        .iter()
        .map(|s| s.to_string())
        .chain(["x".repeat(10_240), "9".repeat(10_240), "é".repeat(5_120)])
        .collect();
    prop_oneof![
        Just(String::new()),
        any::<prop::sample::Index>().prop_map(move |i| edges[i.index(edges.len())].clone()),
        any::<u64>().prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        any::<u64>().prop_map(|bits| f64::from_bits(bits).to_string()),
        (any::<u32>(), any::<u32>()).prop_map(|(i, n)| format!("{i}/{n}")),
        (any::<[u8; 4]>(), any::<u16>())
            .prop_map(|(ip, port)| format!("{}:{port}", Ipv4Addr::from(ip))),
        prop::collection::vec(any::<u8>(), 0..=40)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        prop::collection::vec(0u32..0x11_0000, 0..=12)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect()),
    ]
}

/// Type every flag of `table` after `base`, once per value, and hold
/// `parse`'s answer to the rule above. `turn` picks the first spelling;
/// `missing` leaves the last value off a flag that takes one.
fn check<C>(
    table: &FlagTable<C>,
    base: &[&str],
    values: &[String],
    turn: usize,
    missing: bool,
    parse: impl Fn(Vec<String>) -> Result<(), ConfError>,
) {
    for flag in table.flags {
        let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        let mut typed = Vec::new();
        for (i, value) in values.iter().enumerate() {
            let spelling = flag.names[(turn + i) % flag.names.len()];
            typed.push(spelling);
            argv.push(spelling.to_string());
            if flag.value.is_some() && !(missing && i + 1 == values.len()) {
                argv.push(value.clone());
            }
        }
        if let Err(ConfError(msg)) = parse(argv.clone()) {
            let named = msg
                .split(|c: char| c.is_whitespace() || "/(),".contains(c))
                .any(|word| typed.contains(&word));
            let shown: Vec<String> = argv.iter().map(|a| a.chars().take(40).collect()).collect();
            assert!(named, "{shown:?} -> {msg:?} names none of {typed:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn every_scan_flag_parses_or_names_the_spelling_typed(
        values in prop::collection::vec(value(), 1..=3),
        turn in any::<u8>(),
        missing in 0u8..8,
    ) {
        check(&SCAN_FLAGS, &["A"], &values, turn as usize, missing == 0, |argv| {
            Conf::parse(argv).map(|conf| {
                conf.client_ips();
            })
        });
    }

    #[test]
    fn every_serve_flag_parses_or_names_the_spelling_typed(
        values in prop::collection::vec(value(), 1..=3),
        turn in any::<u8>(),
        missing in 0u8..8,
    ) {
        let base = ["--upstream", "127.0.0.1"];
        check(&SERVE_FLAGS, &base, &values, turn as usize, missing == 0, |argv| {
            ServeConf::parse(argv).map(|conf| {
                conf.options();
            })
        });
    }

    #[test]
    fn every_merge_flag_parses_or_names_the_spelling_typed(
        values in prop::collection::vec(value(), 1..=3),
        turn in any::<u8>(),
        missing in 0u8..8,
    ) {
        let base = ["--output", "m.jsonl", "s0.manifest.json"];
        check(&MERGE_FLAGS, &base, &values, turn as usize, missing == 0, |argv| {
            MergeConf::parse(argv).map(|_| ())
        });
    }
}

/// What the merge property found at its first case under the default
/// seed: an empty `--output-file` used to fail as "--output PATH is
/// required", naming a spelling the user had not typed.
#[test]
fn an_empty_merge_output_is_refused_by_the_spelling_typed() {
    let argv = [
        "--output",
        "m.jsonl",
        "s0.manifest.json",
        "--output-file",
        "",
    ];
    assert_eq!(
        MergeConf::parse(argv).unwrap_err().0,
        r#"bad --output-file "" (expected a path)"#
    );
}
