//! The CLI's text, pinned to recorded bytes.
//!
//! Two things a user reads come out of the flag tables in `conf.rs`: the
//! FLAGS block of each command's `--help` ([`FlagTable::help`]) and the
//! [`ConfError`] a refused command line prints. This test folds both
//! into FNV-1a digests: the three help blocks, and the exact error text
//! for a fixed list of refused argv — every value flag typed without its
//! value (in each spelling), every flag that can refuse a value typed
//! with a bad one, an unknown flag of each command, and every refusal
//! the three parsers make after the last flag. The digests were recorded
//! before the tables were rewritten; a change to any spelling,
//! placeholder, help line or refusal message moves them.

use zdns_framework::conf::{MERGE_FLAGS, SCAN_FLAGS, SERVE_FLAGS};
use zdns_framework::{Conf, ConfError, MergeConf, ServeConf};

/// `zdns MODULE ...` argv that [`Conf::parse`] refuses.
const SCAN_REFUSED: &[&[&str]] = &[
    // No module, or a flag where the module goes.
    &[],
    &["--iterative"],
    // Unknown flags.
    &["A", "--bogus"],
    &["A", "-x", "1"],
    &["A", "--window-split"],
    // Every value flag without its value.
    &["A", "--name-servers"],
    &["A", "--threads"],
    &["A", "-t"],
    &["A", "--cache-size"],
    &["A", "--retries"],
    &["A", "--timeout"],
    &["A", "--iteration-timeout"],
    &["A", "--output-fields"],
    &["A", "--input-file"],
    &["A", "-f"],
    &["A", "--workload"],
    &["A", "--output-file"],
    &["A", "-o"],
    &["A", "--source-ips"],
    &["A", "--seed"],
    &["A", "--max-names"],
    &["A", "--max-in-flight"],
    &["A", "--io-backend"],
    &["A", "--rate-pps"],
    &["A", "--per-host-pps"],
    &["A", "--backoff-base"],
    &["A", "--backoff-cap"],
    &["A", "--cookie-secret"],
    &["A", "--shard"],
    &["A", "--checkpoint"],
    &["A", "--resume"],
    &["A", "--checkpoint-every"],
    // Every value flag that checks its value, given a bad one.
    &["A", "--name-servers", "8.8.8.8,::1"],
    &["A", "--name-servers", "8.8.8.8,"],
    &["A", "--name-servers", "[::1]:53"],
    &["A", "--threads", "-1"],
    &["A", "-t", "many"],
    &["A", "--cache-size", "-1"],
    &["A", "--cache-size", "99999999999999999999"],
    &["A", "--retries", "x"],
    &["A", "--timeout", "inf"],
    &["A", "--timeout", "nan"],
    &["A", "--timeout", "0"],
    &["A", "--timeout", "3600.5"],
    &["A", "--iteration-timeout", "-1"],
    &["A", "--iteration-timeout", "1e-10"],
    &["A", "--output-fields", "full"],
    &["A", "--workload", "zone"],
    &["A", "--source-ips", "0"],
    &["A", "--source-ips", "255"],
    &["A", "--seed", "-1"],
    &["A", "--max-names", "1.5"],
    &["A", "--max-in-flight", "x"],
    &["A", "--io-backend", "uring"],
    &["A", "--rate-pps", "nan"],
    &["A", "--rate-pps", "-inf"],
    &["A", "--per-host-pps", "-1"],
    &["A", "--backoff-base", "3601"],
    &["A", "--backoff-cap", "-0.5"],
    &["A", "--cookie-secret", ""],
    &["A", "--shard", "4/4"],
    &["A", "--shard", "1"],
    &["A", "--shard", "0/0"],
    &["A", "--checkpoint", ""],
    &["A", "--resume", ""],
    &["A", "--checkpoint-every", "0"],
    &["A", "--checkpoint-every", "-1"],
    // Refusals made after the last flag.
    &["A", "--iterative", "--name-servers", "8.8.8.8"],
    &["A", "--name-servers", "1.1.1.1", "--iterative"],
    &["A", "--workload", "ct-corpus"],
    &["A", "--checkpoint-every", "10"],
    &[
        "A",
        "--checkpoint",
        "m.json",
        "-o",
        "out.jsonl",
        "-f",
        "in.txt",
    ],
    &["A", "--resume", "m.json"],
    &["A", "--real", "--checkpoint", "m.json", "-f", "in.txt"],
    &["A", "--real", "--checkpoint", "m.json", "-o", "out.jsonl"],
    &[
        "A",
        "--real",
        "--checkpoint",
        "m.json",
        "-o",
        "-",
        "--workload",
        "ct-corpus",
    ],
];

/// `zdns serve ...` argv that [`ServeConf::parse`] refuses.
const SERVE_REFUSED: &[&[&str]] = &[
    // Unknown flags.
    &["--threads", "4"],
    &["--upstream", "8.8.8.8", "extra"],
    // Every value flag without its value.
    &["--listen"],
    &["--upstream"],
    &["--cache-capacity"],
    &["--packet-cache-capacity"],
    &["--client-pps"],
    &["--io-backend"],
    &["--shards"],
    &["--duration"],
    // Every value flag given a bad value.
    &["--listen", "127.0.0.1"],
    &["--listen", "localhost:53"],
    &["--upstream", "example.com"],
    &["--upstream", "8.8.8.8,[::1]:53"],
    &["--cache-capacity", "-1"],
    &["--cache-capacity", "99999999999999999999"],
    &["--packet-cache-capacity", "16777217"],
    &["--client-pps", "inf"],
    &["--io-backend", "uring"],
    &["--shards", "0"],
    &["--shards", "257"],
    &["--duration", "-1"],
    &["--duration", "nan"],
    // Refusals made after the last flag.
    &[],
    &["--listen", "127.0.0.1:0", "--status-updates"],
];

/// `zdns merge ...` argv that [`MergeConf::parse`] refuses.
const MERGE_REFUSED: &[&[&str]] = &[
    // Unknown flags.
    &["--force", "m.json"],
    &["--output", "out.jsonl", "--threads"],
    // Every value flag without its value, in each spelling.
    &["--output"],
    &["m.json", "--output-file"],
    // Every value flag given a bad value.
    &["--output", ""],
    &["--output-file", "", "m.json"],
    // Refusals made after the last flag.
    &[],
    &["m0.json", "m1.json", "--allow-partial"],
];

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Fold `text` and a separator no text contains.
    fn eat(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0xFF]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest_of<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut d = Digest::new();
    for text in texts {
        d.eat(text);
    }
    d.0
}

/// Each argv's error text, `argv` and text together, so that a refusal
/// that moves to another command line moves the digest too.
fn refusals(list: &[&[&str]], parse: impl Fn(&[&str]) -> Result<(), ConfError>) -> Vec<String> {
    list.iter()
        .map(|argv| match parse(argv) {
            Ok(()) => panic!("{argv:?} parsed; every argv in the list must be refused"),
            Err(e) => format!("{argv:?} -> {e}"),
        })
        .collect()
}

fn assert_pinned(what: &str, texts: &[String], want: u64) {
    let got = digest_of(texts.iter().map(String::as_str));
    if got != want {
        for text in texts {
            eprintln!("{text}");
        }
        panic!("{what}: digest {got:#018x}, recorded {want:#018x} (texts above)");
    }
}

#[test]
fn the_help_blocks_print_the_recorded_bytes() {
    assert_pinned("zdns --help", &[SCAN_FLAGS.help()], 0x068c_b8a8_557f_df70);
    assert_pinned(
        "zdns serve --help",
        &[SERVE_FLAGS.help()],
        0x1dd0_d1fa_b3a6_3cb0,
    );
    assert_pinned(
        "zdns merge --help",
        &[MERGE_FLAGS.help()],
        0x99e3_aae7_282e_c922,
    );
}

#[test]
fn every_refused_scan_argv_prints_the_recorded_error() {
    let texts = refusals(SCAN_REFUSED, |argv| {
        Conf::parse(argv.iter().copied()).map(drop)
    });
    assert_pinned("zdns MODULE", &texts, 0x6856_e253_e344_ec57);
}

#[test]
fn every_refused_serve_argv_prints_the_recorded_error() {
    let texts = refusals(SERVE_REFUSED, |argv| {
        ServeConf::parse(argv.iter().copied()).map(drop)
    });
    assert_pinned("zdns serve", &texts, 0x9712_5af1_0959_c66a);
}

#[test]
fn every_refused_merge_argv_prints_the_recorded_error() {
    let texts = refusals(MERGE_REFUSED, |argv| {
        MergeConf::parse(argv.iter().copied()).map(drop)
    });
    assert_pinned("zdns merge", &texts, 0x361c_6591_01ce_bd91);
}
