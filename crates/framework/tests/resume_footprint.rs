//! The resume path as standing checks: what `--resume` does before its
//! first query costs the window in front of it, not the work behind it.
//!
//! * **Memory does not follow the output.** `repair_jsonl` +
//!   `output_done_set` over a 32 MB output hold a chunk, a line and the
//!   set — measured with the counting allocator's peak reading — and the
//!   set holds a name's octets plus at most 12 B.
//! * **Repair matrix.** The tail scan agrees with its definition (the
//!   last `\n` of the whole file) on every chunk-edge case, and leaves a
//!   file that needs nothing alone.
//! * **Differential.** Over generated files — the program's own lines,
//!   escapes, duplicate and nested `"name"`s, blank, torn, non-UTF-8 and
//!   NUL-filled lines — the streamed done-set equals the one built line by
//!   line with the tree parser.
//! * **`DoneSet` against a `HashSet<String>` model.**
//!
//! Failing seeds replay through `PROPTEST_SEED`.

use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use proptest::prelude::*;
use zdns_core::alloc_count::{
    reset_thread_peak_live_bytes, thread_live_bytes, thread_peak_live_bytes, CountingAllocator,
};
use zdns_core::Status;
use zdns_framework::checkpoint::{output_done_set, repair_jsonl};
use zdns_framework::output::write_line;
use zdns_framework::{DoneSet, OutputGroup};
use zdns_modules::ModuleOutput;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// What the tail scan and the done-set scan read at a time.
const CHUNK: usize = 64 << 10;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zdns-footprint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One output line as the program writes it.
fn program_line(name: &str) -> String {
    let output = ModuleOutput {
        name: name.to_string(),
        module: "PROBE",
        status: Status::NoError,
        data: serde_json::json!({
            "answers": [{"answer": "192.0.2.1", "class": "IN", "name": "inner.test", "ttl": 300, "type": "A"}],
            "protocol": "udp",
            "resolver": "10.0.0.7:53",
        }).into(),
        trace: Vec::new(),
    };
    let mut line = String::new();
    write_line(&output, OutputGroup::Normal, &mut line);
    line
}

// ---------------------------------------------------------------- (a)

#[test]
fn memory_follows_the_set_not_the_output() {
    let dir = temp_dir("memory");

    // 1 000 lines of ~32 KiB: a 32 MB output whose names are 20 KB in all.
    let padded = dir.join("padded.jsonl");
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&padded).unwrap());
        let pad = "x".repeat(32 << 10);
        for i in 0..1_000 {
            writeln!(
                file,
                "{{\"name\":\"pad{i}.footprint.test\",\"status\":\"NOERROR\",\"pad\":\"{pad}\"}}"
            )
            .unwrap();
        }
        // A torn tail longer than a chunk, so repair has work to do.
        write!(
            file,
            "{{\"name\":\"torn.footprint.test\",\"pad\":\"{pad}{pad}{pad}"
        )
        .unwrap();
        file.flush().unwrap();
    }
    assert!(std::fs::metadata(&padded).unwrap().len() > 32_000_000);
    let start = thread_live_bytes();
    reset_thread_peak_live_bytes();
    let torn = repair_jsonl(&padded).unwrap();
    let done = output_done_set(&padded).unwrap();
    let peak = thread_peak_live_bytes() - start;
    let held = thread_live_bytes() - start;
    assert!(torn > 3 * (32 << 10));
    assert_eq!(done.len(), 1_000);
    assert!(done.contains("pad999.footprint.test") && !done.contains("torn.footprint.test"));
    drop(done);
    assert_eq!(thread_live_bytes(), start, "dropping the set frees all");
    // (Printed last: captured test output is itself allocated.)
    println!("32 MB output: peak {peak} B live, the set {held} B");
    assert!(
        peak <= (1 << 20) + held,
        "repair + done-set scan of a 32 MB output peaked at {peak} B live (the set is {held} B)"
    );

    // 50 000 forty-octet names, the program's own lines.
    let names: Vec<String> = (0..50_000)
        .map(|i| format!("{:0>40}", format!("h{i}.footprint.test@10.0.0.7")))
        .collect();
    let output = dir.join("names.jsonl");
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&output).unwrap());
        for name in &names {
            assert_eq!(name.len(), 40);
            writeln!(file, "{}", program_line(name)).unwrap();
        }
        file.flush().unwrap();
    }
    let start = thread_live_bytes();
    reset_thread_peak_live_bytes();
    let done = output_done_set(&output).unwrap();
    let peak = thread_peak_live_bytes() - start;
    let held = thread_live_bytes() - start;
    assert_eq!(done.len(), names.len());
    assert!(names.iter().all(|n| done.contains(n)));
    drop(done);
    assert_eq!(thread_live_bytes(), start, "dropping the set frees all");
    let per_name = held as f64 / names.len() as f64;
    println!("50 000 names of 40 octets: {per_name:.1} B live each, peak {peak} B");
    assert!(per_name <= 52.0, "{per_name:.1} B live per 40-octet name");
    assert!(peak <= (1 << 20) + held, "peak {peak} B, the set {held} B");
}

// ---------------------------------------------------------------- (b)

/// The definition `repair_jsonl` is held to: everything up to and
/// including the last newline of the whole file.
fn complete_prefix(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |at| at + 1)
}

fn assert_repairs_like_the_definition(path: &Path, bytes: &[u8], case: &str) {
    std::fs::write(path, bytes).unwrap();
    let keep = complete_prefix(bytes);
    let torn = repair_jsonl(path).unwrap();
    assert_eq!(torn, (bytes.len() - keep) as u64, "{case}: torn count");
    let survived = std::fs::read(path).unwrap();
    assert!(survived == bytes[..keep], "{case}: surviving bytes");
    // And a second repair finds nothing left to do.
    assert_eq!(repair_jsonl(path).unwrap(), 0, "{case}: idempotent");
}

#[test]
fn repair_agrees_with_its_definition_across_chunk_edges() {
    let dir = temp_dir("repair");
    let path = dir.join("out.jsonl");

    assert_eq!(repair_jsonl(&dir.join("missing.jsonl")).unwrap(), 0);
    assert!(
        !dir.join("missing.jsonl").exists(),
        "repair creates nothing"
    );

    let line = program_line("body.footprint.test") + "\n";
    // Bodies that put the last newline at different places in its chunk.
    let bodies: [Vec<u8>; 4] = [
        Vec::new(),
        line.clone().into_bytes(),
        line.repeat(3).into_bytes(),
        line.repeat(2 * CHUNK / line.len() + 1).into_bytes(),
    ];
    let tails = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 200 << 10];
    for body in &bodies {
        for tail in tails {
            let mut bytes = body.clone();
            bytes.extend(std::iter::repeat_n(b'{', tail));
            let case = format!("{} B of lines + {tail} B torn", body.len());
            assert_repairs_like_the_definition(&path, &bytes, &case);
        }
    }
    // A newline as the very first octet and nowhere else.
    for tail in tails {
        let mut bytes = vec![b'\n'];
        bytes.extend(std::iter::repeat_n(0u8, tail));
        assert_repairs_like_the_definition(&path, &bytes, &format!("\\n + {tail} B"));
    }

    // A file with nothing torn is not written to: same length, same mtime.
    std::fs::write(&path, line.repeat(40)).unwrap();
    let long_ago = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
    std::fs::File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_modified(long_ago)
        .unwrap();
    assert_eq!(repair_jsonl(&path).unwrap(), 0);
    let meta = std::fs::metadata(&path).unwrap();
    assert_eq!(meta.len(), (line.len() * 40) as u64);
    assert_eq!(meta.modified().unwrap(), long_ago);
}

// ---------------------------------------------------------------- (c)

/// The generator behind one seed's file: splitmix64 over a counter.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        zdns_zones::hashing::splitmix64(self.0)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A name from a small pool (so files repeat names), some of which
    /// need escaping on the way out.
    fn name(&mut self) -> String {
        let i = self.below(40);
        match self.below(6) {
            0 => format!("we\"ird\\{i}\n.tést"),
            1 => format!("tab\t{i}\u{1}.test@192.0.2.{i}"),
            2 => format!("HOST{i}.Case.Test"),
            3 => String::new(),
            _ => format!("host{i}.case.test"),
        }
    }

    fn line(&mut self) -> Vec<u8> {
        let name = self.name();
        let quoted = serde_json::Value::String(name.clone()).to_string();
        let own = program_line(&name);
        match self.below(14) {
            0..=3 => own.into_bytes(),
            // Every character of the name as a \u escape.
            4 => {
                let escaped: String = name
                    .encode_utf16()
                    .map(|unit| format!("\\u{unit:04x}"))
                    .collect();
                format!("{{\"status\":\"X\",\"n\\u0061me\":\"{escaped}\"}}").into_bytes()
            }
            // The last top-level `name` decides, string or not.
            5 => format!("{{\"name\":\"first.test\",\"name\":{quoted}}}").into_bytes(),
            6 => format!("{{\"name\":{quoted},\"name\":{}}}", self.below(9)).into_bytes(),
            // Nested names must not count.
            7 => format!("{{\"data\":{{\"name\":{quoted}}},\"list\":[{{\"name\":{quoted}}}]}}")
                .into_bytes(),
            8 => [&b""[..], b" ", b"\r", b"\t \r"][self.below(4) as usize].to_vec(),
            9 => format!(" {own} \r").into_bytes(),
            // A truncated prefix, cut anywhere — inside a character too.
            10 => {
                let cut = self.below(own.len() as u64) as usize;
                own.as_bytes()[..cut].to_vec()
            }
            // One octet that makes the line not UTF-8.
            11 => {
                let mut bytes = own.into_bytes();
                let at = self.below(bytes.len() as u64) as usize;
                bytes[at] = [0xff, 0xc0, 0x80, 0xfe][self.below(4) as usize];
                bytes
            }
            12 => vec![0u8; 1 + self.below(300) as usize],
            _ => format!("{own}{own}").into_bytes(),
        }
    }
}

/// The set built the slow way: line by line, UTF-8 checked, parsed into a
/// tree.
fn tree_done_set(bytes: &[u8]) -> HashSet<String> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| {
            let value = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()?;
            Some(value.get("name")?.as_str()?.to_string())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_done_set_equals_the_tree_parsers(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let mut bytes = Vec::new();
        for _ in 0..gen.below(120) {
            bytes.extend(gen.line());
            bytes.push(b'\n');
        }
        if gen.below(2) == 0 {
            // A last line the kill cut short.
            bytes.extend(gen.line());
        }
        let dir = std::env::temp_dir().join(format!("zdns-footprint-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        std::fs::write(&path, &bytes).unwrap();

        let model = tree_done_set(&bytes);
        let done = output_done_set(&path).unwrap();
        prop_assert_eq!(done.len(), model.len(), "seed {}", seed);
        for name in &model {
            prop_assert!(done.contains(name), "seed {}: {:?} missing", seed, name);
        }
        // Names the generator can spell but this file does not hold.
        let mut others = Gen(seed ^ 0xdead_beef);
        for _ in 0..200 {
            let name = others.name();
            prop_assert_eq!(done.contains(&name), model.contains(&name), "seed {}: {:?}", seed, name);
        }
    }

    // ------------------------------------------------------------ (d)

    #[test]
    fn done_set_agrees_with_a_hash_set_model(seed in any::<u64>(), pool in 1u64..400) {
        let mut gen = Gen(seed);
        // A pool smaller than the stream gives duplicates; more names than
        // the smallest index has slots gives shared buckets and growth.
        let name = |gen: &mut Gen| match gen.below(8) {
            0 => String::new(),
            1 => format!("HOST{}.model.test", gen.below(pool)),
            2 => "n".repeat(gen.below(300) as usize),
            _ => format!("host{}.model.test", gen.below(pool)),
        };
        let mut set = DoneSet::default();
        let mut model: HashSet<String> = HashSet::new();
        for step in 0..2_000 {
            let name = name(&mut gen);
            if gen.below(3) == 0 {
                prop_assert_eq!(set.contains(&name), model.contains(&name), "seed {} step {}", seed, step);
            } else {
                prop_assert_eq!(set.insert(&name), model.insert(name.clone()), "seed {} step {}", seed, step);
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let collected: DoneSet = model.iter().collect();
        prop_assert_eq!(collected.len(), model.len());
        for name in &model {
            prop_assert!(set.contains(name) && collected.contains(name), "seed {}: {:?}", seed, name);
        }
    }
}
