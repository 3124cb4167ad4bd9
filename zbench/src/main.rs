//! zbench — the end-to-end benchmark and layer budget of this repository.
//!
//! ```text
//! zbench --workload NAME --seed N --seconds S --trace 0|1   one workload (what BENCHMARK.json runs)
//! zbench [--seed N] [--seconds S]                           all four workloads, one child process each
//! zbench --trace                                            one traced pass, in this process, for all four
//! zbench --quick                                            a ≤20 s smoke run, bounds not applied
//! zbench --self-check K                                     two sets of K full runs, compared to the bounds
//! ```
//!
//! Run from the repository root. See `zbench/README.md`.

mod client;
mod layers;
mod names;
mod paths;
mod responder;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::Value;
use workloads::{EndToEnd, SLICES_PER_SECOND, WORKLOADS};

#[global_allocator]
static ALLOCATOR: sys::SwitchableCounter = sys::SwitchableCounter;

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 20220525;

/// Slices in a `--quick` run's timed sections.
const QUICK_SLICES: u64 = 24;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    self_check: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0,
        trace: false,
        quick: false,
        self_check: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i)?.clone()),
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value(&mut i)?.parse().map_err(|_| "bad --seconds")?,
            "--self-check" => {
                args.self_check = Some(value(&mut i)?.parse().map_err(|_| "bad --self-check")?)
            }
            "--quick" => args.quick = true,
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// `BENCHMARK.json` from the directory the benchmark is run from.
fn load_contract() -> Result<Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run zbench from the repository root): {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("zbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    let contract = load_contract()?;
    let seconds = match args.seconds {
        0 => contract["run_seconds"].as_u64().unwrap_or(20),
        s => s,
    };
    let slices = if args.quick {
        QUICK_SLICES
    } else {
        seconds * SLICES_PER_SECOND
    };
    if let Some(k) = args.self_check {
        return self_check(k, args.seed, seconds, &contract);
    }
    match &args.workload {
        Some(workload) if args.trace => {
            sys::pin_current_thread(sys::Place::Program);
            let traced = layers::traced_pass(args.seed, args.quick, &[workload])?;
            print_result(
                traced.failed == 0,
                traced.attempted,
                traced.failed,
                &traced.metrics_for(workload),
                &contract["per_layer"],
            );
            Ok(0)
        }
        Some(workload) => {
            sys::pin_current_thread(sys::Place::Program);
            let e = workloads::run(workload, args.seed, slices, args.quick)?;
            report_end_to_end(workload, &e);
            print_result(
                e.failed == 0,
                e.attempted,
                e.failed,
                &end_to_end_metrics(&e),
                &contract["end_to_end"],
            );
            Ok(0)
        }
        None if args.trace => {
            // One pass serves all four workloads; peak RSS is not measured
            // here, so it needs no process of its own.
            sys::pin_current_thread(sys::Place::Program);
            let traced = layers::traced_pass(args.seed, args.quick, &WORKLOADS)?;
            print_layer_table(&traced, &contract);
            Ok(0)
        }
        None => {
            let started = Instant::now();
            let results = run_all(args.seed, seconds, args.quick)?;
            print_table(&results, &contract);
            eprintln!(
                "zbench: total wall time {:.1} s",
                started.elapsed().as_secs_f64()
            );
            Ok(0)
        }
    }
}

fn end_to_end_metrics(e: &EndToEnd) -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("ops_per_s".to_string(), e.ops_per_s),
        ("cpu_us_per_op".to_string(), e.cpu_us_per_op),
        ("wire_queries_per_op".to_string(), e.wire_queries_per_op),
        ("peak_rss_mb".to_string(), e.peak_rss_mb),
        ("setup_s".to_string(), e.setup_s),
    ])
}

/// The human-readable side of a workload run (stderr; stdout carries only
/// the result line).
fn report_end_to_end(workload: &str, e: &EndToEnd) {
    eprintln!(
        "{workload}: {} ops attempted, {} failed; {} slices, p5 {:.4} s, median {:.4} s, \
         p90 {:.4} s, IQR/median {:.3}",
        e.attempted,
        e.failed,
        e.slices,
        e.slice_wall_p5_s,
        e.slice_wall_median_s,
        e.slice_wall_p90_s,
        e.slice_wall_spread
    );
    eprintln!(
        "{workload}: ops_per_s {:.1} 1/s, cpu_us_per_op {:.3} us, wire_queries_per_op {:.6}, \
         peak_rss_mb {:.1} MB, setup_s {:.6} s ({} repetitions, IQR/median {:.3}), harness CPU share {:.3}",
        e.ops_per_s,
        e.cpu_us_per_op,
        e.wire_queries_per_op,
        e.peak_rss_mb,
        e.setup_s,
        e.setup_reps,
        e.setup_spread,
        e.harness_cpu_share
    );
    for note in &e.notes {
        eprintln!("{workload}: CHECK FAILED: {note}");
    }
}

/// The result line: the last line of stdout, exactly the keys the contract
/// names, every metric the given section of `BENCHMARK.json` lists.
fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &BTreeMap<String, f64>,
    section: &Value,
) {
    let mut metrics = serde_json::Map::new();
    for metric in section.as_array().map(Vec::as_slice).unwrap_or(&[]) {
        let (Some(name), Some(unit)) = (metric["name"].as_str(), metric["unit"].as_str()) else {
            continue;
        };
        let value = values.get(name).copied().unwrap_or(0.0);
        metrics.insert(
            name.to_string(),
            serde_json::json!({ "value": if value.is_finite() { value } else { 0.0 }, "unit": unit }),
        );
    }
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{line}");
}

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process of this same executable, so its
/// peak RSS and allocator state start fresh. The only process zbench ever
/// spawns.
fn run_child(workload: &str, seed: u64, seconds: u64, quick: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child for {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {workload} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = v["metrics"]
        .as_object()
        .map(|m| {
            m.iter()
                .map(|(k, v)| (k.clone(), v["value"].as_f64().unwrap_or(0.0)))
                .collect()
        })
        .unwrap_or_default();
    Ok(ChildResult {
        correct: v["correct"].as_bool().unwrap_or(false),
        attempted: v["attempted"].as_u64().unwrap_or(0),
        failed: v["failed"].as_u64().unwrap_or(0),
        metrics,
    })
}

fn run_all(
    seed: u64,
    seconds: u64,
    quick: bool,
) -> Result<Vec<(&'static str, ChildResult)>, String> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w, seed, seconds, quick).map(|r| (*w, r)))
        .collect()
}

/// (name, unit) of every metric in a section of the contract.
fn metric_names<'a>(contract: &'a Value, section: &str) -> Vec<(&'a str, &'a str)> {
    contract[section]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m["name"].as_str()?, m["unit"].as_str()?)))
        .collect()
}

fn print_table(results: &[(&str, ChildResult)], contract: &Value) {
    for (workload, r) in results {
        println!(
            "{workload}: correct {}, {} attempted, {} failed",
            r.correct, r.attempted, r.failed
        );
        for (name, unit) in metric_names(contract, "end_to_end") {
            println!(
                "  {name:<44} {:>16.4} {unit}",
                r.metrics.get(name).copied().unwrap_or(0.0)
            );
        }
    }
}

/// The per-layer table of one traced pass: the metrics every workload
/// shares once, then the ones that differ, per workload.
fn print_layer_table(traced: &layers::Traced, contract: &Value) {
    println!(
        "traced pass: correct {}, {} attempted, {} failed",
        traced.failed == 0,
        traced.attempted,
        traced.failed
    );
    let names = metric_names(contract, "per_layer");
    let shared = traced.metrics_for("");
    for (name, unit) in &names {
        if let Some(value) = shared.get(*name) {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
    }
    for workload in WORKLOADS {
        let metrics = traced.metrics_for(workload);
        for (name, unit) in &names {
            if let (None, Some(value)) = (shared.get(*name), metrics.get(*name)) {
                println!(
                    "  {:<44} {value:>16.4} {unit}",
                    format!("{workload}/{name}")
                );
            }
        }
    }
}

/// Two back-to-back sets of `k` full runs of this build. Prints, per
/// workload and metric, both medians, their relative difference (positive
/// when the second set is worse) and the bound; exits non-zero when a
/// difference in either direction exceeds its bound.
fn self_check(k: usize, seed: u64, seconds: u64, contract: &Value) -> Result<i32, String> {
    let started = Instant::now();
    let mut sets: Vec<BTreeMap<(String, String), Vec<f64>>> = Vec::new();
    for set in 0..2 {
        let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in 0..k {
            // A different seed per run, the same seeds in both sets.
            let run_seed = seed + run as u64;
            eprintln!(
                "zbench: self-check set {} run {}/{k} (seed {run_seed})",
                set + 1,
                run + 1
            );
            for (workload, r) in run_all(run_seed, seconds, false)? {
                if r.failed > 0 || !r.correct {
                    return Err(format!("{workload}: {} operations failed", r.failed));
                }
                for (name, value) in r.metrics {
                    values
                        .entry((workload.to_string(), name))
                        .or_default()
                        .push(value);
                }
            }
        }
        sets.push(values);
    }
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    let mut exceeded = 0;
    let mut largest: f64 = 0.0;
    for workload in WORKLOADS {
        for metric in contract["end_to_end"]
            .as_array()
            .map(Vec::as_slice)
            .unwrap_or(&[])
        {
            let name = metric["name"].as_str().unwrap_or("");
            let bound = metric["bound"].as_f64().unwrap_or(0.0);
            let key = (workload.to_string(), name.to_string());
            let a = stats::median(&sets[0][&key]);
            let b = stats::median(&sets[1][&key]);
            let worse = match metric["better"].as_str() {
                Some("higher") => (a - b) / a,
                _ => (b - a) / a,
            };
            largest = largest.max(worse.abs());
            let flag = if worse.abs() > bound {
                exceeded += 1;
                "  EXCEEDED"
            } else {
                ""
            };
            println!(
                "{workload:<14} {name:<20} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{flag}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "largest difference {:.2}%; {exceeded} over their bound; {:.0} s",
        largest * 100.0,
        started.elapsed().as_secs_f64()
    );
    Ok(if exceeded == 0 { 0 } else { 1 })
}
