//! Figure 2 — internal resolver cache performance: successes/second,
//! success and cache hit rate vs. selective-cache capacity (50K–1M
//! entries) at 50K threads, iterative A and PTR.
//!
//! Paper shape: successes grow >3× across the sweep while the hit rate
//! moves only a few points; performance plateaus near 600K entries.
//!
//! Run: `cargo run --release -p zdns-bench --bin fig2_cache_sweep`

use zdns_bench::*;

fn main() {
    let quick = quick_mode();
    let universe = bench_universe();
    let cache_grid: &[usize] = if quick {
        &[50_000, 200_000, 600_000, 1_000_000]
    } else {
        &[
            50_000, 100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000,
        ]
    };
    let threads = if quick { 10_000 } else { 50_000 };
    println!("Figure 2: succ/s, success and hit rate vs cache size @ {threads} threads\n");
    for workload in [Workload::A, Workload::Ptr] {
        println!("-- {} lookups, iterative --", workload.label());
        let table =
            TablePrinter::new(&["cache_size", "succ/s", "succ_%", "hit_%", "queries/lookup"]);
        let mut first_rate = None;
        let mut last_rate = 0.0;
        for &cache_size in cache_grid {
            let spec = ScanSpec {
                resolver: TargetResolver::Iterative,
                workload,
                threads,
                cache_size,
                jobs: jobs_for(threads, quick),
                ..ScanSpec::default()
            };
            let o = run_scan(&universe, &spec);
            let qpl = o.report.queries_sent as f64 / o.report.jobs.max(1) as f64;
            table.row(&[
                cache_size.to_string(),
                format!("{:.0}", o.successes_per_sec),
                format!("{:.1}", o.success_rate * 100.0),
                format!("{:.1}", o.cache_hit_rate * 100.0),
                format!("{qpl:.2}"),
            ]);
            first_rate.get_or_insert(o.successes_per_sec);
            last_rate = o.successes_per_sec;
        }
        if let Some(first) = first_rate {
            println!(
                "growth across sweep: {:.2}x (paper: >3x for PTR)\n",
                last_rate / first.max(1.0)
            );
        }
    }
    println!("paper reference: plateau at ~600K entries; hit-rate change <5 points.");
}
