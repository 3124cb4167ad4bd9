//! Table 2 — alternatives vs ZDNS: MassDNS, ZDNS+Unbound, ZDNS iterative,
//! ZDNS+public resolvers, on A and PTR workloads (10M names in the paper;
//! a steady-state sample here). ZDNS runs 60K threads, 600K cache entries,
//! ≤5 retries, matching §4.2.
//!
//! Paper rows (success/s, % total success):
//! ```text
//! MassDNS  A   Google      197K  65%      ZDNS  A   Iterative  18K    97%
//! MassDNS  PTR Google      179K  61%      ZDNS  PTR Iterative  11.8K  90%
//! MassDNS  A   Cloudflare  224K  67%      ZDNS  A   Google     93.1K  96%
//! MassDNS  PTR Cloudflare  183K  63%      ZDNS  PTR Google     88.8K  93%
//! ZDNS     A   Unbound     4.9K  96%      ZDNS  A   Cloudflare 92.5K  97%
//! ZDNS     PTR Unbound     4.5K  91%      ZDNS  PTR Cloudflare 99.1K  94%
//! ```
//!
//! Run: `cargo run --release -p zdns-bench --bin table2_tools`

use std::sync::Arc;

use zdns_baselines::{massdns_engine_config, MassDnsMachine};
use zdns_bench::*;
use zdns_netsim::{Engine, SimClient};
use zdns_wire::{Name, RecordType};
use zdns_workloads::{CtCorpus, Ipv4Walk};
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::Universe;

fn massdns_row(
    universe: &Arc<zdns_zones::SyntheticUniverse>,
    workload: Workload,
    resolver: TargetResolver,
    jobs: u64,
) -> (f64, f64) {
    let addr = match resolver {
        TargetResolver::Google => GOOGLE,
        _ => CLOUDFLARE,
    };
    // MassDNS's default concurrency is 10K sockets; its aggressive resend
    // interval (500 ms) keeps offered load high.
    let mut engine = Engine::new(
        massdns_engine_config(10_000, 11),
        Arc::clone(universe) as Arc<dyn Universe>,
    );
    engine.add_resolver(tuned_google());
    engine.add_resolver(tuned_cloudflare());
    let corpus = CtCorpus::new(universe.config().seed, TABLE3_CCTLDS, TABLE3_NGTLDS);
    let mut ips = Ipv4Walk::new(991, jobs);
    let mut i = 0u64;
    let report = engine.run(move || {
        if i >= jobs {
            return None;
        }
        i += 1;
        let name: Name = match workload {
            Workload::A => corpus.fqdn(3_000_000 + i, 0).parse().ok()?,
            Workload::Ptr => Name::reverse_ipv4(ips.next()?),
        };
        let qtype = match workload {
            Workload::A => RecordType::A,
            Workload::Ptr => RecordType::PTR,
        };
        Some(Box::new(MassDnsMachine::new(addr, name, qtype)) as Box<dyn SimClient>)
    });
    (report.steady_success_rate(), report.success_rate())
}

fn main() {
    let quick = quick_mode();
    let universe = bench_universe();
    let zdns_threads = if quick { 10_000 } else { 60_000 };
    let jobs = if quick { 30_000 } else { 300_000 };

    println!("Table 2: alternatives vs ZDNS (10M-name workload, sampled)\n");
    let table = TablePrinter::new(&["tool", "lookup", "resolver", "succ/s", "succ_%", "paper"]);

    // MassDNS rows.
    for (workload, resolver, paper) in [
        (Workload::A, TargetResolver::Google, "197K / 65%"),
        (Workload::Ptr, TargetResolver::Google, "179K / 61%"),
        (Workload::A, TargetResolver::Cloudflare, "224K / 67%"),
        (Workload::Ptr, TargetResolver::Cloudflare, "183K / 63%"),
    ] {
        let (rate, success) = massdns_row(&universe, workload, resolver, jobs);
        table.row(&[
            "MassDNS".to_string(),
            workload.label().to_string(),
            resolver.label().to_string(),
            format!("{rate:.0}"),
            format!("{:.0}", success * 100.0),
            paper.to_string(),
        ]);
    }

    // ZDNS rows: Unbound, Iterative, Google, Cloudflare.
    for (workload, resolver, paper) in [
        (Workload::A, TargetResolver::Unbound, "4.9K / 96%"),
        (Workload::Ptr, TargetResolver::Unbound, "4.5K / 91%"),
        (Workload::A, TargetResolver::Iterative, "18K / 97%"),
        (Workload::Ptr, TargetResolver::Iterative, "11.8K / 90%"),
        (Workload::A, TargetResolver::Google, "93.1K / 96%"),
        (Workload::Ptr, TargetResolver::Google, "88.8K / 93%"),
        (Workload::A, TargetResolver::Cloudflare, "92.5K / 97%"),
        (Workload::Ptr, TargetResolver::Cloudflare, "99.1K / 94%"),
    ] {
        let spec = ScanSpec {
            resolver,
            workload,
            threads: zdns_threads,
            retries: 5,
            cache_size: 600_000,
            jobs,
            ..ScanSpec::default()
        };
        let o = run_scan(&universe, &spec);
        table.row(&[
            "ZDNS".to_string(),
            workload.label().to_string(),
            resolver.label().to_string(),
            format!("{:.0}", o.successes_per_sec),
            format!("{:.0}", o.success_rate * 100.0),
            paper.to_string(),
        ]);
    }
    println!(
        "\nshape checks: MassDNS trades success rate for raw rate; ZDNS iterative\n\
         beats Unbound ~2.6-3.6x; public-resolver rows beat iterative ~5x."
    );
}
