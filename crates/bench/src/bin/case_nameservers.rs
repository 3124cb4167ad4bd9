//! §5 case study — nameserver (in)consistency: scan domains with the
//! `--all-nameservers` extension, measuring per-nameserver availability
//! (retries needed) and response consistency.
//!
//! Paper findings to reproduce in shape:
//! * ~0.55% of resolvable domains have ≥1 nameserver needing ≥2 retries;
//! * ~0.01% have a nameserver needing 10 retries, 31% of those at
//!   `namebrightdns.com`, with `.vn`/`.ng` over-represented;
//! * >99.99% of domains return consistent A records across nameservers;
//! * no relationship between content category and availability.
//!
//! Run: `cargo run --release -p zdns-bench --bin case_nameservers`

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use zdns_bench::{bench_universe, quick_mode, TablePrinter};
use zdns_core::{Resolver, ResolverConfig};
use zdns_framework::{run_sim_scan_with, Conf};
use zdns_modules::AllNameserversModule;
use zdns_workloads::{categorize, CtCorpus};
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::Universe;

fn main() {
    let quick = quick_mode();
    let universe = bench_universe();
    let corpus = CtCorpus::new(universe.config().seed, TABLE3_CCTLDS, TABLE3_NGTLDS);
    let scan_size: u64 = if quick { 20_000 } else { 150_000 };

    // §5 methodology: up to 10 retries per query to approximate
    // availability.
    let mut conf = Conf::parse(["ALLNAMESERVERS", "--threads", "4000", "--retries", "10"])
        .expect("valid configuration");
    conf.resolver.iteration_timeout = 400 * zdns_netsim::MILLIS;
    let resolver = {
        let mut rc: ResolverConfig = conf.resolver.clone();
        rc.root_hints = universe.root_hints();
        Resolver::new(rc)
    };

    let total = Arc::new(AtomicU64::new(0));
    let flaky2 = Arc::new(AtomicU64::new(0)); // ≥2 retries on some NS
    let flaky10 = Arc::new(AtomicU64::new(0)); // ≥10 retries
    let inconsistent = Arc::new(AtomicU64::new(0));
    let flaky10_by_provider: Arc<Mutex<HashMap<String, u64>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let flaky_by_category: Arc<Mutex<HashMap<&'static str, (u64, u64)>>> =
        Arc::new(Mutex::new(HashMap::new()));

    let seed = universe.config().seed;
    let (t2, f2, f10, inc, prov, cat) = (
        Arc::clone(&total),
        Arc::clone(&flaky2),
        Arc::clone(&flaky10),
        Arc::clone(&inconsistent),
        Arc::clone(&flaky10_by_provider),
        Arc::clone(&flaky_by_category),
    );
    let module = Arc::new(AllNameserversModule);
    let inputs = corpus.base_domains(scan_size);
    let report = run_sim_scan_with(
        &conf,
        Arc::clone(&universe) as Arc<dyn Universe>,
        module,
        &resolver,
        inputs,
        move |o| {
            if !o.status.is_success() {
                return;
            }
            t2.fetch_add(1, Ordering::Relaxed);
            let max_retries = o.data["max_retries"].as_u64().unwrap_or(0);
            let category = categorize(seed, &o.name).as_str();
            let mut cats = cat.lock();
            let entry = cats.entry(category).or_insert((0, 0));
            entry.1 += 1;
            if max_retries >= 2 {
                f2.fetch_add(1, Ordering::Relaxed);
                entry.0 += 1;
            }
            if max_retries >= 10 {
                f10.fetch_add(1, Ordering::Relaxed);
                // Attribute to the provider via the NS hostname.
                if let Some(ns) = o.data["nameservers"][0]["nameserver"].as_str() {
                    let provider = ns.split('.').nth(1).unwrap_or("?").to_string();
                    *prov.lock().entry(provider).or_insert(0) += 1;
                }
            }
            if o.data["consistent"] == false {
                inc.fetch_add(1, Ordering::Relaxed);
            }
        },
    );

    let total = total.load(Ordering::Relaxed) as f64;
    println!(
        "§5 nameserver (in)consistency — {scan_size} domains scanned, {} resolvable\n",
        total as u64
    );
    println!(
        "completed in {} of virtual time (paper: 18.5h for 234M fqdns)\n",
        zdns_bench::human_time(zdns_netsim::as_secs_f64(report.makespan))
    );
    let table = TablePrinter::new(&["metric", "measured", "paper"]);
    table.row(&[
        "domains with NS needing >=2 retries".to_string(),
        format!(
            "{:.2}%",
            flaky2.load(Ordering::Relaxed) as f64 / total * 100.0
        ),
        "0.55%".to_string(),
    ]);
    table.row(&[
        "domains with NS needing 10 retries".to_string(),
        format!(
            "{:.3}%",
            flaky10.load(Ordering::Relaxed) as f64 / total * 100.0
        ),
        "0.01%".to_string(),
    ]);
    table.row(&[
        "domains with inconsistent A sets".to_string(),
        format!(
            "{:.3}%",
            inconsistent.load(Ordering::Relaxed) as f64 / total * 100.0
        ),
        "<0.01%".to_string(),
    ]);

    println!("\n10-retry domains by provider (paper: 31% namebrightdns.com):");
    let providers = flaky10_by_provider.lock();
    let f10_total: u64 = providers.values().sum();
    let mut sorted: Vec<_> = providers.iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(a.1));
    for (provider, count) in sorted.iter().take(5) {
        println!(
            "  {provider}: {:.0}%",
            **count as f64 / f10_total.max(1) as f64 * 100.0
        );
    }

    println!("\navailability by content category (paper: no relationship):");
    let cats = flaky_by_category.lock();
    let mut rates: Vec<(&str, f64)> = cats
        .iter()
        .filter(|(_, (_, n))| *n > 100)
        .map(|(k, (flaky, n))| (*k, *flaky as f64 / *n as f64 * 100.0))
        .collect();
    rates.sort_by(|a, b| a.0.cmp(b.0));
    for (category, rate) in rates {
        println!("  {category:>14}: {rate:.2}% flaky");
    }
}
