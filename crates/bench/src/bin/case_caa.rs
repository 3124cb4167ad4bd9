//! §6 case study — CAA records: scan base domains with the `CAALOOKUP`
//! module and reproduce the deployment/configuration/issuer breakdown.
//!
//! Paper findings to reproduce in shape:
//! * ~1.69% of NOERROR domains hold CAA; ccTLDs ≈48% of all CAA records,
//!   `.pl` alone ≈25% of CAA-enabled cc domains;
//! * tags: issue 96.8%, issuewild 55.27%, iodef 6.87%; ~0.04% invalid
//!   (concentrated at one registrar); ~8000 domains need a CNAME hop;
//! * issuers: Let's Encrypt in ≈92.4% of issue sets; Comodo and DigiCert
//!   each >50%.
//!
//! Run: `cargo run --release -p zdns-bench --bin case_caa`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zdns_bench::{bench_universe, quick_mode, TablePrinter};
use zdns_core::{Resolver, ResolverConfig};
use zdns_framework::{run_sim_scan_with, Conf};
use zdns_modules::CaaLookupModule;
use zdns_workloads::CtCorpus;
use zdns_zones::tlds::{TldCategory, TABLE3_CCTLDS, TABLE3_NGTLDS};
use zdns_zones::Universe;

#[derive(Default)]
struct Tally {
    noerror: AtomicU64,
    caa: AtomicU64,
    caa_cc: AtomicU64,
    caa_pl: AtomicU64,
    issue: AtomicU64,
    issuewild: AtomicU64,
    iodef: AtomicU64,
    invalid: AtomicU64,
    via_cname: AtomicU64,
    le: AtomicU64,
    comodo: AtomicU64,
    digicert: AtomicU64,
}

fn main() {
    let quick = quick_mode();
    let universe = bench_universe();
    let corpus = CtCorpus::new(universe.config().seed, TABLE3_CCTLDS, TABLE3_NGTLDS);
    let scan_size: u64 = if quick { 50_000 } else { 400_000 };

    let conf = Conf::parse(["CAALOOKUP", "--threads", "4000"]).expect("valid configuration");
    let resolver = {
        let mut rc: ResolverConfig = conf.resolver.clone();
        rc.root_hints = universe.root_hints();
        Resolver::new(rc)
    };
    let tally = Arc::new(Tally::default());
    let t = Arc::clone(&tally);
    let u2 = Arc::clone(&universe);
    let module = Arc::new(CaaLookupModule);
    let inputs = corpus.base_domains(scan_size);
    run_sim_scan_with(
        &conf,
        Arc::clone(&universe) as Arc<dyn Universe>,
        module,
        &resolver,
        inputs,
        move |o| {
            if o.status != zdns_core::Status::NoError {
                return;
            }
            t.noerror.fetch_add(1, Ordering::Relaxed);
            let records = o.data["records"].as_array().cloned().unwrap_or_default();
            if records.is_empty() {
                return;
            }
            t.caa.fetch_add(1, Ordering::Relaxed);
            let name: zdns_wire::Name = match o.name.parse() {
                Ok(n) => n,
                Err(_) => return,
            };
            if let Some(tld) = u2.tld_of(&name) {
                if tld.category == TldCategory::CcTld {
                    t.caa_cc.fetch_add(1, Ordering::Relaxed);
                    if tld.label == "pl" {
                        t.caa_pl.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            let issue = o.data["issue"].as_array().cloned().unwrap_or_default();
            if !issue.is_empty() {
                t.issue.fetch_add(1, Ordering::Relaxed);
            }
            if o.data["issuewild"]
                .as_array()
                .is_some_and(|a| !a.is_empty())
            {
                t.issuewild.fetch_add(1, Ordering::Relaxed);
            }
            if o.data["has_iodef"] == true {
                t.iodef.fetch_add(1, Ordering::Relaxed);
            }
            if o.data["invalid_tags"]
                .as_array()
                .is_some_and(|a| !a.is_empty())
            {
                t.invalid.fetch_add(1, Ordering::Relaxed);
            }
            if o.data["via_cname"] == true {
                t.via_cname.fetch_add(1, Ordering::Relaxed);
            }
            let issue_values: Vec<String> = issue
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect();
            if issue_values.iter().any(|v| v.contains("letsencrypt")) {
                t.le.fetch_add(1, Ordering::Relaxed);
            }
            if issue_values.iter().any(|v| v.contains("comodo")) {
                t.comodo.fetch_add(1, Ordering::Relaxed);
            }
            if issue_values.iter().any(|v| v.contains("digicert")) {
                t.digicert.fetch_add(1, Ordering::Relaxed);
            }
        },
    );

    let noerror = tally.noerror.load(Ordering::Relaxed) as f64;
    let caa = tally.caa.load(Ordering::Relaxed) as f64;
    println!(
        "§6 CAA records — {scan_size} base domains scanned, {} NOERROR, {} CAA holders\n",
        noerror as u64, caa as u64
    );
    let pct = |n: &AtomicU64, base: f64| n.load(Ordering::Relaxed) as f64 / base.max(1.0) * 100.0;
    let table = TablePrinter::new(&["metric", "measured", "paper"]);
    table.row(&[
        "CAA rate among NOERROR domains".to_string(),
        format!("{:.2}%", caa / noerror * 100.0),
        "1.69%".to_string(),
    ]);
    table.row(&[
        "ccTLD share of CAA records".to_string(),
        format!("{:.0}%", pct(&tally.caa_cc, caa)),
        "48%".to_string(),
    ]);
    table.row(&[
        ".pl share of cc CAA records".to_string(),
        format!(
            "{:.0}%",
            pct(&tally.caa_pl, tally.caa_cc.load(Ordering::Relaxed) as f64)
        ),
        "25%".to_string(),
    ]);
    table.row(&[
        "issue tag".to_string(),
        format!("{:.1}%", pct(&tally.issue, caa)),
        "96.8%".to_string(),
    ]);
    table.row(&[
        "issuewild tag".to_string(),
        format!("{:.1}%", pct(&tally.issuewild, caa)),
        "55.27%".to_string(),
    ]);
    table.row(&[
        "iodef tag".to_string(),
        format!("{:.1}%", pct(&tally.iodef, caa)),
        "6.87%".to_string(),
    ]);
    table.row(&[
        "invalid tags".to_string(),
        format!("{:.2}%", pct(&tally.invalid, caa)),
        "0.04%".to_string(),
    ]);
    table.row(&[
        "CAA via CNAME chain".to_string(),
        format!("{:.2}%", pct(&tally.via_cname, caa)),
        "0.74% (8000/1.08M)".to_string(),
    ]);
    table.row(&[
        "Let's Encrypt in issue set".to_string(),
        format!(
            "{:.1}%",
            pct(&tally.le, tally.issue.load(Ordering::Relaxed) as f64)
        ),
        "92.4%".to_string(),
    ]);
    table.row(&[
        "Comodo in issue set".to_string(),
        format!(
            "{:.1}%",
            pct(&tally.comodo, tally.issue.load(Ordering::Relaxed) as f64)
        ),
        ">50%".to_string(),
    ]);
    table.row(&[
        "DigiCert in issue set".to_string(),
        format!(
            "{:.1}%",
            pct(&tally.digicert, tally.issue.load(Ordering::Relaxed) as f64)
        ),
        ">50%".to_string(),
    ]);
}
