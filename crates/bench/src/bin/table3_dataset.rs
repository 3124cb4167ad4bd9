//! Table 3 — the evaluation dataset: fqdn/domain/TLD counts per category
//! for the CT-log-like corpus.
//!
//! Paper numbers:
//! ```text
//!               fqdn         domain      tld
//! legacy gTLDs  129,644,044  45,865,899  5
//! ngTLDs        14,228,236   6,094,090   1211
//! ccTLDs        90,659,109   41,574,286  486
//! All           234,531,389  93,534,275  1702
//! ```
//!
//! The harness generates a corpus sample and scales the measured shares to
//! the paper's 234.5M-fqdn total.
//!
//! Run: `cargo run --release -p zdns-bench --bin table3_dataset`

use zdns_bench::quick_mode;
use zdns_bench::TablePrinter;
use zdns_workloads::CtCorpus;
use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};

fn main() {
    let sample: u64 = if quick_mode() { 200_000 } else { 2_000_000 };
    let corpus = CtCorpus::new(0x5DA5_2D45, TABLE3_CCTLDS, TABLE3_NGTLDS);
    let stats = corpus.stats(sample);
    let scale = 234_531_389.0 / stats.fqdns as f64;

    println!(
        "Table 3: Certificate Transparency domains dataset (sample of {sample} fqdns, scaled)\n"
    );
    let table = TablePrinter::new(&[
        "category",
        "fqdn",
        "domain",
        "tld",
        "paper_fqdn",
        "paper_domain",
    ]);
    let rows = [
        (
            "legacy gTLDs",
            stats.fqdns_by_category.0,
            stats.domains_by_category.0,
            stats.tlds_by_category.0,
            "129,644,044",
            "45,865,899",
        ),
        (
            "ngTLDs",
            stats.fqdns_by_category.1,
            stats.domains_by_category.1,
            stats.tlds_by_category.1,
            "14,228,236",
            "6,094,090",
        ),
        (
            "ccTLDs",
            stats.fqdns_by_category.2,
            stats.domains_by_category.2,
            stats.tlds_by_category.2,
            "90,659,109",
            "41,574,286",
        ),
    ];
    for (label, fqdns, domains, tlds, paper_f, paper_d) in rows {
        table.row(&[
            label.to_string(),
            format!("{:.0}", fqdns as f64 * scale),
            format!("{:.0}", domains as f64 * scale),
            tlds.to_string(),
            paper_f.to_string(),
            paper_d.to_string(),
        ]);
    }
    table.row(&[
        "All".to_string(),
        format!("{:.0}", stats.fqdns as f64 * scale),
        format!("{:.0}", stats.domains as f64 * scale),
        (stats.tlds_by_category.0 + stats.tlds_by_category.1 + stats.tlds_by_category.2)
            .to_string(),
        "234,531,389".to_string(),
        "93,534,275".to_string(),
    ]);
    println!(
        "\nnote: the sample touches the head of the Zipf TLD distribution; the\n\
         registry holds exactly 5 + 1211 + 486 = 1702 TLDs (run the zdns-zones\n\
         tests for the registry-level counts)."
    );
}
