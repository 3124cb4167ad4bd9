//! The evaluation corpus: a deterministic generator of CT-log-like fully
//! qualified domain names matching the paper's Appendix A / Table 3 mix
//! (234M fqdns over 93M base domains across 1702 TLDs; 55% legacy gTLD /
//! 39% ccTLD / 6% new gTLD by fqdn).

use std::fmt::Write;

use zdns_zones::hashing::{h64, unit};
use zdns_zones::tlds::{Tld, TldCategory, TldRegistry};

/// Subdomain labels seen on certificates, in rough popularity order.
const SUB_LABELS: [&str; 14] = [
    "www", "mail", "api", "dev", "shop", "m", "blog", "app", "staging", "cdn", "vpn", "portal",
    "webmail", "test",
];

/// Word fragments for base-domain labels.
const FRAGMENTS: [&str; 24] = [
    "blue", "fast", "cloud", "media", "shop", "tech", "data", "net", "soft", "green", "prime",
    "alpha", "nova", "metro", "core", "peak", "digi", "grid", "zen", "flux", "bright", "atlas",
    "vertex", "orbit",
];

/// Deterministic CT-log-like corpus over a TLD registry.
pub struct CtCorpus {
    tlds: TldRegistry,
    seed: u64,
}

/// Table 3-style counts measured over a generated sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Fully qualified names generated.
    pub fqdns: u64,
    /// Distinct base domains.
    pub domains: u64,
    /// fqdns per category: (legacy, ng, cc).
    pub fqdns_by_category: (u64, u64, u64),
    /// domains per category: (legacy, ng, cc).
    pub domains_by_category: (u64, u64, u64),
    /// Distinct TLDs seen per category: (legacy, ng, cc).
    pub tlds_by_category: (u64, u64, u64),
}

impl CtCorpus {
    /// Build a corpus generator (same seed ⇒ same names as the universe).
    pub fn new(seed: u64, n_cctlds: usize, n_ngtlds: usize) -> CtCorpus {
        CtCorpus {
            tlds: TldRegistry::generate(seed, n_cctlds, n_ngtlds),
            seed,
        }
    }

    /// The `i`-th base domain: a word-ish label under a weighted TLD.
    pub fn base_domain(&self, i: u64) -> String {
        self.fqdn(i, 0)
    }

    /// The `j`-th fqdn of base domain `i` (j=0 is the apex).
    pub fn fqdn(&self, i: u64, j: u64) -> String {
        let (h, tld) = self.base(i);
        let mut name = String::new();
        push_sub(&mut name, j);
        push_base(&mut name, h, i, tld);
        name
    }

    /// Iterator over `n` fqdns drawn across base domains in corpus order.
    pub fn fqdns(&self, n: u64) -> impl Iterator<Item = String> + '_ {
        let mut cursor = Cursor::default();
        (0..n).map(move |_| cursor.next_fqdn(self))
    }

    /// Iterator over `n` distinct base domains (the §6 CAA scan input).
    pub fn base_domains(&self, n: u64) -> impl Iterator<Item = String> + '_ {
        (0..n).map(|i| self.base_domain(i))
    }

    /// Consume the corpus into an owning streaming generator of its
    /// first `n` fqdns — the form scan pipelines plug in as an input
    /// source (`--workload ct-corpus`): names are generated one pull at
    /// a time, so a paper-scale run never materializes the set.
    pub fn into_stream(self, n: u64) -> CorpusStream {
        CorpusStream {
            corpus: self,
            cursor: Cursor::default(),
            remaining: n,
        }
    }

    /// Generate a sample and measure its Table 3 shape.
    pub fn stats(&self, sample_fqdns: u64) -> CorpusStats {
        let mut stats = CorpusStats::default();
        let mut seen_tlds = vec![false; self.tlds.all().len()];
        let mut cursor = Cursor::default();
        while stats.fqdns < sample_fqdns {
            let (_, tld) = cursor.enter(self);
            let fqdns = cursor.fqdns.min(sample_fqdns - stats.fqdns);
            stats.domains += 1;
            stats.fqdns += fqdns;
            *by_category(&mut stats.domains_by_category, tld) += 1;
            *by_category(&mut stats.fqdns_by_category, tld) += fqdns;
            if !std::mem::replace(&mut seen_tlds[usize::from(tld.index)], true) {
                *by_category(&mut stats.tlds_by_category, tld) += 1;
            }
        }
        stats
    }

    /// The hash that draws base domain `i`, and the TLD it drew.
    fn base(&self, i: u64) -> (u64, &Tld) {
        let h = h64(self.seed, "corpus-base", &i.to_le_bytes());
        (h, self.tlds.sample(h))
    }

    /// How many fqdns base domain `i`, drawn under `tld`, has.
    fn fqdns_under(&self, i: u64, tld: &Tld) -> u64 {
        // Geometric-ish: 1 + extra, mean matches.
        let p = 1.0 / tld.fqdns_per_domain.max(1.0);
        let u = unit(h64(self.seed, "corpus-subcount", &i.to_le_bytes()));
        let extra = (u.ln() / (1.0 - p).ln()).floor() as u64;
        1 + extra.min(24)
    }
}

/// A walk over the corpus in order that derives each base domain once:
/// its hash and TLD, how many fqdns it has, and its text.
#[derive(Default)]
struct Cursor {
    /// The base domain entered next.
    next: u64,
    /// The current base domain's fqdn count, and how many were emitted.
    fqdns: u64,
    sub: u64,
    /// The current base domain's text, rewritten in place on entry.
    name: String,
}

impl Cursor {
    /// Move to the next base domain and count its fqdns.
    fn enter<'c>(&mut self, corpus: &'c CtCorpus) -> (u64, &'c Tld) {
        let i = self.next;
        self.next += 1;
        let (h, tld) = corpus.base(i);
        self.fqdns = corpus.fqdns_under(i, tld);
        self.sub = 0;
        (h, tld)
    }

    /// The next fqdn in corpus order, in one allocation.
    fn next_fqdn(&mut self, corpus: &CtCorpus) -> String {
        if self.sub >= self.fqdns {
            let (h, tld) = self.enter(corpus);
            self.name.clear();
            push_base(&mut self.name, h, self.next - 1, tld);
        }
        let j = self.sub;
        self.sub += 1;
        if j == 0 {
            return self.name.clone();
        }
        // The longest prefix a base's 25 fqdns can carry is `staging23.`.
        let mut fqdn = String::with_capacity(10 + self.name.len());
        push_sub(&mut fqdn, j);
        fqdn.push_str(&self.name);
        fqdn
    }
}

/// Write base domain `i`, drawn by hash `h` under `tld`.
fn push_base(out: &mut String, h: u64, i: u64, tld: &Tld) {
    let a = FRAGMENTS[(h >> 8) as usize % FRAGMENTS.len()];
    let b = FRAGMENTS[(h >> 16) as usize % FRAGMENTS.len()];
    // The index keeps names collision-free without a dedup set.
    write!(out, "{a}{b}{i}.{}", tld.label).expect("writing to a String");
}

/// Write the subdomain label, and its dot, of a base domain's `j`-th
/// fqdn (none for the apex, `j` = 0).
fn push_sub(out: &mut String, j: u64) {
    let Some(k) = (j as usize).checked_sub(1) else {
        return;
    };
    out.push_str(SUB_LABELS[k % SUB_LABELS.len()]);
    if k >= SUB_LABELS.len() {
        write!(out, "{j}").expect("writing to a String");
    }
    out.push('.');
}

/// `tld`'s member of a (legacy, ng, cc) triple.
fn by_category<'a>(counts: &'a mut (u64, u64, u64), tld: &Tld) -> &'a mut u64 {
    match tld.category {
        TldCategory::LegacyGtld => &mut counts.0,
        TldCategory::NewGtld => &mut counts.1,
        TldCategory::CcTld => &mut counts.2,
        TldCategory::Infra => unreachable!("corpus never samples arpa"),
    }
}

/// An owning streaming generator over a corpus's fqdns, in corpus order
/// (identical to [`CtCorpus::fqdns`], but self-contained so it can be
/// boxed into a scan pipeline's input slot and sent across threads).
pub struct CorpusStream {
    corpus: CtCorpus,
    cursor: Cursor,
    remaining: u64,
}

impl CorpusStream {
    /// Names this stream has left to yield.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Iterator for CorpusStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(self.cursor.next_fqdn(&self.corpus))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_zones::tlds::{TABLE3_CCTLDS, TABLE3_NGTLDS};
    use zdns_zones::{SynthConfig, SyntheticUniverse};

    fn corpus() -> CtCorpus {
        CtCorpus::new(0x5DA5_2D45, TABLE3_CCTLDS, TABLE3_NGTLDS)
    }

    #[test]
    fn stream_matches_borrowed_iterator() {
        let borrowed: Vec<String> = corpus().fqdns(5_000).collect();
        let streamed: Vec<String> = corpus().into_stream(5_000).collect();
        assert_eq!(borrowed, streamed);
        let stream = corpus().into_stream(42);
        assert_eq!(stream.remaining(), 42);
        assert_eq!(stream.size_hint(), (42, Some(42)));
    }

    #[test]
    fn streams_match_their_recorded_digests() {
        let got = [7, 0x5DA5_2D45, 20220525].map(|seed| {
            CtCorpus::new(seed, TABLE3_CCTLDS, TABLE3_NGTLDS)
                .into_stream(300_000)
                .fold(0, |d, name| h64(d, "fqdn", name.as_bytes()))
        });
        assert_eq!(
            got,
            [
                12456077670031296864,
                10698369677041281311,
                7446958800431020058
            ]
        );
    }

    #[test]
    fn stats_match_their_recorded_counts() {
        assert_eq!(
            corpus().stats(100_000),
            CorpusStats {
                fqdns: 100_000,
                domains: 39_854,
                fqdns_by_category: (55_066, 6_093, 38_841),
                domains_by_category: (19_563, 2_579, 17_712),
                tlds_by_category: (5, 603, 486),
            }
        );
    }

    #[test]
    fn deterministic() {
        let a = corpus();
        let b = corpus();
        for i in 0..100 {
            assert_eq!(a.base_domain(i), b.base_domain(i));
        }
    }

    #[test]
    fn base_domains_unique() {
        let c = corpus();
        let set: std::collections::HashSet<String> = c.base_domains(10_000).collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn fqdn_zero_is_apex() {
        let c = corpus();
        assert_eq!(c.fqdn(7, 0), c.base_domain(7));
        assert!(c.fqdn(7, 1).starts_with("www."));
    }

    #[test]
    fn fqdns_have_valid_names() {
        let c = corpus();
        for name in c.fqdns(5_000) {
            assert!(
                name.parse::<zdns_wire::Name>().is_ok(),
                "invalid name {name}"
            );
        }
    }

    #[test]
    fn category_mix_tracks_table3() {
        let c = corpus();
        let stats = c.stats(100_000);
        let total_fqdns = stats.fqdns as f64;
        let legacy_share = stats.fqdns_by_category.0 as f64 / total_fqdns;
        let ng_share = stats.fqdns_by_category.1 as f64 / total_fqdns;
        let cc_share = stats.fqdns_by_category.2 as f64 / total_fqdns;
        // Table 3 fqdn shares: 55.3% / 6.1% / 38.7%. The corpus couples
        // TLD sampling (by domain) with fqdns-per-domain (by category), so
        // tolerate a few points of drift.
        assert!((legacy_share - 0.553).abs() < 0.06, "legacy {legacy_share}");
        assert!((ng_share - 0.061).abs() < 0.03, "ng {ng_share}");
        assert!((cc_share - 0.387).abs() < 0.06, "cc {cc_share}");
    }

    #[test]
    fn fqdns_per_domain_ratio_near_2_5() {
        let c = corpus();
        let stats = c.stats(100_000);
        let ratio = stats.fqdns as f64 / stats.domains as f64;
        // 234M / 93.5M ≈ 2.51.
        assert!((ratio - 2.51).abs() < 0.35, "{ratio}");
    }

    /// The corpus and the universe are built from the same Table 3 shape,
    /// so every name a scan reads from the corpus has a TLD the universe
    /// serves.
    #[test]
    fn every_corpus_name_has_a_tld_in_the_universe() {
        for seed in [7, 0x5DA5_2D45, 20_220_525] {
            let universe = SyntheticUniverse::new(SynthConfig {
                seed,
                ..SynthConfig::default()
            });
            let corpus = CtCorpus::new(seed, TABLE3_CCTLDS, TABLE3_NGTLDS);
            for fqdn in corpus.into_stream(50_000) {
                let name: zdns_wire::Name = fqdn.parse().unwrap();
                assert!(universe.tld_of(&name).is_some(), "{fqdn} (seed {seed})");
            }
        }
    }
}
