//! The top-level-domain registry: 1702 TLDs in the Table 3 category mix,
//! generated deterministically from a seed.

use std::collections::HashMap;

use zdns_wire::MAX_LABEL_LEN;

use crate::hashing::{h64, splitmix64};

/// TLD categories as the paper's Table 3 breaks them down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TldCategory {
    /// Legacy generic TLDs (com, net, org, ...): 5 of them, 55% of fqdns.
    LegacyGtld,
    /// New gTLDs: 1211 of them, 6% of fqdns.
    NewGtld,
    /// Country-code TLDs: 486 of them, 39% of fqdns.
    CcTld,
    /// Infrastructure (arpa) — not part of the corpus, needed for PTR.
    Infra,
}

/// One top-level domain.
#[derive(Debug, Clone)]
pub struct Tld {
    /// Index into the registry (stable across runs with the same seed).
    pub index: u16,
    /// The label, e.g. `"com"`.
    pub label: String,
    /// Category.
    pub category: TldCategory,
    /// Number of authoritative servers for the TLD zone.
    pub server_count: u8,
    /// Relative probability that a corpus *base domain* lives here.
    pub domain_weight: f64,
    /// Mean number of fqdns per base domain in this TLD (legacy gTLDs have
    /// deeper namespaces per Table 3: 129.6M fqdns / 45.9M domains ≈ 2.8).
    pub fqdns_per_domain: f64,
}

/// The full TLD registry.
pub struct TldRegistry {
    tlds: Vec<Tld>,
    by_label: HashMap<String, u16>,
    /// Cumulative domain weights for corpus sampling.
    cumulative: Vec<f64>,
}

/// The five legacy gTLDs (Table 3 counts exactly 5).
pub const LEGACY_GTLDS: [&str; 5] = ["com", "net", "org", "info", "biz"];

/// ccTLDs that must exist because the paper's case studies name them:
/// .pl (25% of CAA-enabled cc domains), .vn and .ng (availability
/// inconsistencies, §5).
pub const REQUIRED_CCTLDS: [&str; 12] = [
    "pl", "vn", "ng", "de", "uk", "cn", "ru", "nl", "fr", "br", "jp", "au",
];

impl TldRegistry {
    /// Generate a registry with `n_cc` ccTLDs and `n_ng` new gTLDs
    /// (defaults match Table 3: 486 and 1211).
    pub fn generate(seed: u64, n_cc: usize, n_ng: usize) -> TldRegistry {
        let mut tlds: Vec<Tld> = Vec::with_capacity(5 + n_cc + n_ng + 1);
        // Category shares derived from the exact Table 3 domain counts:
        // 45,865,899 legacy / 41,574,286 cc / 6,094,090 ng of 93,534,275.
        const TOTAL: f64 = 93_534_275.0;
        const LEGACY_SHARE: f64 = 45_865_899.0 / TOTAL;
        const CC_SHARE: f64 = 41_574_286.0 / TOTAL;
        const NG_SHARE: f64 = 6_094_090.0 / TOTAL;
        // Legacy gTLDs: com dominates.
        let legacy_split = [0.72, 0.10, 0.09, 0.05, 0.04];
        for (i, (label, frac)) in LEGACY_GTLDS.iter().zip(legacy_split).enumerate() {
            tlds.push(Tld {
                index: i as u16,
                label: (*label).to_string(),
                category: TldCategory::LegacyGtld,
                server_count: 13,
                domain_weight: LEGACY_SHARE * frac,
                fqdns_per_domain: 2.83,
            });
        }
        // ccTLDs: two-letter labels, Zipf-ish weights.
        let cc_labels = generate_cc_labels(seed, n_cc);
        let zipf_cc = zipf_weights(n_cc, 0.9);
        for (j, label) in cc_labels.into_iter().enumerate() {
            let index = (tlds.len()) as u16;
            tlds.push(Tld {
                index,
                label,
                category: TldCategory::CcTld,
                server_count: 2 + (h64(seed, "cc-servers", &[j as u8]) % 5) as u8,
                domain_weight: CC_SHARE * zipf_cc[j],
                fqdns_per_domain: 2.18,
            });
        }
        // New gTLDs: word-like labels, never colliding with legacy gTLDs
        // or ccTLDs (a duplicate label would hijack by-label lookups).
        let taken: std::collections::HashSet<String> =
            tlds.iter().map(|t| t.label.clone()).collect();
        let ng_labels = generate_ng_labels(seed, n_ng, &taken);
        let zipf_ng = zipf_weights(n_ng, 1.0);
        for (j, label) in ng_labels.into_iter().enumerate() {
            let index = (tlds.len()) as u16;
            tlds.push(Tld {
                index,
                label,
                category: TldCategory::NewGtld,
                server_count: 2 + (h64(seed, "ng-servers", &(j as u32).to_le_bytes()) % 3) as u8,
                domain_weight: NG_SHARE * zipf_ng[j],
                fqdns_per_domain: 2.33,
            });
        }
        // Infrastructure: arpa (serves in-addr.arpa referrals).
        let arpa_index = tlds.len() as u16;
        tlds.push(Tld {
            index: arpa_index,
            label: "arpa".to_string(),
            category: TldCategory::Infra,
            server_count: 6,
            domain_weight: 0.0,
            fqdns_per_domain: 0.0,
        });

        let by_label = tlds
            .iter()
            .map(|t| (t.label.clone(), t.index))
            .collect::<HashMap<_, _>>();
        let mut cumulative = Vec::with_capacity(tlds.len());
        let mut acc = 0.0;
        for t in &tlds {
            acc += t.domain_weight;
            cumulative.push(acc);
        }
        TldRegistry {
            tlds,
            by_label,
            cumulative,
        }
    }

    /// All TLDs.
    pub fn all(&self) -> &[Tld] {
        &self.tlds
    }

    /// Count excluding infrastructure (the paper's 1702).
    pub fn corpus_tld_count(&self) -> usize {
        self.tlds
            .iter()
            .filter(|t| t.category != TldCategory::Infra)
            .count()
    }

    /// Look up by label (case-insensitive), lowercasing on the stack: a
    /// walk asks this once per question.
    pub fn by_label(&self, label: &str) -> Option<&Tld> {
        let mut lower = [0u8; MAX_LABEL_LEN];
        // Longer than any label: no TLD has it.
        let lower = lower.get_mut(..label.len())?;
        lower.copy_from_slice(label.as_bytes());
        lower.make_ascii_lowercase();
        let lower = std::str::from_utf8(lower).expect("lowercasing keeps UTF-8");
        self.by_label.get(lower).map(|&i| &self.tlds[i as usize])
    }

    /// Get by index.
    pub fn by_index(&self, index: u16) -> Option<&Tld> {
        self.tlds.get(index as usize)
    }

    /// Sample a TLD according to the corpus domain weights using hash `h`.
    pub fn sample(&self, h: u64) -> &Tld {
        let total = *self.cumulative.last().expect("non-empty");
        let x = crate::hashing::unit(splitmix64(h)) * total;
        let idx = match self
            .cumulative
            .binary_search_by(|w| w.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        &self.tlds[idx.min(self.tlds.len() - 1)]
    }
}

/// Zipf-like normalized weights: w_i ∝ 1/(i+1)^s.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

fn generate_cc_labels(seed: u64, n: usize) -> Vec<String> {
    let mut labels: Vec<String> = REQUIRED_CCTLDS.iter().map(|s| s.to_string()).collect();
    // Fill the rest with deterministic two-letter codes, skipping dupes and
    // the legacy gTLD labels.
    let mut state = splitmix64(seed ^ 0xCC11AB);
    let mut seen: std::collections::HashSet<String> = labels.iter().cloned().collect();
    while labels.len() < n {
        state = splitmix64(state);
        let a = (b'a' + (state % 26) as u8) as char;
        let b = (b'a' + ((state >> 8) % 26) as u8) as char;
        let label: String = [a, b].iter().collect();
        if seen.insert(label.clone()) {
            labels.push(label);
        }
        // 676 combinations bound n; callers should keep n ≤ ~600.
        if seen.len() >= 676 {
            break;
        }
    }
    labels.truncate(n);
    labels
}

fn generate_ng_labels(
    seed: u64,
    n: usize,
    taken: &std::collections::HashSet<String>,
) -> Vec<String> {
    const HEADS: [&str; 16] = [
        "app", "dev", "shop", "web", "cloud", "tech", "store", "site", "online", "digi", "net",
        "zone", "live", "data", "host", "link",
    ];
    const TAILS: [&str; 16] = [
        "", "ly", "io", "hub", "ify", "base", "port", "ware", "lab", "works", "space", "city",
        "land", "wave", "grid", "dom",
    ];
    let mut labels = Vec::with_capacity(n);
    let mut seen = taken.clone();
    seen.insert("arpa".to_string());
    let mut state = splitmix64(seed ^ 0x176BD);
    let mut counter = 0u32;
    while labels.len() < n {
        state = splitmix64(state.wrapping_add(1));
        let head = HEADS[(state % 16) as usize];
        let tail = TAILS[((state >> 8) % 16) as usize];
        let candidate = if seen.contains(&format!("{head}{tail}")) {
            counter += 1;
            format!("{head}{tail}{counter}")
        } else {
            format!("{head}{tail}")
        };
        if candidate.len() >= 3 && seen.insert(candidate.clone()) {
            labels.push(candidate);
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TldRegistry {
        TldRegistry::generate(42, 486, 1211)
    }

    #[test]
    fn table3_counts() {
        let r = registry();
        assert_eq!(r.corpus_tld_count(), 1702);
        let legacy = r
            .all()
            .iter()
            .filter(|t| t.category == TldCategory::LegacyGtld)
            .count();
        let cc = r
            .all()
            .iter()
            .filter(|t| t.category == TldCategory::CcTld)
            .count();
        let ng = r
            .all()
            .iter()
            .filter(|t| t.category == TldCategory::NewGtld)
            .count();
        assert_eq!((legacy, cc, ng), (5, 486, 1211));
    }

    #[test]
    fn required_labels_present() {
        let r = registry();
        for label in LEGACY_GTLDS.iter().chain(REQUIRED_CCTLDS.iter()) {
            assert!(r.by_label(label).is_some(), "missing {label}");
        }
        assert!(r.by_label("arpa").is_some());
        assert!(r.by_label("COM").is_some(), "case-insensitive lookup");
    }

    #[test]
    fn deterministic_across_builds() {
        let a = TldRegistry::generate(7, 100, 200);
        let b = TldRegistry::generate(7, 100, 200);
        assert_eq!(
            a.all().iter().map(|t| &t.label).collect::<Vec<_>>(),
            b.all().iter().map(|t| &t.label).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sampling_respects_category_mix() {
        let r = registry();
        let n = 50_000;
        let mut legacy = 0;
        let mut cc = 0;
        let mut ng = 0;
        for i in 0..n {
            match r
                .sample(h64(1, "sample-test", &(i as u32).to_le_bytes()))
                .category
            {
                TldCategory::LegacyGtld => legacy += 1,
                TldCategory::CcTld => cc += 1,
                TldCategory::NewGtld => ng += 1,
                TldCategory::Infra => panic!("sampled arpa"),
            }
        }
        let lf = legacy as f64 / n as f64;
        let cf = cc as f64 / n as f64;
        let nf = ng as f64 / n as f64;
        // Table 3 base-domain shares: 49.0% / 44.4% / 6.5%.
        assert!((lf - 0.490).abs() < 0.02, "legacy {lf}");
        assert!((cf - 0.444).abs() < 0.02, "cc {cf}");
        assert!((nf - 0.065).abs() < 0.02, "ng {nf}");
    }

    #[test]
    fn weights_sum_to_one() {
        let r = registry();
        let total: f64 = r.all().iter().map(|t| t.domain_weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn indices_are_stable_identities() {
        let r = registry();
        for (i, t) in r.all().iter().enumerate() {
            assert_eq!(t.index as usize, i);
            assert_eq!(r.by_index(t.index).unwrap().label, t.label);
        }
    }
}
