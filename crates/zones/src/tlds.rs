//! The top-level-domain registry: 1702 TLDs in the Table 3 category mix,
//! generated deterministically from a seed.

use std::fmt::Write;

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
    /// Open-addressed index by label: each slot holds the index of the TLD
    /// whose label hashes there (linear probing), or [`EMPTY`]. A binary
    /// search over indices in label order is ~6× slower per lookup (each
    /// step chases a label pointer), and its sort makes `generate` ~1.5×
    /// slower.
    slots: Vec<u16>,
    /// Cumulative domain weights for corpus sampling.
    cumulative: Vec<f64>,
}

/// An unused index slot: `generate` keeps every TLD index below it.
const EMPTY: u16 = u16::MAX;

/// Table 3's ccTLD count: the registry shape the simulator and the CT
/// corpus share.
pub const TABLE3_CCTLDS: usize = 486;

/// Table 3's new-gTLD count (see [`TABLE3_CCTLDS`]).
pub const TABLE3_NGTLDS: usize = 1211;

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
    /// (Table 3's shape is [`TABLE3_CCTLDS`] and [`TABLE3_NGTLDS`]).
    ///
    /// There are only 676 two-letter codes, so at most 676 ccTLDs exist:
    /// a larger `n_cc` is capped without notice, and the codes that exist
    /// keep the Zipf weights of `n_cc` codes.
    ///
    /// A ccTLD's server count hashes its position as one byte
    /// (`h64(seed, "cc-servers", &[j as u8])`), so ccTLDs 256–485 repeat
    /// the server counts of ccTLDs 0–229. The simulator's answers are
    /// pinned to this; fixing it is a change of output of its own.
    pub fn generate(seed: u64, n_cc: usize, n_ng: usize) -> TldRegistry {
        // Category shares derived from the exact Table 3 domain counts:
        // 45,865,899 legacy / 41,574,286 cc / 6,094,090 ng of 93,534,275.
        const TOTAL: f64 = 93_534_275.0;
        const LEGACY_SHARE: f64 = 45_865_899.0 / TOTAL;
        const CC_SHARE: f64 = 41_574_286.0 / TOTAL;
        const NG_SHARE: f64 = 6_094_090.0 / TOTAL;
        let cc_labels = cc_labels(seed, n_cc);
        let zipf_cc = zipf_weights(n_cc, 0.9);
        let zipf_ng = zipf_weights(n_ng, 1.0);
        let count = 5 + cc_labels.len() + n_ng + 1;
        assert!(count <= usize::from(EMPTY), "TLD indices are u16");
        let mut tlds: Vec<Tld> = Vec::with_capacity(count);
        let mut push = |label, category, server_count, domain_weight, fqdns_per_domain| {
            let index = tlds.len() as u16;
            tlds.push(Tld {
                index,
                label,
                category,
                server_count,
                domain_weight,
                fqdns_per_domain,
            });
        };
        // Legacy gTLDs: com dominates.
        let legacy_split = [0.72, 0.10, 0.09, 0.05, 0.04];
        for (label, frac) in LEGACY_GTLDS.iter().zip(legacy_split) {
            let weight = LEGACY_SHARE * frac;
            push(label.to_string(), TldCategory::LegacyGtld, 13, weight, 2.83);
        }
        // ccTLDs: two-letter labels, Zipf-ish weights.
        for (j, label) in cc_labels.into_iter().enumerate() {
            let servers = 2 + (h64(seed, "cc-servers", &[j as u8]) % 5) as u8;
            let weight = CC_SHARE * zipf_cc[j];
            push(label, TldCategory::CcTld, servers, weight, 2.18);
        }
        // New gTLDs: word-like labels, never colliding with legacy gTLDs
        // or ccTLDs (a duplicate label would hijack by-label lookups).
        for (j, label) in ng_labels(seed, n_ng).into_iter().enumerate() {
            let servers = 2 + (h64(seed, "ng-servers", &(j as u32).to_le_bytes()) % 3) as u8;
            let weight = NG_SHARE * zipf_ng[j];
            push(label, TldCategory::NewGtld, servers, weight, 2.33);
        }
        // Infrastructure: arpa (serves in-addr.arpa referrals).
        push("arpa".to_string(), TldCategory::Infra, 6, 0.0, 0.0);

        let mut slots = vec![EMPTY; (2 * tlds.len()).next_power_of_two()];
        let mask = slots.len() - 1;
        let mut cumulative = Vec::with_capacity(tlds.len());
        let mut acc = 0.0;
        for t in &tlds {
            let mut slot = home(t.label.as_bytes(), mask);
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = t.index;
            acc += t.domain_weight;
            cumulative.push(acc);
        }
        TldRegistry {
            tlds,
            slots,
            cumulative,
        }
    }

    /// All TLDs.
    pub fn all(&self) -> &[Tld] {
        &self.tlds
    }

    /// Look up by label (case-insensitive), lowercasing on the stack: a
    /// walk asks this once per question.
    pub fn by_label(&self, label: &str) -> Option<&Tld> {
        let mut lower = [0u8; MAX_LABEL_LEN];
        // Longer than any label: no TLD has it.
        let lower = lower.get_mut(..label.len())?;
        lower.copy_from_slice(label.as_bytes());
        lower.make_ascii_lowercase();
        let mask = self.slots.len() - 1;
        let mut slot = home(lower, mask);
        loop {
            // An empty slot ends the probe: `EMPTY` indexes no TLD.
            let tld = self.tlds.get(usize::from(self.slots[slot]))?;
            if tld.label.as_bytes() == lower {
                return Some(tld);
            }
            slot = (slot + 1) & mask;
        }
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

/// The first index slot a lowercase label probes.
fn home(label: &[u8], mask: usize) -> usize {
    h64(0, "tld", label) as usize & mask
}

/// Zipf-like normalized weights: w_i ∝ 1/(i+1)^s.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// The required ccTLD codes, then distinct two-letter codes drawn from
/// the seed: `n` codes, or all 676 if `n` asks for more.
fn cc_labels(seed: u64, n: usize) -> Vec<String> {
    let mut taken = [false; 26 * 26];
    let mut state = splitmix64(seed ^ 0xCC11AB);
    let drawn = std::iter::repeat_with(|| {
        state = splitmix64(state);
        [b'a' + (state % 26) as u8, b'a' + ((state >> 8) % 26) as u8]
    });
    let required = REQUIRED_CCTLDS.map(|c| [c.as_bytes()[0], c.as_bytes()[1]]);
    required
        .into_iter()
        .chain(drawn)
        .filter(|&[a, b]| {
            let code = &mut taken[usize::from(a - b'a') * 26 + usize::from(b - b'a')];
            !std::mem::replace(code, true)
        })
        .take(n.min(26 * 26))
        .map(|code| String::from_utf8(code.to_vec()).expect("ASCII letters"))
        .collect()
}

/// `n` distinct word-like new-gTLD labels drawn from the seed: a head and
/// a tail, or, once that spelling is taken, the spelling and a counter.
fn ng_labels(seed: u64, n: usize) -> Vec<String> {
    const HEADS: [&str; 16] = [
        "app", "dev", "shop", "web", "cloud", "tech", "store", "site", "online", "digi", "net",
        "zone", "live", "data", "host", "link",
    ];
    const TAILS: [&str; 16] = [
        "", "ly", "io", "hub", "ify", "base", "port", "ware", "lab", "works", "space", "city",
        "land", "wave", "grid", "dom",
    ];
    // The 256 spellings are distinct and all at least three letters long,
    // so only a legacy gTLD or arpa can have one already ("net" does).
    // Counter labels are the only ones with digits, so they never collide.
    let mut taken: [bool; 16 * 16] = std::array::from_fn(|i| {
        let spells = |l: &&str| l.strip_prefix(HEADS[i / 16]) == Some(TAILS[i % 16]);
        LEGACY_GTLDS.iter().chain(&["arpa"]).any(spells)
    });
    let mut state = splitmix64(seed ^ 0x176BD);
    let mut counter = 0u32;
    (0..n)
        .map(|_| {
            state = splitmix64(state.wrapping_add(1));
            let (h, t) = ((state % 16) as usize, ((state >> 8) % 16) as usize);
            let (head, tail) = (HEADS[h], TAILS[t]);
            if !std::mem::replace(&mut taken[h * 16 + t], true) {
                return [head, tail].concat();
            }
            counter += 1;
            let mut label = String::with_capacity(head.len() + tail.len() + 10);
            write!(label, "{head}{tail}{counter}").expect("writing to a String");
            label
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TldRegistry {
        TldRegistry::generate(42, TABLE3_CCTLDS, TABLE3_NGTLDS)
    }

    #[test]
    fn table3_counts() {
        let r = registry();
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

    /// Every field of every TLD, and what `by_label` finds for its label
    /// in upper case, folded into one hash.
    fn digest(r: &TldRegistry) -> u64 {
        r.all().iter().fold(0, |d, t| {
            let found = r.by_label(&t.label.to_ascii_uppercase()).map(|f| f.index);
            let mut bytes = t.label.as_bytes().to_vec();
            bytes.extend(t.index.to_le_bytes());
            bytes.extend([t.category as u8, t.server_count]);
            bytes.extend(t.domain_weight.to_bits().to_le_bytes());
            bytes.extend(t.fqdns_per_domain.to_bits().to_le_bytes());
            bytes.extend(found.unwrap_or(u16::MAX).to_le_bytes());
            h64(d, "tld", &bytes)
        })
    }

    #[test]
    fn registries_match_their_recorded_digests() {
        // 700 ccTLDs asks past the 676 two-letter codes; 5000 new gTLDs
        // take the collision counter to four digits.
        const SIZES: [(usize, usize); 6] = [
            (486, 1211),
            (0, 0),
            (3, 0),
            (12, 5),
            (486, 5000),
            (700, 1211),
        ];
        const SEEDS: [u64; 4] = [0, 1, 42, 20220525];
        const DIGESTS: [[u64; 6]; 4] = [
            [
                10553323002479741464,
                14093379201591851754,
                13744362439822433612,
                2350555743287189221,
                2940968483923333077,
                73016764463427078,
            ],
            [
                50385576166649070,
                14093379201591851754,
                16981299176519371799,
                6224838500607282144,
                9057240614191507143,
                6550931686029935506,
            ],
            [
                9543717233659626369,
                14093379201591851754,
                10401942410299811691,
                3330451039821016644,
                16963623198679421800,
                14961038103605873681,
            ],
            [
                17136077770635339380,
                14093379201591851754,
                7886012436229046503,
                14054177790928377965,
                8806678094385181160,
                6810188809453436658,
            ],
        ];
        let got =
            SEEDS.map(|seed| SIZES.map(|(cc, ng)| digest(&TldRegistry::generate(seed, cc, ng))));
        assert_eq!(got, DIGESTS);
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
