//! The synthetic universe's per-domain ground truth, pinned by digest.
//!
//! `answers_pinned` asks a few thousand names per seed, too few to reach
//! the facts drawn at rates of a few in 100 000 (deep-flaky name servers,
//! inconsistent answers, iodef-only and invalid-tag CAA). This test reads
//! `domain_profile` for the first corpus base domains and `ptr_exists` /
//! `rdns16_delegates_deeper` for drawn addresses, under three seeds, and
//! folds every field into one FNV-1a digest per seed. It also asserts that
//! each rare class occurs, so a mistyped rate behind any of them moves a
//! digest: the seeds are the default one and two that, between them, reach
//! an invalid tag away from the registrar that §6 blames, the rarest class
//! (~2 in 10⁶ base domains). The digests were recorded before the
//! calibration became constants.

use std::net::Ipv4Addr;

use zdns_wire::Name;
use zdns_workloads::CtCorpus;
use zdns_zones::synth::WwwKind;
use zdns_zones::{SynthConfig, SyntheticUniverse};

/// Corpus base domains profiled per seed.
const BASES: u64 = 60_000;

/// Addresses whose PTR and /24-delegation facts are read per seed.
const ADDRESSES: usize = 50_000;

/// The provider whose domains §6 finds most invalid CAA tags at.
const INVALID_REGISTRAR: u16 = 3;

struct Digest(u64);

impl Digest {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn flag(&mut self, on: bool) {
        self.eat(&[u8::from(on)]);
    }
}

/// How often each rare class occurred.
#[derive(Debug, Default)]
struct Rare {
    deep_flaky: usize,
    light_flaky: usize,
    /// Inconsistent at a provider that answers consistently: the per-domain
    /// draw, not the provider's.
    inconsistent: usize,
    lame: usize,
    iodef_only: usize,
    invalid_tag_at_registrar: usize,
    invalid_tag_elsewhere: usize,
    caa_via_cname: usize,
}

/// The digest of every profile field and address fact for one seed.
fn digest(seed: u64, rare: &mut Rare) -> u64 {
    let defaults = SynthConfig::default();
    let corpus = CtCorpus::new(seed, defaults.n_cctlds, defaults.n_ngtlds);
    let u = SyntheticUniverse::new(SynthConfig { seed, ..defaults });
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    for text in corpus.base_domains(BASES) {
        let base: Name = text.parse().expect("corpus names are valid");
        let p = u.domain_profile(&base);
        d.eat(text.as_bytes());
        d.flag(p.exists);
        d.eat(&p.provider.to_be_bytes());
        d.eat(&[p.ns_count]);
        d.eat(&p.apex_a.octets());
        d.flag(p.has_aaaa);
        d.eat(&[match p.www {
            WwwKind::ARecord => 0,
            WwwKind::CnameToApex => 1,
            WwwKind::Absent => 2,
        }]);
        d.flag(p.has_mx);
        d.flag(p.has_txt);
        d.flag(p.has_spf);
        d.flag(p.has_wildcard);
        d.eat(&(p.caa_records.len() as u32).to_be_bytes());
        for caa in &p.caa_records {
            d.eat(&[caa.flags, caa.tag.len() as u8]);
            d.eat(&caa.tag);
            d.eat(&caa.value);
        }
        d.flag(p.caa_via_cname);
        d.eat(&[p.lame_ns.map_or(0xFF, |i| i)]);
        d.flag(p.glueless);
        d.flag(p.inconsistent);
        match p.flaky {
            Some(f) => {
                d.eat(&[1, f.ns_index]);
                d.eat(&f.drop_prob.to_bits().to_be_bytes());
                d.flag(f.deep);
                rare.deep_flaky += usize::from(f.deep);
                rare.light_flaky += usize::from(!f.deep);
            }
            None => d.eat(&[0]),
        }
        let provider = u.providers().by_index(p.provider).expect("hosted");
        rare.inconsistent += usize::from(p.inconsistent && provider.consistent);
        rare.lame += usize::from(p.lame_ns.is_some());
        if let [r] = &p.caa_records[..] {
            rare.iodef_only += usize::from(r.value.starts_with(b"mailto:security@"));
            if r.tag == b"issuer" {
                match p.provider {
                    INVALID_REGISTRAR => rare.invalid_tag_at_registrar += 1,
                    _ => rare.invalid_tag_elsewhere += 1,
                }
            }
        }
        rare.caa_via_cname += usize::from(p.caa_via_cname && !p.caa_records.is_empty());
    }
    let mut x = seed ^ 0x5A5A_A5A5;
    for _ in 0..ADDRESSES {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let ip = Ipv4Addr::from((z ^ (z >> 31)) as u32);
        let [a, b, ..] = ip.octets();
        d.eat(&ip.octets());
        d.flag(u.ptr_exists(ip));
        d.flag(u.rdns16_delegates_deeper(a, b));
    }
    d.0
}

#[test]
fn every_profile_and_address_fact_matches_its_recorded_digest() {
    let mut rare = Rare::default();
    let digests: Vec<String> = [0x5DA5_2D45, 6, 8]
        .iter()
        .map(|&seed| format!("{:016x}", digest(seed, &mut rare)))
        .collect();
    println!("{rare:?}\n{digests:?}");
    let counts = [
        rare.deep_flaky,
        rare.light_flaky,
        rare.inconsistent,
        rare.lame,
        rare.iodef_only,
        rare.invalid_tag_at_registrar,
        rare.invalid_tag_elsewhere,
        rare.caa_via_cname,
    ];
    assert!(counts.iter().all(|&n| n > 0), "{rare:?}");
    assert_eq!(
        digests,
        ["2e354436383a2022", "f37d7fadbbbf4c69", "95569bdb770aedc8"]
    );
}
