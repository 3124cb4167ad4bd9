//! Everything the load generators derive from a name: the FNV hash that
//! fixes its answer address and its injected faults, the name families the
//! workloads use, and the deterministic serve traffic mix.
//!
//! All names live under `zbench.test`. The responder is stateless about
//! them: the answer to `NAME A` is [`answer_for`] of the name's hash, so a
//! workload can verify any answer without a table, and nothing the
//! program's simulator does can change the load.

use std::net::Ipv4Addr;

/// The suffix every bench name carries, in wire form.
pub const SUFFIX_WIRE: &[u8] = b"\x06zbench\x04test";

/// TTL on every answer: long enough that nothing expires within a run.
pub const ANSWER_TTL: u32 = 300;

/// FNV-1a over the lower-cased wire-form labels (length octets included,
/// root octet excluded), finished with a splitmix round so every bit range
/// is usable.
pub fn hash_wire(labels: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in labels {
        h ^= u64::from(b.to_ascii_lowercase());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// [`hash_wire`] of a dotted name.
pub fn hash_dotted(name: &str) -> u64 {
    let mut wire = Vec::with_capacity(name.len() + 1);
    for label in name.trim_end_matches('.').split('.') {
        wire.push(label.len() as u8);
        wire.extend_from_slice(label.as_bytes());
    }
    hash_wire(&wire)
}

/// The A record the responder returns for a name with this hash.
pub fn answer_for(hash: u64) -> Ipv4Addr {
    Ipv4Addr::new(10, (hash >> 16) as u8, (hash >> 8) as u8, hash as u8)
}

/// With faults on, one name in 200 loses its first UDP attempt.
pub fn loses_first_attempt(hash: u64) -> bool {
    (hash >> 24).is_multiple_of(200)
}

/// With faults on, one name in 500 is answered TC=1 over UDP.
pub fn truncates(hash: u64) -> bool {
    (hash >> 40).is_multiple_of(500)
}

/// First label prefixes: the responder counts queries for `d…` names, which
/// a resumed scan must never send.
pub const LIVE: char = 'n';
pub const DONE: char = 'd';

/// The `i`-th name of a family for one seed. The seed is part of the
/// label, so two seeds share no name (and no answer).
pub fn scan_name(family: char, seed: u64, i: u64) -> String {
    format!("{family}{i}s{seed:x}.zbench.test")
}

/// splitmix64: the harness's only random source.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Hot names in the serve mix.
pub const HOT_NAMES: u64 = 2_000;

/// One query of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixOp {
    /// A hot name exactly as warmed: a packet-cache hit.
    Exact { hot: u32 },
    /// A hot name in a 0x20 case pattern never sent before: packet miss,
    /// record hit, encode, packet fill. `mask` is never 0 (0 is the warmed
    /// spelling).
    Variant { hot: u32, mask: u32 },
    /// A name never sent before: forwarded upstream, then cached.
    Fresh { index: u32 },
}

/// The serve traffic mix: 85 % exact repeats, 10 % new case variants, 5 %
/// fresh names, drawn from one seeded stream so a seed fixes the whole
/// sequence.
pub struct MixGen {
    rng: SplitMix,
    variants: u32,
    fresh: u32,
}

impl MixGen {
    pub fn new(seed: u64) -> MixGen {
        MixGen {
            rng: SplitMix(seed ^ 0x6d69_7821),
            variants: 0,
            fresh: 0,
        }
    }

    pub fn next_op(&mut self) -> MixOp {
        let r = self.rng.next();
        match r % 100 {
            0..=84 => MixOp::Exact {
                hot: ((r >> 32) % HOT_NAMES) as u32,
            },
            85..=94 => {
                let k = self.variants;
                self.variants += 1;
                MixOp::Variant {
                    hot: k % HOT_NAMES as u32,
                    mask: 1 + k / HOT_NAMES as u32,
                }
            }
            _ => {
                let index = self.fresh;
                self.fresh += 1;
                MixOp::Fresh { index }
            }
        }
    }

    /// Fresh names drawn so far (what the server must have forwarded).
    pub fn fresh_drawn(&self) -> u32 {
        self.fresh
    }
}

/// The warmed spelling of hot name `hot`: lower case, with ten letters in
/// its first label so a variant mask has ten case bits to flip.
pub fn hot_label(seed: u64, hot: u32) -> String {
    format!("hotzbenchq{hot}s{seed:x}")
}

/// First label of fresh name `index`.
pub fn fresh_label(seed: u64, index: u32) -> String {
    format!("f{index}s{seed:x}")
}

/// Upper-case the `i`-th letter of `label` for every set bit `i` of `mask`
/// (0x20 encoding).
pub fn apply_case_mask(label: &mut [u8], mask: u32) {
    let mut bit = 0;
    for b in label.iter_mut().filter(|b| b.is_ascii_lowercase()) {
        if mask >> bit & 1 == 1 {
            *b = b.to_ascii_uppercase();
        }
        bit += 1;
        if bit == 32 {
            break;
        }
    }
}

/// Write an EDNS A query for `label.zbench.test` into `buf`; returns its
/// length. The bytes are what `zdns_wire::encode_query_into` produces for
/// RD=1 without a cookie (the unit tests hold the two equal).
pub fn write_query(buf: &mut [u8], id: u16, label: &[u8]) -> usize {
    buf[0..2].copy_from_slice(&id.to_be_bytes());
    // RD, one question, one additional (the OPT).
    buf[2..12].copy_from_slice(&[0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 1]);
    let mut at = 12;
    buf[at] = label.len() as u8;
    buf[at + 1..at + 1 + label.len()].copy_from_slice(label);
    at += 1 + label.len();
    buf[at..at + SUFFIX_WIRE.len()].copy_from_slice(SUFFIX_WIRE);
    at += SUFFIX_WIRE.len();
    // Root, QTYPE A, QCLASS IN, then OPT: root, type 41, payload 1232,
    // extended rcode/version/flags 0, no options.
    let tail = [0, 0, 1, 0, 1, 0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 0];
    buf[at..at + tail.len()].copy_from_slice(&tail);
    at + tail.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ignores_case_and_trailing_dot() {
        assert_eq!(
            hash_dotted("Abc.ZBENCH.test"),
            hash_dotted("abc.zbench.test.")
        );
        assert_ne!(
            hash_dotted("abc.zbench.test"),
            hash_dotted("abd.zbench.test")
        );
        assert_eq!(
            hash_dotted("ab.zbench.test"),
            hash_wire(b"\x02ab\x06zbench\x04test")
        );
    }

    #[test]
    fn fault_classes_hit_their_shares() {
        let n = 200_000u64;
        let hashes: Vec<u64> = (0..n)
            .map(|i| hash_dotted(&scan_name(LIVE, 7, i)))
            .collect();
        let lossy = hashes.iter().filter(|h| loses_first_attempt(**h)).count() as f64;
        let tc = hashes.iter().filter(|h| truncates(**h)).count() as f64;
        assert!((lossy / n as f64 - 1.0 / 200.0).abs() < 0.001, "{lossy}");
        assert!((tc / n as f64 - 1.0 / 500.0).abs() < 0.0005, "{tc}");
    }

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut g = MixGen::new(seed);
            (0..50_000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11), "same seed, same sequence");
        assert_ne!(a, draw(12));
        let share =
            |f: fn(&MixOp) -> bool| a.iter().filter(|op| f(op)).count() as f64 / a.len() as f64;
        assert!((share(|op| matches!(op, MixOp::Exact { .. })) - 0.85).abs() < 0.01);
        assert!((share(|op| matches!(op, MixOp::Variant { .. })) - 0.10).abs() < 0.01);
        assert!((share(|op| matches!(op, MixOp::Fresh { .. })) - 0.05).abs() < 0.01);
    }

    #[test]
    fn variants_and_fresh_names_never_repeat() {
        let mut g = MixGen::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200_000 {
            match g.next_op() {
                MixOp::Exact { hot } => assert!(u64::from(hot) < HOT_NAMES),
                op @ MixOp::Variant { mask, .. } => {
                    assert!(mask > 0 && mask < 1 << 10, "ten case bits suffice");
                    assert!(seen.insert(op));
                }
                op @ MixOp::Fresh { .. } => assert!(seen.insert(op)),
            }
        }
    }

    #[test]
    fn case_mask_flips_only_letters() {
        let mut label = hot_label(0xab, 17).into_bytes();
        let lower = label.clone();
        apply_case_mask(&mut label, 0b101);
        assert_eq!(&label[..3], b"HoT");
        assert_eq!(label.to_ascii_lowercase(), lower);
        assert!(lower.iter().filter(|b| b.is_ascii_lowercase()).count() >= 10);
    }

    #[test]
    fn hand_written_query_equals_the_wire_crate_encoding() {
        use zdns_wire::{encode_query_into, Question, RecordType, ScratchBuf};
        let label = hot_label(5, 42);
        let mut buf = [0u8; 512];
        let n = write_query(&mut buf, 0xbeef, label.as_bytes());
        let mut scratch = ScratchBuf::new();
        let q = Question::new(
            format!("{label}.zbench.test").parse().unwrap(),
            RecordType::A,
        );
        encode_query_into(&mut scratch, 0xbeef, &q, true, None).unwrap();
        assert_eq!(&buf[..n], scratch.message_bytes());
    }
}
