//! Deterministic hashing for procedural content generation.
//!
//! The synthetic Internet derives every fact (does this domain exist? which
//! provider hosts it? does it publish CAA?) from a stable hash of
//! `(seed, facet, subject)`. Two components that ask the same question get
//! the same answer without sharing state, which is what keeps a
//! billions-of-names namespace representable in zero memory.

/// FNV-1a's offset basis: the state before any byte is folded in.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a: `bytes` folded into the state `h` (start from [`FNV_OFFSET`]).
/// The workspace's one copy: [`h64`], the core's `HostHasher` (cache
/// shards, pacer stripes) and the simulator's input sharding read it.
pub fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    (bytes.into_iter()).fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// A 64-bit stable hash (FNV-1a core with a splitmix64 finisher for good
/// avalanche behaviour on short inputs).
pub fn h64(seed: u64, facet: &str, subject: &[u8]) -> u64 {
    h64_joined(seed, facet, subject, &[])
}

/// [`h64`] of `subject` followed by `tail`, without joining them first.
pub fn h64_joined(seed: u64, facet: &str, subject: &[u8], tail: &[u8]) -> u64 {
    let h = fnv1a(FNV_OFFSET ^ seed, facet.bytes().chain([0xff]));
    splitmix64(fnv1a(h, subject.iter().chain(tail).copied()))
}

/// splitmix64 finisher.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from a hash.
pub fn unit(h: u64) -> f64 {
    // 53 mantissa bits of uniformity.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Bernoulli draw: true with probability `p`.
pub fn chance(seed: u64, facet: &str, subject: &[u8], p: f64) -> bool {
    unit(h64(seed, facet, subject)) < p
}

/// Uniform integer in `[0, n)`.
pub fn pick(seed: u64, facet: &str, subject: &[u8], n: usize) -> usize {
    debug_assert!(n > 0);
    (h64(seed, facet, subject) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(h64(1, "x", b"abc"), h64(1, "x", b"abc"));
        assert_ne!(h64(1, "x", b"abc"), h64(2, "x", b"abc"));
        assert_ne!(h64(1, "x", b"abc"), h64(1, "y", b"abc"));
        assert_ne!(h64(1, "x", b"abc"), h64(1, "x", b"abd"));
    }

    #[test]
    fn fnv1a_is_the_published_function() {
        // FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, *b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_OFFSET, *b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, *b"foobar"), 0x85944171f73967e8);
        // Folding in pieces is folding the whole.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, *b"foo"), *b"bar"),
            0x85944171f73967e8
        );
    }

    #[test]
    fn unit_in_range() {
        for i in 0..1000u64 {
            let u = unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let p = 0.3;
        let hits = (0..20_000i32)
            .filter(|i| chance(42, "t", &i.to_le_bytes(), p))
            .count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - p).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn pick_covers_range() {
        let mut seen = [false; 7];
        for i in 0..1000u32 {
            seen[pick(7, "p", &i.to_le_bytes(), 7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
