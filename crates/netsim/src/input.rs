//! Streaming scan input.
//!
//! Every execution mode drains its names through one [`InputSource`]:
//! the discrete-event engine ([`crate::Engine::run_names`]), the
//! real-socket scan pipeline in `zdns-framework`, and anything a test
//! wants to hand-roll. The trait is deliberately tiny — *pull one name*
//! — so inputs stay streaming end to end: a 234M-name CT corpus is a
//! generator, a file is a line iterator, and neither is ever
//! materialized into a `Vec`.
//!
//! [`ShardedSource`] layers deterministic horizontal partitioning on
//! top: shard `i` of `n` keeps exactly the names whose stable hash
//! lands in its bucket ([`shard_of`]), so `n` processes (or machines)
//! each streaming the *same* underlying source between them cover every
//! name exactly once — no coordination, no shared state, no input
//! pre-splitting.

use zdns_zones::hashing::{fnv1a, FNV_OFFSET};

/// A streaming source of scan inputs (one name per pull).
pub trait InputSource {
    /// The next input, or `None` when the source is exhausted (for
    /// good — sources are not restartable).
    fn next_name(&mut self) -> Option<String>;

    /// How many names this source expects to yield in total, when known
    /// up front (generators know; stdin does not). Advisory, for
    /// progress reporting only.
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

/// Any string iterator is an input source, so `Vec::into_iter()`,
/// line-reader chains, and corpus generators all plug in directly.
impl<T: Iterator<Item = String>> InputSource for T {
    fn next_name(&mut self) -> Option<String> {
        self.next()
    }

    fn size_hint(&self) -> Option<u64> {
        let (lo, hi) = Iterator::size_hint(self);
        hi.filter(|hi| *hi == lo).map(|n| n as u64)
    }
}

/// Boxed trait objects pass through, so wrappers like [`ShardedSource`]
/// can stack over an already-erased `Box<dyn InputSource>`.
impl InputSource for Box<dyn InputSource + '_> {
    fn next_name(&mut self) -> Option<String> {
        (**self).next_name()
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }
}

/// Which shard of `count` owns `name`.
///
/// The assignment is a pure function of the name bytes and the shard
/// count — stable across processes, machines, and runs — so shard
/// membership can be recomputed anywhere (a resumed shard re-derives
/// exactly the subset it owned before the restart). FNV-1a over the
/// raw bytes; names that differ only in ASCII case are treated as the
/// same DNS name and land on the same shard.
pub fn shard_of(name: &str, count: u32) -> u32 {
    let lower = name.bytes().map(|b| b.to_ascii_lowercase());
    (fnv1a(FNV_OFFSET, lower) % count.max(1) as u64) as u32
}

/// A deterministic `i`-of-`n` partition over any [`InputSource`]: pulls
/// the inner source and yields only the names [`shard_of`] assigns to
/// shard `index`. Every shard streams the same underlying input (same
/// file, same generator seed); the hash filter is what divides the work.
pub struct ShardedSource<S> {
    inner: S,
    index: u32,
    count: u32,
}

impl<S: InputSource> ShardedSource<S> {
    /// Shard `index` (0-based) of `count` over `inner`.
    ///
    /// # Panics
    ///
    /// If `index >= count` or `count == 0` — a partition that could
    /// silently yield nothing (or everything) is a configuration error.
    pub fn new(inner: S, index: u32, count: u32) -> ShardedSource<S> {
        assert!(count >= 1, "shard count must be >= 1");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardedSource {
            inner,
            index,
            count,
        }
    }
}

impl<S: InputSource> InputSource for ShardedSource<S> {
    fn next_name(&mut self) -> Option<String> {
        loop {
            let name = self.inner.next_name()?;
            if shard_of(&name, self.count) == self.index {
                return Some(name);
            }
        }
    }

    fn size_hint(&self) -> Option<u64> {
        // The filter keeps ~1/count of the input, but the exact figure
        // depends on the names; a sharded source's total is unknown.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterators_are_sources() {
        let mut source: Box<dyn InputSource> =
            Box::new(vec!["a.test".to_string(), "b.test".to_string()].into_iter());
        assert_eq!(source.size_hint(), Some(2));
        assert_eq!(source.next_name().as_deref(), Some("a.test"));
        assert_eq!(source.next_name().as_deref(), Some("b.test"));
        assert_eq!(source.next_name(), None);
    }

    #[test]
    fn unbounded_iterators_have_no_hint() {
        let source = std::iter::repeat_with(|| "x.test".to_string());
        assert_eq!(InputSource::size_hint(&source), None);
    }

    #[test]
    fn shards_partition_disjointly_and_exhaustively() {
        let names: Vec<String> = (0..500).map(|i| format!("name{i}.example.test")).collect();
        for count in [1u32, 2, 3, 7] {
            let mut seen = std::collections::HashMap::new();
            for index in 0..count {
                let mut shard = ShardedSource::new(names.clone().into_iter(), index, count);
                while let Some(name) = shard.next_name() {
                    assert!(
                        seen.insert(name.clone(), index).is_none(),
                        "{name} emitted by two shards of {count}"
                    );
                }
            }
            assert_eq!(seen.len(), names.len(), "shards of {count} must cover all");
        }
    }

    #[test]
    fn shard_assignment_is_deterministic_and_case_insensitive() {
        assert_eq!(shard_of("example.com", 8), shard_of("example.com", 8));
        assert_eq!(shard_of("EXAMPLE.com", 8), shard_of("example.COM", 8));
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        let _ = ShardedSource::new(std::iter::empty::<String>(), 2, 2);
    }
}
