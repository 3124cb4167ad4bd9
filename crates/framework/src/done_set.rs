//! [`DoneSet`]: the names a resumed scan must not probe again.
//!
//! A scan killed at 50 M names resumes with 50 M names to remember for as
//! long as it runs, so the set is built to cost what the names cost: every
//! name once, back to back in one byte arena, behind an open-addressed
//! index of 8-byte slots at a load of 0.8 — the name's octets, a length
//! prefix (one octet below 128, LEB128 above) and at most 11 B of index
//! per name, against 71.5 B + the name for the `HashSet<String>` it
//! replaced. The set is exact: the index only finds candidates, a name is
//! in the set when its octets are in the arena, compared one for one (so
//! case matters, as it does in the input).
//!
//! Hashing is the workspace's FNV-1a + splitmix64 ([`h64`]), not SipHash:
//! the names are the operator's own input file, and a collision costs a
//! few more probes, never a wrong answer.

use zdns_zones::hashing::h64;

/// Low bits of a slot: an entry's arena offset plus one (0 = empty slot).
/// The bits above hold a tag from the name's hash, so a probe touches the
/// arena only for a name that very likely is the one asked for.
const OFFSET_BITS: u32 = 40;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// An exact set of strings, packed (see the module docs).
#[derive(Default)]
pub struct DoneSet {
    /// Every name once: LEB128 length, then the octets.
    arena: Vec<u8>,
    /// Open-addressed, linearly probed index into `arena`. Never full:
    /// [`DoneSet::insert`] grows it past a load of 7/8.
    slots: Vec<u64>,
    len: usize,
}

fn hash(name: &[u8]) -> u64 {
    h64(0, "done", name)
}

/// Index slots for `names` names: a load of 0.8, and always one to spare.
fn slots_for(names: usize) -> usize {
    names.saturating_add(names / 4).saturating_add(1)
}

impl DoneSet {
    /// Names in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no name.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `name` is in the set, octet for octet.
    pub fn contains(&self, name: &str) -> bool {
        !self.is_empty() && self.find(name.as_bytes(), hash(name.as_bytes())).is_ok()
    }

    /// Add `name`; `false` when it was there already.
    pub fn insert(&mut self, name: &str) -> bool {
        if (self.len + 1).saturating_mul(8) > self.slots.len().saturating_mul(7) {
            self.reindex(slots_for((self.len + 1).saturating_mul(2)));
        }
        let name = name.as_bytes();
        let hash = hash(name);
        let Err(free) = self.find(name, hash) else {
            return false;
        };
        let offset = self.arena.len() as u64;
        assert!(offset < OFFSET_MASK, "done-set arena beyond 1 TiB");
        let mut length = name.len();
        while length >= 0x80 {
            self.arena.push(length as u8 | 0x80);
            length >>= 7;
        }
        self.arena.push(length as u8);
        self.arena.extend_from_slice(name);
        self.slots[free] = tag(hash) | (offset + 1);
        self.len += 1;
        true
    }

    /// Make room for `names` names of about `name_len` octets, so a load
    /// that knows its size up front neither regrows the index nor copies
    /// the arena.
    pub(crate) fn reserve(&mut self, names: usize, name_len: usize) {
        if slots_for(names) > self.slots.len() {
            self.reindex(slots_for(names));
        }
        self.arena
            .reserve_exact(names.saturating_mul(name_len.saturating_add(2)));
    }

    /// Give back what a finished load over-reserved: the arena's spare
    /// capacity, and an index more than a tenth larger than its names need.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        let fit = if self.is_empty() {
            0
        } else {
            slots_for(self.len)
        };
        if self.slots.len() > fit + fit / 10 {
            self.reindex(fit);
        }
    }

    /// `Ok(slot)` holding `name`, or `Err(slot)`: the empty slot its probe
    /// sequence ends at. The index must have a slot to spare.
    fn find(&self, name: &[u8], hash: u64) -> Result<usize, usize> {
        let mut at = home(hash, self.slots.len());
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if slot & !OFFSET_MASK == tag(hash)
                && self.entry((slot & OFFSET_MASK) as usize - 1).0 == name
            {
                return Ok(at);
            }
            at = next_slot(at, self.slots.len());
        }
    }

    /// The name of the entry at `offset`, and where the next one starts.
    fn entry(&self, offset: usize) -> (&[u8], usize) {
        let mut at = offset;
        let (mut length, mut shift) = (0usize, 0);
        loop {
            let octet = self.arena[at];
            at += 1;
            length |= usize::from(octet & 0x7f) << shift;
            if octet < 0x80 {
                break;
            }
            shift += 7;
        }
        (&self.arena[at..at + length], at + length)
    }

    /// Rebuild the index with `slots` slots from the arena, which holds
    /// every name exactly once: no comparisons, one pass.
    fn reindex(&mut self, slots: usize) {
        debug_assert!(slots > self.len || self.is_empty());
        self.slots = vec![0; slots];
        let mut offset = 0;
        while offset < self.arena.len() {
            let (name, next) = self.entry(offset);
            let hash = hash(name);
            let mut at = home(hash, slots);
            while self.slots[at] != 0 {
                at = next_slot(at, slots);
            }
            self.slots[at] = tag(hash) | (offset as u64 + 1);
            offset = next;
        }
    }
}

/// Where a hash's probe sequence starts among `slots` slots (the high
/// bits decide; the tag takes the low ones).
fn home(hash: u64, slots: usize) -> usize {
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

/// The slot probed after `at`: the next one, wrapping.
fn next_slot(at: usize, slots: usize) -> usize {
    if at + 1 == slots {
        0
    } else {
        at + 1
    }
}

fn tag(hash: u64) -> u64 {
    hash << OFFSET_BITS
}

impl std::fmt::Debug for DoneSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoneSet")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl<S: AsRef<str>> FromIterator<S> for DoneSet {
    fn from_iter<I: IntoIterator<Item = S>>(names: I) -> DoneSet {
        let mut set = DoneSet::default();
        for name in names {
            set.insert(name.as_ref());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_exactly_what_was_inserted() {
        let mut set = DoneSet::default();
        assert!(set.is_empty() && !set.contains("") && !set.contains("a.test"));
        assert!(set.insert("a.test"));
        assert!(!set.insert("a.test"), "a second insert is not a new name");
        assert!(set.insert(""), "the empty name is a name");
        assert!(set.insert("A.test"), "case variants are distinct");
        let long = "x".repeat(20_000);
        assert!(set.insert(&long), "a length that needs three LEB128 octets");
        assert_eq!(set.len(), 4);
        for name in ["a.test", "", "A.test", long.as_str()] {
            assert!(set.contains(name), "{:?}", &name[..name.len().min(12)]);
        }
        assert!(!set.contains("a.tes") && !set.contains("a.test.") && !set.contains("b.test"));
        assert!(!set.contains(&long[1..]));
    }

    #[test]
    fn survives_growth_and_fitting() {
        let names: Vec<String> = (0..5_000).map(|i| format!("host{i}.grow.test")).collect();
        let mut set: DoneSet = names.iter().collect();
        assert_eq!(set.len(), names.len());
        set.shrink_to_fit();
        assert_eq!(set.slots.len(), slots_for(names.len()));
        assert!(names.iter().all(|n| set.contains(n)));
        assert!(!set.contains("host5000.grow.test"));
        // A reservation far too large is given back; one too small grows.
        let mut set = DoneSet::default();
        set.reserve(1_000_000, 16);
        names.iter().for_each(|n| assert!(set.insert(n)));
        set.shrink_to_fit();
        assert_eq!(set.slots.len(), slots_for(names.len()));
        assert_eq!(set.arena.capacity(), set.arena.len());
        let mut set = DoneSet::default();
        set.reserve(10, 16);
        names.iter().for_each(|n| assert!(set.insert(n)));
        assert!(names.iter().all(|n| set.contains(n)));
        // An emptied load holds nothing at all.
        let mut set = DoneSet::default();
        set.reserve(1_000, 16);
        set.shrink_to_fit();
        assert_eq!((set.slots.capacity(), set.arena.capacity()), (0, 0));
    }
}
