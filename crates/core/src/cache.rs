//! The selective infrastructure cache (§3.4 "Selective Caching").
//!
//! ZDNS caches **only NS records and glue addresses** so iterative walks can
//! skip the root/TLD layers, but never caches answers for the leaf names
//! being scanned — a measurement tool queries mostly unique names, and
//! caching them would only thrash the structures that matter.
//!
//! The cache is a sharded, TTL-aware LRU. Shards keep lock hold times short
//! when tens of thousands of lookup routines share one resolver; eviction
//! and expiry are exact so Figure 2's cache-size sweep measures the policy,
//! not implementation noise.
//!
//! A probe hashes its name once (case-folded FNV-1a + splitmix64); the
//! value picks the shard and its home slot in the shard's probe table. A
//! shard is a dense table of entries, an open-addressed table of `u32`
//! slots over it (a table position and a tag from the hash, so a probe
//! reads an entry only when the tags match), and an exact recency order
//! kept as a doubly linked list threaded through the table by position —
//! a hit re-links two neighbours instead of allocating.
//!
//! What an entry holds is one shared block of bytes, [`CachedRecords`]:
//! the expiry, the key, and the records laid out the way a DNS message
//! carries them, encoded once when they are stored and read back through
//! the wire crate's borrowed views. A cached name costs about what the
//! wire spent on it (an `A` RRset: a 32-byte table entry, one or two
//! 4-byte slots and a block of ~60 bytes) instead of an owned `Record` per
//! record and an owned `Name` per key; a hit hands out the block by
//! reference count.
//!
//! A delegation is one entry. The NS entry a referral writes
//! ([`Cache::put_delegation`]) ends in a tail of 4 octets per NS record:
//! the first in-bailiwick `A` glue address the same referral carried for
//! that record's host, or `0.0.0.0` for none. A bit in the head marks the
//! tail, and the entry expires with the earliest TTL among its records
//! and the glue it carries, so a walk that starts at a cached cut finds
//! the cut's delivered addresses in the entry that named the cut, whatever
//! happened to the separate glue entries since. Those are still written,
//! because glueless referrals elsewhere read them; every reader but the
//! walk start ([`Cache::cut_addresses`]) sees only the records.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use zdns_wire::{Name, NameRef, RData, Record, RecordType, RecordView, RecordViews, ScratchBuf};

use crate::cut_memo::CutMemo;
use crate::pacer::HostHasher;
use crate::packet_cache::PacketCache;
use zdns_netsim::{SimTime, SECONDS};

/// Cache key: owner name + record type (class is always IN here).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Owner name, case-normalized by `Name`'s hash/eq.
    pub name: Name,
    /// Record type (NS, A, or AAAA under the selective policy).
    pub rtype: RecordType,
}

/// The one hash of a probe, shared by this cache and the packet cache in
/// front of it: the workspace's FNV-1a + splitmix64 ([`HostHasher`]) over
/// the case-folded name and the type. Here bits 32..38 pick the shard,
/// the low bits the home slot in its probe table and the bits above the
/// table's position bits a slot's tag, so a probe reads its name once;
/// the serve path computes it once per query for both caches. The price
/// next to SipHash is the pacer's: no keyed collision resistance. What a
/// colliding referral can buy is bounded — same-hash keys share a probe
/// run and are told apart by full key comparisons, inside one shard's
/// capacity — and the hash the shards were routed by before was SipHash
/// with a fixed zero key, which resisted nothing either.
pub(crate) fn key_hash(name: &Name, rtype: RecordType) -> u64 {
    let mut h = HostHasher::default();
    name.hash(&mut h);
    h.write_u16(rtype.to_u16());
    h.finish()
}

// Layout of a cached block, big-endian like everything the wire crate
// writes: a fixed head, the key name, then the records.
/// Absolute expiry, `u64`.
const EXPIRES_AT: usize = 0;
/// Number of records, `u16`, with [`TAIL`] set when a delegation tail
/// follows them.
const COUNT_AT: usize = 8;
/// Marks a block that ends in one glue address per record (a count cannot
/// reach it: no 64 KiB message carries 32 768 records).
const TAIL: u16 = 0x8000;
/// The key's record type, `u16`.
const RTYPE_AT: usize = 10;
/// The key name, uncompressed; the records follow its root octet. A DNS
/// message keeps its question name at this offset too (behind the
/// 12-octet header), so a pointer to the key is, as it stands, a pointer
/// to the question of a response about the key
/// ([`CachedRecords::encode_answers`]).
const NAME_AT: usize = 12;
/// An owner name stored as a compression pointer to the key.
const KEY_POINTER: [u8; 2] = (0xC000 | NAME_AT as u16).to_be_bytes();

/// The glue record a delegation's referral delivered for an NS host.
type DeliveredGlue<'a, 'r> = &'a dyn Fn(&Name) -> Option<&'r Record>;

thread_local! {
    /// Where [`Cache::put`] assembles a block before copying it into its
    /// shared allocation: per thread, so stores on different threads never
    /// wait for each other and a store allocates the block and nothing else.
    static ENCODE: RefCell<ScratchBuf> = RefCell::new(ScratchBuf::new());
}

/// One cached answer section — usually one RRset, for a served CNAME
/// chain every record of the answer under the question's key — as a
/// single shared block: expiry, record count and key, then each record as
/// a DNS message carries it (owner, TYPE, CLASS, TTL, RDLENGTH, RDATA).
/// An owner spelled exactly like the (non-root) key is a compression
/// pointer to it; any other owner is written out, so every name reads
/// back in the case it was stored in. Cloning bumps a reference count.
#[derive(Clone)]
pub struct CachedRecords {
    block: Arc<[u8]>,
}

impl CachedRecords {
    /// Encode `records` under `key` into `scratch` and copy the result
    /// into a block of its own. With `glue`, the block is a delegation
    /// whose tail holds the address of the `A` record `glue` returns for
    /// each NS record's host ([`Cache::put_delegation`]). `None` for what
    /// the cache refuses: no records, a zero TTL among them, or a section
    /// no 64 KiB DNS message could have carried.
    fn encode<'r>(
        key: &CacheKey,
        records: impl Iterator<Item = &'r Record> + Clone,
        glue: Option<DeliveredGlue<'_, 'r>>,
        now: SimTime,
        scratch: &mut ScratchBuf,
    ) -> Option<CachedRecords> {
        scratch.reset();
        // Expiry and count are known once the records have been walked.
        let mut head = [0u8; NAME_AT];
        head[RTYPE_AT..].copy_from_slice(&key.rtype.to_u16().to_be_bytes());
        scratch.write_bytes(&head).ok()?;
        scratch.write_name_uncompressed(&key.name).ok()?;
        let mut count = 0u16;
        let mut min_ttl = u32::MAX;
        for record in records.clone() {
            // The root is shorter written out than pointed at, and a
            // message encoder would write it out.
            if !key.name.is_root() && record.name.eq_exact_case(&key.name) {
                scratch.write_bytes(&KEY_POINTER).ok()?;
            } else {
                scratch.write_name_uncompressed(&record.name).ok()?;
            }
            record.encode_body(scratch).ok()?;
            count = count.checked_add(1)?;
            min_ttl = min_ttl.min(record.ttl);
        }
        if count == 0 || min_ttl == 0 {
            return None;
        }
        if let Some(glue) = glue {
            for record in records {
                let delivered = match &record.rdata {
                    RData::Ns(host) => glue(host).and_then(|g| match g.rdata {
                        RData::A(addr) if g.ttl > 0 => Some((addr, g.ttl)),
                        _ => None,
                    }),
                    _ => None,
                };
                let (addr, ttl) = delivered.unwrap_or((Ipv4Addr::UNSPECIFIED, u32::MAX));
                min_ttl = min_ttl.min(ttl);
                scratch.write_bytes(&addr.octets()).ok()?;
            }
            count |= TAIL;
        }
        let expires = now + u64::from(min_ttl) * SECONDS;
        scratch.patch_bytes(EXPIRES_AT, &expires.to_be_bytes());
        scratch.patch_u16(COUNT_AT, count);
        Some(CachedRecords {
            block: scratch.as_slice().into(),
        })
    }

    fn count_field(&self) -> u16 {
        u16::from_be_bytes([self.block[COUNT_AT], self.block[COUNT_AT + 1]])
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        (self.count_field() & !TAIL) as usize
    }

    /// Never true of a stored section: the cache refuses empty ones.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absolute expiry: store time plus the smallest TTL among the records.
    pub fn expires(&self) -> SimTime {
        let head = self.block[EXPIRES_AT..EXPIRES_AT + 8].try_into();
        SimTime::from_be_bytes(head.expect("a block starts with its eight expiry octets"))
    }

    fn key_name(&self) -> NameRef<'_> {
        NameRef::at(&self.block, NAME_AT)
    }

    /// Whether both handles share one stored block: the same records,
    /// stored by the same `put`.
    pub(crate) fn same_block(&self, other: &CachedRecords) -> bool {
        Arc::ptr_eq(&self.block, &other.block)
    }

    /// Whether this section is stored under `(name, rtype)`; names compare
    /// case-insensitively, like the hash that led here.
    fn is_for(&self, name: &Name, rtype: RecordType) -> bool {
        u16::from_be_bytes([self.block[RTYPE_AT], self.block[RTYPE_AT + 1]]) == rtype.to_u16()
            && self.key_name().eq_name(name)
    }

    /// The records in stored order, borrowed from the block: inspect them
    /// in place ([`RecordView::a_addr`], [`RecordView::target_name`]) or
    /// promote the ones worth keeping ([`RecordView::to_record`]).
    pub fn iter(&self) -> RecordViews<'_> {
        let key_len = self.key_name().wire_bytes().map_or(0, <[u8]>::len);
        RecordViews::over(&self.block, NAME_AT + key_len, self.len() as u16)
    }

    /// The glue address the delegation's referral carried for each record,
    /// in stored order and `None` where it carried none; then, and for a
    /// block stored without a tail, `None` without end.
    pub(crate) fn delivered_glue(&self) -> impl Iterator<Item = Option<Ipv4Addr>> + '_ {
        let tail_len = 4 * self.len() * usize::from(self.count_field() & TAIL != 0);
        let tail = self.block[self.block.len() - tail_len..].chunks_exact(4);
        tail.map(|o| Some(Ipv4Addr::new(o[0], o[1], o[2], o[3])).filter(|a| !a.is_unspecified()))
            .chain(std::iter::repeat(None))
    }

    /// Every record, promoted to an owned [`Record`].
    pub fn to_vec(&self) -> Vec<Record> {
        self.iter().filter_map(|r| r.to_record().ok()).collect()
    }

    /// Append the records, as its answer section, to the response being
    /// assembled in `scratch`, which must already hold its header and a
    /// question whose name is this section's key, in any spelling. A
    /// record stored behind a pointer to the key is copied as it stands:
    /// the pointer leads to the question now, which is what compressing
    /// its owner would have found. Any other owner is compressed against
    /// the message; what follows an owner means the same at any offset
    /// ([`Record::encode_body`]). The octets are those of encoding the
    /// owned records one by one.
    pub(crate) fn encode_answers(&self, scratch: &mut ScratchBuf) {
        // Writes into a growable scratch cannot fail below the 64 KiB
        // message cap, which the block itself is under.
        for record in self {
            let stored = record.wire_bytes();
            if stored.starts_with(&KEY_POINTER) {
                let _ = scratch.write_bytes(stored);
            } else {
                let _ = scratch.write_name(&record.name().to_name());
                let _ = scratch.write_bytes(record.body_bytes());
            }
        }
    }
}

impl<'a> IntoIterator for &'a CachedRecords {
    type Item = RecordView<'a>;
    type IntoIter = RecordViews<'a>;

    fn into_iter(self) -> RecordViews<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for CachedRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedRecords")
            .field("expires", &self.expires())
            .field("records", &self.to_vec())
            .finish()
    }
}

/// "No entry" in the recency links below.
const NIL: u32 = u32::MAX;

/// Slots of a shard's first probe table.
const MIN_SLOTS: usize = 8;

/// Most slots a shard's probe table grows to. A slot keeps a position in
/// as many low bits as the table has (the table is never full, so
/// position + 1 fits) and a tag in the rest: one bit at this size.
const MAX_SLOTS: usize = 1 << 31;

/// Most entries one shard holds: the largest probe table at a load of 7/8.
const MAX_SHARD_ENTRIES: usize = MAX_SLOTS / 8 * 7;

/// Largest capacity [`Cache::new`] honours: every shard's bound, plus the
/// entry a store holds for a moment before it evicts, stays within what a
/// shard's probe table addresses.
pub const MAX_CACHE_CAPACITY: usize = SHARDS * (MAX_SHARD_ENTRIES - 1);

/// Where `hash`'s probe sequence starts in a table of `mask + 1` slots:
/// its low bits, away from the bits that picked the shard.
fn home(hash: u64, mask: usize) -> usize {
    hash as usize & mask
}

/// `hash`'s tag in a table of `mask + 1` slots: its top bits, in the
/// slot bits the position leaves free.
fn tag(hash: u64, mask: usize) -> u32 {
    (hash >> 32) as u32 & !(mask as u32)
}

/// One cached section, living in its shard's dense entry table and linked
/// by table index into the shard-wide recency list. The key and the
/// expiry are in the block, next to the records; the hash stays here for
/// a probe whose tag matched, a growth and a deletion's shift.
struct Entry {
    records: CachedRecords,
    hash: u64,
    /// Neighbours in recency order (`older` is evicted sooner).
    older: u32,
    newer: u32,
}

/// One shard: a dense entry table, a probe table over it, and the two
/// ends of the exact LRU order. Nothing is sized up front; both tables
/// grow with the entries they hold.
struct Shard {
    entries: Vec<Entry>,
    /// Open-addressed and linearly probed; empty or a power of two long,
    /// and at most 7/8 full. A slot is 0 (empty) or an entry's position + 1
    /// in the bits below the table's length, under its hash's [`tag`].
    slots: Vec<u32>,
    oldest: u32,
    newest: u32,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            entries: Vec::new(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// The position bits of a slot, for a non-empty probe table.
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Table index of the entry for `(name, rtype)`, whose hash is `hash`.
    fn find(&self, hash: u64, name: &Name, rtype: RecordType) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let tag = tag(hash, mask);
        let mut at = home(hash, mask);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            if slot & !(mask as u32) == tag {
                let pos = (slot & mask as u32) - 1;
                let entry = &self.entries[pos as usize];
                if entry.hash == hash && entry.records.is_for(name, rtype) {
                    return Some(pos);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot that holds position `pos`, an entry whose hash is `hash`.
    fn slot_of(&self, hash: u64, pos: u32) -> usize {
        let mask = self.mask();
        let mut at = home(hash, mask);
        while self.slots[at] & mask as u32 != pos + 1 {
            at = (at + 1) & mask;
        }
        at
    }

    /// Give entry `pos` the first empty slot of its probe sequence.
    fn place(&mut self, pos: u32) {
        let mask = self.mask();
        let hash = self.entries[pos as usize].hash;
        let mut at = home(hash, mask);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = tag(hash, mask) | (pos + 1);
    }

    /// Double the probe table (or make the first one) and place every
    /// entry again.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        assert!(
            slots <= MAX_SLOTS,
            "a cache shard beyond {MAX_SHARD_ENTRIES} entries"
        );
        self.slots = vec![0; slots];
        for pos in 0..self.entries.len() as u32 {
            self.place(pos);
        }
    }

    /// Empty slot `hole` by backward shift, so no probe sequence is cut
    /// short and no tombstone is left: each later slot of the run moves
    /// back into the hole unless its home lies cyclically in
    /// `(hole, at]`, and the hole moves on to where it was. A slot that
    /// stays is written back where it is, so the loop does not branch on
    /// where each home lies.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut at = (hole + 1) & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                break;
            }
            let hash = self.entries[(slot & mask as u32) as usize - 1].hash;
            let stays = at.wrapping_sub(home(hash, mask)) & mask < at.wrapping_sub(hole) & mask;
            let to = if stays { at } else { hole };
            self.slots[to] = slot;
            hole = if stays { hole } else { at };
            at = (at + 1) & mask;
        }
        self.slots[hole] = 0;
    }

    /// Take `at` out of the recency list.
    fn unlink_recency(&mut self, at: u32) {
        let (older, newer) = {
            let entry = &self.entries[at as usize];
            (entry.older, entry.newer)
        };
        match older {
            NIL => self.oldest = newer,
            o => self.entries[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.entries[n as usize].older = older,
        }
    }

    /// Make `at` (currently unlinked) the most recently used entry.
    fn push_newest(&mut self, at: u32) {
        let newest = self.newest;
        let entry = &mut self.entries[at as usize];
        entry.older = newest;
        entry.newer = NIL;
        match newest {
            NIL => self.oldest = at,
            n => self.entries[n as usize].newer = at,
        }
        self.newest = at;
    }

    /// Refresh `at`'s recency.
    fn touch(&mut self, at: u32) {
        if self.newest != at {
            self.unlink_recency(at);
            self.push_newest(at);
        }
    }

    /// Store a new entry, whose key the shard does not hold, as the most
    /// recently used one.
    fn insert(&mut self, hash: u64, records: CachedRecords) {
        let at = self.entries.len() as u32;
        if (self.entries.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        self.entries.push(Entry {
            records,
            hash,
            older: NIL,
            newer: NIL,
        });
        self.place(at);
        self.push_newest(at);
    }

    /// Remove entry `at`, keeping the table dense: the last entry moves
    /// into the hole and everything that pointed at it is re-pointed.
    fn remove(&mut self, at: u32) {
        self.unlink_recency(at);
        let slot = self.slot_of(self.entries[at as usize].hash, at);
        self.vacate(slot);
        self.entries.swap_remove(at as usize);
        let moved_from = self.entries.len() as u32;
        if at == moved_from {
            return;
        }
        let (hash, older, newer) = {
            let moved = &self.entries[at as usize];
            (moved.hash, moved.older, moved.newer)
        };
        let slot = self.slot_of(hash, moved_from);
        self.slots[slot] = tag(hash, self.mask()) | (at + 1);
        match older {
            NIL => self.oldest = at,
            o => self.entries[o as usize].newer = at,
        }
        match newer {
            NIL => self.newest = at,
            n => self.entries[n as usize].older = at,
        }
    }
}

/// Counters exposed for Figure 2's hit-rate series.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookup calls that found a live entry.
    pub hits: AtomicU64,
    /// Lookup calls that missed (absent or expired).
    pub misses: AtomicU64,
    /// Entries evicted by the LRU bound.
    pub evictions: AtomicU64,
}

impl CacheStats {
    /// Hit fraction so far.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The sharded selective cache.
pub struct Cache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry counts, maintained at every insert/remove so
    /// [`Cache::len`] (telemetry, status lines) never sweeps the locks.
    counts: Vec<AtomicUsize>,
    per_shard_capacity: usize,
    /// The serve-path packet cache riding in front of this record cache,
    /// installed once per fleet ([`Cache::attach_packet_cache`]). Living
    /// here means [`Cache::put`] can invalidate memoized answers whenever
    /// it promotes a fresher RRset, with no extra plumbing through the
    /// resolver or the reactor.
    packet: OnceLock<Arc<PacketCache>>,
    /// The decoded delegations of cached cuts ([`Cache::cut_addresses`]).
    cuts: CutMemo,
    /// Shared counters.
    pub stats: CacheStats,
    /// Admitted `put` calls, for unit tests that count writes.
    #[cfg(test)]
    pub(crate) puts: AtomicU64,
}

/// Number of shards; power of two for cheap masking.
const SHARDS: usize = 64;

impl Cache {
    /// Build a cache bounded to roughly `capacity` total entries, and to
    /// at most [`MAX_CACHE_CAPACITY`].
    pub fn new(capacity: usize) -> Cache {
        let per_shard_capacity = (capacity / SHARDS).clamp(1, MAX_SHARD_ENTRIES - 1);
        Cache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            counts: (0..SHARDS).map(|_| AtomicUsize::new(0)).collect(),
            per_shard_capacity,
            packet: OnceLock::new(),
            cuts: CutMemo::new(),
            stats: CacheStats::default(),
            #[cfg(test)]
            puts: AtomicU64::new(0),
        }
    }

    /// Install (idempotently) the shared packet cache for this record
    /// cache and return it. Every serve worker of a fleet calls this with
    /// the same capacity; the first call wins, so they all share one
    /// table and one invalidation hook.
    pub fn attach_packet_cache(&self, capacity: usize) -> Arc<PacketCache> {
        Arc::clone(
            self.packet
                .get_or_init(|| Arc::new(PacketCache::new(capacity))),
        )
    }

    /// The attached packet cache, if any worker installed one.
    pub fn packet_cache(&self) -> Option<&Arc<PacketCache>> {
        self.packet.get()
    }

    /// Total capacity (approximate: per-shard bound × shards).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARDS
    }

    /// Current entry count across shards — summed from relaxed per-shard
    /// counters, so telemetry reads (status lines, tests) never sweep all
    /// 64 shard locks.
    pub fn len(&self) -> usize {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard `key` routes to. The hash is case-insensitive and
    /// allocation-free, so case-variant spellings of one name always land
    /// on the same shard without building a lowercased key — exposed so
    /// tests can pin that property down.
    pub fn shard_index(&self, key: &CacheKey) -> usize {
        Self::shard_of(key_hash(&key.name, key.rtype))
    }

    /// Shard choice from the middle of the hash: the shard's probe table
    /// takes home slots from the low bits and tags from the top ones, and
    /// bits that are constant within a shard would waste either.
    fn shard_of(hash: u64) -> usize {
        (hash >> 32) as usize & (SHARDS - 1)
    }

    /// The selective policy: only infrastructure RRsets are admitted.
    pub fn admits(rtype: RecordType) -> bool {
        rtype.is_infrastructure()
    }

    /// Store an answer section under `key`, replacing what the key held.
    /// Non-infrastructure types are silently refused — that is the point
    /// of the policy — and so are an empty section and a zero TTL. The
    /// records are only read: they are encoded into the entry's block
    /// ([`CachedRecords`]) and the caller keeps (or drops) its own.
    pub fn put(&self, key: CacheKey, records: impl AsRef<[Record]>, now: SimTime) {
        self.put_records(&key, records.as_ref().iter(), None, now);
    }

    /// Store a referral's delegation of `cut` as one entry: the NS
    /// records, then, for each, the address of the `A` glue record `glue`
    /// returns for its host (the first in-bailiwick one the referral
    /// carried). The entry expires with the earliest TTL among the records
    /// and that glue.
    pub fn put_delegation<'r>(
        &self,
        cut: &Name,
        ns: &'r [Record],
        glue: impl Fn(&Name) -> Option<&'r Record>,
        now: SimTime,
    ) {
        let key = CacheKey {
            name: cut.clone(),
            rtype: RecordType::NS,
        };
        self.put_records(&key, ns.iter(), Some(&glue), now);
    }

    /// [`Cache::put`] for records that are not one slice — a referral's
    /// glue RRset picked out of its additional section — or, with `glue`,
    /// for a delegation ([`Cache::put_delegation`]).
    pub(crate) fn put_records<'r>(
        &self,
        key: &CacheKey,
        records: impl Iterator<Item = &'r Record> + Clone,
        glue: Option<DeliveredGlue<'_, 'r>>,
        now: SimTime,
    ) {
        if !Self::admits(key.rtype) {
            return;
        }
        let encoded = ENCODE.with(|scratch| {
            CachedRecords::encode(key, records, glue, now, &mut scratch.borrow_mut())
        });
        let Some(records) = encoded else {
            return;
        };
        #[cfg(test)]
        self.puts.fetch_add(1, Ordering::Relaxed);
        let hash = key_hash(&key.name, key.rtype);
        let idx = Self::shard_of(hash);
        {
            let mut shard = self.shards[idx].lock();
            match shard.find(hash, &key.name, key.rtype) {
                Some(at) => {
                    shard.entries[at as usize].records = records;
                    shard.touch(at);
                }
                None => {
                    shard.insert(hash, records);
                    self.counts[idx].fetch_add(1, Ordering::Relaxed);
                }
            }
            // Evict beyond capacity.
            while shard.entries.len() > self.per_shard_capacity {
                let victim = shard.oldest;
                shard.remove(victim);
                self.counts[idx].fetch_sub(1, Ordering::Relaxed);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Promote, *then* invalidate (outside the shard lock): a reader
        // racing between the two can only memoize the fresh RRset, and a
        // fresh entry dropped by this invalidation just refills on the
        // next query. The reverse order could leave a stale packet entry
        // memoized from the old records.
        if let Some(pc) = self.packet.get() {
            pc.invalidate_hashed(hash, &key.name, key.rtype);
        }
    }

    /// Look up a live section, refreshing its LRU position. A hit shares
    /// the stored block (one reference-count bump, no copy); readers that
    /// can work under the shard lock and must not refresh recency use
    /// [`Cache::with_records`] instead.
    pub fn get(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<CachedRecords> {
        let found = self.probe(name, rtype, now);
        if found.is_some() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The live entry for `(name, rtype)` — whose [`key_hash`] is `hash`
    /// — in its locked shard, dropping it on the spot when it has expired:
    /// the one read path under [`Cache::get`], [`Cache::deepest_cut`] and
    /// [`Cache::with_records`]. Touches neither the hit/miss counters nor
    /// the entry's recency.
    fn live_entry(
        &self,
        hash: u64,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
    ) -> Option<(parking_lot::MutexGuard<'_, Shard>, u32)> {
        let idx = Self::shard_of(hash);
        let mut shard = self.shards[idx].lock();
        let at = shard.find(hash, name, rtype)?;
        if shard.entries[at as usize].records.expires() > now {
            return Some((shard, at));
        }
        shard.remove(at);
        self.counts[idx].fetch_sub(1, Ordering::Relaxed);
        None
    }

    /// [`Cache::get`] without touching the hit/miss counters (LRU refresh
    /// and expiry still apply) — for multi-probe operations that must
    /// count as one logical lookup.
    fn probe(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<CachedRecords> {
        let (mut shard, at) = self.live_entry(key_hash(name, rtype), name, rtype, now)?;
        shard.touch(at);
        Some(shard.entries[at as usize].records.clone())
    }

    /// Run `f` over a live section in place — the serve path's cache hit,
    /// which answers from borrowed data under the shard lock. Counts one
    /// hit or miss like `get`, and drops expired entries the same way,
    /// but deliberately skips the LRU refresh. Re-linking an entry is
    /// free now (it once cost a tree node), but refreshing here would
    /// change which entries a full shard evicts, for the serve front and
    /// for the iterative walk's glue probes alike; the skip is kept for
    /// behaviour parity, and entries read only through here still look
    /// older to eviction than they are. `f` runs under the shard lock;
    /// keep it short and never re-enter the cache from it. Alongside the
    /// records, `f` receives the entry's absolute expiry — the packet
    /// cache derives its memoized answer's deadline from it, so a
    /// pre-encoded response can never outlive the RRset behind it.
    pub fn with_records<R>(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        f: impl FnOnce(&CachedRecords, SimTime) -> R,
    ) -> Option<R> {
        self.with_records_hashed(key_hash(name, rtype), name, rtype, now, f)
    }

    /// [`Cache::with_records`] for a caller that already holds the key's
    /// [`key_hash`] (the serve path, which probed the packet cache with it).
    pub(crate) fn with_records_hashed<R>(
        &self,
        hash: u64,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        f: impl FnOnce(&CachedRecords, SimTime) -> R,
    ) -> Option<R> {
        let out = self.live_entry(hash, name, rtype, now).map(|(shard, at)| {
            let records = &shard.entries[at as usize].records;
            f(records, records.expires())
        });
        let counter = match out {
            Some(_) => &self.stats.hits,
            None => &self.stats.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Find the deepest cached NS RRset enclosing `qname` (the zone cut an
    /// iterative walk can start from). Returns `(cut, ns_records)`, the
    /// records shared with the cache rather than copied out of it.
    ///
    /// Counts exactly one hit (a usable cut was found) or one miss (none
    /// was) per call: probing every suffix depth must not inflate
    /// `CacheStats.misses` by the number of unexplored depths, or the
    /// Figure-2 hit-rate sweep measures the walk, not the policy.
    pub fn deepest_cut(&self, qname: &Name, now: SimTime) -> Option<(Name, CachedRecords)> {
        for depth in (1..=qname.label_count()).rev() {
            let candidate = qname.suffix(depth);
            if let Some(records) = self.probe(&candidate, RecordType::NS, now) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Some((candidate, records));
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The nameservers of a cut [`Cache::deepest_cut`] returned — `each`
    /// is called with every NS host of `ns`, in stored order, and its
    /// address: the glue the delegation's referral delivered
    /// ([`Cache::put_delegation`]), counted as the hit its probe would
    /// have been, or else the first address the host's cached `A` entry
    /// holds, read with [`Cache::with_records`] and its hit or miss. The
    /// decoded hosts are memoized per cut (`cut_memo.rs`), so a walk from a
    /// warm cut decodes nothing. `each` runs under the memo slot's lock.
    pub fn cut_addresses(
        &self,
        cut: &Name,
        ns: &CachedRecords,
        now: SimTime,
        each: impl FnMut(&Name, Option<Ipv4Addr>),
    ) {
        self.cuts.addresses(self, cut, ns, now, each);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_wire::RData;

    fn ns_record(zone: &str, target: &str, ttl: u32) -> Record {
        Record::new(
            zone.parse().unwrap(),
            ttl,
            RData::Ns(target.parse().unwrap()),
        )
    }

    fn a_record(name: &str, addr: &str, ttl: u32) -> Record {
        Record::new(name.parse().unwrap(), ttl, RData::A(addr.parse().unwrap()))
    }

    fn key(name: &str, rtype: RecordType) -> CacheKey {
        CacheKey {
            name: name.parse().unwrap(),
            rtype,
        }
    }

    #[test]
    fn selective_policy_rejects_leaf_types() {
        assert!(Cache::admits(RecordType::NS));
        assert!(Cache::admits(RecordType::A));
        assert!(Cache::admits(RecordType::AAAA));
        assert!(!Cache::admits(RecordType::PTR));
        assert!(!Cache::admits(RecordType::TXT));
        assert!(!Cache::admits(RecordType::MX));
        assert!(!Cache::admits(RecordType::CAA));
        let cache = Cache::new(64);
        cache.put(
            key("example.com", RecordType::TXT),
            vec![Record::new(
                "example.com".parse().unwrap(),
                300,
                RData::Txt(zdns_wire::rdata::TxtData::from_text("x")),
            )],
            0,
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn put_get_roundtrip() {
        let cache = Cache::new(64);
        let recs = vec![ns_record("com", "a.gtld-servers.net", 172800)];
        cache.put(key("com", RecordType::NS), recs.clone(), 0);
        assert_eq!(
            cache
                .get(&"com".parse().unwrap(), RecordType::NS, SECONDS)
                .map(|hit| hit.to_vec()),
            Some(recs)
        );
        assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ttl_expiry() {
        let cache = Cache::new(64);
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "a.gtld-servers.net", 10)],
            0,
        );
        assert!(cache
            .get(&"com".parse().unwrap(), RecordType::NS, 9 * SECONDS)
            .is_some());
        assert!(cache
            .get(&"com".parse().unwrap(), RecordType::NS, 11 * SECONDS)
            .is_none());
        // Expired entry is gone entirely.
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // One shard: capacity under SHARDS entries rounds to 1 per shard;
        // use keys that land anywhere and a big enough run to force
        // evictions.
        let cache = Cache::new(SHARDS); // 1 per shard
        for i in 0..10 * SHARDS {
            cache.put(
                key(&format!("zone{i}.test"), RecordType::NS),
                vec![ns_record(&format!("zone{i}.test"), "ns.zone.test", 3600)],
                0,
            );
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats.evictions.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn lru_touch_protects_hot_entries() {
        let cache = Cache::new(SHARDS * 2);
        // Fill one shard deterministically by reusing the same name with
        // different types (same shard not guaranteed, so instead verify
        // semantics: a touched entry survives longer than untouched ones).
        cache.put(
            key("hot.test", RecordType::NS),
            vec![ns_record("hot.test", "ns.hot.test", 3600)],
            0,
        );
        for i in 0..SHARDS * 20 {
            // Keep touching the hot entry while inserting others.
            let _ = cache.get(&"hot.test".parse().unwrap(), RecordType::NS, 0);
            cache.put(
                key(&format!("cold{i}.test"), RecordType::NS),
                vec![ns_record(&format!("cold{i}.test"), "ns.c.test", 3600)],
                0,
            );
        }
        assert!(
            cache
                .get(&"hot.test".parse().unwrap(), RecordType::NS, 0)
                .is_some(),
            "hot entry evicted despite constant use"
        );
    }

    #[test]
    fn deepest_cut_walks_up() {
        let cache = Cache::new(1024);
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "a.gtld-servers.net", 172800)],
            0,
        );
        cache.put(
            key("example.com", RecordType::NS),
            vec![ns_record("example.com", "ns1.example.com", 172800)],
            0,
        );
        let (cut, _) = cache
            .deepest_cut(&"www.example.com".parse().unwrap(), 0)
            .unwrap();
        assert_eq!(cut, "example.com".parse().unwrap());
        let (cut2, _) = cache.deepest_cut(&"other.com".parse().unwrap(), 0).unwrap();
        assert_eq!(cut2, "com".parse().unwrap());
        assert!(cache
            .deepest_cut(&"example.org".parse().unwrap(), 0)
            .is_none());
    }

    #[test]
    fn deepest_cut_counts_one_stat_per_call() {
        let cache = Cache::new(1024);
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "a.gtld-servers.net", 172800)],
            0,
        );
        // A miss probes every suffix depth but must count once, or the
        // Figure-2 hit-rate sweep is skewed by unexplored depths.
        assert!(cache
            .deepest_cut(&"a.b.c.d.example.org".parse().unwrap(), 0)
            .is_none());
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 0);
        // A hit at any depth counts one hit — and none of the deeper
        // probes that missed on the way down.
        assert!(cache
            .deepest_cut(&"www.deep.example.com".parse().unwrap(), 0)
            .is_some());
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 1);
        assert!((cache.stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn glue_addresses_cacheable() {
        let cache = Cache::new(64);
        cache.put(
            key("ns1.example.com", RecordType::A),
            vec![a_record("ns1.example.com", "198.51.100.1", 172800)],
            0,
        );
        assert!(cache
            .get(&"ns1.example.com".parse().unwrap(), RecordType::A, 0)
            .is_some());
    }

    #[test]
    fn zero_ttl_not_cached() {
        let cache = Cache::new(64);
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "a.gtld-servers.net", 0)],
            0,
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn with_records_reads_in_place() {
        let cache = Cache::new(64);
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "a.gtld-servers.net", 10)],
            0,
        );
        let com: Name = "com".parse().unwrap();
        let n = cache.with_records(&com, RecordType::NS, 0, |recs, expires| {
            // The closure sees the entry's absolute expiry (fill + ttl).
            assert_eq!(expires, 10 * SECONDS);
            recs.len()
        });
        assert_eq!(n, Some(1));
        assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 1);
        assert!(cache
            .with_records(&"org".parse().unwrap(), RecordType::NS, 0, |_, _| ())
            .is_none());
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
        // Expiry drops the entry exactly like `get`.
        assert!(cache
            .with_records(&com, RecordType::NS, 11 * SECONDS, |_, _| ())
            .is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn len_counters_track_every_insert_remove_path() {
        let cache = Cache::new(SHARDS); // 1 entry per shard: forces evictions
        assert_eq!(cache.len(), 0);
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "a.gtld-servers.net", 10)],
            0,
        );
        assert_eq!(cache.len(), 1);
        // Replacing the same key must not double-count.
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "b.gtld-servers.net", 10)],
            0,
        );
        assert_eq!(cache.len(), 1);
        // Expiry via `get` decrements.
        assert!(cache
            .get(&"com".parse().unwrap(), RecordType::NS, 11 * SECONDS)
            .is_none());
        assert_eq!(cache.len(), 0);
        // Expiry via `with_records` decrements too.
        cache.put(
            key("org", RecordType::NS),
            vec![ns_record("org", "ns.org.test", 10)],
            0,
        );
        assert!(cache
            .with_records(
                &"org".parse().unwrap(),
                RecordType::NS,
                11 * SECONDS,
                |_, _| ()
            )
            .is_none());
        assert_eq!(cache.len(), 0);
        // Evictions keep the count honest under churn.
        for i in 0..10 * SHARDS {
            cache.put(
                key(&format!("zone{i}.test"), RecordType::NS),
                vec![ns_record(&format!("zone{i}.test"), "ns.zone.test", 3600)],
                0,
            );
        }
        let true_len: usize = (0..cache.shards.len())
            .map(|i| cache.shards[i].lock().entries.len())
            .sum();
        assert_eq!(cache.len(), true_len);
    }

    #[test]
    fn put_invalidates_the_packet_cache_for_its_key() {
        use crate::packet_cache::{PacketLookup, OPT_TAIL_LEN};

        let cache = Cache::new(64);
        let pc = cache.attach_packet_cache(64);
        // Attaching twice hands back the same shared table.
        assert!(std::sync::Arc::ptr_eq(&pc, &cache.attach_packet_cache(8)));

        let name: Name = "ns1.example.com".parse().unwrap();
        let fake = vec![0u8; 12 + name.wire_len() + 4 + OPT_TAIL_LEN];
        pc.fill(std::sync::Arc::new(crate::packet_cache::PacketEntry::new(
            name.clone(),
            RecordType::A,
            SimTime::MAX,
            &fake,
        )));
        assert!(matches!(
            pc.lookup(&name, RecordType::A, 0),
            PacketLookup::Hit(_)
        ));
        // Promoting a fresher RRset for the same key drops the memoized
        // packet; an unrelated key leaves it alone.
        cache.put(
            key("other.example.com", RecordType::A),
            vec![a_record("other.example.com", "198.51.100.9", 300)],
            0,
        );
        assert!(matches!(
            pc.lookup(&name, RecordType::A, 0),
            PacketLookup::Hit(_)
        ));
        cache.put(
            key("ns1.example.com", RecordType::A),
            vec![a_record("ns1.example.com", "198.51.100.1", 300)],
            0,
        );
        assert!(matches!(
            pc.lookup(&name, RecordType::A, 0),
            PacketLookup::Miss
        ));
        assert_eq!(pc.invalidations(), 1);
    }

    #[test]
    fn keys_that_share_a_hash_stay_distinct_entries() {
        // Full 64-bit collisions are too rare to meet and too cheap to
        // craft to ignore: drive a shard directly with one forced hash.
        let mut shard = Shard::new();
        let names = ["a.test", "b.test", "c.test", "d.test"];
        let mut scratch = ScratchBuf::new();
        for (i, name) in names.iter().enumerate() {
            let hash = if i == 3 { 7 } else { 42 };
            let records = [a_record(name, "192.0.2.1", 60)];
            let key = key(name, RecordType::A);
            let block = CachedRecords::encode(&key, records.iter(), None, 0, &mut scratch).unwrap();
            shard.insert(hash, block);
        }
        let stored_name =
            |shard: &Shard, at: u32| shard.entries[at as usize].records.key_name().to_name();
        let find = |shard: &Shard, name: &str| {
            let hash = if name == "d.test" { 7 } else { 42 };
            shard
                .find(hash, &name.parse().unwrap(), RecordType::A)
                .map(|at| stored_name(shard, at).to_string())
        };
        for name in names {
            assert_eq!(find(&shard, name).as_deref(), Some(name));
        }
        assert!(shard
            .find(42, &"a.test".parse().unwrap(), RecordType::NS)
            .is_none());
        // Remove from the middle, the start and the end of the probe run;
        // every removal also moves the table's last entry into the hole.
        for (gone, left) in [
            ("b.test", &["a.test", "c.test", "d.test"][..]),
            ("c.test", &["a.test", "d.test"]),
            ("a.test", &["d.test"]),
            ("d.test", &[]),
        ] {
            let hash = if gone == "d.test" { 7 } else { 42 };
            let at = shard
                .find(hash, &gone.parse().unwrap(), RecordType::A)
                .unwrap();
            shard.remove(at);
            assert_eq!(find(&shard, gone), None);
            for name in left {
                assert_eq!(find(&shard, name).as_deref(), Some(*name), "after {gone}");
            }
            // The recency list still threads every entry, oldest first.
            let mut order = Vec::new();
            let mut at = shard.oldest;
            while at != NIL {
                order.push(stored_name(&shard, at).to_string());
                at = shard.entries[at as usize].newer;
            }
            assert_eq!(order, *left, "after {gone}");
        }
        assert!(shard.entries.is_empty() && shard.slots.iter().all(|&s| s == 0));
    }

    /// One shard against a model of what it must hold, under random
    /// inserts, touches, evictions and removals of keys that share 1–4
    /// hashes. Every hash's home is one of the probe table's last slots,
    /// whatever its size, so runs wrap past the end and a removal's
    /// backward shift meets entries whose homes lie on both sides of it.
    #[test]
    fn colliding_keys_survive_every_insert_touch_and_removal() {
        use proptest::TestRng;

        const STEPS: usize = 3_000;
        let mut rng = TestRng::deterministic();
        let mut scratch = ScratchBuf::new();
        // Home at the last slot (two tags), the one before it, and the
        // one before that.
        let hashes = [
            u64::MAX,
            0x0000_0001_FFFF_FFFF,
            0xA5A5_A5A5_FFFF_FFFE,
            0x5A5A_5A5A_FFFF_FFFD,
        ];
        let names: Vec<Name> = (0..40)
            .map(|i| format!("k{i}.test").parse().unwrap())
            .collect();
        for distinct in 1..=hashes.len() {
            let hash_of = |i: usize| hashes[i % distinct];
            let mut shard = Shard::new();
            // Live keys by index into `names`, oldest first.
            let mut model: Vec<usize> = Vec::new();
            for step in 0..STEPS {
                let live = |rng: &mut TestRng, model: &[usize]| {
                    model[rng.below(model.len() as u64) as usize]
                };
                match rng.below(10) {
                    0..=4 => {
                        // A store, as `Cache::put` makes it: replace and
                        // refresh a key that is there, add one that is not.
                        let i = rng.below(names.len() as u64) as usize;
                        let key = CacheKey {
                            name: names[i].clone(),
                            rtype: RecordType::A,
                        };
                        let records = [a_record(&names[i].to_string(), "192.0.2.1", 60)];
                        let block =
                            CachedRecords::encode(&key, records.iter(), None, 0, &mut scratch);
                        let block = block.unwrap();
                        match shard.find(hash_of(i), &names[i], RecordType::A) {
                            Some(at) => {
                                shard.entries[at as usize].records = block;
                                shard.touch(at);
                                model.retain(|&k| k != i);
                            }
                            None => shard.insert(hash_of(i), block),
                        }
                        model.push(i);
                    }
                    5..=6 if !model.is_empty() => {
                        let i = live(&mut rng, &model);
                        let at = shard.find(hash_of(i), &names[i], RecordType::A).unwrap();
                        shard.touch(at);
                        model.retain(|&k| k != i);
                        model.push(i);
                    }
                    7 if !model.is_empty() => {
                        shard.remove(shard.oldest);
                        model.remove(0);
                    }
                    8..=9 if !model.is_empty() => {
                        let i = live(&mut rng, &model);
                        let at = shard.find(hash_of(i), &names[i], RecordType::A).unwrap();
                        shard.remove(at);
                        model.retain(|&k| k != i);
                    }
                    _ => {}
                }
                let context = format!("{distinct} hashes, step {step}");
                for (i, name) in names.iter().enumerate() {
                    let found = shard.find(hash_of(i), name, RecordType::A);
                    let stored =
                        found.map(|at| shard.entries[at as usize].records.key_name().to_name());
                    if model.contains(&i) {
                        assert_eq!(stored.as_ref(), Some(name), "{context}: {name} lost");
                    } else {
                        assert_eq!(stored, None, "{context}: {name} not removed");
                    }
                }
                let mut order = Vec::new();
                let mut at = shard.oldest;
                while at != NIL {
                    order.push(shard.entries[at as usize].records.key_name().to_name());
                    at = shard.entries[at as usize].newer;
                }
                let expected: Vec<Name> = model.iter().map(|&i| names[i].clone()).collect();
                assert_eq!(order, expected, "{context}: recency order");
                let occupied = shard.slots.iter().filter(|&&s| s != 0).count();
                assert_eq!(occupied, shard.entries.len(), "{context}: occupied slots");
            }
        }
    }

    #[test]
    fn an_entry_is_a_block_handle_and_its_links() {
        // Key, expiry and records live in the shared block; what stays in
        // the dense table is what a probe, a recency re-link or a removal
        // touches.
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn hit_rate_math() {
        let cache = Cache::new(64);
        cache.put(
            key("com", RecordType::NS),
            vec![ns_record("com", "x.test", 3600)],
            0,
        );
        let _ = cache.get(&"com".parse().unwrap(), RecordType::NS, 0); // hit
        let _ = cache.get(&"org".parse().unwrap(), RecordType::NS, 0); // miss
        assert!((cache.stats.hit_rate() - 0.5).abs() < 1e-9);
    }
}
