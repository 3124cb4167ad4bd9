//! The packet cache: pre-encoded answers for the serve hot path.
//!
//! The record cache answers a warmed serve hit correctly, but every hit
//! still takes a shard mutex, walks the RRset under the lock, and
//! re-encodes the whole response through [`ScratchBuf`]. Production
//! resolvers (unbound's msgcache is the canonical example) answer repeats
//! from a memoized *message* instead. This module is that layer: a
//! fixed-size, read-mostly table in front of the record cache that stores
//! the fully encoded wire response — sans the two per-client fields,
//! header ID and cookie — keyed on `(qname, qtype)` (class is always IN,
//! like the record cache behind it).
//!
//! A hot hit becomes: copy the canonical bytes into the scratch buffer,
//! patch the 2-byte ID and the 2 flag bytes, splice the client's cookie
//! onto the OPT tail, and re-check the result against the client's
//! advertised UDP payload for truncation. No shard lock, no record
//! iteration, no per-record encoding — and zero heap allocations (the
//! `zero_alloc` suite enforces it).
//!
//! Concurrency model — *lock-light reads, never blocked readers*: each
//! slot pairs a relaxed [`AtomicU64`] key fingerprint with a tiny
//! [`Mutex`] around the entry `Arc`. Readers prefilter on the
//! fingerprint, then `try_lock` just long enough to clone the `Arc`; if a
//! writer holds the slot the reader treats it as a miss and falls back to
//! the record path rather than parking. Writers (fills, invalidations)
//! take the slot lock for the few instructions an `Arc` swap needs.
//! Entries expire by their embedded-TTL deadline, checked on read, and
//! are invalidated whenever the record cache promotes a fresher RRset for
//! the same key ([`Cache::put`](crate::cache::Cache::put) hooks into
//! [`PacketCache::invalidate`]).
//!
//! Case handling: one entry per name. The key — the record cache's own
//! key hash, computed once per query for both layers, and [`Name`]'s
//! equality — is case-insensitive, and the entry keeps the spelling of
//! whoever filled it. A response must echo its client's question
//! verbatim (0x20 mixed-case defence), so after [`PacketEntry::serve_into`]
//! the serve path copies the client's own question octets over the
//! question section: the same length by construction, and nothing behind
//! it moves, because answers reach their owner through a compression
//! pointer *into* the question and pointers compare case-insensitively.
//! Every spelling of a hot name therefore hits the one entry instead of
//! evicting its siblings from the same probe window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use zdns_netsim::SimTime;
use zdns_wire::{
    cookie_option_len, write_cookie_option, Cookie, Flags, Name, RecordType, ScratchBuf,
};

use crate::cache::key_hash;

/// Octets of the bare OPT pseudo-record the serve path appends last:
/// root owner (1) + TYPE (2) + CLASS/payload (2) + TTL (4) + RDLENGTH (2).
/// Canonical entries always end with one, so EDNS-less clients are served
/// by trimming it and cookie clients by patching its RDLENGTH.
pub const OPT_TAIL_LEN: usize = 11;

/// Slots inspected per key: one cache line of fingerprints' worth of
/// linear probing before a fill evicts the earliest-expiring neighbour.
const PROBE_WINDOW: usize = 8;

/// One memoized response: the canonical encoding plus everything needed
/// to validate a hit and re-personalize the bytes for a specific client.
///
/// Canonical form: header ID `0`, flag bytes as first encoded (patched on
/// every serve, including the fill's own), QDCOUNT 1, full answer
/// section, and a cookie-less OPT tail as the final [`OPT_TAIL_LEN`]
/// octets.
pub struct PacketEntry {
    /// The key, in the spelling the canonical question section carries.
    name: Name,
    qtype: RecordType,
    /// [`fingerprint`] of the key.
    hash: u64,
    /// Absolute expiry (fill time + the answers' minimum TTL, capped to
    /// the record-cache entry's own expiry), checked on every read.
    deadline: SimTime,
    /// Offset just past the question section — the truncated reply is
    /// `bytes[..question_end]` plus patched counts and OPT.
    question_end: usize,
    bytes: Box<[u8]>,
}

impl std::fmt::Debug for PacketEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketEntry")
            .field("name", &self.name)
            .field("qtype", &self.qtype)
            .field("deadline", &self.deadline)
            .field("len", &self.bytes.len())
            .finish()
    }
}

impl PacketEntry {
    /// Wrap an already-encoded canonical response. `bytes` must be the
    /// full message for `name`/`qtype` ending in a bare OPT tail.
    pub fn new(name: Name, qtype: RecordType, deadline: SimTime, bytes: &[u8]) -> PacketEntry {
        let question_end = 12 + name.wire_len() + 4;
        debug_assert!(bytes.len() >= question_end + OPT_TAIL_LEN);
        PacketEntry {
            hash: fingerprint(key_hash(&name, qtype)),
            name,
            qtype,
            deadline,
            question_end,
            bytes: bytes.into(),
        }
    }

    /// Absolute expiry deadline.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// The canonical encoded response (ID 0, no cookie, bare OPT tail).
    pub fn canonical_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Re-personalize the canonical bytes for one client, straight into
    /// `scratch`: copy, patch ID and flags, trim or cookie-splice the OPT
    /// tail, and re-check the advertised `udp_limit` (all-or-nothing
    /// truncation, exactly like the scratch-encode path). Returns whether
    /// the reply was truncated. Zero heap allocations once `scratch` has
    /// grown to steady-state size.
    pub fn serve_into(
        &self,
        scratch: &mut ScratchBuf,
        id: u16,
        query_flags: Flags,
        edns: bool,
        cookie: Option<&Cookie>,
        udp_limit: usize,
    ) -> bool {
        scratch.reset();
        let base = scratch.begin_message();
        let cookie = if edns { cookie } else { None };
        let full_len = if edns {
            self.bytes.len() + cookie.map_or(0, cookie_option_len)
        } else {
            self.bytes.len() - OPT_TAIL_LEN
        };
        let truncated = full_len > udp_limit;
        if truncated {
            // Header + echoed question only, with the counts re-patched.
            let _ = scratch.write_bytes(&self.bytes[..self.question_end]);
            scratch.patch_u16(base + 6, 0); // ANCOUNT
            scratch.patch_u16(base + 10, edns as u16); // ARCOUNT
            if edns {
                let opt = &self.bytes[self.bytes.len() - OPT_TAIL_LEN..];
                let _ = scratch.write_bytes(opt);
                Self::splice_cookie(scratch, cookie);
            }
        } else if edns {
            let _ = scratch.write_bytes(&self.bytes);
            Self::splice_cookie(scratch, cookie);
        } else {
            let _ = scratch.write_bytes(&self.bytes[..self.bytes.len() - OPT_TAIL_LEN]);
            scratch.patch_u16(base + 10, 0); // ARCOUNT: OPT trimmed
        }
        scratch.patch_u16(base, id);
        let mut flags = query_flags;
        flags.response = true;
        flags.authoritative = false;
        flags.truncated = truncated;
        flags.recursion_available = true;
        flags.authenticated = false;
        scratch.patch_u16(base + 2, u16::from_be_bytes(flags.pack(0)));
        truncated
    }

    /// Append the cookie option to an OPT tail sitting at the end of
    /// `scratch` and fix up its RDLENGTH.
    fn splice_cookie(scratch: &mut ScratchBuf, cookie: Option<&Cookie>) {
        if let Some(c) = cookie {
            let rdlen_pos = scratch.len() - 2;
            let _ = write_cookie_option(scratch, c);
            scratch.patch_u16(rdlen_pos, cookie_option_len(c) as u16);
        }
    }
}

/// What a [`PacketCache::lookup`] found.
#[derive(Debug)]
pub enum PacketLookup {
    /// Live entry — serve it with [`PacketEntry::serve_into`].
    Hit(Arc<PacketEntry>),
    /// The key was present but past its TTL deadline; the slot has been
    /// cleared and the caller should take the record path (and refill).
    Expired,
    /// Nothing cached (includes slots a writer was touching — the record
    /// path is the universal fallback).
    Miss,
}

/// A [`key_hash`] as a slot fingerprint: never 0, which marks an empty slot.
fn fingerprint(hash: u64) -> u64 {
    hash.max(1)
}

struct Slot {
    /// Key-hash prefilter; `0` means empty. Written under the slot lock,
    /// read before taking it.
    fingerprint: AtomicU64,
    entry: Mutex<Option<Arc<PacketEntry>>>,
}

/// The serve-path packet cache. See the module docs for the layout; one
/// instance is shared by every worker of a serve fleet (it lives on the
/// shared record [`Cache`](crate::cache::Cache) so promotion-time
/// invalidation needs no extra plumbing).
pub struct PacketCache {
    slots: Box<[Slot]>,
    mask: usize,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PacketCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketCache")
            .field("slots", &self.slots.len())
            .field("len", &self.len())
            .field("invalidations", &self.invalidations())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl PacketCache {
    /// Build a table of at least `capacity` slots (rounded up to a power
    /// of two, minimum one probe window).
    pub fn new(capacity: usize) -> PacketCache {
        let slots = capacity.max(PROBE_WINDOW).next_power_of_two();
        PacketCache {
            slots: (0..slots)
                .map(|_| Slot {
                    fingerprint: AtomicU64::new(0),
                    entry: Mutex::new(None),
                })
                .collect(),
            mask: slots - 1,
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Slot count (capacity after rounding).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots — approximate under concurrent writes; exact when
    /// quiescent (tests).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.fingerprint.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries dropped because the record cache promoted a fresher RRset
    /// for their key.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Live entries displaced by fills of a different key (probe window
    /// full).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Probe for a live entry. Never blocks: contended slots read as
    /// misses. Expired entries are cleared on sight and reported so the
    /// caller can count them apart from plain misses. Any spelling of a
    /// name finds its entry.
    pub fn lookup(&self, name: &Name, qtype: RecordType, now: SimTime) -> PacketLookup {
        self.lookup_hashed(key_hash(name, qtype), name, qtype, now)
    }

    /// [`PacketCache::lookup`] for a caller that already holds the key's
    /// [`key_hash`].
    pub(crate) fn lookup_hashed(
        &self,
        hash: u64,
        name: &Name,
        qtype: RecordType,
        now: SimTime,
    ) -> PacketLookup {
        let hash = fingerprint(hash);
        let start = hash as usize & self.mask;
        for i in 0..PROBE_WINDOW {
            let slot = &self.slots[(start + i) & self.mask];
            if slot.fingerprint.load(Ordering::Acquire) != hash {
                continue;
            }
            let Some(guard) = slot.entry.try_lock() else {
                continue;
            };
            let Some(entry) = guard.as_ref().map(Arc::clone) else {
                continue;
            };
            drop(guard);
            if entry.qtype != qtype || entry.name != *name {
                continue;
            }
            if now >= entry.deadline {
                self.clear_if_current(slot, &entry);
                return PacketLookup::Expired;
            }
            return PacketLookup::Hit(entry);
        }
        PacketLookup::Miss
    }

    /// Install (or refresh) an entry. Prefers the key's existing slot,
    /// then an empty one; with the probe window full it displaces the
    /// neighbour expiring soonest.
    pub fn fill(&self, entry: Arc<PacketEntry>) {
        let hash = entry.hash;
        let start = hash as usize & self.mask;
        let mut target = None;
        let mut empty = None;
        for i in 0..PROBE_WINDOW {
            let idx = (start + i) & self.mask;
            let fp = self.slots[idx].fingerprint.load(Ordering::Acquire);
            if fp == hash {
                target = Some(idx);
                break;
            }
            if fp == 0 && empty.is_none() {
                empty = Some(idx);
            }
        }
        let idx = target.or(empty).unwrap_or_else(|| {
            // Window full of other keys: evict the earliest deadline.
            let mut victim = start & self.mask;
            let mut earliest = SimTime::MAX;
            for i in 0..PROBE_WINDOW {
                let idx = (start + i) & self.mask;
                let deadline = self.slots[idx]
                    .entry
                    .lock()
                    .as_ref()
                    .map_or(0, |e| e.deadline);
                if deadline < earliest {
                    earliest = deadline;
                    victim = idx;
                }
            }
            victim
        });
        let slot = &self.slots[idx];
        let mut guard = slot.entry.lock();
        if guard.is_some() && slot.fingerprint.load(Ordering::Acquire) != hash {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        *guard = Some(entry);
        slot.fingerprint.store(hash, Ordering::Release);
    }

    /// Drop every entry for `(name, rtype)` — called by
    /// [`Cache::put`](crate::cache::Cache::put) when it promotes a fresher
    /// RRset, so a memoized answer never outlives the records behind it.
    /// Case-insensitive, like the record cache's own keying.
    pub fn invalidate(&self, name: &Name, rtype: RecordType) {
        self.invalidate_hashed(key_hash(name, rtype), name, rtype);
    }

    /// [`PacketCache::invalidate`] for a caller that already holds the
    /// key's [`key_hash`].
    pub(crate) fn invalidate_hashed(&self, hash: u64, name: &Name, rtype: RecordType) {
        let hash = fingerprint(hash);
        let start = hash as usize & self.mask;
        for i in 0..PROBE_WINDOW {
            let slot = &self.slots[(start + i) & self.mask];
            if slot.fingerprint.load(Ordering::Acquire) != hash {
                continue;
            }
            let mut guard = slot.entry.lock();
            let matches = guard
                .as_ref()
                .is_some_and(|e| e.qtype == rtype && e.name == *name);
            if matches {
                *guard = None;
                slot.fingerprint.store(0, Ordering::Release);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Clear `slot` only if it still holds exactly `expected` (an expired
    /// entry another thread may have already replaced).
    fn clear_if_current(&self, slot: &Slot, expected: &Arc<PacketEntry>) {
        if let Some(mut guard) = slot.entry.try_lock() {
            if guard.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, expected)) {
                *guard = None;
                slot.fingerprint.store(0, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_netsim::SECONDS;

    fn entry(name: &str, qtype: RecordType, deadline: SimTime) -> Arc<PacketEntry> {
        let name: Name = name.parse().unwrap();
        let len = 12 + name.wire_len() + 4 + OPT_TAIL_LEN;
        Arc::new(PacketEntry::new(
            name.clone(),
            qtype,
            deadline,
            &vec![0u8; len],
        ))
    }

    #[test]
    fn fill_lookup_roundtrip_and_expiry() {
        let pc = PacketCache::new(64);
        let name: Name = "hot.example".parse().unwrap();
        pc.fill(entry("hot.example", RecordType::A, 10 * SECONDS));
        assert!(matches!(
            pc.lookup(&name, RecordType::A, 0),
            PacketLookup::Hit(_)
        ));
        // Different type: miss.
        assert!(matches!(
            pc.lookup(&name, RecordType::AAAA, 0),
            PacketLookup::Miss
        ));
        // Deadline is exclusive: at the boundary the entry is gone.
        assert!(matches!(
            pc.lookup(&name, RecordType::A, 10 * SECONDS),
            PacketLookup::Expired
        ));
        // The expired slot was cleared: subsequent reads are plain misses.
        assert!(matches!(
            pc.lookup(&name, RecordType::A, 10 * SECONDS),
            PacketLookup::Miss
        ));
        assert!(pc.is_empty());
    }

    #[test]
    fn every_spelling_finds_and_invalidates_the_one_entry() {
        let pc = PacketCache::new(64);
        pc.fill(entry("WWW.Example.COM", RecordType::A, SimTime::MAX));
        let lower: Name = "www.example.com".parse().unwrap();
        // Same case-insensitive key, different spelling: the entry is
        // found (echoing the client's spelling is the serve path's job),
        // and a refill under another spelling replaces it in place.
        assert!(matches!(
            pc.lookup(&lower, RecordType::A, 0),
            PacketLookup::Hit(_)
        ));
        pc.fill(entry("www.EXAMPLE.com", RecordType::A, SimTime::MAX));
        assert_eq!(pc.len(), 1);
        // A record-cache promotion for any spelling drops the entry.
        pc.invalidate(&lower, RecordType::A);
        assert_eq!(pc.invalidations(), 1);
        assert!(pc.is_empty());
    }

    #[test]
    fn refill_replaces_in_place() {
        let pc = PacketCache::new(64);
        let name: Name = "refresh.example".parse().unwrap();
        pc.fill(entry("refresh.example", RecordType::A, 5 * SECONDS));
        pc.fill(entry("refresh.example", RecordType::A, 50 * SECONDS));
        assert_eq!(pc.len(), 1);
        assert_eq!(pc.evictions(), 0);
        match pc.lookup(&name, RecordType::A, 20 * SECONDS) {
            PacketLookup::Hit(e) => assert_eq!(e.deadline(), 50 * SECONDS),
            _ => panic!("refreshed entry should be live"),
        }
    }

    #[test]
    fn full_window_evicts_earliest_deadline() {
        // A one-window table: every key contends for the same 8 slots.
        let pc = PacketCache::new(1);
        assert_eq!(pc.capacity(), 8);
        for i in 0..8 {
            pc.fill(entry(
                &format!("name{i}.example"),
                RecordType::A,
                (i as SimTime + 1) * SECONDS,
            ));
        }
        assert_eq!(pc.len(), 8);
        // One more: the entry expiring first (deadline 1s) is displaced.
        pc.fill(entry("straw.example", RecordType::A, 100 * SECONDS));
        assert_eq!(pc.len(), 8);
        assert_eq!(pc.evictions(), 1);
        let evicted: Name = "name0.example".parse().unwrap();
        assert!(matches!(
            pc.lookup(&evicted, RecordType::A, 0),
            PacketLookup::Miss
        ));
        let kept: Name = "straw.example".parse().unwrap();
        assert!(matches!(
            pc.lookup(&kept, RecordType::A, 0),
            PacketLookup::Hit(_)
        ));
    }

    #[test]
    fn invalidate_only_touches_its_key() {
        let pc = PacketCache::new(64);
        pc.fill(entry("a.example", RecordType::A, SimTime::MAX));
        pc.fill(entry("b.example", RecordType::A, SimTime::MAX));
        pc.invalidate(&"a.example".parse().unwrap(), RecordType::A);
        assert_eq!(pc.invalidations(), 1);
        assert_eq!(pc.len(), 1);
        assert!(matches!(
            pc.lookup(&"b.example".parse().unwrap(), RecordType::A, 0),
            PacketLookup::Hit(_)
        ));
        // Invalidating an absent key is a quiet no-op.
        pc.invalidate(&"c.example".parse().unwrap(), RecordType::A);
        assert_eq!(pc.invalidations(), 1);
    }
}
