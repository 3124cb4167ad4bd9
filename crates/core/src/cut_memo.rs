//! The resolved delegations of cached zone cuts.
//!
//! An iterative walk that starts at a cached cut needs the cut's
//! nameservers with their glue addresses. Read plainly, that is one cache
//! probe per nameserver — 13 under a gTLD — on every walk, though the NS
//! set and its glue rarely change between walks. [`CutMemo`] keeps, per
//! cut, the list the last walk read: the hosts in stored order, each with
//! its address and the glue entry it came from. A later walk reuses an
//! address only while the probe it replaces would provably return it:
//!
//! * the cut's NS set is the very block the list was read from (a held
//!   reference to it, so its address cannot be reused);
//! * the glue entry is still the one stored under its key — no replace or
//!   removal (eviction, expiry) has touched its stripe of retirement
//!   stamps since before it was read ([`Cache::stamp`]);
//! * the glue entry has not expired, so the probe would not drop it;
//! * and a host whose glue was absent is probed again every time, since a
//!   glue entry that appears leaves no stamp behind.
//!
//! A reused address is counted as the hit its probe would have counted, so
//! [`crate::CacheStats`] reads as if every host had been probed, and a
//! probe that does run is the same [`Cache::with_records`] read as before.
//! The table has a fixed number of slots, one cut each, picked by the
//! cut's key hash; a cut that lands on an occupied slot takes it over.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use zdns_netsim::SimTime;
use zdns_wire::{Name, RecordType};

use crate::cache::{key_hash, Cache, CachedRecords};

/// Memoized cuts; a power of two.
const SLOTS: usize = 1024;

/// How often walk starts found their cut memoized and how many glue probes
/// the memo stood in for — what [`Cache::memo_stats`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutMemoStats {
    /// Walk starts whose cut's list was memoized from the same NS set.
    pub cuts_reused: u64,
    /// Walk starts that (re)built their cut's list.
    pub cuts_built: u64,
    /// Glue addresses taken from the memo without a probe.
    pub glue_reused: u64,
    /// Glue probes that ran: absent, changed or expired glue, new lists.
    pub glue_probed: u64,
}

/// One nameserver of a memoized cut.
struct Host {
    name: Name,
    /// [`key_hash`] of the host's `A` glue key.
    hash: u64,
    addr: Option<Ipv4Addr>,
    /// The glue entry `addr` came from: the retirement stamp its stripe
    /// held before it was read, and its expiry. `None` when the host had
    /// no glue entry — such a host is probed on every walk.
    glue: Option<(u64, SimTime)>,
}

/// One cut's list, or nothing yet.
#[derive(Default)]
struct Slot {
    /// The NS block the hosts were read from.
    ns: Option<CachedRecords>,
    hosts: Vec<Host>,
}

/// The bounded table of memoized cut delegations beside a [`Cache`].
pub(crate) struct CutMemo {
    slots: Box<[Mutex<Slot>]>,
    cuts_reused: AtomicU64,
    cuts_built: AtomicU64,
    glue_reused: AtomicU64,
    glue_probed: AtomicU64,
}

impl CutMemo {
    pub(crate) fn new() -> CutMemo {
        CutMemo {
            slots: (0..SLOTS).map(|_| Mutex::default()).collect(),
            cuts_reused: AtomicU64::new(0),
            cuts_built: AtomicU64::new(0),
            glue_reused: AtomicU64::new(0),
            glue_probed: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CutMemoStats {
        CutMemoStats {
            cuts_reused: self.cuts_reused.load(Ordering::Relaxed),
            cuts_built: self.cuts_built.load(Ordering::Relaxed),
            glue_reused: self.glue_reused.load(Ordering::Relaxed),
            glue_probed: self.glue_probed.load(Ordering::Relaxed),
        }
    }

    /// See [`Cache::cut_addresses`].
    pub(crate) fn addresses(
        &self,
        cache: &Cache,
        cut: &Name,
        ns: &CachedRecords,
        now: SimTime,
        mut each: impl FnMut(&Name, Option<Ipv4Addr>),
    ) {
        let slot = &self.slots[key_hash(cut, RecordType::NS) as usize & (SLOTS - 1)];
        let mut slot = slot.lock();
        let Slot { ns: held, hosts } = &mut *slot;
        if held.as_ref().is_some_and(|held| held.same_block(ns)) {
            self.cuts_reused.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cuts_built.fetch_add(1, Ordering::Relaxed);
            *held = Some(ns.clone());
            hosts.clear();
            hosts.extend(
                ns.iter()
                    .filter(|r| r.rtype == RecordType::NS)
                    .filter_map(|r| r.target_name())
                    .map(|name| Host {
                        hash: key_hash(&name, RecordType::A),
                        name,
                        addr: None,
                        glue: None,
                    }),
            );
        }
        let mut reused = 0;
        for host in hosts.iter_mut() {
            let trusted = host
                .glue
                .is_some_and(|(stamp, expires)| expires > now && cache.stamp(host.hash) == stamp);
            if trusted {
                reused += 1;
            } else {
                // The stamp is read before the entry: a retirement racing
                // the read leaves the next walk a stamp that no longer
                // matches, never a stale one that does.
                let stamp = cache.stamp(host.hash);
                let read = cache.with_records_hashed(
                    host.hash,
                    &host.name,
                    RecordType::A,
                    now,
                    |records, expires| (records.iter().find_map(|r| r.a_addr()), expires),
                );
                host.addr = read.and_then(|(addr, _)| addr);
                host.glue = read.map(|(_, expires)| (stamp, expires));
            }
            each(&host.name, host.addr);
        }
        // The hits the skipped probes would have counted.
        cache.stats.hits.fetch_add(reused, Ordering::Relaxed);
        self.glue_reused.fetch_add(reused, Ordering::Relaxed);
        self.glue_probed
            .fetch_add(hosts.len() as u64 - reused, Ordering::Relaxed);
    }
}
