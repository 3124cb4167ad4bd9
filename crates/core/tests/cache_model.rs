//! The selective cache against a naive reference model.
//!
//! The cache's entry table, hash index and index-linked LRU list are an
//! implementation of rules that predate them: per shard, an exact
//! stamp-ordered LRU where `put` and every `get`/`deepest_cut` hit
//! refresh recency, `with_records` does not, an expired entry is dropped
//! by the read that finds it, and `deepest_cut` counts one hit or one
//! miss however many suffixes it probes. The model below states those
//! rules in the plainest code that will hold them (a `Vec` per shard and
//! a stamp per entry); a seeded random operation stream over a cache
//! small enough to evict constantly must leave both in the same state,
//! answer for answer and counter for counter.
//!
//! What is stored is an answer *section*, and it must come back as it
//! went in: the stream writes every shape of RDATA the cache's block
//! layout treats differently (addresses, one name, SOA's two names, MX,
//! SRV, TXT and CAA blobs, opaque types), CNAME chains whose owners are
//! not the key, owners and RDATA names in their own 0x20 spelling, and
//! names past the 54 octets a `Name` keeps inline — and every read is
//! compared record for record in order, TTL and letter case.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;

use proptest::TestRng;
use zdns_core::{Cache, CacheKey};
use zdns_netsim::{SimTime, SECONDS};
use zdns_wire::rdata::{Caa, Mx, Soa, Srv, TxtData};
use zdns_wire::{Name, RData, Record, RecordType};

struct ModelEntry {
    name: String,
    rtype: RecordType,
    records: Vec<Record>,
    expires: SimTime,
    stamp: u64,
}

#[derive(Default)]
struct ModelShard {
    entries: Vec<ModelEntry>,
    clock: u64,
}

struct Model {
    shards: Vec<ModelShard>,
    per_shard_capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Model {
    fn new(shards: usize, per_shard_capacity: usize) -> Model {
        Model {
            shards: (0..shards).map(|_| ModelShard::default()).collect(),
            per_shard_capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn put(
        &mut self,
        shard: usize,
        name: &Name,
        rtype: RecordType,
        records: &[Record],
        now: SimTime,
    ) {
        let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0) as u64;
        if !rtype.is_infrastructure() || records.is_empty() || ttl == 0 {
            return;
        }
        let shard = &mut self.shards[shard];
        let name = name.to_ascii_lower();
        shard
            .entries
            .retain(|e| !(e.name == name && e.rtype == rtype));
        shard.clock += 1;
        shard.entries.push(ModelEntry {
            name,
            rtype,
            records: records.to_vec(),
            expires: now + ttl * SECONDS,
            stamp: shard.clock,
        });
        while shard.entries.len() > self.per_shard_capacity {
            let oldest = (0..shard.entries.len())
                .min_by_key(|&i| shard.entries[i].stamp)
                .expect("non-empty");
            shard.entries.remove(oldest);
            self.evictions += 1;
        }
    }

    /// A read without counters: drops an expired entry, optionally
    /// refreshes a live one.
    fn read(
        &mut self,
        shard: usize,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        refresh: bool,
    ) -> Option<(Vec<Record>, SimTime)> {
        let shard = &mut self.shards[shard];
        let name = name.to_ascii_lower();
        let at = shard
            .entries
            .iter()
            .position(|e| e.name == name && e.rtype == rtype)?;
        if shard.entries[at].expires <= now {
            shard.entries.remove(at);
            return None;
        }
        if refresh {
            shard.clock += 1;
            shard.entries[at].stamp = shard.clock;
        }
        let entry = &shard.entries[at];
        Some((entry.records.clone(), entry.expires))
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    fn keys(&self) -> BTreeSet<(String, u16)> {
        self.shards
            .iter()
            .flat_map(|s| s.entries.iter().map(|e| (e.name.clone(), e.rtype.to_u16())))
            .collect()
    }
}

/// 2 TLDs, 30 zones under each plus one whose name is too long to be
/// stored inline, 2 hosts under each zone: 188 names × 3 admitted types
/// over 64 three-entry shards, so shards are always over-subscribed.
fn universe() -> Vec<String> {
    let mut names = Vec::new();
    for t in 0..2 {
        names.push(format!("tld{t}"));
        let long = format!("{}zz", "long-zone-label-".repeat(3));
        for zone in (0..30).map(|z| format!("zone{z}")).chain([long]) {
            names.push(format!("{zone}.tld{t}"));
            for h in 0..2 {
                names.push(format!("ns{h}.{zone}.tld{t}"));
            }
        }
    }
    names
}

/// Record for record, in order — and, unlike `==` on names, letter for
/// letter: `Debug` prints every name in the case it holds.
fn exact(records: &[Record]) -> String {
    format!("{records:?}")
}

/// A random 0x20 spelling of `text`: reads and writes must meet on the
/// case-folded key.
fn spelled(text: &str, rng: &mut TestRng) -> Name {
    let mask = rng.next_u64();
    text.char_indices()
        .map(|(i, c)| {
            if mask >> (i % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect::<String>()
        .parse()
        .expect("generated names are valid")
}

/// A host name for RDATA and chain owners, in a 0x20 spelling of its
/// own; one in four is longer than a `Name` stores inline.
fn host(label: &str, rng: &mut TestRng) -> Name {
    let pad = match rng.below(4) {
        0 => "a-label-that-pushes-the-name-past-the-inline-bound.",
        _ => "",
    };
    spelled(&format!("{label}.{pad}host.test"), rng)
}

/// RDATA of a kind picked at random, names inside it spelled at random.
fn other_rdata(i: u64, rng: &mut TestRng) -> RData {
    match rng.below(7) {
        0 => RData::Soa(Soa {
            mname: host("mname", rng),
            rname: host("hostmaster", rng),
            serial: rng.next_u64() as u32,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: i as u32,
        }),
        1 => RData::Mx(Mx {
            preference: i as u16,
            exchange: host("mx", rng),
        }),
        2 => RData::Srv(Srv {
            priority: 1,
            weight: i as u16,
            port: 853,
            target: host("srv", rng),
        }),
        3 => RData::Txt(TxtData {
            strings: (0..=i)
                .map(|s| vec![b'a' + s as u8; rng.below(300).min(255) as usize])
                .collect(),
        }),
        4 => RData::Caa(Caa {
            flags: 0x80,
            tag: b"issue".to_vec(),
            value: format!("ca{i}.example").into_bytes(),
        }),
        5 => RData::Ptr(host("ptr", rng)),
        _ => RData::Opaque((0..rng.below(40)).map(|b| b as u8).collect()),
    }
}

/// What a `put` under `(key, rtype)` carries: usually the key's own RRset,
/// sometimes a CNAME chain ending in it, sometimes records of unrelated
/// kinds — any of them, sometimes, under an owner spelled unlike the key.
fn section(key: &Name, text: &str, rtype: RecordType, rng: &mut TestRng) -> Vec<Record> {
    let n = rng.below(4); // 0 = the refused empty set
    let ttl = |rng: &mut TestRng| rng.below(40) as u32; // 0 = the refused zero TTL
    let mut owner = key.clone();
    let mut records = Vec::new();
    // A chain: each alias owned by the previous one's target.
    if n > 0 && rng.below(5) == 0 {
        for hop in 0..=rng.below(2) {
            let target = host(&format!("alias{hop}"), rng);
            records.push(Record::new(owner, ttl(rng), RData::Cname(target.clone())));
            owner = target;
        }
    }
    for i in 0..n {
        let owner = match rng.below(4) {
            0 if records.is_empty() => spelled(text, rng),
            _ => owner.clone(),
        };
        let rdata = match rtype {
            _ if rng.below(4) == 0 => other_rdata(i, rng),
            RecordType::NS => RData::Ns(host(&format!("ns{i}"), rng)),
            RecordType::AAAA => RData::Aaaa(std::net::Ipv6Addr::new(
                0x2001,
                0xdb8,
                0,
                0,
                0,
                0,
                rng.below(65_536) as u16,
                i as u16,
            )),
            _ => RData::A(std::net::Ipv4Addr::from(rng.next_u64() as u32)),
        };
        records.push(Record::new(owner, ttl(rng), rdata));
    }
    records
}

#[test]
fn random_operations_match_the_reference_lru() {
    const OPS: usize = 20_000;
    const SHARDS: usize = 64;
    const PER_SHARD: usize = 3;
    let names = universe();
    let types = [
        RecordType::NS,
        RecordType::A,
        RecordType::AAAA,
        RecordType::TXT, // never admitted
    ];
    let cache = Cache::new(SHARDS * PER_SHARD);
    assert_eq!(cache.capacity(), SHARDS * PER_SHARD);
    let mut model = Model::new(SHARDS, PER_SHARD);
    let mut rng = TestRng::deterministic();
    let mut now: SimTime = 0;
    let (mut puts, mut live_reads, mut cuts_found) = (0u64, 0u64, 0u64);
    // The last few keys written: most operations pick from here, or a
    // cache this small would almost never be read where it was written.
    let mut recent: Vec<(String, RecordType)> = Vec::new();
    // Every record type the stream stored.
    let mut kinds = BTreeSet::new();

    for op in 0..OPS {
        let (text, rtype) = if !recent.is_empty() && rng.below(100) < 60 {
            let (text, rtype) = &recent[rng.below(recent.len() as u64) as usize];
            // Sometimes one label below it, for cuts found above the name.
            let text = match rng.below(4) {
                0 if !text.starts_with("www.") => format!("www.{text}"),
                _ => text.clone(),
            };
            (text, *rtype)
        } else {
            (
                names[rng.below(names.len() as u64) as usize].clone(),
                types[rng.below(types.len() as u64) as usize],
            )
        };
        let name = spelled(&text, &mut rng);
        let shard = cache.shard_index(&CacheKey {
            name: name.clone(),
            rtype,
        });
        match rng.below(100) {
            0..=34 => {
                let records = section(&name, &text, rtype, &mut rng);
                kinds.extend(records.iter().map(|r| r.rtype.to_u16()));
                model.put(shard, &name, rtype, &records, now);
                cache.put(
                    CacheKey {
                        name: name.clone(),
                        rtype,
                    },
                    records,
                    now,
                );
                puts += 1;
                recent.push((text, rtype));
                if recent.len() > 32 {
                    recent.remove(0);
                }
            }
            35..=59 => {
                let want = model.read(shard, &name, rtype, now, true);
                model.count(want.is_some());
                let got = cache.get(&name, rtype, now);
                live_reads += u64::from(got.is_some());
                assert_eq!(
                    got.as_ref().map(|hit| hit.len()),
                    want.as_ref().map(|(records, _)| records.len()),
                    "op {op}: get {name} {rtype:?}"
                );
                assert_eq!(
                    got.map(|hit| exact(&hit.to_vec())),
                    want.map(|(records, _)| exact(&records)),
                    "op {op}: get {name} {rtype:?}"
                );
            }
            60..=74 => {
                let want = model.read(shard, &name, rtype, now, false);
                model.count(want.is_some());
                let got = cache.with_records(&name, rtype, now, |records, expires| {
                    (records.to_vec(), expires)
                });
                assert_eq!(
                    got.map(|(records, expires)| (exact(&records), expires)),
                    want.map(|(records, expires)| (exact(&records), expires)),
                    "op {op}: with_records {name} {rtype:?}"
                );
            }
            75..=94 => {
                let mut want = None;
                for depth in (1..=name.label_count()).rev() {
                    let suffix = name.suffix(depth);
                    let shard = cache.shard_index(&CacheKey {
                        name: suffix.clone(),
                        rtype: RecordType::NS,
                    });
                    if let Some((records, _)) =
                        model.read(shard, &suffix, RecordType::NS, now, true)
                    {
                        want = Some((suffix, records));
                        break;
                    }
                }
                model.count(want.is_some());
                let got = cache.deepest_cut(&name, now);
                cuts_found += u64::from(got.is_some());
                assert_eq!(
                    got.map(|(cut, hit)| (cut, exact(&hit.to_vec()))),
                    want.map(|(cut, records)| (cut, exact(&records))),
                    "op {op}: deepest_cut {name}"
                );
            }
            _ => now += rng.below(4) * SECONDS,
        }
        assert_eq!(
            cache.stats.hits.load(Ordering::Relaxed),
            model.hits,
            "op {op}: hits"
        );
        assert_eq!(
            cache.stats.misses.load(Ordering::Relaxed),
            model.misses,
            "op {op}: misses"
        );
        assert_eq!(
            cache.stats.evictions.load(Ordering::Relaxed),
            model.evictions,
            "op {op}: evictions"
        );
        assert_eq!(cache.len(), model.len(), "op {op}: len");
    }

    println!(
        "cache model: {OPS} ops, {puts} puts, {live_reads} get hits, {cuts_found} cuts, \
         {} hits / {} misses / {} evictions, {} entries left",
        model.hits,
        model.misses,
        model.evictions,
        cache.len()
    );
    // The stream must have exercised what it claims to.
    assert!(puts > 5_000 && live_reads > 200 && cuts_found > 200);
    assert!(model.evictions > 500, "{} evictions", model.evictions);
    let stored = [
        RecordType::A,
        RecordType::AAAA,
        RecordType::NS,
        RecordType::CNAME,
        RecordType::SOA,
        RecordType::MX,
        RecordType::SRV,
        RecordType::TXT,
        RecordType::CAA,
        RecordType::PTR,
        RecordType::NULL,
    ];
    assert!(stored.iter().all(|t| kinds.contains(&t.to_u16())));

    // Final key set: every key the stream could have written, read at time 0 (nothing
    // stored has expired by then) through the accessor that moves nothing.
    let mut left = BTreeSet::new();
    let below = names.iter().map(|n| format!("www.{n}"));
    for text in names.iter().cloned().chain(below) {
        let name: Name = text.parse().unwrap();
        for rtype in types {
            if cache.with_records(&name, rtype, 0, |_, _| ()).is_some() {
                left.insert((text.clone(), rtype.to_u16()));
            }
        }
    }
    assert_eq!(left, model.keys());
}

/// One step of the delegation differential, applied to the caches alike.
enum Step {
    /// Cache a referral for cut `cut`: its NS hosts, by index into the
    /// host pool, each with the `A` glue the referral delivered for it
    /// (last octet and TTL), if any.
    Cut {
        cut: usize,
        hosts: Vec<(usize, Option<(u8, u32)>)>,
        ttl: u32,
    },
    /// Store, or replace, a host's `A` glue on its own, as a glueless
    /// referral elsewhere would.
    Glue { host: usize, last: u8, ttl: u32 },
    /// Store an `A` RRset under a name no cut uses.
    Churn { name: u64, ttl: u32 },
    /// Read a host's glue through `get`, refreshing its recency.
    Touch { host: usize },
    /// Start a walk for a name one label below a cut.
    Walk { cut: usize, label: u64 },
}

/// 3 TLDs and 12 zones under each; every zone names three hosts of its
/// own, and 16 hosts under `dns<d>.net` are shared between cuts.
fn memo_pools() -> (Vec<Name>, Vec<Name>) {
    let mut cuts = Vec::new();
    let mut hosts = Vec::new();
    for t in 0..3 {
        cuts.push(format!("tld{t}"));
        for z in 0..12 {
            cuts.push(format!("z{z}.tld{t}"));
        }
    }
    for cut in &cuts {
        for h in 1..=3 {
            hosts.push(format!("ns{h}.{cut}"));
        }
    }
    for d in 0..4 {
        for h in 1..=4 {
            hosts.push(format!("ns{h}.dns{d}.net"));
        }
    }
    let names = |texts: Vec<String>| texts.iter().map(|t| t.parse().unwrap()).collect();
    (names(cuts), names(hosts))
}

/// A seeded step stream: delegations that change and are evicted, some
/// hosts delivered with glue and some without, separate glue that is
/// stored, replaced, expires, is evicted or never stored at all, and churn
/// of unrelated names that keeps the shards evicting — each step with the
/// virtual time it runs at.
fn memo_steps(cuts: usize, hosts: usize, n: usize) -> Vec<(SimTime, Step)> {
    let mut rng = TestRng::deterministic();
    let mut now: SimTime = 0;
    (0..n)
        .map(|_| {
            if rng.below(20) == 0 {
                now += rng.below(4) * SECONDS;
            }
            let step = match rng.below(100) {
                0..=5 => {
                    let cut = rng.below(cuts as u64) as usize;
                    let own = (0..3).map(|h| cut * 3 + h);
                    let shared = (0..16).map(|h| cuts * 3 + h);
                    let mut pool: Vec<usize> = own.chain(shared).collect();
                    let take = 1 + rng.below(5) as usize;
                    let hosts = (0..take)
                        .map(|_| {
                            let host = pool.swap_remove(rng.below(pool.len() as u64) as usize);
                            let glue = (rng.below(2) == 0)
                                .then(|| (rng.below(3) as u8, 5 + rng.below(90) as u32));
                            (host, glue)
                        })
                        .collect();
                    Step::Cut {
                        cut,
                        hosts,
                        ttl: 5 + rng.below(60) as u32,
                    }
                }
                // Hosts 0, 5, 10, … never get glue of their own.
                6..=25 => Step::Glue {
                    host: match rng.below(hosts as u64) as usize {
                        h if h % 5 == 0 => h + 1,
                        h => h,
                    },
                    last: 10 + rng.below(3) as u8,
                    ttl: 1 + rng.below(60) as u32,
                },
                26..=41 => Step::Churn {
                    name: rng.below(2_000),
                    ttl: 1 + rng.below(60) as u32,
                },
                42..=45 => Step::Touch {
                    host: rng.below(hosts as u64) as usize,
                },
                _ => Step::Walk {
                    cut: rng.below(cuts as u64) as usize,
                    label: rng.below(8),
                },
            };
            (now, step)
        })
        .collect()
}

/// A walk start reads a delegation as one entry. One cache takes the
/// memoized path and stores each referral with [`Cache::put_delegation`];
/// a plain twin stores the same NS set with [`Cache::put`] (its TTL cut to
/// the earliest delivered glue's, as the delegation's expiry is) and the
/// test remembers the delivered glue beside it. Both see the same steps,
/// and two threads take turns stepping them, so a memo entry filled by one
/// thread is read by the other. Every walk start must read:
///
/// * the delivered glue of each host that had some, whatever happened to
///   the host's separate glue entry since — evicted, expired, replaced;
/// * for a host without, what probing its separate glue in the plain twin
///   reads;
///
/// and the hits, misses and evictions both caches count must agree.
#[test]
fn memoized_walk_starts_match_per_nameserver_probes() {
    use std::collections::HashMap;
    use std::net::Ipv4Addr;
    use std::sync::{Condvar, Mutex};

    const STEPS: usize = 40_000;
    let (cuts, hosts) = memo_pools();
    let steps = memo_steps(cuts.len(), hosts.len(), STEPS);
    // 64 shards of six entries: the churn keeps every shard evicting.
    let memo = Cache::new(64 * 6);
    let plain = Cache::new(64 * 6);
    // The glue each cut's latest referral delivered, per NS record.
    let delivered: Mutex<HashMap<Name, Vec<Option<Ipv4Addr>>>> = Mutex::default();
    let turn = (Mutex::new(0usize), Condvar::new());
    let delivered_reads = std::sync::atomic::AtomicU64::new(0);
    let separate_differs = std::sync::atomic::AtomicU64::new(0);
    let probed_found = std::sync::atomic::AtomicU64::new(0);

    let step = |i: usize| {
        let (now, step) = &steps[i];
        let now = *now;
        let put = |cache: &Cache, name: &Name, rtype, records: Vec<Record>| {
            let key = CacheKey {
                name: name.clone(),
                rtype,
            };
            cache.put(key, records, now);
        };
        let glue_record = |host: usize, last: u8, ttl: u32| {
            Record::new(
                hosts[host].clone(),
                ttl,
                RData::A(Ipv4Addr::new(192, 0, 2, last)),
            )
        };
        match step {
            Step::Cut {
                cut,
                hosts: ns,
                ttl,
            } => {
                let zone = &cuts[*cut];
                let glue: Vec<Record> = ns
                    .iter()
                    .filter_map(|&(h, glue)| glue.map(|(last, ttl)| glue_record(h, last, ttl)))
                    .collect();
                let ns_records = |ttl: u32| -> Vec<Record> {
                    ns.iter()
                        .map(|&(h, _)| Record::new(zone.clone(), ttl, RData::Ns(hosts[h].clone())))
                        .collect()
                };
                memo.put_delegation(
                    zone,
                    &ns_records(*ttl),
                    |host| glue.iter().find(|g| g.name == *host),
                    now,
                );
                let expiry = glue.iter().map(|g| g.ttl).fold(*ttl, u32::min);
                put(&plain, zone, RecordType::NS, ns_records(expiry));
                for g in &glue {
                    for cache in [&memo, &plain] {
                        put(cache, &g.name, RecordType::A, vec![g.clone()]);
                    }
                }
                let addrs = ns
                    .iter()
                    .map(|(_, glue)| glue.map(|(last, _)| Ipv4Addr::new(192, 0, 2, last)))
                    .collect();
                delivered.lock().unwrap().insert(zone.clone(), addrs);
            }
            Step::Glue { host, last, ttl } => {
                for cache in [&memo, &plain] {
                    put(
                        cache,
                        &hosts[*host],
                        RecordType::A,
                        vec![glue_record(*host, *last, *ttl)],
                    );
                }
            }
            Step::Churn { name, ttl } => {
                let name: Name = format!("churn{name}.elsewhere.test").parse().unwrap();
                let addr = Ipv4Addr::from(*ttl);
                for cache in [&memo, &plain] {
                    put(
                        cache,
                        &name,
                        RecordType::A,
                        vec![Record::new(name.clone(), *ttl, RData::A(addr))],
                    );
                }
            }
            Step::Touch { host } => {
                let got = memo.get(&hosts[*host], RecordType::A, now);
                let want = plain.get(&hosts[*host], RecordType::A, now);
                assert_eq!(
                    got.map(|r| r.to_vec()),
                    want.map(|r| r.to_vec()),
                    "step {i}"
                );
            }
            Step::Walk { cut, label } => {
                let qname = cuts[*cut].child(&format!("q{label}")).unwrap();
                let got = memo.deepest_cut(&qname, now);
                let want = plain.deepest_cut(&qname, now);
                let hosts_of = |ns: &zdns_core::CachedRecords| -> Vec<Option<Name>> {
                    ns.iter().map(|r| r.target_name()).collect()
                };
                assert_eq!(
                    got.as_ref().map(|(cut, ns)| (cut, hosts_of(ns))),
                    want.as_ref().map(|(cut, ns)| (cut, hosts_of(ns))),
                    "step {i}: deepest cut of {qname}"
                );
                if let (Some((cut, ns)), Some((_, plain_ns))) = (got, want) {
                    let mut read = Vec::new();
                    memo.cut_addresses(&cut, &ns, now, |host, addr| {
                        read.push((host.clone(), addr))
                    });
                    let glue = delivered.lock().unwrap()[&cut].clone();
                    let expected: Vec<_> = plain_ns
                        .iter()
                        .zip(glue)
                        .filter_map(|(r, glue)| Some((r.target_name()?, glue)))
                        .map(|(host, glue)| {
                            let probe = |cache: &Cache| {
                                cache
                                    .with_records(&host, RecordType::A, now, |records, _| {
                                        records.iter().find_map(|r| r.a_addr())
                                    })
                                    .flatten()
                            };
                            let Some(addr) = glue else {
                                let addr = probe(&plain);
                                if addr.is_some() {
                                    probed_found.fetch_add(1, Ordering::Relaxed);
                                }
                                return (host, addr);
                            };
                            // The walk start counted the hit its probe
                            // would have counted, and probed nothing.
                            plain.stats.hits.fetch_add(1, Ordering::Relaxed);
                            delivered_reads.fetch_add(1, Ordering::Relaxed);
                            // What the separate entry holds now, read from
                            // both caches alike.
                            let separate = probe(&plain);
                            assert_eq!(probe(&memo), separate, "step {i}: glue of {host}");
                            if separate != Some(addr) {
                                separate_differs.fetch_add(1, Ordering::Relaxed);
                            }
                            (host, Some(addr))
                        })
                        .collect();
                    assert_eq!(read, expected, "step {i}: nameservers of {cut}");
                }
            }
        }
        for (what, a, b) in [
            ("hits", &memo.stats.hits, &plain.stats.hits),
            ("misses", &memo.stats.misses, &plain.stats.misses),
            ("evictions", &memo.stats.evictions, &plain.stats.evictions),
        ] {
            assert_eq!(
                a.load(Ordering::Relaxed),
                b.load(Ordering::Relaxed),
                "step {i}: {what}"
            );
        }
        assert_eq!(memo.len(), plain.len(), "step {i}: len");
    };

    /// Wakes the other thread when a turn ends — also when a failed
    /// assertion unwinds out of it, so the waiter finds the lock poisoned
    /// instead of waiting for a turn that never comes.
    struct Wake<'a>(&'a Condvar);
    impl Drop for Wake<'_> {
        fn drop(&mut self) {
            self.0.notify_all();
        }
    }
    std::thread::scope(|scope| {
        for parity in 0..2 {
            let (turn, step, steps) = (&turn, &step, &steps);
            scope.spawn(move || {
                for i in (parity..steps.len()).step_by(2) {
                    let (lock, ready) = turn;
                    let mut at = ready
                        .wait_while(lock.lock().expect("the other thread failed"), |at| *at != i)
                        .expect("the other thread failed");
                    let _wake = Wake(ready);
                    step(i);
                    *at += 1;
                }
            });
        }
    });

    let load = |n: &std::sync::atomic::AtomicU64| n.load(Ordering::Relaxed);
    let evictions = load(&plain.stats.evictions);
    println!(
        "delegations under churn: {} delivered addresses read, {} of them no longer \
         what the host's own glue entry reads; {} glueless hosts found by a probe; \
         {evictions} evictions",
        load(&delivered_reads),
        load(&separate_differs),
        load(&probed_found),
    );
    // The stream must reach what it claims to: delivered glue whose own
    // entry was evicted, expired or replaced, glueless hosts that a probe
    // resolves, and enough churn to evict constantly.
    assert!(load(&separate_differs) > 1_000);
    assert!(load(&probed_found) > 1_000);
    assert!(evictions > 5_000);
}
