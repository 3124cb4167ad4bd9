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
