//! What a cached name costs, as a standing check.
//!
//! The record cache stores an answer section as one block of bytes laid
//! out the way the wire carries it, so an entry's footprint follows the
//! octets it holds, not `size_of::<Record>()`. The counting allocator's
//! per-thread live-bytes reading (requested sizes, so container capacity
//! counts in full and allocator rounding does not) puts a ceiling on
//! that, per entry, for the two shapes the cache mostly holds: an address
//! RRset and a zone cut's NS set. Before the block layout the same
//! readings were 427.6 and 891.6 bytes; with it they were 146.8 and
//! 242.7 behind a hash map per shard, and are 119.7 and 215.6 behind a
//! `u32` probe table per shard. The packet cache's share of the footprint
//! is one entry per name, however many spellings ask for it.

use std::collections::BTreeSet;
use std::net::{Ipv4Addr, SocketAddr};

use zdns_core::alloc_count::thread_live_bytes;
use zdns_core::{
    Cache, CacheKey, Clock, CountingAllocator, Resolver, ResolverConfig, ServeConfig, ServerRole,
};
use zdns_wire::{encode_query_into, Name, Question, RData, Record, RecordType, ScratchBuf};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ENTRIES: usize = 100_000;

/// Live bytes per entry of a default-sized cache holding one section per
/// `section(i)`, checked to be handed back in full when the cache is dropped.
fn live_bytes_per_entry(section: impl Fn(usize) -> (CacheKey, Vec<Record>)) -> f64 {
    // `put` assembles blocks in a buffer that belongs to the thread, not
    // to any cache: let it reach its size before the first reading.
    let (key, records) = section(0);
    Cache::new(64).put(key, records, 0);

    let start = thread_live_bytes();
    let cache = Cache::new(600_000);
    for i in 0..ENTRIES {
        let (key, records) = section(i);
        cache.put(key, records, 0);
    }
    assert_eq!(cache.len(), ENTRIES);
    let held = thread_live_bytes() - start;
    drop(cache);
    assert_eq!(thread_live_bytes(), start, "a dropped cache keeps nothing");
    held as f64 / ENTRIES as f64
}

#[test]
fn a_one_address_entry_holds_at_most_125_bytes() {
    let per_entry = live_bytes_per_entry(|i| {
        let name: Name = format!("c{i}.footprint.test").parse().unwrap();
        let key = CacheKey {
            name: name.clone(),
            rtype: RecordType::A,
        };
        let addr = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
        (key, vec![Record::new(name, 300, RData::A(addr))])
    });
    println!("one-A entry: {per_entry:.1} live bytes");
    assert!(per_entry <= 125.0, "{per_entry:.1} bytes per one-A entry");
}

#[test]
fn a_three_ns_cut_holds_at_most_222_bytes() {
    let per_entry = live_bytes_per_entry(|i| {
        let zone: Name = format!("z{i}.footprint.test").parse().unwrap();
        let key = CacheKey {
            name: zone.clone(),
            rtype: RecordType::NS,
        };
        let ns_set = (1..=3)
            .map(|n| {
                let host = format!("ns{n}.z{i}.footprint.test").parse().unwrap();
                Record::new(zone.clone(), 172_800, RData::Ns(host))
            })
            .collect();
        (key, ns_set)
    });
    println!("three-NS cut: {per_entry:.1} live bytes");
    assert!(per_entry <= 222.0, "{per_entry:.1} bytes per three-NS cut");
}

#[test]
fn fifty_spellings_of_a_hot_name_share_one_packet_entry() {
    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(192, 0, 2, 53)]));
    let name: Name = "hot-name.footprint.test".parse().unwrap();
    resolver.core().cache.put(
        CacheKey {
            name: name.clone(),
            rtype: RecordType::A,
        },
        vec![Record::new(
            name,
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        )],
        0,
    );
    let mut role = ServerRole::new(resolver.clone(), Clock::new(), ServeConfig::default());
    let peer: SocketAddr = "127.0.0.1:53535".parse().unwrap();
    let mut scratch = ScratchBuf::new();
    let mut spellings = BTreeSet::new();
    for spelling in 0..50u64 {
        // The spelling's bits pick the letters in upper case; 0 is the
        // all-lowercase one.
        let text: String = "hot-name.footprint.test"
            .char_indices()
            .map(|(i, c)| match (spelling * 0x9E37_79B9) >> (i % 32) & 1 {
                1 => c.to_ascii_uppercase(),
                _ => c,
            })
            .collect();
        let question = Question::new(text.parse().unwrap(), RecordType::A);
        scratch.reset();
        encode_query_into(&mut scratch, spelling as u16, &question, true, None).unwrap();
        let reply = role
            .handle_datagram(scratch.message_bytes(), peer, 1)
            .expect("served from cache");
        let echoed = zdns_wire::MessageView::parse(reply).unwrap();
        assert_eq!(echoed.question().unwrap().name.to_name().to_string(), text);
        spellings.insert(text);
    }
    assert_eq!(spellings.len(), 50);
    let packets = resolver.core().cache.packet_cache().expect("attached");
    assert_eq!(packets.len(), 1);
    assert_eq!(role.stats().packet_fills(), 1);
    assert_eq!(role.stats().packet_hits(), 49);
}
