//! Correctness of the serve-path packet cache (the PR-10 tentpole),
//! exercised through the public [`ServerRole::handle_datagram`] seam.
//!
//! The invariant under test: a packet-cache hit must be **byte-identical**
//! to what a fresh record-cache encode would have produced for the same
//! query — same ID, same flags, same cookie echo, same truncation
//! decision, the same spelling of the question — because the hit path is
//! a memcpy plus patches, not a re-encode, and one entry serves every
//! 0x20 spelling of its name. A role with `packet_cache_capacity: 0` is
//! the reference encoder: same record cache contents, same query, old
//! scratch-encode path.

use std::net::{Ipv4Addr, SocketAddr};

use proptest::TestRng;
use zdns_core::{CacheKey, Clock, PacketLookup, Resolver, ResolverConfig, ServeConfig, ServerRole};
use zdns_wire::{
    encode_query_into, Cookie, Edns, Message, MessageView, Name, Question, RData, Record,
    RecordClass, RecordType, ScratchBuf,
};

const SECONDS: u64 = 1_000_000_000;

fn peer() -> SocketAddr {
    "127.0.0.1:53535".parse().unwrap()
}

/// A serve role with (or without) the packet cache, no sockets attached.
fn role(packet_capacity: usize) -> ServerRole {
    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(192, 0, 2, 53)]));
    let config = ServeConfig {
        packet_cache_capacity: packet_capacity,
        ..ServeConfig::default()
    };
    ServerRole::new(resolver, Clock::new(), config)
}

fn put_records(role: &ServerRole, name: &str, records: Vec<Record>, now: u64) {
    role.resolver().core().cache.put(
        CacheKey {
            name: name.parse().unwrap(),
            rtype: RecordType::A,
        },
        records,
        now,
    );
}

fn put_a(role: &ServerRole, name: &str, ttl: u32, addr: [u8; 4], now: u64) {
    let owner: Name = name.parse().unwrap();
    put_records(
        role,
        name,
        vec![Record::new(
            owner,
            ttl,
            RData::A(Ipv4Addr::new(addr[0], addr[1], addr[2], addr[3])),
        )],
        now,
    );
}

fn a_query(id: u16, name: &str, cookie: Option<Cookie>) -> Vec<u8> {
    let mut scratch = ScratchBuf::new();
    let question = Question::new(name.parse().unwrap(), RecordType::A);
    encode_query_into(&mut scratch, id, &question, true, cookie.as_ref()).unwrap();
    scratch.take_bytes()
}

/// A query with full control over EDNS: `payload: None` drops the OPT
/// record entirely (a plain pre-EDNS client).
fn custom_query(id: u16, name: &str, payload: Option<u16>, cookie: Option<Cookie>) -> Vec<u8> {
    let mut m = Message::query(id, Question::new(name.parse().unwrap(), RecordType::A));
    m.flags.recursion_desired = true;
    m.edns = payload.map(|p| {
        let mut e = Edns {
            udp_payload_size: p,
            ..Edns::default()
        };
        if let Some(c) = cookie {
            e.set_cookie(c);
        }
        e
    });
    m.encode().unwrap()
}

/// `text` with the letters picked by `mask` in upper case.
fn spelled(text: &str, mask: u64) -> String {
    text.char_indices()
        .map(|(i, c)| match mask >> (i % 64) & 1 {
            1 => c.to_ascii_uppercase(),
            _ => c,
        })
        .collect()
}

#[test]
fn packet_hit_bytes_match_the_reference_encoder_exactly() {
    // Reference role (capacity 0, the A/B lever) and packet role share
    // identical record-cache contents: one small RRset, and one that
    // fits 1232 octets but not 512, stored under a mixed-case owner so
    // neither the key nor the entry is in any client's spelling.
    let mut reference = role(0);
    let mut packet = role(1024);
    let wide: Name = "Wide.Example".parse().unwrap();
    let wide_set: Vec<Record> = (0..40)
        .map(|i| Record::new(wide.clone(), 600, RData::A(Ipv4Addr::new(10, 1, 0, i))))
        .collect();
    for r in [&reference, &packet] {
        put_a(r, "hot.example", 300, [192, 0, 2, 7], 0);
        put_records(r, "wide.example", wide_set.clone(), 0);
    }
    let cookie = Cookie::client(*b"byteidnt");
    // What a client may vary besides its spelling: EDNS with and without
    // a cookie, no EDNS at all (the OPT record is trimmed off the
    // canonical packet; 512 octets are assumed), and a 512-octet payload
    // — TC=1 for the wide set either way.
    let shapes: [(Option<u16>, Option<Cookie>); 4] = [
        (Some(1232), Some(cookie)),
        (Some(1232), None),
        (None, None),
        (Some(512), Some(cookie)),
    ];
    let mut rng = TestRng::deterministic();
    let mut queries = 0;
    for round in 0..64 {
        // Masks 0 and !0 first, then whatever the seed gives.
        let mask = match round {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64(),
        };
        for name in ["hot.example", "wide.example"] {
            let name = spelled(name, mask);
            for (payload, cookie) in shapes {
                let id = rng.next_u64() as u16;
                let raw = custom_query(id, &name, payload, cookie);
                let want = reference
                    .handle_datagram(&raw, peer(), 0)
                    .expect("reference answers")
                    .to_vec();
                let got = packet
                    .handle_datagram(&raw, peer(), 0)
                    .expect("packet role answers")
                    .to_vec();
                assert_eq!(
                    got,
                    want,
                    "{name} payload {payload:?} cookie {}: packet-path bytes diverge \
                     from the fresh encode (PROPTEST_SEED replays the masks)",
                    cookie.is_some()
                );
                let reply = MessageView::parse(&got).unwrap();
                assert_eq!(
                    reply.question().unwrap().name.to_name().to_string(),
                    name,
                    "the client's own spelling is echoed"
                );
                assert_eq!(reply.has_edns(), payload.is_some());
                let cramped = payload != Some(1232) && name.eq_ignore_ascii_case("wide.example");
                assert_eq!(reply.flags().truncated, cramped, "{name} {payload:?}");
                assert_eq!(reply.answer_count() == 0, cramped);
                queries += 1;
            }
        }
    }
    let stats = packet.stats();
    assert_eq!(
        stats.packet_fills(),
        2,
        "one entry per name, whatever it is spelled"
    );
    assert_eq!(
        stats.packet_hits(),
        queries - 2,
        "every later query rides it"
    );
    assert_eq!(stats.cache_hits(), queries);
    assert_eq!(stats.truncated(), 2 * 64);
}

#[test]
fn entries_expire_at_the_answer_ttl_boundary() {
    let mut packet = role(1024);
    put_a(&packet, "ttl.example", 300, [192, 0, 2, 8], 0);
    let raw = a_query(1, "ttl.example", None);

    assert!(packet.handle_datagram(&raw, peer(), 0).is_some());
    assert_eq!(packet.stats().packet_fills(), 1);

    // One tick before the 300 s deadline: still a hit.
    let last_valid = 300 * SECONDS - 1;
    assert!(packet.handle_datagram(&raw, peer(), last_valid).is_some());
    assert_eq!(packet.stats().packet_hits(), 1);

    // At the deadline the packet entry reports Expired, and the record
    // entry behind it is dead too, so the query is forwarded upstream.
    assert!(packet
        .handle_datagram(&raw, peer(), 300 * SECONDS)
        .is_none());
    let stats = packet.stats();
    assert_eq!(stats.packet_expired(), 1);
    assert_eq!(stats.packet_hits(), 1, "no hit at the boundary");
    assert_eq!(stats.forwarded(), 1);
}

#[test]
fn record_cache_promotion_invalidates_the_memoized_answer() {
    let mut packet = role(1024);
    put_a(&packet, "fresh.example", 300, [10, 0, 0, 1], 0);
    let raw = a_query(2, "fresh.example", None);
    assert!(packet.handle_datagram(&raw, peer(), 0).is_some());
    assert_eq!(packet.stats().packet_fills(), 1);

    // An upstream answer promotes a fresher RRset for the same key: the
    // stale pre-encoded packet must not survive it.
    put_a(&packet, "fresh.example", 300, [10, 0, 0, 2], 1);
    assert_eq!(packet.stats().packet_invalidations(), 1);

    let bytes = packet.handle_datagram(&raw, peer(), 1).unwrap().to_vec();
    let reply = MessageView::parse(&bytes).unwrap();
    let addr = reply.answers().find_map(|r| r.a_addr()).unwrap();
    assert_eq!(addr, Ipv4Addr::new(10, 0, 0, 2), "new RRset served");
    let stats = packet.stats();
    assert_eq!(stats.packet_hits(), 0, "stale entry never served");
    assert_eq!(stats.packet_fills(), 2, "re-memoized from the new RRset");
}

#[test]
fn truncation_is_rechecked_against_each_clients_payload() {
    // ~40 A records ≈ 27 bytes each (uncompressed owner) — comfortably
    // past 512 but under the 1232 default advertisement.
    let mut reference = role(0);
    let mut packet = role(1024);
    let owner: Name = "midsize.example".parse().unwrap();
    let records: Vec<Record> = (0..40)
        .map(|i| Record::new(owner.clone(), 600, RData::A(Ipv4Addr::new(10, 1, 0, i))))
        .collect();
    for r in [&reference, &packet] {
        put_records(r, "midsize.example", records.clone(), 0);
    }

    // Fill from a roomy client: the full answer fits 1232 and is memoized.
    let roomy = custom_query(5, "midsize.example", Some(1232), None);
    let full = packet.handle_datagram(&roomy, peer(), 0).unwrap().to_vec();
    assert_eq!(MessageView::parse(&full).unwrap().answer_count(), 40);
    assert!(!MessageView::parse(&full).unwrap().flags().truncated);

    // A later client advertising only 512 must get TC=1 from the very
    // same cached packet — and match the reference encoder exactly.
    let cramped = custom_query(6, "midsize.example", Some(512), None);
    let want = reference
        .handle_datagram(&cramped, peer(), 0)
        .unwrap()
        .to_vec();
    let got = packet
        .handle_datagram(&cramped, peer(), 0)
        .unwrap()
        .to_vec();
    assert_eq!(got, want, "TC re-check diverges from the fresh encode");
    let reply = MessageView::parse(&got).unwrap();
    assert!(reply.flags().truncated);
    assert_eq!(reply.answer_count(), 0);
    let stats = packet.stats();
    assert_eq!(stats.packet_hits(), 1);
    assert_eq!(stats.truncated(), 1);
}

#[test]
fn case_variants_share_one_packet_and_echo_their_own_spelling() {
    // 0x20-style case randomization: both caches match names
    // case-insensitively, and the echoed question must preserve the
    // client's exact spelling — so a case variant is served from the
    // packet another spelling memoized, under its own question octets.
    let mut packet = role(1024);
    put_a(&packet, "case.example", 300, [192, 0, 2, 9], 0);

    let lower = a_query(7, "case.example", None);
    let upper = a_query(8, "CASE.Example", None);
    assert!(packet.handle_datagram(&lower, peer(), 0).is_some());
    for (raw, spelling) in [(&upper, "CASE.Example"), (&lower, "case.example")] {
        let bytes = packet.handle_datagram(raw, peer(), 1).unwrap().to_vec();
        let reply = MessageView::parse(&bytes).unwrap();
        let qname = reply.question().unwrap().name.to_name();
        assert_eq!(qname.to_string(), spelling, "exact spelling echoed");
        // The answer still reaches its owner through the question.
        let answer = reply.answers().next().unwrap();
        assert!(answer.name().eq_name(&qname));
        assert_eq!(answer.a_addr(), Some(Ipv4Addr::new(192, 0, 2, 9)));
    }

    let stats = packet.stats();
    assert_eq!(stats.packet_fills(), 1, "one entry for the name");
    assert_eq!(
        stats.packet_hits(),
        2,
        "the variant and the repeat both hit it"
    );
    let pc = packet.resolver().core().cache.packet_cache().unwrap();
    assert_eq!(pc.len(), 1);
    assert_eq!(pc.evictions(), 0);

    // A question name that arrives compressed (its root octet a pointer
    // into the header, which only a hostile client would send) has no
    // octets of the entry's length to echo: the record path answers it,
    // spelled out in full, and the packet table is left alone.
    let mut odd = vec![0u8; 12];
    odd[5] = 1; // QDCOUNT; the all-zero ID doubles as the root name
    odd.extend_from_slice(b"\x04CaSe\x07eXaMpLe\xC0\x00\x00\x01\x00\x01");
    let bytes = packet.handle_datagram(&odd, peer(), 1).unwrap().to_vec();
    let reply = MessageView::parse(&bytes).unwrap();
    let question = reply.question().unwrap();
    assert_eq!(question.name.to_name().to_string(), "CaSe.eXaMpLe");
    assert!(question.name.wire_bytes().is_some(), "echoed uncompressed");
    assert_eq!(
        reply.answers().next().unwrap().a_addr(),
        Some(Ipv4Addr::new(192, 0, 2, 9))
    );
    let stats = packet.stats();
    assert_eq!(stats.cache_hits(), 4);
    assert_eq!(stats.packet_hits(), 2);
    assert_eq!(stats.packet_fills(), 1);
}

#[test]
fn non_in_classes_never_touch_the_packet_cache() {
    let mut packet = role(1024);
    put_a(&packet, "classy.example", 300, [192, 0, 2, 10], 0);
    let mut m = Message::query(
        9,
        Question {
            name: "classy.example".parse().unwrap(),
            qtype: RecordType::A,
            qclass: RecordClass::CH,
        },
    );
    m.flags.recursion_desired = true;
    let raw = m.encode().unwrap();
    // The record cache keys on (name, type) only, so a CH query can still
    // answer from it — but it must do so through the direct encode path,
    // leaving the IN-keyed packet table untouched.
    assert!(packet.handle_datagram(&raw, peer(), 0).is_some());
    let stats = packet.stats();
    assert_eq!(stats.packet_fills(), 0);
    assert_eq!(stats.packet_hits(), 0);
}

#[test]
fn capacity_zero_disables_the_packet_path_entirely() {
    let mut off = role(0);
    put_a(&off, "off.example", 300, [192, 0, 2, 11], 0);
    let raw = a_query(10, "off.example", None);
    for _ in 0..3 {
        assert!(off.handle_datagram(&raw, peer(), 0).is_some());
    }
    let stats = off.stats();
    assert_eq!(stats.cache_hits(), 3, "record path still answers");
    assert_eq!(stats.packet_fills(), 0);
    assert_eq!(stats.packet_hits(), 0);
    assert_eq!(stats.packet_invalidations(), 0);
    assert!(
        off.resolver().core().cache.packet_cache().is_none(),
        "no packet table is even attached"
    );
}

#[test]
fn direct_packet_cache_lookup_agrees_with_the_serve_path() {
    // Sanity-check the public PacketCache surface against what the role
    // filled: the entry is findable under any spelling, and carries the
    // deadline the serve path derived (record expiry == min answer TTL
    // here).
    let mut packet = role(1024);
    put_a(&packet, "direct.example", 120, [192, 0, 2, 12], 0);
    let raw = a_query(11, "direct.example", None);
    assert!(packet.handle_datagram(&raw, peer(), 0).is_some());

    let pc = packet
        .resolver()
        .core()
        .cache
        .packet_cache()
        .expect("attached")
        .clone();
    let name: Name = "Direct.EXAMPLE".parse().unwrap();
    match pc.lookup(&name, RecordType::A, 0) {
        PacketLookup::Hit(entry) => {
            assert_eq!(entry.deadline(), 120 * SECONDS);
            let canon = MessageView::parse(entry.canonical_bytes()).unwrap();
            assert_eq!(canon.id(), 0, "canonical form is ID-less");
            assert_eq!(canon.answer_count(), 1);
        }
        other => panic!("expected a hit, got {other:?}"),
    }
    assert!(matches!(
        pc.lookup(&name, RecordType::AAAA, 0),
        PacketLookup::Miss
    ));
}
