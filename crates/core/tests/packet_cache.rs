//! Correctness of the serve-path packet cache (the PR-10 tentpole),
//! exercised through the public [`ServerRole::handle_datagram`] seam,
//! and of every other reply `zdns serve` writes.
//!
//! The invariant under test: a packet-cache hit must be **byte-identical**
//! to what a fresh record-cache encode would have produced for the same
//! query — same ID, same flags, same cookie echo, same truncation
//! decision, the same spelling of the question — because the hit path is
//! a memcpy plus patches, not a re-encode, and one entry serves every
//! 0x20 spelling of its name. The reference is the wire crate's owned
//! [`Message`] encoder ([`reference_reply`]): it builds each expected
//! reply whole, for its client, with no canonical form and no patch, so
//! it checks the record hits' canonical encode as well as the per-client
//! patch. Record hits the packet cache cannot memoize,
//! FORMERR and forwarded answers (over UDP and TCP, through a reactor and
//! a loopback upstream) are held to the same reference.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::TestRng;
use zdns_core::serve::SERVER_COOKIE;
use zdns_core::{
    AddrMap, CacheKey, Clock, PacketLookup, Reactor, ReactorConfig, Resolver, ResolverConfig,
    ServeConfig, ServerRole,
};
use zdns_netsim::WireServer;
use zdns_wire::{
    encode_query_into, Cookie, Edns, Message, MessageView, Name, Question, RData, Rcode,
    RcodeField, Record, RecordClass, RecordType, ScratchBuf,
};
use zdns_zones::{AuthResponse, ServerProfile, Universe, Zone};

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

/// The reply `query` must get, built by the wire crate's owned encoder:
/// the query's ID and flags, answered (QR and RA set; AA, TC and AD
/// clear), its question as decoded, `answers` and `authorities`, and — if
/// the query carried EDNS — an OPT record advertising 1232 octets that
/// echoes the client cookie with serve's server half. Over UDP a reply
/// larger than the query's payload (512 octets at least) is the same
/// message with no records and TC set.
fn reference_reply(
    query: &[u8],
    rcode: Rcode,
    answers: Vec<Record>,
    authorities: Vec<Record>,
    over_udp: bool,
) -> Vec<u8> {
    let query = Message::decode(query).unwrap();
    let mut flags = query.flags;
    flags.response = true;
    flags.recursion_available = true;
    flags.authoritative = false;
    flags.truncated = false;
    flags.authenticated = false;
    let limit = match (&query.edns, over_udp) {
        (_, false) => usize::MAX,
        (Some(edns), true) => usize::from(edns.udp_payload_size).max(512),
        (None, true) => 512,
    };
    let edns = query.edns.as_ref().map(|asked| {
        let mut edns = Edns::default();
        if let Some(cookie) = asked.cookie() {
            let mut full = cookie.client_part().to_vec();
            full.extend_from_slice(&SERVER_COOKIE);
            edns.set_cookie(Cookie::from_wire(&full).unwrap());
        }
        edns
    });
    let mut reply = Message {
        id: query.id,
        flags,
        rcode: RcodeField(rcode),
        questions: query.questions,
        answers,
        authorities,
        additionals: Vec::new(),
        edns,
    };
    let bytes = reply.encode().unwrap();
    if bytes.len() <= limit {
        return bytes;
    }
    reply.answers.clear();
    reply.authorities.clear();
    reply.flags.truncated = true;
    reply.encode().unwrap()
}

fn a_records(name: &str, ttl: u32, addrs: impl IntoIterator<Item = [u8; 4]>) -> Vec<Record> {
    let owner: Name = name.parse().unwrap();
    addrs
        .into_iter()
        .map(|a| Record::new(owner.clone(), ttl, RData::A(Ipv4Addr::from(a))))
        .collect()
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
    // The packet role holds one small RRset, and one that fits 1232
    // octets but not 512, stored under a mixed-case owner so neither the
    // key nor the entry is in any client's spelling; the reference
    // encodes the same records.
    let mut packet = role(1024);
    let hot_set = a_records("hot.example", 300, [[192, 0, 2, 7]]);
    let wide_set = a_records("Wide.Example", 600, (0..40).map(|i| [10, 1, 0, i]));
    put_records(&packet, "hot.example", hot_set.clone(), 0);
    put_records(&packet, "wide.example", wide_set.clone(), 0);
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
                let records = match name.eq_ignore_ascii_case("hot.example") {
                    true => hot_set.clone(),
                    false => wide_set.clone(),
                };
                let want = reference_reply(&raw, Rcode::NoError, records, Vec::new(), true);
                let got = packet
                    .handle_datagram(&raw, peer(), 0)
                    .expect("packet role answers")
                    .to_vec();
                assert_eq!(
                    got,
                    want,
                    "{name} payload {payload:?} cookie {}: packet-path bytes diverge \
                     from the reference encode (PROPTEST_SEED replays the masks)",
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
    let mut packet = role(1024);
    let records = a_records("midsize.example", 600, (0..40).map(|i| [10, 1, 0, i]));
    put_records(&packet, "midsize.example", records.clone(), 0);

    // Fill from a roomy client: the full answer fits 1232 and is memoized.
    let roomy = custom_query(5, "midsize.example", Some(1232), None);
    let full = packet.handle_datagram(&roomy, peer(), 0).unwrap().to_vec();
    assert_eq!(MessageView::parse(&full).unwrap().answer_count(), 40);
    assert!(!MessageView::parse(&full).unwrap().flags().truncated);

    // A later client advertising only 512 must get TC=1 from the very
    // same cached packet — and match the reference encoder exactly.
    let cramped = custom_query(6, "midsize.example", Some(512), None);
    let want = reference_reply(&cramped, Rcode::NoError, records, Vec::new(), true);
    let got = packet
        .handle_datagram(&cramped, peer(), 0)
        .unwrap()
        .to_vec();
    assert_eq!(got, want, "TC re-check diverges from the reference encode");
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

#[test]
fn hits_the_packet_cache_cannot_memoize_match_the_reference() {
    // A CH-class question and a question name that arrives compressed
    // are answered from the record cache but never memoized; with and
    // without a cookie, their bytes are still the reference's.
    let mut packet = role(1024);
    let records = a_records("odd.example", 300, [[192, 0, 2, 13]]);
    put_records(&packet, "odd.example", records.clone(), 0);
    let cookie = Cookie::client(*b"oddshape");
    let mut chaos = Message::query(21, {
        let mut q = Question::new("Odd.Example".parse().unwrap(), RecordType::A);
        q.qclass = RecordClass::CH;
        q
    });
    chaos.flags.recursion_desired = true;
    let mut compressed = vec![0u8; 12];
    compressed[5] = 1; // QDCOUNT; the all-zero ID doubles as the root name
    compressed.extend_from_slice(b"\x03oDd\x07exAMPLE\xC0\x00\x00\x01\x00\x01");
    let mut compressed_cookie = compressed.clone();
    compressed_cookie[11] = 1; // ARCOUNT: an OPT with the cookie follows
                               // Root owner, TYPE 41, payload 1232, TTL 0, RDLENGTH 12, then option
                               // 10 (COOKIE) of 8 octets.
    compressed_cookie.extend_from_slice(&[0, 0, 41, 4, 208, 0, 0, 0, 0, 0, 12, 0, 10, 0, 8]);
    compressed_cookie.extend_from_slice(b"oddshape");
    let chaos_plain = chaos.encode().unwrap();
    chaos.edns.as_mut().unwrap().set_cookie(cookie);
    let chaos_cookie = chaos.encode().unwrap();
    chaos.edns = None;
    let chaos_no_edns = chaos.encode().unwrap();
    let queries = [
        chaos_plain,
        chaos_cookie,
        chaos_no_edns,
        compressed,
        compressed_cookie,
    ];
    for raw in &queries {
        let got = packet.handle_datagram(raw, peer(), 0).unwrap().to_vec();
        let want = reference_reply(raw, Rcode::NoError, records.clone(), Vec::new(), true);
        assert_eq!(got, want, "query {raw:02x?}");
    }
    let stats = packet.stats();
    assert_eq!(stats.cache_hits(), queries.len() as u64);
    assert_eq!((stats.packet_fills(), stats.packet_hits()), (0, 0));
}

#[test]
fn formerr_matches_the_reference_with_and_without_a_cookie() {
    let mut packet = role(1024);
    let questionless = |edns: Option<Edns>| {
        let mut m = Message {
            id: 0x5151,
            edns,
            ..Message::default()
        };
        m.flags.recursion_desired = true;
        m.encode().unwrap()
    };
    let mut with_cookie = Edns::default();
    with_cookie.set_cookie(Cookie::client(*b"formerr!"));
    for raw in [
        questionless(None),
        questionless(Some(Edns::default())),
        questionless(Some(with_cookie)),
    ] {
        let got = packet.handle_datagram(&raw, peer(), 0).unwrap().to_vec();
        let want = reference_reply(&raw, Rcode::FormErr, Vec::new(), Vec::new(), true);
        assert_eq!(got, want);
        assert_eq!(MessageView::parse(&got).unwrap().rcode(), Rcode::FormErr);
    }
}

/// The upstream behind [`Forwarder`]: the `fwd.test` zone (`ok` one A
/// record, `wide` 40 of them, every other name NXDOMAIN with the zone's
/// SOA), except that `fail.fwd.test` is SERVFAIL.
struct Upstream(Zone);

impl Universe for Upstream {
    fn respond(&self, _server: Ipv4Addr, question: &Question) -> Option<AuthResponse> {
        if question.name == "fail.fwd.test".parse().unwrap() {
            return Some(AuthResponse::servfail());
        }
        Some(AuthResponse::from_zone_answer(
            self.0.lookup(&question.name, question.qtype),
        ))
    }

    fn server_profile(&self, _server: Ipv4Addr) -> ServerProfile {
        ServerProfile::default()
    }

    fn root_hints(&self) -> Vec<(Name, Ipv4Addr)> {
        Vec::new()
    }
}

fn upstream_zone() -> Zone {
    let mut zone = Zone::new(
        "fwd.test".parse().unwrap(),
        "ns1.fwd.test".parse().unwrap(),
        300,
    );
    let records = a_records("ok.fwd.test", 300, [[192, 0, 2, 21]])
        .into_iter()
        .chain(a_records(
            "wide.fwd.test",
            300,
            (0..40).map(|i| [10, 2, 0, i]),
        ));
    for record in records {
        zone.add(record);
    }
    zone
}

/// A serve role with both listeners, installed in a reactor that
/// forwards its misses to a loopback [`Upstream`].
struct Forwarder {
    reactor: Reactor,
    udp: SocketAddr,
    tcp: SocketAddr,
    _upstream: WireServer,
}

impl Forwarder {
    fn new() -> Forwarder {
        let upstream = WireServer::start(
            Arc::new(Upstream(upstream_zone())) as Arc<dyn Universe>,
            Ipv4Addr::LOCALHOST,
        )
        .unwrap();
        let upstream_addr = upstream.addr();
        let addr_map: Arc<AddrMap> = Arc::new(move |_| upstream_addr);
        let reactor_config = ReactorConfig {
            max_in_flight: 8,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        };
        let mut reactor = Reactor::new(reactor_config, addr_map).unwrap();
        let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::LOCALHOST]));
        let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tcp = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let (udp_addr, tcp_addr) = (udp.local_addr().unwrap(), tcp.local_addr().unwrap());
        let role = ServerRole::new(resolver, Clock::new(), ServeConfig::default())
            .with_udp_listener(udp)
            .unwrap()
            .with_tcp_listener(tcp)
            .unwrap();
        reactor.set_server_role(role);
        Forwarder {
            reactor,
            udp: udp_addr,
            tcp: tcp_addr,
            _upstream: upstream,
        }
    }

    /// Send `query` over UDP or TCP and tick the reactor until the reply
    /// arrives.
    fn ask(&mut self, query: &[u8], over_udp: bool) -> Vec<u8> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut buf = vec![0u8; 65_536];
        if over_udp {
            let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            client.set_nonblocking(true).unwrap();
            client.send_to(query, self.udp).unwrap();
            loop {
                self.reactor.serve_tick();
                if let Ok(n) = client.recv(&mut buf) {
                    return buf[..n].to_vec();
                }
                assert!(Instant::now() < deadline, "no UDP reply");
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let mut client = TcpStream::connect(self.tcp).unwrap();
        client
            .write_all(&(query.len() as u16).to_be_bytes())
            .unwrap();
        client.write_all(query).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        loop {
            self.reactor.serve_tick();
            if let Ok(n) = client.read(&mut buf) {
                got.extend_from_slice(&buf[..n]);
            }
            if got.len() >= 2 && got.len() == 2 + usize::from(u16::from_be_bytes([got[0], got[1]]))
            {
                return got.split_off(2);
            }
            assert!(Instant::now() < deadline, "no TCP reply");
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[test]
fn forwarded_answers_match_the_reference_over_udp_and_tcp() {
    let soa = upstream_zone().soa().clone();
    let cookie = Cookie::client(*b"forwardd");
    let shapes = [
        (
            "ok.fwd.test",
            Rcode::NoError,
            a_records("ok.fwd.test", 300, [[192, 0, 2, 21]]),
            Vec::new(),
        ),
        ("none.fwd.test", Rcode::NxDomain, Vec::new(), vec![soa]),
        ("fail.fwd.test", Rcode::ServFail, Vec::new(), Vec::new()),
    ];
    for (name, rcode, answers, authorities) in shapes {
        for over_udp in [true, false] {
            for (id, payload, cookie) in [(31, Some(1232), Some(cookie)), (32, None, None)] {
                // A fresh forwarder each time, so nothing is answered from
                // the cache the last forward filled.
                let mut forwarder = Forwarder::new();
                let raw = custom_query(id, &spelled(name, 0x15), payload, cookie);
                let got = forwarder.ask(&raw, over_udp);
                let want =
                    reference_reply(&raw, rcode, answers.clone(), authorities.clone(), over_udp);
                assert_eq!(got, want, "{name} over UDP {over_udp} EDNS {payload:?}");
            }
        }
    }
}

#[test]
fn a_forwarded_udp_answer_over_the_limit_comes_back_empty_with_tc() {
    // 40 A records fit 1232 octets but not 512: over UDP the client that
    // advertises 512 gets TC and no records at all — the same
    // all-or-nothing truncation a cache hit gets — and TCP gets them all.
    let wide = a_records("wide.fwd.test", 300, (0..40).map(|i| [10, 2, 0, i]));
    let raw = custom_query(41, "wide.fwd.test", Some(512), None);
    let got = Forwarder::new().ask(&raw, true);
    let reply = MessageView::parse(&got).unwrap();
    assert!(reply.flags().truncated);
    assert_eq!(reply.answer_count(), 0);
    assert_eq!(
        got,
        reference_reply(&raw, Rcode::NoError, wide.clone(), Vec::new(), true)
    );
    let whole = Forwarder::new().ask(&raw, false);
    assert_eq!(MessageView::parse(&whole).unwrap().answer_count(), 40);
    assert_eq!(
        whole,
        reference_reply(&raw, Rcode::NoError, wide, Vec::new(), false)
    );
}

#[test]
fn a_burst_from_two_clients_is_answered_once_each_with_the_seam_bytes() {
    // Three names whose replies differ in length (one, two and three A
    // records), asked over and over by two clients — one with a cookie,
    // one without — between FORMERRs: record hits, packet hits and
    // FORMERR in one tick, sent as one grouped flush. Every query gets
    // exactly one reply, byte-identical to what `handle_datagram` gives
    // for it.
    let names = ["a.burst.test", "bb.burst.test", "ccc.burst.test"];
    let (serving, mut twin) = (role(1024), role(1024));
    for role in [&serving, &twin] {
        for (n, name) in names.iter().enumerate() {
            let records = a_records(name, 3600, (0..=n as u8).map(|i| [10, 9, n as u8, i]));
            put_records(role, name, records, 0);
        }
    }
    let listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let listen = listener.local_addr().unwrap();
    let serving = serving.with_udp_listener(listener).unwrap();
    let stats = serving.stats();
    let addr_map: Arc<AddrMap> = Arc::new(|_| (Ipv4Addr::LOCALHOST, 9).into());
    let config = ReactorConfig {
        source: Ipv4Addr::LOCALHOST,
        ..ReactorConfig::default()
    };
    let mut reactor = Reactor::new(config, addr_map).unwrap();
    reactor.set_server_role(serving);

    let clients: Vec<(UdpSocket, Option<Cookie>)> = [Some(Cookie::client(*b"burstone")), None]
        .into_iter()
        .map(|cookie| {
            let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            socket
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (socket, cookie)
        })
        .collect();
    let questionless = |id: u16| {
        let mut m = Message {
            id,
            edns: Some(Edns::default()),
            ..Message::default()
        };
        m.flags.recursion_desired = true;
        m.encode().unwrap()
    };
    const PER_CLIENT: u16 = 24;
    let mut want = Vec::new();
    for id in 0..PER_CLIENT {
        for (socket, cookie) in &clients {
            let peer = socket.local_addr().unwrap();
            let query = match id % 8 {
                7 => questionless(id),
                k => a_query(id, names[usize::from(k) % names.len()], *cookie),
            };
            socket.send_to(&query, listen).unwrap();
            let reply = twin.handle_datagram(&query, peer, 0).unwrap().to_vec();
            want.push((peer, id, reply));
        }
    }
    let asked = 2 * u64::from(PER_CLIENT);
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.responses() < asked {
        assert!(Instant::now() < deadline, "burst unanswered");
        reactor.serve_tick();
    }
    assert_eq!(stats.responses(), asked);
    assert_eq!(
        stats.packet_hits() + stats.packet_fills(),
        stats.cache_hits()
    );
    assert!(stats.packet_hits() > 0 && stats.packet_fills() == names.len() as u64);

    let mut buf = [0u8; 4096];
    for (socket, _) in &clients {
        let peer = socket.local_addr().unwrap();
        let mut got: Vec<(u16, Vec<u8>)> = (0..PER_CLIENT)
            .map(|_| {
                let (n, from) = socket.recv_from(&mut buf).unwrap();
                assert_eq!(from, listen);
                (
                    MessageView::parse(&buf[..n]).unwrap().id(),
                    buf[..n].to_vec(),
                )
            })
            .collect();
        got.sort();
        let mine: Vec<(u16, Vec<u8>)> = want
            .iter()
            .filter(|(to, _, _)| *to == peer)
            .map(|(_, id, reply)| (*id, reply.clone()))
            .collect();
        assert_eq!(got, mine, "client {peer}");
        let lengths: std::collections::BTreeSet<usize> = mine.iter().map(|r| r.1.len()).collect();
        assert!(lengths.len() >= 3, "{lengths:?}");
        socket.set_nonblocking(true).unwrap();
        assert!(
            socket.recv_from(&mut buf).is_err(),
            "a query answered twice"
        );
    }
}
