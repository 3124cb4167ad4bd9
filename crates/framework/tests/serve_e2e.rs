//! Serve mode end-to-end: a `zdns_framework::serve` fleet on loopback,
//! answering a real scan *through* itself — scanning reactor → serve
//! listener → per-client gate → cache → forwarding machine → upstream
//! `WireServer` — including cache warm-up across rounds, cookie echo,
//! and the UDP-truncation → TCP-retry round trip, on every I/O backend.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::Arc;

use zdns_core::{
    collecting_sink, AddrMap, Admission, Driver, IoBackend, Reactor, ReactorConfig, Resolver,
    ResolverConfig, Status,
};
use zdns_framework::serve::{start, ServeOptions};
use zdns_netsim::WireServer;
use zdns_wire::{
    encode_query_into, Cookie, MessageView, Name, Question, RData, Record, RecordType, ScratchBuf,
};
use zdns_zones::{ExplicitUniverse, Universe, Zone};

/// Expected address for the i-th scan name (unique per name, so a mixed-up
/// answer anywhere in the chain is always detectable).
fn scan_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, (i / 256) as u8, (i % 256) as u8)
}

/// A universe with one authoritative zone of uniquely-addressed names,
/// plus a name fat enough (120 A records) that its answer cannot fit a
/// 1232-byte UDP response. Hosted at 127.0.0.1 so the serve fleet's
/// upstream address map stays a loopback identity.
fn upstream_universe(n: usize) -> Arc<ExplicitUniverse> {
    let server_ip = Ipv4Addr::LOCALHOST;
    let mut zone = Zone::new(
        "scan.test".parse().unwrap(),
        "ns1.scan.test".parse().unwrap(),
        300,
    );
    for i in 0..n {
        zone.add(Record::new(
            format!("n{i}.scan.test").parse().unwrap(),
            300,
            RData::A(scan_addr(i)),
        ));
    }
    let fat: Name = "fat.scan.test".parse().unwrap();
    for i in 0..120usize {
        zone.add(Record::new(
            fat.clone(),
            300,
            RData::A(Ipv4Addr::new(10, 99, (i / 256) as u8, (i % 256) as u8)),
        ));
    }
    let mut u = ExplicitUniverse::new();
    u.host(server_ip, zone);
    Arc::new(u)
}

/// Start an upstream `WireServer` and a serve fleet forwarding to it.
fn serve_fleet(
    universe: Arc<ExplicitUniverse>,
    io_backend: IoBackend,
    shards: usize,
    client_pps: f64,
) -> (WireServer, zdns_framework::ServeHandle) {
    let upstream = WireServer::start(universe as Arc<dyn Universe>, Ipv4Addr::LOCALHOST).unwrap();
    let handle = start(&ServeOptions {
        listen: SocketAddr::new(Ipv4Addr::LOCALHOST.into(), 0),
        upstreams: vec![upstream.addr()],
        cache_capacity: 10_000,
        client_pps,
        io_backend,
        shards,
        ..ServeOptions::default()
    })
    .unwrap();
    (upstream, handle)
}

/// A scanning reactor whose "external resolver" is the serve fleet.
fn scan_through(serve_addr: SocketAddr, questions: Vec<Question>) -> Vec<zdns_core::LookupResult> {
    let map: Arc<AddrMap> = Arc::new(move |_ip| serve_addr);
    let mut config = ResolverConfig::external(vec![Ipv4Addr::LOCALHOST]);
    config.timeout = 3 * zdns_netsim::SECONDS;
    config.retries = 2;
    let resolver = Resolver::new(config);
    let (sink, collected) = collecting_sink();
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: questions.len().max(1),
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();
    let mut machines: Vec<_> = questions
        .into_iter()
        .map(|q| resolver.machine(q, Some(sink.clone())))
        .collect();
    machines.reverse();
    let mut feed = || match machines.pop() {
        Some(m) => Admission::Admit(m),
        None => Admission::Exhausted,
    };
    let mut on_done = |_outcome: Option<zdns_netsim::JobOutcome>| {};
    reactor.run_scan(&mut feed, &mut on_done);
    let results = std::mem::take(&mut *collected.lock());
    results
}

fn a_questions(n: usize) -> Vec<Question> {
    (0..n)
        .map(|i| Question::new(format!("n{i}.scan.test").parse().unwrap(), RecordType::A))
        .collect()
}

/// The tentpole assertion: a scan answered end-to-end through `zdns
/// serve`, with the second round warmed by the first round's cache
/// fills.
fn scan_through_serve_warms_cache(io_backend: IoBackend, shards: usize) {
    const N: usize = 30;
    let (_upstream, handle) = serve_fleet(upstream_universe(N), io_backend, shards, 0.0);
    let addr = handle.local_addr();

    // Round 1: everything misses and is forwarded upstream.
    let round1 = scan_through(addr, a_questions(N));
    assert_eq!(round1.len(), N);
    for r in &round1 {
        assert_eq!(r.status, Status::NoError, "{:?}", r.name);
        let text = r.name.to_string();
        let digits: String = text
            .trim_start_matches('n')
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let i: usize = digits.parse().expect("name carries its index");
        assert!(
            r.answers
                .iter()
                .any(|rec| rec.rdata == RData::A(scan_addr(i))),
            "lookup {i} got someone else's answer: {:?}",
            r.answers
        );
    }
    let forwarded_r1 = handle.forwarded();
    let hits_r1 = handle.cache_hits();
    assert!(
        forwarded_r1 >= N as u64,
        "round 1 must forward ({forwarded_r1})"
    );

    // Round 2: the same names again — now the cache in front answers.
    let round2 = scan_through(addr, a_questions(N));
    assert_eq!(round2.len(), N);
    assert!(round2.iter().all(|r| r.status == Status::NoError));
    let hits_r2 = handle.cache_hits();
    assert!(
        hits_r2 - hits_r1 >= (N as u64) * 8 / 10,
        "repeat scan must be answered from cache (round-2 hits: {})",
        hits_r2 - hits_r1
    );
    assert_eq!(
        handle.forwarded(),
        forwarded_r1,
        "a warmed cache forwards nothing new"
    );
    assert!(handle.responses() >= 2 * N as u64);
}

#[test]
fn scan_through_serve_warms_cache_syscall() {
    scan_through_serve_warms_cache(IoBackend::Syscall, 1);
}

#[test]
fn scan_through_serve_warms_cache_mmsg() {
    scan_through_serve_warms_cache(IoBackend::Mmsg, 1);
}

#[test]
fn sharded_fleet_serves_reuseport_listeners() {
    scan_through_serve_warms_cache(IoBackend::Mmsg, 2);
}

#[test]
fn serve_echoes_cookies_with_its_server_half() {
    let (_upstream, handle) = serve_fleet(upstream_universe(4), IoBackend::Syscall, 1, 0.0);
    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let cookie = Cookie::client(*b"e2eCK-01");
    let mut scratch = ScratchBuf::new();
    let question = Question::new("n0.scan.test".parse().unwrap(), RecordType::A);
    encode_query_into(&mut scratch, 0x5151, &question, true, Some(&cookie)).unwrap();
    client
        .send_to(scratch.as_slice(), handle.local_addr())
        .unwrap();
    let mut buf = [0u8; 4096];
    let (n, from) = client.recv_from(&mut buf).unwrap();
    assert_eq!(from, handle.local_addr());
    let reply = MessageView::parse(&buf[..n]).unwrap();
    assert_eq!(reply.id(), 0x5151);
    assert!(reply.flags().response);
    let echoed = reply.cookie().expect("serve echoes the cookie");
    assert_eq!(echoed.client_part(), b"e2eCK-01");
    assert_eq!(echoed.server_part(), b"ZDNSSERV");
}

#[test]
fn oversized_answer_truncates_on_udp_and_retries_over_tcp() {
    let (_upstream, handle) = serve_fleet(upstream_universe(4), IoBackend::Syscall, 1, 0.0);
    let question = Question::new("fat.scan.test".parse().unwrap(), RecordType::A);

    // The scanning machine advertises 1232 bytes; 120 A records exceed
    // it, so serve answers TC over UDP and the machine retries over TCP
    // against serve's own listener.
    let results = scan_through(handle.local_addr(), vec![question]);
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert_eq!(r.status, Status::NoError, "{r:?}");
    assert_eq!(r.answers.len(), 120, "full RRset must arrive via TCP");
    assert_eq!(r.protocol, "tcp", "truncation must drive a TCP retry");
    assert!(
        handle.truncated() >= 1,
        "serve must have sent a TC answer ({})",
        handle.truncated()
    );
    // The TCP retry was answered from the cache the UDP miss just
    // filled: promotion happens before the truncated response is sent.
    assert!(
        handle.cache_hits() >= 1,
        "TCP retry should hit the freshly-filled cache"
    );
}

#[test]
fn repeat_queries_ride_the_packet_cache() {
    // Three identical queries walk the whole cache hierarchy: the first
    // forwards upstream (filling the record cache at promotion), the
    // second answers from records and memoizes the encoded packet, the
    // third is a pure packet hit. All three answers must agree.
    let (_upstream, handle) = serve_fleet(upstream_universe(4), IoBackend::Syscall, 1, 0.0);
    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let question = Question::new("n1.scan.test".parse().unwrap(), RecordType::A);
    let mut scratch = ScratchBuf::new();
    let mut answers = Vec::new();
    for id in 1..=3u16 {
        scratch.reset();
        encode_query_into(&mut scratch, id, &question, true, None).unwrap();
        client
            .send_to(scratch.as_slice(), handle.local_addr())
            .unwrap();
        let mut buf = [0u8; 4096];
        let (n, _) = client.recv_from(&mut buf).unwrap();
        let reply = MessageView::parse(&buf[..n]).unwrap();
        assert_eq!(reply.id(), id);
        assert_eq!(reply.answer_count(), 1);
        let addr = reply.answers().find_map(|r| r.a_addr()).unwrap();
        answers.push(addr);
    }
    assert!(answers.iter().all(|a| *a == scan_addr(1)));
    assert!(
        handle.packet_fills() >= 1,
        "second query memoizes ({})",
        handle.packet_fills()
    );
    assert!(
        handle.packet_hits() >= 1,
        "third query rides the packet path ({})",
        handle.packet_hits()
    );
}

#[test]
fn packet_cache_capacity_zero_still_serves() {
    // The A/B lever: a fleet with the packet cache disabled answers the
    // same repeat traffic purely from the record cache.
    let upstream = WireServer::start(
        upstream_universe(4) as Arc<dyn Universe>,
        Ipv4Addr::LOCALHOST,
    )
    .unwrap();
    let handle = start(&ServeOptions {
        listen: SocketAddr::new(Ipv4Addr::LOCALHOST.into(), 0),
        upstreams: vec![upstream.addr()],
        cache_capacity: 10_000,
        packet_cache_capacity: 0,
        io_backend: IoBackend::Syscall,
        ..ServeOptions::default()
    })
    .unwrap();
    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let question = Question::new("n2.scan.test".parse().unwrap(), RecordType::A);
    let mut scratch = ScratchBuf::new();
    for id in 1..=3u16 {
        scratch.reset();
        encode_query_into(&mut scratch, id, &question, true, None).unwrap();
        client
            .send_to(scratch.as_slice(), handle.local_addr())
            .unwrap();
        let mut buf = [0u8; 4096];
        let (n, _) = client.recv_from(&mut buf).unwrap();
        let reply = MessageView::parse(&buf[..n]).unwrap();
        assert_eq!(reply.id(), id);
        assert_eq!(reply.answer_count(), 1);
    }
    assert!(handle.cache_hits() >= 1, "record cache still answers");
    assert_eq!(handle.packet_fills(), 0);
    assert_eq!(handle.packet_hits(), 0);
    assert_eq!(handle.packet_invalidations(), 0);
}

#[test]
fn per_client_gate_drops_overflow_udp_queries() {
    let (_upstream, handle) = serve_fleet(upstream_universe(4), IoBackend::Syscall, 1, 2.0);
    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let mut scratch = ScratchBuf::new();
    let question = Question::new("n0.scan.test".parse().unwrap(), RecordType::A);
    // Burst far past a 2 qps budget; the bucket admits the burst
    // allowance and drops the rest without answering.
    for id in 0..50u16 {
        scratch.reset();
        encode_query_into(&mut scratch, id, &question, true, None).unwrap();
        client
            .send_to(scratch.as_slice(), handle.local_addr())
            .unwrap();
    }
    // Give the serve tick time to drain the burst.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.rate_limited() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(
        handle.rate_limited() > 0,
        "a 50-query burst against a 2 qps bucket must shed load"
    );
}
