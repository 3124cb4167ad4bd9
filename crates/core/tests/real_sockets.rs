//! Resolution over real OS sockets, all of it through the reactor: single
//! lookups on a caller-held reactor against in-process loopback servers
//! (root → TLD → leaf), including truncation → TCP fallback, and scans
//! multiplexing hundreds of in-flight lookups over one socket.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::Arc;

use zdns_core::{
    collecting_sink, AddrMap, Admission, ConcurrentPacer, Driver, PacerConfig, Reactor,
    ReactorConfig, Resolver, ResolverConfig, Status,
};
use zdns_netsim::{
    ClientEvent, JobOutcome, OutQuery, Protocol, SimClient, SimTime, StepStatus, WireServer,
};
use zdns_wire::rdata::TxtData;
use zdns_wire::{Name, Question, RData, Record, RecordType};
use zdns_zones::{ExplicitUniverse, Universe, Zone};

/// Build a miniature Internet: a root zone delegating `test.` which
/// delegates `example.test.`, all servable from explicit zones.
fn mini_universe() -> ExplicitUniverse {
    let root_ip: Ipv4Addr = "198.41.0.1".parse().unwrap();
    let tld_ip: Ipv4Addr = "199.0.0.1".parse().unwrap();
    let leaf_ip: Ipv4Addr = "204.10.0.53".parse().unwrap();

    let mut root = Zone::new(Name::root(), "a.root-servers.test".parse().unwrap(), 518400);
    root.delegate(
        "test".parse().unwrap(),
        &["ns1.nic.test".parse().unwrap()],
        &[("ns1.nic.test".parse().unwrap(), RData::A(tld_ip))],
    );

    let mut tld = Zone::new(
        "test".parse().unwrap(),
        "ns1.nic.test".parse().unwrap(),
        900,
    );
    tld.delegate(
        "example.test".parse().unwrap(),
        &["ns1.example.test".parse().unwrap()],
        &[("ns1.example.test".parse().unwrap(), RData::A(leaf_ip))],
    );

    let mut leaf = Zone::new(
        "example.test".parse().unwrap(),
        "ns1.example.test".parse().unwrap(),
        300,
    );
    leaf.add(Record::new(
        "example.test".parse().unwrap(),
        300,
        RData::A("192.0.2.80".parse().unwrap()),
    ));
    leaf.add(Record::new(
        "www.example.test".parse().unwrap(),
        300,
        RData::Cname("example.test".parse().unwrap()),
    ));
    // A TXT RRset fat enough to truncate over UDP at 512 bytes (query the
    // no-EDNS path via config) — actually EDNS is on by default with a
    // 1232-byte limit, so exceed that.
    for i in 0..24 {
        leaf.add(Record::new(
            "big.example.test".parse().unwrap(),
            300,
            RData::Txt(TxtData::from_text(&format!("{}{}", "x".repeat(60), i))),
        ));
    }

    let mut u = ExplicitUniverse::new();
    u.hint("a.root-servers.test".parse().unwrap(), root_ip);
    u.host(root_ip, root);
    u.host(tld_ip, tld);
    u.host(leaf_ip, leaf);
    u
}

/// Start one WireServer per simulated IP and return the address map.
fn start_servers(u: Arc<ExplicitUniverse>) -> (Vec<WireServer>, Arc<AddrMap>) {
    let ips: Vec<Ipv4Addr> = ["198.41.0.1", "199.0.0.1", "204.10.0.53"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let mut servers = Vec::new();
    let mut mapping: Vec<(Ipv4Addr, SocketAddr)> = Vec::new();
    for ip in ips {
        let server = WireServer::start(Arc::clone(&u) as Arc<dyn Universe>, ip).unwrap();
        mapping.push((ip, server.addr()));
        servers.push(server);
    }
    let map: Arc<AddrMap> = Arc::new(move |ip| {
        mapping
            .iter()
            .find(|(sim, _)| *sim == ip)
            .map(|(_, real)| *real)
            .unwrap_or_else(|| SocketAddr::new(ip.into(), 53))
    });
    (servers, map)
}

/// A reactor for one lookup at a time (`Resolver::lookup`).
fn single_lookup_reactor(map: Arc<AddrMap>) -> Reactor {
    let config = ReactorConfig {
        max_in_flight: 1,
        source: Ipv4Addr::LOCALHOST,
        ..ReactorConfig::default()
    };
    Reactor::new(config, map).unwrap()
}

fn resolver_for(u: &ExplicitUniverse) -> Resolver {
    let mut config = ResolverConfig::iterative(u.root_hints());
    config.retries = 2;
    config.timeout = zdns_netsim::SECONDS;
    config.iteration_timeout = zdns_netsim::SECONDS;
    Resolver::new(config)
}

#[test]
fn iterative_resolution_over_real_udp() {
    let u = Arc::new(mini_universe());
    let resolver = resolver_for(&u);
    let (_servers, map) = start_servers(Arc::clone(&u));
    let mut reactor = single_lookup_reactor(map);

    let result = resolver.lookup_a("example.test", &mut reactor);
    assert_eq!(result.status, Status::NoError, "{result:?}");
    assert!(result
        .answers
        .iter()
        .any(|r| r.rdata == RData::A("192.0.2.80".parse().unwrap())));
    // Walked root → test → example.test.
    assert!(result.trace.len() >= 3);
    assert_eq!(result.queries_sent, 3);
}

#[test]
fn cname_chase_over_real_udp() {
    let u = Arc::new(mini_universe());
    let resolver = resolver_for(&u);
    let (_servers, map) = start_servers(Arc::clone(&u));
    let mut reactor = single_lookup_reactor(map);

    let result = resolver.lookup_a("www.example.test", &mut reactor);
    assert_eq!(result.status, Status::NoError, "{result:?}");
    assert!(result
        .answers
        .iter()
        .any(|r| matches!(r.rdata, RData::Cname(_))));
    assert!(result
        .answers
        .iter()
        .any(|r| matches!(r.rdata, RData::A(_))));
}

#[test]
fn socket_reuse_across_lookups() {
    let u = Arc::new(mini_universe());
    let resolver = resolver_for(&u);
    let (_servers, map) = start_servers(Arc::clone(&u));
    let mut reactor = single_lookup_reactor(map);
    let port = reactor.local_addr().unwrap().port();
    for _ in 0..5 {
        let result = resolver.lookup_a("example.test", &mut reactor);
        assert_eq!(result.status, Status::NoError);
    }
    // One socket for all lookups — the §3.4 optimization.
    assert_eq!(reactor.local_addr().unwrap().port(), port);
    // The warmed cache should skip root+TLD on later lookups.
    assert!(resolver.core().cache.stats.hit_rate() > 0.0);
}

#[test]
fn truncated_udp_falls_back_to_tcp() {
    let u = Arc::new(mini_universe());
    let resolver = resolver_for(&u);
    let (_servers, map) = start_servers(Arc::clone(&u));
    let mut reactor = single_lookup_reactor(map);

    let result = resolver.lookup(
        Question::new("big.example.test".parse().unwrap(), RecordType::TXT),
        &mut reactor,
    );
    assert_eq!(result.status, Status::NoError, "{result:?}");
    assert_eq!(result.answers.len(), 24, "full RRset via TCP");
    assert_eq!(result.protocol, "tcp");
    // Root and TLD referrals, the leaf over UDP, and the leaf again over
    // TCP: exactly one fallback.
    assert_eq!(result.queries_sent, 4);
    assert_eq!(reactor.open_tcp_connections(), 0);
    assert_eq!(reactor.live_timers(), 0);
}

#[test]
fn a_truncated_probe_without_tcp_fallback_reports_truncated() {
    let u = Arc::new(mini_universe());
    let (_servers, map) = start_servers(Arc::clone(&u));
    let mut config = ResolverConfig::iterative(u.root_hints());
    config.tcp_on_truncated = false;
    let resolver = Resolver::new(config);
    let (sink, collected) = collecting_sink();
    let leaf: Ipv4Addr = "204.10.0.53".parse().unwrap();
    let probe = resolver
        .direct_machine(
            Question::new("big.example.test".parse().unwrap(), RecordType::TXT),
            leaf,
            false,
        )
        .with_sink(sink);
    drive_all(&mut single_lookup_reactor(map), vec![probe]);

    let results = collected.lock();
    assert_eq!(results.len(), 1);
    let result = &results[0];
    assert_eq!(result.status, Status::Truncated, "{result:?}");
    assert_eq!((result.protocol, result.queries_sent), ("udp", 1));
    assert_eq!(result.resolver, Some(leaf));
}

#[test]
fn nxdomain_over_real_sockets() {
    let u = Arc::new(mini_universe());
    let resolver = resolver_for(&u);
    let (_servers, map) = start_servers(Arc::clone(&u));
    let mut reactor = single_lookup_reactor(map);

    let result = resolver.lookup_a("missing.example.test", &mut reactor);
    assert_eq!(result.status, Status::NxDomain);
    assert!(result.status.is_success(), "NXDOMAIN is a successful scan");
}

#[test]
fn the_simulator_and_the_sockets_give_the_same_lookups() {
    // The same machines over the same universe, once through the engine
    // and once through loopback servers: with one message path (encoded
    // queries, encoded answers truncated by the encoder, views delivered)
    // every observable of a lookup must agree — the TXT RRset included,
    // whose UDP answer both sides truncate and both fetch again over TCP.
    let questions: Vec<Question> = [
        ("example.test", RecordType::A),
        ("www.example.test", RecordType::A),
        ("big.example.test", RecordType::TXT),
        ("missing.example.test", RecordType::A),
    ]
    .iter()
    .map(|(name, qtype)| Question::new(name.parse().unwrap(), *qtype))
    .collect();
    let u = Arc::new(mini_universe());

    // Simulated: one routine, so lookups run one after another as the
    // single-lookup reactor runs them, and each finds the cache the one
    // before it left.
    let mut engine = zdns_netsim::Engine::new(
        zdns_netsim::EngineConfig {
            threads: 1,
            seed: 26,
            ..zdns_netsim::EngineConfig::default()
        },
        Arc::clone(&u) as Arc<dyn Universe>,
    );
    let sim_resolver = resolver_for(&u);
    let (sink, collected) = collecting_sink();
    let mut queue = questions.clone().into_iter();
    let report = engine.run(move || Some(sim_resolver.machine(queue.next()?, Some(sink.clone()))));
    assert_eq!(report.net_drops, 0, "the seed must lose no packet");
    let simulated = std::mem::take(&mut *collected.lock());

    let socket_resolver = resolver_for(&u);
    let (_servers, map) = start_servers(Arc::clone(&u));
    let mut reactor = single_lookup_reactor(map);
    let over_sockets: Vec<_> = questions
        .iter()
        .map(|q| socket_resolver.lookup(q.clone(), &mut reactor))
        .collect();

    assert_eq!(simulated.len(), questions.len());
    let chain = |r: &zdns_core::LookupResult| -> Vec<(String, Name, String)> {
        r.trace
            .iter()
            .map(|s| (s.layer.clone(), s.name.clone(), s.name_server.clone()))
            .collect()
    };
    for (sim, real) in simulated.iter().zip(&over_sockets) {
        let name = &real.name;
        assert_eq!(sim.name, *name);
        assert_eq!(sim.status, real.status, "{name}");
        assert_eq!(sim.answers.len(), real.answers.len(), "{name}");
        assert!(
            sim.answers.iter().all(|r| real.answers.contains(r)),
            "{name}"
        );
        assert_eq!(sim.protocol, real.protocol, "{name}");
        assert_eq!(sim.queries_sent, real.queries_sent, "{name}");
        assert_eq!(chain(sim), chain(real), "{name}");
    }
    // The scenario covers what it claims: a TCP fallback, an NXDOMAIN.
    assert!(over_sockets[..3]
        .iter()
        .all(|r| r.status == Status::NoError));
    assert_eq!(over_sockets[3].status, Status::NxDomain);
    assert_eq!(
        (over_sockets[2].protocol, over_sockets[2].answers.len()),
        ("tcp", 24)
    );
}

// ---------------------------------------------------------------------------
// Reactor driver: many in-flight machines on one socket
// ---------------------------------------------------------------------------

/// Expected address for the i-th scan name (unique per name so a demux
/// mix-up between two in-flight lookups is always detectable).
fn scan_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 7, (i / 256) as u8, (i % 256) as u8)
}

/// A universe with one fat authoritative zone holding `n` uniquely
/// addressed names, served from a single IP — so one WireServer can play
/// the external resolver for hundreds of concurrent lookups.
fn scan_universe(n: usize) -> (ExplicitUniverse, Ipv4Addr) {
    let server_ip: Ipv4Addr = "203.0.113.53".parse().unwrap();
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
    let mut u = ExplicitUniverse::new();
    u.host(server_ip, zone);
    (u, server_ip)
}

/// Feed `machines` through `reactor`, asserting everything drains.
/// Returns the scan's driver report (`report.completed` = lookups).
fn drive_all(
    reactor: &mut Reactor,
    mut machines: Vec<Box<dyn zdns_netsim::SimClient>>,
) -> zdns_core::DriverReport {
    machines.reverse(); // pop() admits in original order
    let mut feed = || match machines.pop() {
        Some(m) => Admission::Admit(m),
        None => Admission::Exhausted,
    };
    let mut completed = 0u64;
    let mut on_done = |_outcome| completed += 1;
    let report = reactor.run_scan(&mut feed, &mut on_done);
    assert_eq!(report.completed, completed);
    report
}

#[test]
fn reactor_multiplexes_500_lookups_on_one_socket() {
    const N: usize = 500;
    let (u, server_ip) = scan_universe(N);
    let u = Arc::new(u);
    let server = WireServer::start(Arc::clone(&u) as Arc<dyn Universe>, server_ip).unwrap();
    let real = server.addr();
    let map: Arc<AddrMap> = Arc::new(move |_ip| real);

    let mut config = ResolverConfig::external(vec![server_ip]);
    config.timeout = 2 * zdns_netsim::SECONDS;
    config.retries = 2;
    let resolver = Resolver::new(config);
    let (sink, collected) = collecting_sink();

    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: N, // all 500 in flight at once
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();
    let port = reactor.local_addr().unwrap().port();

    // Inject hostile traffic at the reactor's socket before the scan: raw
    // garbage (decode errors) and well-formed DNS "responses" from a peer
    // that is not the server (stale/late datagrams). The demux table must
    // reject all of it by (peer, transaction id).
    let injector = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let target = SocketAddr::new(Ipv4Addr::LOCALHOST.into(), port);
    for i in 0..40u16 {
        injector.send_to(&[0xFF, 0xEE, 0xDD], target).unwrap();
        let mut fake = zdns_wire::Message::query(
            i, // ids that will collide with in-flight wire ids
            Question::new("n0.scan.test".parse().unwrap(), RecordType::A),
        );
        fake.flags.response = true;
        injector.send_to(&fake.encode().unwrap(), target).unwrap();
    }

    let machines: Vec<_> = (0..N)
        .map(|i| {
            resolver.machine(
                Question::new(format!("n{i}.scan.test").parse().unwrap(), RecordType::A),
                Some(sink.clone()),
            )
        })
        .collect();
    let report = drive_all(&mut reactor, machines);
    assert_eq!(report.completed, N as u64);
    // Every hostile datagram was counted once, in its own bucket.
    assert_eq!((report.decode_errors, report.stale_datagrams), (40, 40));

    // Per-lookup demux correctness: every result carries exactly the
    // address planted for its own name, so interleaved and out-of-order
    // responses were all routed to their owning machine.
    let results = collected.lock();
    assert_eq!(results.len(), N);
    for r in results.iter() {
        assert_eq!(r.status, Status::NoError, "{:?}", r.name);
        let text = r.name.to_string();
        let digits: String = text
            .trim_start_matches('n')
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let i: usize = digits.parse().expect("name carries its index");
        assert_eq!(
            r.answers.iter().find_map(|rec| match rec.rdata {
                RData::A(a) => Some(a),
                _ => None,
            }),
            Some(scan_addr(i)),
            "lookup {i} got someone else's answer"
        );
    }

    // Nothing leaked: no in-flight queries, no armed timers, and — with
    // no end-of-run sweep to clear them — no cancelled timer entries.
    assert_eq!(reactor.in_flight(), 0);
    assert_eq!(reactor.pending_queries(), 0);
    assert_eq!(reactor.live_timers(), 0, "leaked armed timers");
    assert_eq!(reactor.stored_timers(), 0, "leaked cancelled timer entries");
}

#[test]
fn reactor_timers_follow_the_window_not_rate_times_timeout() {
    // 3 000 answered lookups through a window of 64 under a 30 s timeout:
    // the whole scan is over long before the first deadline comes round,
    // so a wheel that cancelled lazily would still be holding all 3 000
    // entries when it ends. Cancelled for real, the wheel never holds more
    // than one timer per in-flight query — and holds exactly the armed
    // ones at every moment of the scan, which the scan loop itself asserts
    // (`stored == live`, debug builds) at the end of every pass.
    const N: usize = 3_000;
    const WINDOW: usize = 64;
    let (u, server_ip) = scan_universe(N);
    let server = WireServer::start(Arc::new(u) as Arc<dyn Universe>, server_ip).unwrap();
    let real = server.addr();
    let mut config = ResolverConfig::external(vec![server_ip]);
    config.timeout = 30 * zdns_netsim::SECONDS;
    let resolver = Resolver::new(config);
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: WINDOW,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        Arc::new(move |_ip| real),
    )
    .unwrap();
    let machines: Vec<_> = (0..N)
        .map(|i| {
            let name = format!("n{i}.scan.test").parse().unwrap();
            resolver.machine(Question::new(name, RecordType::A), None)
        })
        .collect();
    let started = std::time::Instant::now();
    let report = drive_all(&mut reactor, machines);
    assert!(started.elapsed() < std::time::Duration::from_secs(20));
    assert_eq!((report.successes, report.timeouts_fired), (N as u64, 0));
    assert_eq!(report.peak_in_flight, WINDOW);
    assert!(
        reactor.peak_timers() <= WINDOW,
        "{} timers stored at once for a window of {WINDOW}",
        reactor.peak_timers()
    );
    assert_eq!(reactor.stored_timers(), reactor.live_timers());
    assert_eq!(reactor.live_timers(), 0);
}

#[test]
fn reactor_times_out_and_retries_via_timer_wheel() {
    // A bound-but-silent "server": every query must be timed out by the
    // wheel, retried by the machine, and finally reported as TIMEOUT.
    let silent = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let dead = silent.local_addr().unwrap();
    let map: Arc<AddrMap> = Arc::new(move |_ip| dead);

    let mut config = ResolverConfig::external(vec!["192.0.2.1".parse().unwrap()]);
    config.retries = 1;
    config.timeout = 40 * zdns_netsim::MILLIS;
    let resolver = Resolver::new(config);
    let (sink, collected) = collecting_sink();

    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 64,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();

    const N: usize = 50;
    let machines: Vec<_> = (0..N)
        .map(|i| {
            resolver.machine(
                Question::new(format!("t{i}.dead.test").parse().unwrap(), RecordType::A),
                Some(sink.clone()),
            )
        })
        .collect();
    let completed = drive_all(&mut reactor, machines).completed;
    assert_eq!(completed, N as u64);

    let results = collected.lock();
    assert_eq!(results.len(), N);
    for r in results.iter() {
        assert_eq!(r.status, Status::Timeout);
        assert_eq!(r.queries_sent, 2, "initial + 1 retry");
    }
    assert_eq!(reactor.live_timers(), 0);
    assert_eq!(reactor.pending_queries(), 0);
}

/// A destination that answers every UDP query truncated (TC=1, nothing
/// else), so every lookup sent to it falls back to TCP — where it either
/// has no listener at all, or one that accepts and never answers.
struct TruncatingStub {
    addr: SocketAddr,
    stop: Arc<std::sync::atomic::AtomicBool>,
    udp_thread: Option<std::thread::JoinHandle<()>>,
    /// Held, never read: the kernel completes the handshakes, nobody
    /// answers the queries.
    _mute_listener: Option<std::net::TcpListener>,
}

impl TruncatingStub {
    fn start(accept_tcp: bool) -> TruncatingStub {
        let (udp, listener) =
            zdns_netsim::bind_udp_tcp_pair(Ipv4Addr::LOCALHOST, 0, false).unwrap();
        let addr = udp.local_addr().unwrap();
        udp.set_read_timeout(Some(std::time::Duration::from_millis(20)))
            .unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let udp_thread = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            while !thread_stop.load(std::sync::atomic::Ordering::Relaxed) {
                let Ok((len, peer)) = udp.recv_from(&mut buf) else {
                    continue;
                };
                if let Ok(mut reply) = zdns_wire::Message::decode(&buf[..len]) {
                    reply.flags.response = true;
                    reply.flags.truncated = true;
                    let _ = udp.send_to(&reply.encode().unwrap(), peer);
                }
            }
        });
        TruncatingStub {
            addr,
            stop,
            udp_thread: Some(udp_thread),
            // Dropping the listener frees the port: connects are refused.
            _mute_listener: accept_tcp.then_some(listener),
        }
    }
}

impl Drop for TruncatingStub {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.udp_thread.take() {
            let _ = t.join();
        }
    }
}

#[test]
fn refused_tcp_connect_is_an_error_not_a_hang() {
    let stub = TruncatingStub::start(false);
    let dest = stub.addr;
    let mut config = ResolverConfig::external(vec!["192.0.2.9".parse().unwrap()]);
    config.retries = 1;
    config.timeout = 5 * zdns_netsim::SECONDS;
    let resolver = Resolver::new(config);
    let mut reactor = single_lookup_reactor(Arc::new(move |_ip| dest));

    let started = std::time::Instant::now();
    let result = resolver.lookup_a("refused.test", &mut reactor);
    // UDP (TC=1) → TCP refused → the retry, over TCP again, refused.
    assert_eq!(result.status, Status::Error, "{result:?}");
    assert_eq!(result.queries_sent, 3);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "a refused connect waited for a timeout: {:?}",
        started.elapsed()
    );
    assert_eq!(reactor.open_tcp_connections(), 0);
    assert_eq!(reactor.live_timers(), 0);
}

#[test]
fn a_mute_tcp_destination_stalls_only_its_own_lookups() {
    // Destination A truncates over UDP and then accepts TCP connections
    // it never answers; destination B truncates and answers normally.
    // Four names to A go in first, forty to B behind them. Each A exchange
    // can only end by its timeout — and must cost nobody else anything:
    // every B name finishes over TCP long before A's first timeout.
    const A_NAMES: usize = 4;
    const B_NAMES: usize = 40;
    const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(1);
    let a_ip: Ipv4Addr = "203.0.113.1".parse().unwrap();
    let b_ip: Ipv4Addr = "203.0.113.2".parse().unwrap();

    let mute = TruncatingStub::start(true);
    let mut zone = Zone::new(
        "fat.test".parse().unwrap(),
        "ns1.fat.test".parse().unwrap(),
        300,
    );
    for name in 0..B_NAMES {
        for i in 0..24 {
            zone.add(Record::new(
                format!("b{name}.fat.test").parse().unwrap(),
                300,
                RData::Txt(TxtData::from_text(&format!("{}{i}", "x".repeat(60)))),
            ));
        }
    }
    let mut universe = ExplicitUniverse::new();
    universe.host(b_ip, zone);
    let answering = WireServer::start(Arc::new(universe) as Arc<dyn Universe>, b_ip).unwrap();
    let (a_addr, b_addr) = (mute.addr, answering.addr());

    let resolver_to = |ip: Ipv4Addr| {
        let mut config = ResolverConfig::external(vec![ip]);
        config.retries = 1;
        config.timeout = TIMEOUT.as_nanos() as u64;
        Resolver::new(config)
    };
    let (to_a, to_b) = (resolver_to(a_ip), resolver_to(b_ip));
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: A_NAMES + B_NAMES,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        Arc::new(move |ip| if ip == a_ip { a_addr } else { b_addr }),
    )
    .unwrap();

    let started = std::time::Instant::now();
    let b_done: Arc<parking_lot::Mutex<Vec<(zdns_core::LookupResult, std::time::Duration)>>> =
        Arc::default();
    let b_log = Arc::clone(&b_done);
    let b_sink: zdns_core::ResultSink =
        Arc::new(move |r| b_log.lock().push((r, started.elapsed())));
    let (a_sink, a_done) = collecting_sink();
    let txt = |name: String| Question::new(name.parse().unwrap(), RecordType::TXT);
    let machines: Vec<_> = (0..A_NAMES)
        .map(|i| to_a.machine(txt(format!("a{i}.mute.test")), Some(a_sink.clone())))
        .chain(
            (0..B_NAMES).map(|i| to_b.machine(txt(format!("b{i}.fat.test")), Some(b_sink.clone()))),
        )
        .collect();
    let report = drive_all(&mut reactor, machines);
    assert_eq!(report.completed as usize, A_NAMES + B_NAMES);

    let b_done = b_done.lock();
    assert_eq!(b_done.len(), B_NAMES);
    for (r, at) in b_done.iter() {
        assert_eq!(r.status, Status::NoError, "{:?}", r.name);
        assert_eq!((r.protocol, r.answers.len()), ("tcp", 24), "{:?}", r.name);
        assert!(
            *at < TIMEOUT / 2,
            "{:?} waited {at:?} behind a destination that is not its own",
            r.name
        );
    }
    // A's names spend exactly their budget: the UDP query that came back
    // truncated, then a first and a retried TCP exchange, each ended by
    // its own timeout and by nothing else.
    let a_done = a_done.lock();
    assert_eq!(a_done.len(), A_NAMES);
    for r in a_done.iter() {
        assert_eq!(r.status, Status::Timeout, "{:?}", r.name);
        assert_eq!((r.queries_sent, r.retries_used), (3, 2), "{:?}", r.name);
    }
    assert_eq!(report.tcp_fallbacks as usize, 2 * A_NAMES + B_NAMES);
    assert_eq!(report.timeouts_fired as usize, 2 * A_NAMES);
    let elapsed = started.elapsed();
    assert!(
        (2 * TIMEOUT..3 * TIMEOUT).contains(&elapsed),
        "two timeouts in a row, all four names side by side: {elapsed:?}"
    );
    assert_eq!(reactor.open_tcp_connections(), 0);
    assert_eq!((reactor.live_timers(), reactor.stored_timers()), (0, 0));
    assert_eq!(reactor.in_flight(), 0);
}

#[test]
fn reactor_is_reusable_with_per_scan_reports() {
    let (u, server_ip) = scan_universe(8);
    let u = Arc::new(u);
    let server = WireServer::start(Arc::clone(&u) as Arc<dyn Universe>, server_ip).unwrap();
    let real = server.addr();
    let map: Arc<AddrMap> = Arc::new(move |_ip| real);
    let resolver = Resolver::new(ResolverConfig::external(vec![server_ip]));
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 8,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();

    for (scan, count) in [(1, 5usize), (2, 3usize)] {
        let machines: Vec<_> = (0..count)
            .map(|i| {
                resolver.machine(
                    Question::new(format!("n{i}.scan.test").parse().unwrap(), RecordType::A),
                    None,
                )
            })
            .collect();
        let completed = drive_all(&mut reactor, machines).completed;
        assert_eq!(completed, count as u64, "scan {scan}");
    }
    assert_eq!(reactor.in_flight(), 0);
    assert_eq!(reactor.live_timers(), 0);
}

#[test]
fn reactor_reports_transport_errors_not_timeouts() {
    // An address map pointing at an unreachable destination (port 0 is
    // invalid for sendto) forces an immediate socket error: the machine
    // must finish with ERROR, not TIMEOUT.
    let map: Arc<AddrMap> = Arc::new(|_ip| SocketAddr::new(Ipv4Addr::LOCALHOST.into(), 0));
    let mut config = ResolverConfig::external(vec!["192.0.2.1".parse().unwrap()]);
    config.retries = 1;
    let resolver = Resolver::new(config);
    let (sink, collected) = collecting_sink();

    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 4,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();
    let machines = vec![resolver.machine(
        Question::new("err.test".parse().unwrap(), RecordType::A),
        Some(sink),
    )];
    drive_all(&mut reactor, machines);

    let results = collected.lock();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].status, Status::Error, "I/O failure is ERROR");
    assert_eq!(reactor.live_timers(), 0);
}

/// Asks its own `n{i}.scan.test` twice. On the second answer it finishes,
/// or — when `wedge` is set — returns `Running` with nothing in flight.
/// Either way it records its index in `ended` as it ends.
struct Scripted {
    to: Ipv4Addr,
    i: usize,
    answers: u64,
    wedge: bool,
    ended: Arc<std::sync::Mutex<Vec<usize>>>,
}

impl Scripted {
    fn query(&self) -> OutQuery {
        OutQuery {
            to: self.to,
            id: self.i as u16,
            question: Question::new(
                format!("n{}.scan.test", self.i).parse().unwrap(),
                RecordType::A,
            ),
            recursion_desired: true,
            cookie: None,
            protocol: Protocol::Udp,
            timeout: 2 * zdns_netsim::SECONDS,
            tag: self.answers,
        }
    }
}

impl SimClient for Scripted {
    fn start(&mut self, _now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        out.push(self.query());
        StepStatus::Running
    }

    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        _: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        assert!(matches!(event, ClientEvent::Response { .. }), "{event:?}");
        self.answers += 1;
        match (self.answers, self.wedge) {
            (1, _) => out.push(self.query()),
            (_, true) => {}
            (_, false) => {
                self.ended.lock().unwrap().push(self.i);
                return StepStatus::Done(JobOutcome {
                    success: true,
                    status: "NOERROR",
                });
            }
        }
        StepStatus::Running
    }

    fn abandon(&mut self, _now: SimTime) -> JobOutcome {
        self.ended.lock().unwrap().push(self.i);
        JobOutcome {
            success: false,
            status: "ERROR",
        }
    }
}

#[test]
fn every_admitted_machine_ends_once_even_when_it_wedges() {
    const N: usize = 40;
    let (u, server_ip) = scan_universe(N);
    let server = WireServer::start(Arc::new(u) as Arc<dyn Universe>, server_ip).unwrap();
    let real = server.addr();
    let map: Arc<AddrMap> = Arc::new(move |_ip| real);
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 16,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();

    let ended = Arc::default();
    let mut machines = (0..N).map(|i| Scripted {
        to: server_ip,
        i,
        answers: 0,
        wedge: i % 4 == 0,
        ended: Arc::clone(&ended),
    });
    let mut feed = || match machines.next() {
        Some(m) => Admission::Admit(Box::new(m)),
        None => Admission::Exhausted,
    };
    let mut outcomes = Vec::new();
    let report = reactor.run_scan(&mut feed, &mut |outcome| outcomes.push(outcome));

    assert_eq!(outcomes.len(), N);
    let outcomes: Vec<JobOutcome> = outcomes.into_iter().map(Option::unwrap).collect();
    let errors = outcomes.iter().filter(|o| o.status == "ERROR").count();
    assert_eq!(errors, N / 4, "one ERROR per wedged machine");
    assert_eq!(report.completed, N as u64);
    assert_eq!(report.queries_sent, 2 * N as u64);
    let mut ended = ended.lock().unwrap().clone();
    ended.sort_unstable();
    assert_eq!(ended, (0..N).collect::<Vec<_>>(), "each machine ends once");
    assert_eq!(
        (
            reactor.in_flight(),
            reactor.pending_queries(),
            reactor.live_timers(),
            reactor.open_tcp_connections(),
            reactor.parked_machines(),
        ),
        (0, 0, 0, 0, 0)
    );
}

// ---------------------------------------------------------------------------
// Pacing: the deferred send queue and the rate contract
// ---------------------------------------------------------------------------

#[test]
fn reactor_holds_send_rate_within_ten_percent_of_budget() {
    const N: usize = 500;
    const RATE: f64 = 1000.0;
    let (u, server_ip) = scan_universe(N);
    let u = Arc::new(u);
    let server = WireServer::start(Arc::clone(&u) as Arc<dyn Universe>, server_ip).unwrap();
    let real = server.addr();
    let map: Arc<AddrMap> = Arc::new(move |_ip| real);

    let mut config = ResolverConfig::external(vec![server_ip]);
    config.timeout = 4 * zdns_netsim::SECONDS;
    config.retries = 2;
    let resolver = Resolver::new(config);

    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: N, // everything admitted at once: pure pacing
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();
    reactor.set_pacer(Arc::new(ConcurrentPacer::new(PacerConfig {
        rate_pps: RATE,
        burst: 1.0,
        ..PacerConfig::default()
    })));

    let machines: Vec<_> = (0..N)
        .map(|i| {
            resolver.machine(
                Question::new(format!("n{i}.scan.test").parse().unwrap(), RecordType::A),
                None,
            )
        })
        .collect();
    let started = std::time::Instant::now();
    let report = drive_all(&mut reactor, machines);
    let elapsed = started.elapsed().as_secs_f64();

    assert_eq!(report.completed, N as u64);
    assert_eq!(report.successes, N as u64, "loopback scan must succeed");
    assert!(report.queries_deferred > 0, "pacing must actually engage");

    // The rate contract: sends per wall-clock second within ±10% of the
    // configured budget (N queries take ~(N-1)/RATE seconds when paced).
    let queries = report.queries_sent;
    let measured_pps = queries as f64 / elapsed;
    assert!(
        (measured_pps - RATE).abs() <= RATE * 0.10,
        "measured {measured_pps:.0} pps vs budget {RATE:.0} pps ({queries} queries in {elapsed:.3}s)"
    );

    // Nothing leaked: the deferred queue drained and its wheel entries
    // are gone with it.
    assert_eq!(reactor.deferred_sends(), 0);
    assert_eq!(reactor.in_flight(), 0);
    assert_eq!(reactor.stored_timers(), reactor.live_timers());
    assert_eq!(reactor.live_timers(), 0);
}

#[test]
fn reactor_backoff_defers_retries_to_a_silent_destination() {
    // A bound-but-silent server: every timeout feeds the pacer's failure
    // streak, so retries to that destination are held back (per-host
    // throttle events), not blasted.
    let silent = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let dead = silent.local_addr().unwrap();
    let map: Arc<AddrMap> = Arc::new(move |_ip| dead);

    let mut config = ResolverConfig::external(vec!["192.0.2.1".parse().unwrap()]);
    config.retries = 2;
    config.timeout = 30 * zdns_netsim::MILLIS;
    let resolver = Resolver::new(config);

    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 8,
            source: Ipv4Addr::LOCALHOST,
            ..ReactorConfig::default()
        },
        map,
    )
    .unwrap();
    reactor.set_pacer(Arc::new(ConcurrentPacer::new(PacerConfig {
        backoff: true,
        backoff_base: 20 * zdns_netsim::MILLIS,
        ..PacerConfig::default()
    })));

    let machines: Vec<_> = (0..4)
        .map(|i| {
            resolver.machine(
                Question::new(format!("b{i}.dead.test").parse().unwrap(), RecordType::A),
                None,
            )
        })
        .collect();
    let report = drive_all(&mut reactor, machines);

    assert_eq!(report.completed, 4);
    assert_eq!(report.successes, 0);
    assert!(report.timeouts_fired >= 8, "{}", report.timeouts_fired);
    assert!(
        report.queries_deferred > 0 && report.per_host_throttles > 0,
        "retries into a failure streak must be throttled (deferred {}, per-host {})",
        report.queries_deferred,
        report.per_host_throttles
    );
    assert_eq!(reactor.deferred_sends(), 0);
    assert_eq!(reactor.live_timers(), 0);
}

#[test]
fn concurrent_pacer_backoff_memory_propagates_across_workers() {
    // Two workers (separate reactors, separate sockets, separate
    // threads) share one ConcurrentPacer and one epoch. Worker A retries
    // into a silent destination, building a failure streak in the shared
    // per-destination table; worker B then scans the same destination
    // with *zero* retries, so the only sends it ever attempts are the
    // initial ones — any per-host deferral B observes can only be the
    // penalty A left behind.
    let silent = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let dead = silent.local_addr().unwrap();
    let map: Arc<AddrMap> = Arc::new(move |_ip| dead);
    let epoch = std::time::Instant::now();

    let pacer = Arc::new(ConcurrentPacer::new(PacerConfig {
        backoff: true,
        backoff_base: 50 * zdns_netsim::MILLIS,
        backoff_cap: 300 * zdns_netsim::MILLIS,
        ..PacerConfig::default()
    }));

    let make_reactor = |map: &Arc<AddrMap>| {
        let mut reactor = Reactor::new(
            ReactorConfig {
                max_in_flight: 8,
                source: Ipv4Addr::LOCALHOST,
                epoch: Some(epoch),
                ..ReactorConfig::default()
            },
            Arc::clone(map),
        )
        .unwrap();
        reactor.set_pacer(Arc::clone(&pacer));
        reactor
    };

    // Worker A: retries feed the shared failure streak. The reactor and
    // its machines are built inside the worker thread, exactly as the
    // scan pipeline does (reactors are not Send).
    let report_a = std::thread::scope(|s| {
        s.spawn(|| {
            let mut reactor = make_reactor(&map);
            let mut config = ResolverConfig::external(vec!["192.0.2.7".parse().unwrap()]);
            config.retries = 2;
            config.timeout = 30 * zdns_netsim::MILLIS;
            let resolver = Resolver::new(config);
            let machines: Vec<_> = (0..4)
                .map(|i| {
                    resolver.machine(
                        Question::new(format!("a{i}.dead.test").parse().unwrap(), RecordType::A),
                        None,
                    )
                })
                .collect();
            drive_all(&mut reactor, machines)
        })
        .join()
        .unwrap()
    });
    assert_eq!(report_a.completed, 4);
    assert!(report_a.timeouts_fired >= 8, "{}", report_a.timeouts_fired);
    assert!(
        pacer.backoff_events() > 0,
        "worker A's timeouts must feed the shared backoff table"
    );

    // Worker B: no retries, so its initial sends run before any of its
    // own timeouts can fire — a per-host throttle here is inherited.
    let report_b = {
        let mut reactor = make_reactor(&map);
        let mut config = ResolverConfig::external(vec!["192.0.2.7".parse().unwrap()]);
        config.retries = 0;
        config.timeout = 30 * zdns_netsim::MILLIS;
        let resolver = Resolver::new(config);
        let machines: Vec<_> = (0..2)
            .map(|i| {
                resolver.machine(
                    Question::new(format!("b{i}.dead.test").parse().unwrap(), RecordType::A),
                    None,
                )
            })
            .collect();
        drive_all(&mut reactor, machines)
    };
    assert_eq!(report_b.completed, 2);
    assert!(
        report_b.queries_deferred > 0 && report_b.per_host_throttles > 0,
        "worker B must inherit worker A's penalty (deferred {}, per-host {})",
        report_b.queries_deferred,
        report_b.per_host_throttles
    );
}
