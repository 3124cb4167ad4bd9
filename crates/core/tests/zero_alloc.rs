//! The zero-alloc message lifecycle, enforced by a counting allocator.
//!
//! Claim under test (the PR-4 tentpole): once warmed up, the reactor's
//! view-path loop — borrowed `MessageView` decode over the receive arena,
//! scratch-buffer query encode, pooled bookkeeping — performs **zero heap
//! allocations per lookup**. Machine *construction* (boxing a machine,
//! cloning the server list) is the admission source's cost, so the test
//! pre-builds machines before the measured region; everything the reactor
//! and machines do per lookup afterwards is measured.
//!
//! Counters are per-thread, so the loopback wire server threads (which do
//! allocate) cannot pollute the reactor thread's measurement.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_core::alloc_count::{thread_allocations, CountingAllocator};
use zdns_core::{
    AddrMap, Admission, Cache, CacheKey, CreditPool, IoBackend, Reactor, ReactorConfig, Resolver,
    ResolverConfig, TimerWheel,
};
use zdns_netsim::{JobOutcome, SimClient, WireServer, MILLIS, SECONDS};
use zdns_wire::{
    encode_query_into, Cookie, MessageView, Name, Question, RData, Record, RecordType, ScratchBuf,
};
use zdns_zones::{ExplicitUniverse, Universe, Zone};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `n` A records behind one zero-latency loopback wire server.
fn loopback_fleet(n: usize) -> (WireServer, Resolver, Arc<AddrMap>, Vec<Question>) {
    let server_ip = Ipv4Addr::new(203, 0, 113, 77);
    let mut zone = Zone::new(
        "zeroalloc.test".parse().unwrap(),
        "ns1.zeroalloc.test".parse().unwrap(),
        300,
    );
    for i in 0..n {
        zone.add(Record::new(
            format!("z{i}.zeroalloc.test").parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(10, 7, (i / 256) as u8, (i % 256) as u8)),
        ));
    }
    let mut universe = ExplicitUniverse::new();
    universe.host(server_ip, zone);
    let server = WireServer::start(Arc::new(universe) as Arc<dyn Universe>, server_ip).unwrap();
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);
    let mut config = ResolverConfig::external(vec![server_ip]);
    config.timeout = 2 * SECONDS;
    config.retries = 2;
    let resolver = Resolver::new(config);
    let questions = (0..n)
        .map(|i| {
            Question::new(
                format!("z{i}.zeroalloc.test").parse::<Name>().unwrap(),
                RecordType::A,
            )
        })
        .collect();
    (server, resolver, addr_map, questions)
}

/// Drive `questions` through `reactor` from a pre-built machine pool,
/// the way a pipeline worker does: completions collect in a block that is
/// passed on whenever the scan loop says so (`run_scan_with`'s hand-off)
/// and reused, never reallocated, from then on.
/// Returns (completed, successes, allocations during the scan).
fn run_prebuilt(
    reactor: &mut Reactor,
    resolver: &Resolver,
    questions: &[Question],
    trap: bool,
) -> (usize, usize, u64) {
    let mut machines: Vec<Box<dyn SimClient>> = questions
        .iter()
        .rev()
        .map(|q| resolver.machine(q.clone(), None))
        .collect();
    let mut done = 0usize;
    let mut ok = 0usize;
    // Sized for the worst case up front: nothing completes between two
    // hand-offs that was not admitted before the first.
    let block = RefCell::new(Vec::with_capacity(questions.len()));
    let before = thread_allocations();
    if trap && std::env::var_os("ZDNS_TRAP_ALLOCS").is_some() {
        zdns_core::alloc_count::trap_allocations(true);
    }
    {
        let mut feed = || match machines.pop() {
            Some(m) => Admission::Admit(m),
            None => Admission::Exhausted,
        };
        let mut on_done = |outcome: Option<JobOutcome>| block.borrow_mut().push(outcome);
        let mut hand_off = || {
            for outcome in block.borrow_mut().drain(..) {
                done += 1;
                if matches!(&outcome, Some(o) if o.success) {
                    ok += 1;
                }
            }
        };
        reactor.run_scan_with(&mut feed, &mut on_done, &mut hand_off);
    }
    zdns_core::alloc_count::trap_allocations(false);
    let allocs = thread_allocations() - before;
    assert!(
        block.borrow().is_empty(),
        "the scan ended with a block in hand"
    );
    (done, ok, allocs)
}

#[test]
fn steady_state_view_path_scan_allocates_zero_per_lookup() {
    const WARMUP: usize = 1500;
    const MEASURED: usize = 1000;
    let (_server, resolver, addr_map, questions) = loopback_fleet(WARMUP + MEASURED);
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 256,
            source: Ipv4Addr::LOCALHOST,
            io_backend: IoBackend::Mmsg,
            ..ReactorConfig::default()
        },
        addr_map,
    )
    .unwrap();

    // Warmup: grows every pool, map, wheel slot, and scratch buffer to its
    // steady-state high-water mark.
    let (done, ok, _) = run_prebuilt(&mut reactor, &resolver, &questions[..WARMUP], false);
    assert_eq!(done, WARMUP);
    assert!(ok * 10 >= WARMUP * 9, "warmup success {ok}/{WARMUP}");

    // Measured: the reactor loop itself — admission from the pre-built
    // pool, scratch encode, sendmmsg, recvmmsg, view decode, machine
    // stepping, retire — must not touch the allocator at all.
    let (done, ok, allocs) = run_prebuilt(&mut reactor, &resolver, &questions[WARMUP..], true);
    assert_eq!(done, MEASURED);
    assert!(ok * 10 >= MEASURED * 9, "measured success {ok}/{MEASURED}");
    assert_eq!(
        allocs, 0,
        "steady-state view-path scan allocated {allocs} times over {MEASURED} lookups"
    );
}

#[test]
fn steady_state_credit_leased_scan_allocates_zero_per_lookup() {
    // The shared-queue pipeline's admission path: every lookup leases a
    // credit from the scan-wide pool and returns it on retire. The pool
    // is a pair of atomics, so joining it must not cost the hot loop a
    // single allocation.
    const WARMUP: usize = 1200;
    const MEASURED: usize = 800;
    let (_server, resolver, addr_map, questions) = loopback_fleet(WARMUP + MEASURED);
    let pool = Arc::new(CreditPool::new(256));
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 256,
            source: Ipv4Addr::LOCALHOST,
            max_parked: 1024,
            io_backend: IoBackend::Mmsg,
            ..ReactorConfig::default()
        },
        addr_map,
    )
    .unwrap();
    reactor.set_credit_pool(Arc::clone(&pool));

    let (done, ok, _) = run_prebuilt(&mut reactor, &resolver, &questions[..WARMUP], false);
    assert_eq!(done, WARMUP);
    assert!(ok * 10 >= WARMUP * 9, "warmup success {ok}/{WARMUP}");

    let (done, ok, allocs) = run_prebuilt(&mut reactor, &resolver, &questions[WARMUP..], true);
    assert_eq!(done, MEASURED);
    assert!(ok * 10 >= MEASURED * 9, "measured success {ok}/{MEASURED}");
    assert_eq!(
        allocs, 0,
        "credit-leased steady-state scan allocated {allocs} times over {MEASURED} lookups"
    );
    assert_eq!(pool.available(), 256, "every credit returned");
    assert_eq!(pool.leases(), pool.returns());
}

#[test]
fn steady_state_concurrent_pacer_scan_allocates_zero_per_lookup() {
    // The lock-free pacer's admission path: every send takes a slot from
    // the worker's token block (plain arithmetic; one CAS per block
    // lease), probes the striped per-destination table, and reserves on
    // the host bucket. After warmup grows the one host entry, none of
    // that may touch the allocator — the tentpole's 0 allocs/lookup
    // claim extends to paced scans.
    const WARMUP: usize = 1200;
    const MEASURED: usize = 800;
    let (_server, resolver, addr_map, questions) = loopback_fleet(WARMUP + MEASURED);
    let pacer = Arc::new(zdns_core::ConcurrentPacer::new(zdns_core::PacerConfig {
        // High budgets so pacing engages on every send without deferring
        // the loopback scan; backoff on so successes run the stripe's
        // streak-decay path too.
        rate_pps: 10_000_000.0,
        per_host_pps: 5_000_000.0,
        backoff: true,
        ..zdns_core::PacerConfig::default()
    }));
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 256,
            source: Ipv4Addr::LOCALHOST,
            io_backend: IoBackend::Mmsg,
            ..ReactorConfig::default()
        },
        addr_map,
    )
    .unwrap();
    reactor.set_pacer(Arc::clone(&pacer));

    let (done, ok, _) = run_prebuilt(&mut reactor, &resolver, &questions[..WARMUP], false);
    assert_eq!(done, WARMUP);
    assert!(ok * 10 >= WARMUP * 9, "warmup success {ok}/{WARMUP}");

    let (done, ok, allocs) = run_prebuilt(&mut reactor, &resolver, &questions[WARMUP..], true);
    assert_eq!(done, MEASURED);
    assert!(ok * 10 >= MEASURED * 9, "measured success {ok}/{MEASURED}");
    assert_eq!(
        allocs, 0,
        "concurrent-pacer steady-state scan allocated {allocs} times over {MEASURED} lookups"
    );
    // Prove the measured region actually exercised the paced path.
    assert!(pacer.blocks_leased() > 0, "global block leasing never ran");
    assert_eq!(pacer.tracked_hosts(), 1, "host table never probed");
}

#[test]
fn warmed_timer_wheel_arms_cancels_and_fires_without_allocating() {
    const TIMERS: u64 = 1_000;
    let key = ("127.0.0.1:53".parse().unwrap(), 0);
    let mut wheel = TimerWheel::new(1_024, 4 * MILLIS);
    let mut handles = Vec::with_capacity(TIMERS as usize);
    let mut fired = Vec::with_capacity(TIMERS as usize);
    // One round grows the slab to its high-water mark; from then on a
    // window of timers armed 3 s out and nearly all cancelled long before
    // — an answered query — costs the allocator nothing, and neither does
    // the one in ten that is left to fire.
    let mut allocs = 0;
    let mut now = 0;
    for round in 0..4u64 {
        let before = thread_allocations();
        for i in 0..TIMERS {
            handles.push(wheel.arm(now + 3 * SECONDS, round * TIMERS + i, key));
        }
        for (i, handle) in handles.drain(..).enumerate() {
            if i % 10 != 0 {
                assert!(wheel.cancel(handle));
            }
        }
        assert_eq!(wheel.live(), TIMERS as usize / 10);
        now += 5 * SECONDS;
        wheel.expire(now, &mut fired);
        assert_eq!(fired.len(), TIMERS as usize / 10);
        fired.clear();
        if round > 0 {
            allocs += thread_allocations() - before;
        }
    }
    assert_eq!(wheel.slab_len(), TIMERS as usize);
    assert_eq!((wheel.live(), wheel.stored()), (0, 0));
    assert_eq!(allocs, 0, "a warmed wheel allocated {allocs} times");
}

#[test]
fn codec_paths_allocate_zero_after_warmup() {
    let question = Question::new("host.codec.zeroalloc.test".parse().unwrap(), RecordType::A);
    let cookie = Cookie::client([7, 7, 7, 7, 7, 7, 7, 7]);
    // A realistic referral-sized response to parse.
    let mut response = zdns_wire::Message::query(0x5151, question.clone());
    response.flags.response = true;
    for i in 0..6u8 {
        let ns: Name = format!("ns{i}.codec.zeroalloc.test").parse().unwrap();
        response.answers.push(Record::new(
            question.name.clone(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, i)),
        ));
        response.additionals.push(Record::new(
            ns,
            300,
            RData::A(Ipv4Addr::new(198, 51, 100, i)),
        ));
    }
    let bytes = response.encode().unwrap();
    let mut scratch = ScratchBuf::new();
    let target: Name = "codec.zeroalloc.test".parse().unwrap();

    let exercise = |scratch: &mut ScratchBuf| {
        scratch.reset();
        encode_query_into(scratch, 0xABCD, &question, true, Some(&cookie)).unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let mut addrs = 0usize;
        for rec in view.answers() {
            if rec.a_addr().is_some() {
                addrs += 1;
            }
        }
        let mut owners = 0usize;
        for rec in view.additionals() {
            if rec.name().to_name().is_subdomain_of(&target) {
                owners += 1;
            }
        }
        assert_eq!((addrs, owners), (6, 6));
        std::hint::black_box(view.rcode());
    };

    for _ in 0..8 {
        exercise(&mut scratch); // warm the scratch buffer
    }
    let before = thread_allocations();
    for _ in 0..1_000 {
        exercise(&mut scratch);
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "borrowed decode + scratch encode allocated {allocs} times over 1000 iterations"
    );
}

#[test]
fn steady_state_serve_hit_path_allocates_zero_per_query() {
    // The serve-mode counterpart of the scan claims above: once the
    // answer cache and the TCP connection table are warm, answering a
    // client query — borrowed view parse, per-client gate, cache probe,
    // scratch re-encode with cookie echo, send — allocates nothing, over
    // UDP and over an established TCP connection alike. `serve_tick` is
    // public precisely so this test can run the loop on the measuring
    // thread; the client lives on its own thread whose allocations the
    // per-thread counters ignore.
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream, UdpSocket};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};
    use zdns_core::{Clock, ServeConfig, ServerRole};

    const NAMES: usize = 16;
    const WARMUP_ROUNDS: u64 = 200;
    const MEASURED_ROUNDS: u64 = 600;

    let epoch = Instant::now();
    let clock = Clock::from_epoch(epoch);
    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(
        203, 0, 113, 99,
    )]));
    for i in 0..NAMES {
        let name: Name = format!("z{i}.zeroalloc.test").parse().unwrap();
        resolver.core().cache.put(
            CacheKey {
                name: name.clone(),
                rtype: RecordType::A,
            },
            vec![Record::new(
                name,
                3600,
                RData::A(Ipv4Addr::new(10, 7, 0, i as u8)),
            )],
            0,
        );
    }
    // Upstream map is never consulted: every query hits the cache.
    let addr_map: Arc<AddrMap> = Arc::new(|_| (Ipv4Addr::LOCALHOST, 9).into());
    let mut reactor = Reactor::new(
        ReactorConfig {
            max_in_flight: 64,
            source: Ipv4Addr::LOCALHOST,
            io_backend: IoBackend::Mmsg,
            epoch: Some(epoch),
            ..ReactorConfig::default()
        },
        addr_map,
    )
    .unwrap();
    let tcp_listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let tcp_addr = tcp_listener.local_addr().unwrap();
    let udp_listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let udp_addr = udp_listener.local_addr().unwrap();
    let role = ServerRole::new(resolver.clone(), clock, ServeConfig::default())
        .with_udp_listener(udp_listener)
        .unwrap()
        .with_tcp_listener(tcp_listener)
        .unwrap();
    reactor.set_server_role(role);

    let rounds = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let client = {
        let rounds = Arc::clone(&rounds);
        let stop = Arc::clone(&stop);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            udp.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut tcp = TcpStream::connect(tcp_addr).unwrap();
            tcp.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            tcp.set_nodelay(true).unwrap();
            let questions: Vec<Question> = (0..NAMES)
                .map(|i| {
                    Question::new(
                        format!("z{i}.zeroalloc.test").parse().unwrap(),
                        RecordType::A,
                    )
                })
                .collect();
            let cookie = Cookie::client(*b"zeroallc");
            let mut scratch = ScratchBuf::new();
            let mut buf = [0u8; 4096];
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let question = &questions[(round as usize) % NAMES];
                let id = (round % 0xFFFF) as u16;
                scratch.reset();
                encode_query_into(&mut scratch, id, question, true, Some(&cookie)).unwrap();
                if round % 4 == 3 {
                    // Every fourth round goes over the warm TCP connection.
                    let msg = scratch.as_slice();
                    tcp.write_all(&(msg.len() as u16).to_be_bytes()).unwrap();
                    tcp.write_all(msg).unwrap();
                    let mut prefix = [0u8; 2];
                    tcp.read_exact(&mut prefix).unwrap();
                    let len = u16::from_be_bytes(prefix) as usize;
                    tcp.read_exact(&mut buf[..len]).unwrap();
                    let reply = MessageView::parse(&buf[..len]).unwrap();
                    assert_eq!(reply.id(), id);
                    assert_eq!(reply.answer_count(), 1);
                } else {
                    udp.send_to(scratch.as_slice(), udp_addr).unwrap();
                    let (n, _) = udp.recv_from(&mut buf).unwrap();
                    let reply = MessageView::parse(&buf[..n]).unwrap();
                    assert_eq!(reply.id(), id);
                    assert_eq!(reply.answer_count(), 1);
                    assert!(reply.cookie().is_some(), "UDP answers echo the cookie");
                }
                round += 1;
                rounds.store(round, Ordering::Relaxed);
            }
            done.store(true, Ordering::Relaxed);
        })
    };

    // Warmup: grows the scratch buffer, the connection table slot, the
    // read/write buffers of the accepted connection, and the per-client
    // gate entry to their steady-state sizes.
    let deadline = Instant::now() + Duration::from_secs(30);
    while rounds.load(Ordering::Relaxed) < WARMUP_ROUNDS {
        reactor.serve_tick();
        assert!(Instant::now() < deadline, "serve warmup stalled");
    }

    let before = thread_allocations();
    if std::env::var_os("ZDNS_TRAP_ALLOCS").is_some() {
        zdns_core::alloc_count::trap_allocations(true);
    }
    let target = WARMUP_ROUNDS + MEASURED_ROUNDS;
    while rounds.load(Ordering::Relaxed) < target {
        reactor.serve_tick();
        assert!(Instant::now() < deadline, "serve measurement stalled");
    }
    zdns_core::alloc_count::trap_allocations(false);
    let allocs = thread_allocations() - before;

    stop.store(true, Ordering::Relaxed);
    while !done.load(Ordering::Relaxed) {
        reactor.serve_tick();
        std::thread::yield_now();
    }
    client.join().unwrap();
    assert_eq!(
        allocs, 0,
        "steady-state serve hit path allocated {allocs} times over {MEASURED_ROUNDS} queries"
    );
}

#[test]
fn steady_state_serve_bursts_allocate_zero_per_query() {
    // Many replies per tick: two clients each queue a burst of queries
    // (two name lengths, one client with a cookie) before the loop
    // ticks, so every tick answers a burst — packet hits staged in the
    // reply arena, grouped by client and length, and sent as one flush
    // of segmented runs. Clients and loop share the measuring thread:
    // the queries are pre-encoded, and sending and receiving them
    // allocates nothing, so every allocation counted is the loop's.
    use std::net::UdpSocket;
    use std::time::{Duration, Instant};
    use zdns_core::{Clock, ServeConfig, ServerRole};

    const NAMES: usize = 16;
    const BURST: usize = 12;
    const WARMUP_ROUNDS: usize = 50;
    const MEASURED_ROUNDS: usize = 200;

    let epoch = Instant::now();
    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(
        203, 0, 113, 99,
    )]));
    let questions: Vec<Question> = (0..NAMES)
        .map(|i| {
            let name: Name = format!("b{i}.zeroalloc.test").parse().unwrap();
            let record = Record::new(
                name.clone(),
                3600,
                RData::A(Ipv4Addr::new(10, 8, 0, i as u8)),
            );
            resolver.core().cache.put(
                CacheKey {
                    name: name.clone(),
                    rtype: RecordType::A,
                },
                vec![record],
                0,
            );
            Question::new(name, RecordType::A)
        })
        .collect();
    let addr_map: Arc<AddrMap> = Arc::new(|_| (Ipv4Addr::LOCALHOST, 9).into());
    let mut reactor = Reactor::new(
        ReactorConfig {
            source: Ipv4Addr::LOCALHOST,
            io_backend: IoBackend::Mmsg,
            epoch: Some(epoch),
            ..ReactorConfig::default()
        },
        addr_map,
    )
    .unwrap();
    let listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let listen = listener.local_addr().unwrap();
    let role = ServerRole::new(resolver, Clock::from_epoch(epoch), ServeConfig::default())
        .with_udp_listener(listener)
        .unwrap();
    let stats = role.stats();
    reactor.set_server_role(role);

    let cookie = Cookie::client(*b"burstalc");
    let clients: Vec<(UdpSocket, Vec<Vec<u8>>)> = [Some(cookie), None]
        .into_iter()
        .map(|cookie| {
            let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            socket
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let queries = (0..NAMES)
                .map(|i| {
                    let mut scratch = ScratchBuf::new();
                    encode_query_into(&mut scratch, i as u16, &questions[i], true, cookie.as_ref())
                        .unwrap();
                    scratch.take_bytes()
                })
                .collect();
            (socket, queries)
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut buf = [0u8; 4096];
    let mut round = |r: usize| {
        let answered = stats.responses();
        for (socket, queries) in &clients {
            for k in 0..BURST {
                socket.send_to(&queries[(r + k) % NAMES], listen).unwrap();
            }
        }
        while stats.responses() < answered + (2 * BURST) as u64 {
            assert!(Instant::now() < deadline, "serve burst stalled");
            reactor.serve_tick();
        }
        for (socket, _) in &clients {
            for _ in 0..BURST {
                let (n, _) = socket.recv_from(&mut buf).unwrap();
                assert_eq!(MessageView::parse(&buf[..n]).unwrap().answer_count(), 1);
            }
        }
    };

    // Warmup: memoizes every name and grows the reply arena, its slot
    // and status lists, the scratch and the gate entries.
    for r in 0..WARMUP_ROUNDS {
        round(r);
    }
    let before = thread_allocations();
    if std::env::var_os("ZDNS_TRAP_ALLOCS").is_some() {
        zdns_core::alloc_count::trap_allocations(true);
    }
    for r in 0..MEASURED_ROUNDS {
        round(r);
    }
    zdns_core::alloc_count::trap_allocations(false);
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs,
        0,
        "serve bursts allocated {allocs} times over {} queries",
        MEASURED_ROUNDS * 2 * BURST
    );
}

#[test]
fn packet_cache_hit_path_allocates_zero_per_query() {
    // The PR-10 tentpole's claim, isolated from sockets: answering a
    // repeat query from the packet cache — view parse, fingerprint
    // probe, Arc clone, canonical-bytes copy, ID/flags patch, cookie
    // splice — touches the allocator zero times per query. The role is
    // driven through the public `handle_datagram` seam so only the hot
    // path itself is measured (no sendto, no reactor tick).
    use zdns_core::{Clock, ServeConfig, ServerRole};

    const NAMES: usize = 16;
    const MEASURED: usize = 1_000;

    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(
        203, 0, 113, 99,
    )]));
    for i in 0..NAMES {
        let name: Name = format!("p{i}.zeroalloc.test").parse().unwrap();
        resolver.core().cache.put(
            CacheKey {
                name: name.clone(),
                rtype: RecordType::A,
            },
            vec![Record::new(
                name,
                3600,
                RData::A(Ipv4Addr::new(10, 9, 0, i as u8)),
            )],
            0,
        );
    }
    let mut role = ServerRole::new(resolver, Clock::new(), ServeConfig::default());
    let peer: std::net::SocketAddr = "127.0.0.1:50505".parse().unwrap();
    let cookie = Cookie::client(*b"pktalloc");
    let queries: Vec<Vec<u8>> = (0..NAMES)
        .map(|i| {
            let mut scratch = ScratchBuf::new();
            let q = Question::new(
                format!("p{i}.zeroalloc.test").parse().unwrap(),
                RecordType::A,
            );
            encode_query_into(&mut scratch, i as u16, &q, true, Some(&cookie)).unwrap();
            scratch.take_bytes()
        })
        .collect();

    // Warmup: the first pass memoizes (entry boxing is the fill's cost),
    // later passes grow the role's scratch buffer to steady state.
    for _ in 0..4 {
        for raw in &queries {
            assert!(role.handle_datagram(raw, peer, 1).is_some());
        }
    }
    let stats = role.stats();
    assert_eq!(stats.packet_fills(), NAMES as u64);
    let hits_before = stats.packet_hits();

    let before = thread_allocations();
    if std::env::var_os("ZDNS_TRAP_ALLOCS").is_some() {
        zdns_core::alloc_count::trap_allocations(true);
    }
    for round in 0..MEASURED {
        let raw = &queries[round % NAMES];
        std::hint::black_box(role.handle_datagram(raw, peer, 1));
    }
    zdns_core::alloc_count::trap_allocations(false);
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "packet-cache hit path allocated {allocs} times over {MEASURED} queries"
    );
    let stats = role.stats();
    assert_eq!(
        stats.packet_hits() - hits_before,
        MEASURED as u64,
        "every measured query rode the packet path"
    );
}

#[test]
fn unmemoized_record_hit_path_allocates_zero_per_query() {
    // A record hit the packet cache cannot memoize — here a CH-class
    // question — is encoded canonically off the record cache's entry and
    // finished for its client in the role's scratch, every time. At
    // steady state that touches the allocator zero times per query.
    use zdns_core::{Clock, ServeConfig, ServerRole};
    use zdns_wire::{Message, RecordClass};

    const NAMES: usize = 16;
    const MEASURED: usize = 1_000;

    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(
        203, 0, 113, 99,
    )]));
    for i in 0..NAMES {
        let name: Name = format!("u{i}.zeroalloc.test").parse().unwrap();
        resolver.core().cache.put(
            CacheKey {
                name: name.clone(),
                rtype: RecordType::A,
            },
            vec![Record::new(
                name,
                3600,
                RData::A(Ipv4Addr::new(10, 8, 0, i as u8)),
            )],
            0,
        );
    }
    let mut role = ServerRole::new(resolver, Clock::new(), ServeConfig::default());
    let peer: std::net::SocketAddr = "127.0.0.1:50506".parse().unwrap();
    let queries: Vec<Vec<u8>> = (0..NAMES)
        .map(|i| {
            let mut question = Question::new(
                format!("u{i}.zeroalloc.test").parse().unwrap(),
                RecordType::A,
            );
            question.qclass = RecordClass::CH;
            let mut query = Message::query(i as u16, question);
            query.flags.recursion_desired = true;
            query
                .edns
                .as_mut()
                .unwrap()
                .set_cookie(Cookie::client(*b"unmemoiz"));
            query.encode().unwrap()
        })
        .collect();

    for _ in 0..4 {
        for raw in &queries {
            assert!(role.handle_datagram(raw, peer, 1).is_some());
        }
    }
    let before = thread_allocations();
    if std::env::var_os("ZDNS_TRAP_ALLOCS").is_some() {
        zdns_core::alloc_count::trap_allocations(true);
    }
    for round in 0..MEASURED {
        let raw = &queries[round % NAMES];
        std::hint::black_box(role.handle_datagram(raw, peer, 1));
    }
    zdns_core::alloc_count::trap_allocations(false);
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "unmemoized record-hit path allocated {allocs} times over {MEASURED} queries"
    );
    let stats = role.stats();
    assert_eq!(stats.cache_hits(), (4 * NAMES + MEASURED) as u64);
    assert_eq!(stats.packet_fills(), 0, "nothing was memoized");
}

#[test]
fn cache_misses_and_shard_routing_allocate_zero() {
    let cache = Cache::new(4096);
    let com: Name = "com".parse().unwrap();
    cache.put(
        CacheKey {
            name: com.clone(),
            rtype: RecordType::NS,
        },
        vec![Record::new(
            com,
            172_800,
            RData::Ns("a.gtld-servers.net".parse().unwrap()),
        )],
        0,
    );
    let absent: Name = "WWW.Absent.Example.ORG".parse().unwrap();
    let probe_key = CacheKey {
        name: "MiXeD.CaSe.CoM".parse().unwrap(),
        rtype: RecordType::NS,
    };
    let before = thread_allocations();
    for _ in 0..1_000 {
        // Key hashing, shard routing, and suffix-walk probes all run on
        // inline name storage: no lowercased String, no per-label boxes.
        std::hint::black_box(cache.shard_index(&probe_key));
        assert!(cache.get(&absent, RecordType::NS, 0).is_none());
        assert!(cache.deepest_cut(&absent, 0).is_none());
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "cache probes allocated {allocs} times over 1000 iterations"
    );
}

#[test]
fn warm_cache_hits_allocate_zero() {
    // The hit side of the test above: a `get` hit and a `deepest_cut` hit
    // (three suffix probes, the last one live) share the stored RRset by
    // reference count, hash the probed name once each, and re-link the
    // entry in place — none of which may touch the allocator.
    let cache = Cache::new(4096);
    let com: Name = "com".parse().unwrap();
    let glue: Name = "a.gtld-servers.net".parse().unwrap();
    let ns_set: Vec<Record> = (b'a'..=b'm')
        .map(|c| {
            let target = format!("{}.gtld-servers.net", c as char);
            Record::new(com.clone(), 172_800, RData::Ns(target.parse().unwrap()))
        })
        .collect();
    cache.put(
        CacheKey {
            name: com.clone(),
            rtype: RecordType::NS,
        },
        ns_set,
        0,
    );
    cache.put(
        CacheKey {
            name: glue.clone(),
            rtype: RecordType::A,
        },
        vec![Record::new(
            glue.clone(),
            172_800,
            RData::A(Ipv4Addr::new(192, 5, 6, 30)),
        )],
        0,
    );
    let qname: Name = "WWW.Some-Shop.Example.COM".parse().unwrap();
    let before = thread_allocations();
    for _ in 0..1_000 {
        let (cut, ns) = cache.deepest_cut(&qname, 1).expect("com is cached");
        assert_eq!(cut.label_count(), 1);
        assert_eq!(ns.len(), 13);
        let a = cache.get(&glue, RecordType::A, 1).expect("glue is cached");
        assert_eq!(a.len(), 1);
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "cache hits allocated {allocs} times over 1000 iterations"
    );
}
