//! The serve loop: tick the server role and the forwarding machines its
//! cache misses queue, until stopped.

use std::sync::atomic::{AtomicBool, Ordering};

use zdns_netsim::{JobOutcome, MILLIS};

use super::{Reactor, SOCKET, TCP_LISTENER, UDP_LISTENER};
use crate::driver::DriverReport;

impl Reactor {
    /// One iteration of the serve loop: deliver upstream responses, TCP
    /// completions and timers to the forwarding machines, run the role's
    /// listener/TCP/answer work, admit the forwarding machines that cache
    /// misses queued, and flush staged upstream sends in one batch. Of
    /// the reactor's socket and the role's listeners it reads only those
    /// the idle wait before it saw ready; after no wait, all of them.
    ///
    /// Public — rather than only reachable through [`Reactor::run_serve`]
    /// — so the zero-allocation suite can tick the loop on the measuring
    /// thread (allocation counters are per-thread) and benches can drive
    /// it without a stop flag.
    pub fn serve_tick(&mut self) {
        let mut on_done = |_outcome: Option<JobOutcome>| {};
        let ready = self.take_ready();
        if ready.has(SOCKET) {
            self.drain_datagrams(&mut on_done);
        }
        self.pump_tcp(&mut on_done);
        self.fire_timers(&mut on_done);
        if let Some(mut role) = self.server.take() {
            let now = self.now();
            role.poll(now, [ready.has(UDP_LISTENER), ready.has(TCP_LISTENER)]);
            self.server = Some(role);
        }
        // Admit the forwarding machines queued by cache misses, on the
        // scan loop's lease. When the window is full the machine is
        // dropped instead — it has not started, so there is nothing to
        // unwind, and the client retries against a cache its sibling
        // queries are busy filling.
        while let Some(machine) = self.server.as_mut().and_then(|r| r.pop_admission()) {
            if self.admittable() && self.lease_admission() {
                self.admit(machine, &mut on_done);
            } else if let Some(role) = self.server.as_ref() {
                role.note_overload();
            }
        }
        self.flush_staged(&mut on_done);
    }

    /// Drive the serve loop until `stop` is raised: the blocking
    /// counterpart to [`Driver::run_scan`](crate::Driver::run_scan) for a
    /// reactor with a server role installed. Sleeps between ticks until
    /// the reactor's socket or one of the role's listeners is readable or
    /// a timer is due, capped tighter while the role has work no poll can
    /// signal (live TCP connections, queued answers). A ring of the
    /// reactor's [`Doorbell`](super::Doorbell), after `stop` is raised,
    /// ends the sleep at once.
    pub fn run_serve(&mut self, stop: &AtomicBool) -> DriverReport {
        self.report = DriverReport::default();
        // Only a stop rings a serve reactor's bell, so the mark set here
        // holds until that ring.
        if let Some(bell) = &self.bell {
            bell.mark_starved();
        }
        while !stop.load(Ordering::Relaxed) {
            self.serve_tick();

            let now = self.now();
            let mut wait_ns = self.wheel.ns_until_next_tick(now).unwrap_or(5 * MILLIS);
            if !self.tcp.is_empty() {
                wait_ns = wait_ns.min(2 * MILLIS);
            }
            if self.server.as_ref().is_some_and(|r| r.wants_fast_tick()) {
                wait_ns = wait_ns.min(MILLIS);
            }
            // Floor of 1ms (a scan may spin at 0; a server must bound its
            // idle wakeup rate), ceiling of 50ms so the stop flag is
            // honored promptly.
            self.idle_wait(wait_ns.div_ceil(MILLIS).clamp(1, 50) as i32, true);
        }

        // Same end-of-run hygiene as a scan: machines still forwarding
        // are abandoned (their clients will retry) and deferred sends are
        // dropped with their release timers, so the reactor can be reused.
        self.drop_deferred();

        self.report.io_backend = self.io_backend();
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use zdns_wire::ScratchBuf;

    use super::*;
    use crate::clock::Clock;
    use crate::config::ResolverConfig;
    use crate::reactor::ReactorConfig;
    use crate::resolver::Resolver;
    use crate::serve::{ServeConfig, ServeStats, ServerRole};

    #[test]
    fn serve_sheds_misses_beyond_its_window_and_gets_the_window_back() {
        use zdns_wire::{encode_query_into, Question, RecordType};

        // Every miss forwards to a mute upstream (bound, never read), so a
        // forwarded lookup ends only by its one timeout.
        let mute = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let upstream = mute.local_addr().unwrap();
        let mut config = ResolverConfig::external(vec![Ipv4Addr::LOCALHOST]);
        config.retries = 0;
        config.timeout = 50 * MILLIS;
        let epoch = Instant::now();
        let mut reactor = Reactor::new(
            ReactorConfig {
                max_in_flight: 2,
                source: Ipv4Addr::LOCALHOST,
                epoch: Some(epoch),
                ..ReactorConfig::default()
            },
            Arc::new(move |_| upstream),
        )
        .unwrap();
        let listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let listen = listener.local_addr().unwrap();
        let role = ServerRole::new(
            Resolver::new(config),
            Clock::from_epoch(epoch),
            ServeConfig::default(),
        )
        .with_udp_listener(listener)
        .unwrap();
        let stats = role.stats();
        reactor.set_server_role(role);
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut scratch = ScratchBuf::new();
        let mut ask = |ids: std::ops::Range<u16>| {
            for id in ids {
                let name = format!("miss{id}.overload.test").parse().unwrap();
                scratch.reset();
                encode_query_into(
                    &mut scratch,
                    id,
                    &Question::new(name, RecordType::A),
                    true,
                    None,
                )
                .unwrap();
                client.send_to(scratch.as_slice(), listen).unwrap();
            }
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let tick_until = |reactor: &mut Reactor, done: &dyn Fn(&Reactor) -> bool| {
            while !done(reactor) {
                assert!(Instant::now() < deadline, "serve loop stalled");
                reactor.serve_tick();
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // Five misses in one tick: two fit the window, three are shed.
        ask(0..5);
        reactor.serve_tick();
        assert_eq!((stats.forwarded(), stats.overloaded()), (5, 3));
        assert_eq!(reactor.in_flight(), 2);
        assert_eq!(reactor.credits.pool.available(), 0);

        // Both lookups time out and their credits go back to the private
        // pool: the next two misses are hosted, and nothing is shed.
        tick_until(&mut reactor, &|r| r.in_flight() == 0);
        assert_eq!(reactor.credits.pool.available(), 2);
        ask(5..7);
        tick_until(&mut reactor, &|_| stats.forwarded() == 7);
        assert_eq!(stats.overloaded(), 3);
        assert_eq!(reactor.in_flight(), 2);
    }

    /// A reactor serving from `listener` and `tcp`, forwarding nowhere,
    /// and its role's counters.
    fn serving_reactor(listener: UdpSocket, tcp: TcpListener) -> (Reactor, Arc<ServeStats>) {
        let upstream = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        serving_reactor_on(upstream, listener, tcp)
    }

    /// [`serving_reactor`] around its own `upstream` socket.
    fn serving_reactor_on(
        upstream: UdpSocket,
        listener: UdpSocket,
        tcp: TcpListener,
    ) -> (Reactor, Arc<ServeStats>) {
        let mut reactor = Reactor::from_socket(
            upstream,
            ReactorConfig::default(),
            Arc::new(|_| (Ipv4Addr::LOCALHOST, 9).into()),
        )
        .unwrap();
        let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::LOCALHOST]));
        let role = ServerRole::new(resolver, Clock::new(), ServeConfig::default())
            .with_udp_listener(listener)
            .unwrap()
            .with_tcp_listener(tcp)
            .unwrap();
        let stats = role.stats();
        reactor.set_server_role(role);
        (reactor, stats)
    }

    #[test]
    fn idle_wait_wakes_on_the_listeners() {
        let listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tcp = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let (udp_at, tcp_at) = (listener.local_addr().unwrap(), tcp.local_addr().unwrap());
        let (mut reactor, stats) = serving_reactor(listener, tcp);

        // Nothing else queued: a wait that watched only the reactor's
        // own socket would run its whole 2 s.
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        client.send_to(&questionless_query(), udp_at).unwrap();
        let started = Instant::now();
        reactor.idle_wait(2_000, false);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "slept through a query"
        );
        reactor.serve_tick();
        assert_eq!(stats.responses(), 1);

        // The same for a connection waiting on the TCP listener.
        let _conn = TcpStream::connect(tcp_at).unwrap();
        let started = Instant::now();
        reactor.idle_wait(2_000, false);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "slept through a connection"
        );
    }

    /// Listeners on loopback, their addresses, and a reactor serving
    /// from them.
    fn serving() -> (Reactor, Arc<ServeStats>, SocketAddr, SocketAddr) {
        let listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tcp = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let (udp_at, tcp_at) = (listener.local_addr().unwrap(), tcp.local_addr().unwrap());
        let (reactor, stats) = serving_reactor(listener, tcp);
        (reactor, stats, udp_at, tcp_at)
    }

    #[test]
    fn a_tick_after_a_wait_that_saw_nothing_ready_reads_no_socket() {
        let (mut reactor, stats, udp_at, _) = serving();
        reactor.idle_wait(1, false);
        // Queued after the wait returned: this tick does not look.
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        client.send_to(&questionless_query(), udp_at).unwrap();
        reactor.serve_tick();
        assert_eq!((stats.queries(), stats.responses()), (0, 0));
        // No wait before the next one: it reads every socket.
        reactor.serve_tick();
        assert_eq!(stats.responses(), 1);
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(client.recv_from(&mut [0u8; 512]).is_ok(), "unanswered");
    }

    #[test]
    fn a_pending_connection_is_accepted_on_the_tick_after_the_wait_that_saw_it() {
        let (mut reactor, stats, _, tcp_at) = serving();
        reactor.idle_wait(1, false);
        let _conn = TcpStream::connect(tcp_at).unwrap();
        reactor.serve_tick();
        assert_eq!(stats.tcp_accepted(), 0, "accepted without a wait seeing it");
        reactor.idle_wait(2_000, false);
        reactor.serve_tick();
        assert_eq!(stats.tcp_accepted(), 1);
    }

    #[test]
    fn a_queued_socket_error_is_read_and_the_loop_does_not_spin() {
        // A send to a closed loopback port from a connected socket queues
        // the ICMP error on it: `poll` reports it as `POLLERR`, without
        // `POLLIN`, until a read takes it.
        let closed = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let closed_at = closed.local_addr().unwrap();
        drop(closed);
        let upstream = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        upstream.connect(closed_at).unwrap();
        let probe = upstream.try_clone().unwrap();
        let listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tcp = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let (mut reactor, _) = serving_reactor_on(upstream, listener, tcp);
        probe.send(b"x").unwrap();

        // The serve loop's own wait and tick, for 100 ms.
        let (started, mut wakeups) = (Instant::now(), 0);
        while started.elapsed() < Duration::from_millis(100) {
            reactor.idle_wait(5, false);
            reactor.serve_tick();
            wakeups += 1;
        }
        assert!(
            probe.take_error().unwrap().is_none(),
            "the error was never read"
        );
        assert!(wakeups <= 40, "{wakeups} wakeups in 100 ms of 5 ms waits");
    }

    #[test]
    fn a_query_to_the_upstream_socket_is_stale_and_unanswered() {
        let listener = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tcp = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let (mut reactor, stats) = serving_reactor(listener, tcp);
        let upstream_side = reactor.local_addr().unwrap();
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        client
            .send_to(&questionless_query(), upstream_side)
            .unwrap();
        client.send_to(&[0xFF, 0xEE, 0xDD], upstream_side).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.report.stale_datagrams + reactor.report.decode_errors < 2 {
            assert!(Instant::now() < deadline, "datagrams never drained");
            reactor.serve_tick();
        }
        assert_eq!(reactor.report.stale_datagrams, 1, "the query");
        assert_eq!(reactor.report.decode_errors, 1, "the garbage");
        assert_eq!(
            (stats.queries(), stats.malformed(), stats.responses()),
            (0, 0, 0)
        );
        client.set_nonblocking(true).unwrap();
        assert!(client.recv_from(&mut [0u8; 512]).is_err(), "answered");
    }

    /// A header-only query (QR=0, no question): a listener answers it
    /// with FORMERR.
    fn questionless_query() -> [u8; 12] {
        [0x12, 0x34, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    }
}
