//! EDNS(0) cookie (RFC 7873) behaviour across the stack.
//!
//! * Machines attach a client cookie to every query, learn the server
//!   cookie from responses, and echo the full cookie on retries to the
//!   same server (scripted-event tests — no sockets, fully deterministic).
//! * The loopback `WireServer` echoes client cookies with its fixed server
//!   cookie appended, end to end over real sockets (through the reactor).

use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_core::{
    Admission, Driver, Reactor, ReactorConfig, ResolverConfig, ResolverCore, StubMachine,
};
use zdns_netsim::{
    ClientEvent, JobOutcome, OutQuery, Protocol, SimClient, SimTime, StepStatus, SECONDS,
    SERVER_COOKIE,
};
use zdns_wire::{Cookie, Message, MsgRef, Question, RecordType, CLIENT_COOKIE_LEN};
use zdns_zones::{ExplicitUniverse, Universe, Zone};

const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);

fn external_core() -> Arc<ResolverCore> {
    let mut config = ResolverConfig::external(vec![SERVER]);
    config.retries = 3;
    ResolverCore::new(config)
}

/// Build the full cookie a server would echo: the query's client part plus
/// `server` bytes.
fn echoed(query_cookie: &Cookie, server: &[u8]) -> Cookie {
    let mut full = [0u8; 40];
    full[..CLIENT_COOKIE_LEN].copy_from_slice(query_cookie.client_part());
    full[CLIENT_COOKIE_LEN..CLIENT_COOKIE_LEN + server.len()].copy_from_slice(server);
    Cookie::from_wire(&full[..CLIENT_COOKIE_LEN + server.len()]).unwrap()
}

/// A truncated response carrying `cookie`, answering `oq`.
fn truncated_response(oq: &OutQuery, cookie: Cookie) -> Message {
    let mut resp = Message::query(oq.id, oq.question.clone());
    resp.flags.response = true;
    resp.flags.truncated = true;
    resp.edns.as_mut().unwrap().set_cookie(cookie);
    resp
}

#[test]
fn direct_machine_echoes_server_cookie_on_same_server_retry() {
    let core = external_core();
    let question = Question::new("cookie.test".parse().unwrap(), RecordType::A);
    let mut machine = StubMachine::probe(core, question, SERVER, false, false);
    let mut out = Vec::new();
    assert!(matches!(machine.start(0, &mut out), StepStatus::Running));
    let first = out.pop().unwrap();
    let first_cookie = first.cookie.expect("cookies on by default");
    assert!(
        !first_cookie.has_server_part(),
        "first query carries a client-only cookie"
    );

    // The server answers truncated (forcing a same-server TCP retry) and
    // echoes a full cookie.
    let full = echoed(&first_cookie, b"srv-cook");
    let resp = truncated_response(&first, full);
    let status = machine.on_event(
        ClientEvent::Response {
            tag: first.tag,
            from: SERVER,
            message: MsgRef::Owned(resp),
            protocol: Protocol::Udp,
        },
        1,
        &mut out,
    );
    assert!(matches!(status, StepStatus::Running));
    let retry = out.pop().unwrap();
    assert_eq!(retry.protocol, Protocol::Tcp);
    assert_eq!(
        retry.cookie,
        Some(full),
        "retry to the same server echoes the learned full cookie"
    );
}

#[test]
fn external_machine_pins_cookies_per_server() {
    let core = {
        let other = Ipv4Addr::new(198, 51, 100, 54);
        let mut config = ResolverConfig::external(vec![SERVER, other]);
        config.retries = 3;
        ResolverCore::new(config)
    };
    let question = Question::new("rotate.cookie.test".parse().unwrap(), RecordType::A);
    let mut machine = StubMachine::external(core, question, false);
    let mut out = Vec::new();
    machine.start(0, &mut out);
    let first = out.pop().unwrap();
    let first_cookie = first.cookie.unwrap();

    // Learn a full cookie from the first server via a truncated response.
    let full = echoed(&first_cookie, b"pinsrvck");
    let resp = truncated_response(&first, full);
    machine.on_event(
        ClientEvent::Response {
            tag: first.tag,
            from: first.to,
            message: MsgRef::Owned(resp),
            protocol: Protocol::Udp,
        },
        1,
        &mut out,
    );
    let tcp_retry = out.pop().unwrap();
    assert_eq!(tcp_retry.to, first.to);
    assert_eq!(tcp_retry.cookie, Some(full));

    // A timeout rotates to the other upstream: the learned cookie must NOT
    // follow — other servers get the bare client cookie.
    machine.on_event(ClientEvent::Timeout { tag: tcp_retry.tag }, 2, &mut out);
    let rotated = out.pop().unwrap();
    assert_ne!(rotated.to, first.to, "retry rotates to the next upstream");
    let rotated_cookie = rotated.cookie.unwrap();
    assert!(!rotated_cookie.has_server_part());
    assert_eq!(rotated_cookie.client_part(), first_cookie.client_part());
}

#[test]
fn keyed_secret_derives_per_destination_cookies() {
    // RFC 7873 §6: with --cookie-secret, the client cookie is a keyed
    // hash over the destination — distinct per server, identical across
    // lookups of different names, and stable for one (secret, server).
    let secret = [7u8; 16];
    let other_server = Ipv4Addr::new(198, 51, 100, 54);
    let core_for = |secret: [u8; 16]| {
        let mut config = ResolverConfig::external(vec![SERVER, other_server]);
        config.cookie_secret = Some(secret);
        config.retries = 3;
        ResolverCore::new(config)
    };

    let q = |name: &str| Question::new(name.parse().unwrap(), RecordType::A);
    let mut a = StubMachine::probe(core_for(secret), q("alpha.test"), SERVER, false, false);
    let mut b = StubMachine::probe(core_for(secret), q("beta.test"), SERVER, false, false);
    let mut c = StubMachine::probe(
        core_for(secret),
        q("alpha.test"),
        other_server,
        false,
        false,
    );
    let mut out = Vec::new();
    a.start(0, &mut out);
    let cookie_a = out.pop().unwrap().cookie.unwrap();
    b.start(0, &mut out);
    let cookie_b = out.pop().unwrap().cookie.unwrap();
    c.start(0, &mut out);
    let cookie_c = out.pop().unwrap().cookie.unwrap();

    assert_eq!(
        cookie_a.client_part(),
        cookie_b.client_part(),
        "keyed cookies do not depend on the queried name"
    );
    assert_ne!(
        cookie_a.client_part(),
        cookie_c.client_part(),
        "each destination gets its own client cookie"
    );

    // A different secret changes every cookie; the default (no secret)
    // still derives from the name.
    let mut d = StubMachine::probe(core_for([8u8; 16]), q("alpha.test"), SERVER, false, false);
    d.start(0, &mut out);
    assert_ne!(
        out.pop().unwrap().cookie.unwrap().client_part(),
        cookie_a.client_part()
    );
    let mut plain = StubMachine::probe(external_core(), q("alpha.test"), SERVER, false, false);
    let mut plain2 = StubMachine::probe(external_core(), q("beta.test"), SERVER, false, false);
    plain.start(0, &mut out);
    let p1 = out.pop().unwrap().cookie.unwrap();
    plain2.start(0, &mut out);
    let p2 = out.pop().unwrap().cookie.unwrap();
    assert_ne!(
        p1.client_part(),
        p2.client_part(),
        "default derivation stays per-name"
    );
}

#[test]
fn keyed_cookies_still_learn_and_echo_server_cookies() {
    let mut config = ResolverConfig::external(vec![SERVER]);
    config.cookie_secret = Some([42u8; 16]);
    config.retries = 3;
    let core = ResolverCore::new(config);
    let question = Question::new("keyed-echo.test".parse().unwrap(), RecordType::A);
    let mut machine = StubMachine::probe(core, question, SERVER, false, false);
    let mut out = Vec::new();
    assert!(matches!(machine.start(0, &mut out), StepStatus::Running));
    let first = out.pop().unwrap();
    let first_cookie = first.cookie.unwrap();
    assert!(!first_cookie.has_server_part());

    // Server echoes our keyed client part with its server part appended
    // on a truncated answer; the same-server TCP retry must carry it.
    let full = echoed(&first_cookie, b"KEYEDSRV");
    let response = truncated_response(&first, full);
    let status = machine.on_event(
        ClientEvent::Response {
            tag: first.tag,
            from: SERVER,
            message: MsgRef::Owned(response),
            protocol: Protocol::Udp,
        },
        1,
        &mut out,
    );
    assert!(matches!(status, StepStatus::Running));
    let retry = out.pop().unwrap();
    assert_eq!(retry.protocol, Protocol::Tcp);
    let retry_cookie = retry.cookie.unwrap();
    assert!(retry_cookie.has_server_part(), "learned cookie echoed");
    assert_eq!(retry_cookie.client_part(), first_cookie.client_part());
}

#[test]
fn wire_server_echoes_cookie_over_real_sockets() {
    let server_ip = Ipv4Addr::new(203, 0, 113, 9);
    let mut zone = Zone::new(
        "echo.test".parse().unwrap(),
        "ns1.echo.test".parse().unwrap(),
        300,
    );
    zone.add(zdns_wire::Record::new(
        "echo.test".parse().unwrap(),
        300,
        zdns_wire::RData::A("192.0.2.99".parse().unwrap()),
    ));
    let mut universe = ExplicitUniverse::new();
    universe.host(server_ip, zone);
    let server =
        zdns_netsim::WireServer::start(Arc::new(universe) as Arc<dyn Universe>, server_ip).unwrap();

    /// One query carrying a fixed client cookie; keeps the cookie the
    /// response carries.
    struct CookieProbe {
        sent: Cookie,
        echoed: Arc<parking_lot::Mutex<Option<Cookie>>>,
    }
    impl SimClient for CookieProbe {
        fn start(&mut self, _now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
            out.push(OutQuery {
                to: Ipv4Addr::new(203, 0, 113, 9),
                id: 0x7777,
                question: Question::new("echo.test".parse().unwrap(), RecordType::A),
                recursion_desired: false,
                cookie: Some(self.sent),
                protocol: Protocol::Udp,
                timeout: 2 * SECONDS,
                tag: 1,
            });
            StepStatus::Running
        }
        fn on_event(
            &mut self,
            event: ClientEvent<'_>,
            _now: SimTime,
            _out: &mut Vec<OutQuery>,
        ) -> StepStatus {
            if let ClientEvent::Response { message, .. } = event {
                *self.echoed.lock() = message.cookie();
            }
            StepStatus::Done(JobOutcome {
                success: true,
                status: "NOERROR",
            })
        }
    }

    let client_cookie = Cookie::client(*b"CLNTCOOK");
    let echoed = Arc::new(parking_lot::Mutex::new(None));
    let mut probe: Option<Box<dyn SimClient>> = Some(Box::new(CookieProbe {
        sent: client_cookie,
        echoed: Arc::clone(&echoed),
    }));
    let addr = server.addr();
    let config = ReactorConfig {
        source: Ipv4Addr::LOCALHOST,
        ..ReactorConfig::default()
    };
    let mut reactor = Reactor::new(config, Arc::new(move |_| addr)).unwrap();
    reactor.run_scan(
        &mut || probe.take().map_or(Admission::Exhausted, Admission::Admit),
        &mut |_| {},
    );
    let echoed = echoed.lock().expect("server echoes a cookie");
    assert_eq!(echoed.client_part(), client_cookie.client_part());
    assert_eq!(echoed.server_part(), &SERVER_COOKIE);
}
