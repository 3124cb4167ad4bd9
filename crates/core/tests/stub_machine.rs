//! The stub machine, scripted (no sockets, fully deterministic): an
//! external lookup and a per-server probe are one exchange that differ
//! only in the server list they rotate through — the upstreams, or the
//! one probed server — and in whether a lookup nothing answered names a
//! server.

use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_core::{ResolverConfig, ResolverCore, Status, StubMachine};
use zdns_netsim::{ClientEvent, OutQuery, SimClient, StepStatus};
use zdns_wire::{Question, RecordType};

const UPSTREAMS: [Ipv4Addr; 3] = [
    Ipv4Addr::new(198, 51, 100, 1),
    Ipv4Addr::new(198, 51, 100, 2),
    Ipv4Addr::new(198, 51, 100, 3),
];
const PROBED: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 99);

fn core() -> Arc<ResolverCore> {
    let mut config = ResolverConfig::external(UPSTREAMS.to_vec());
    config.retries = 2;
    ResolverCore::new(config)
}

fn question(name: &str) -> Question {
    Question::new(name.parse().unwrap(), RecordType::A)
}

/// Start `machine` and time out each query it sends until it finishes;
/// returns every query in order.
fn time_out_every_query(machine: &mut StubMachine) -> Vec<OutQuery> {
    let mut out = Vec::new();
    let mut sent = Vec::new();
    let mut status = machine.start(0, &mut out);
    let mut now = 0;
    while matches!(status, StepStatus::Running) {
        let query = out.pop().expect("a running stub has a query in flight");
        assert!(out.is_empty(), "one query at a time");
        now += 1;
        status = machine.on_event(ClientEvent::Timeout { tag: query.tag }, now, &mut out);
        sent.push(query);
    }
    assert!(out.is_empty(), "a finished stub sends nothing");
    sent
}

#[test]
fn external_retries_rotate_through_the_upstreams() {
    let core = core();
    let mut machine = StubMachine::external(Arc::clone(&core), question("rotate.stub.test"), true);
    let sent = time_out_every_query(&mut machine);

    // Start anywhere in the list, then +1 and +2 across two timeouts.
    assert_eq!(sent.len(), 3, "the first query and two retries");
    let start = UPSTREAMS.iter().position(|s| *s == sent[0].to).unwrap();
    let to: Vec<Ipv4Addr> = sent.iter().map(|q| q.to).collect();
    assert_eq!(
        to,
        [0, 1, 2].map(|step| UPSTREAMS[(start + step) % UPSTREAMS.len()])
    );
    assert!(sent.iter().all(|q| q.recursion_desired));
    assert!(sent.windows(2).all(|w| w[0].tag != w[1].tag));

    let result = machine
        .take_result()
        .expect("a kept lookup keeps its result");
    assert_eq!(result.status, Status::Timeout);
    assert_eq!(result.resolver, None, "nobody answered, nobody is named");
    assert_eq!((result.queries_sent, result.retries_used), (3, 3));
}

#[test]
fn a_probe_asks_its_one_server_again_and_names_it() {
    let core = core();
    let mut machine = StubMachine::probe(
        Arc::clone(&core),
        question("probe.stub.test"),
        PROBED,
        false,
        true,
    );
    let sent = time_out_every_query(&mut machine);

    // The same exchange over a list of one: every retry goes back to
    // the probed server, never to a configured upstream.
    assert_eq!(sent.len(), 3);
    assert!(sent.iter().all(|q| q.to == PROBED && !q.recursion_desired));

    let result = machine
        .take_result()
        .expect("a kept lookup keeps its result");
    assert_eq!(result.status, Status::Timeout);
    assert_eq!(result.resolver, Some(PROBED));
    assert_eq!((result.queries_sent, result.retries_used), (3, 3));
    assert!(
        machine.take_result().is_none(),
        "the result is handed out once"
    );
}
