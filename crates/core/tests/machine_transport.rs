//! How every machine asks, scripted (no sockets, fully deterministic):
//! under `--tcp-only` an external lookup, a probe and an iterative lookup
//! all ask over TCP and say so in their results; a TC→TCP switch holds
//! for the stub's whole lookup and for one nameserver of the walk; and the
//! iterative walk's count of queries per nameserver under `--retries` is
//! pinned.

use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_core::{
    IterativeMachine, Lookup, LookupResult, ResolverConfig, ResolverCore, Status, StubMachine,
};
use zdns_netsim::{ClientEvent, OutQuery, Protocol, SimClient, StepStatus};
use zdns_wire::{Message, MsgRef, Name, Question, RData, Record, RecordType};

const UPSTREAMS: [Ipv4Addr; 2] = [
    Ipv4Addr::new(198, 51, 100, 1),
    Ipv4Addr::new(198, 51, 100, 2),
];
const PROBED: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 99);
const ANSWER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);

fn root_hints() -> Vec<(Name, Ipv4Addr)> {
    ["a.root-servers.test", "b.root-servers.test"]
        .iter()
        .zip(1..)
        .map(|(ns, last)| (ns.parse().unwrap(), Ipv4Addr::new(192, 0, 2, last)))
        .collect()
}

fn question(name: &str) -> Question {
    Question::new(name.parse().unwrap(), RecordType::A)
}

/// An authoritative answer to `query` with one A record, arriving over
/// the query's own transport.
fn answer(query: &OutQuery) -> ClientEvent<'static> {
    let mut message = Message::query(query.id, query.question.clone());
    message.flags.response = true;
    message.flags.authoritative = true;
    message.answers.push(Record::new(
        query.question.name.clone(),
        300,
        RData::A(ANSWER),
    ));
    ClientEvent::Response {
        tag: query.tag,
        from: query.to,
        message: MsgRef::Owned(message),
        protocol: query.protocol,
    }
}

/// Start `machine`, time out its first query and answer the retry;
/// returns every query it sent.
fn time_out_then_answer(machine: &mut dyn SimClient) -> Vec<OutQuery> {
    let mut out = Vec::new();
    assert!(matches!(machine.start(0, &mut out), StepStatus::Running));
    let first = out.pop().expect("a first query");
    let status = machine.on_event(ClientEvent::Timeout { tag: first.tag }, 1, &mut out);
    assert!(matches!(status, StepStatus::Running));
    let retry = out.pop().expect("a retry");
    let status = machine.on_event(answer(&retry), 2, &mut out);
    assert!(matches!(status, StepStatus::Done(_)), "the answer ends it");
    assert!(out.is_empty(), "a finished machine sends nothing");
    vec![first, retry]
}

fn assert_all_tcp(mode: &str, sent: &[OutQuery], result: &LookupResult) {
    assert!(
        sent.iter().all(|q| q.protocol == Protocol::Tcp),
        "{mode}: every query over TCP"
    );
    assert_eq!(result.status, Status::NoError, "{mode}");
    assert_eq!(result.protocol, "tcp", "{mode}: the result names TCP");
    assert_eq!(
        result.to_json()["data"]["protocol"],
        "tcp",
        "{mode}: the printed line names TCP"
    );
}

#[test]
fn tcp_only_asks_and_reports_tcp_in_every_mode() {
    let mut external = ResolverConfig::external(UPSTREAMS.to_vec());
    external.tcp_only = true;
    let external = ResolverCore::new(external);
    let mut iterative = ResolverConfig::iterative(root_hints());
    iterative.tcp_only = true;
    let iterative = ResolverCore::new(iterative);

    let mut machines: Vec<(&str, Lookup)> = vec![
        (
            "external",
            Lookup::Stub(StubMachine::external(
                Arc::clone(&external),
                question("external.tcp.test"),
                true,
            )),
        ),
        (
            "probe",
            Lookup::Stub(StubMachine::probe(
                Arc::clone(&external),
                question("probe.tcp.test"),
                PROBED,
                false,
                true,
            )),
        ),
        (
            "iterative",
            Lookup::Iterative(IterativeMachine::new(
                Arc::clone(&iterative),
                question("iterative.tcp.test"),
                true,
            )),
        ),
    ];
    for (mode, machine) in &mut machines {
        let sent = time_out_then_answer(machine);
        let result = machine
            .take_result()
            .expect("a kept lookup keeps its result");
        assert_all_tcp(mode, &sent, &result);
    }
}

#[test]
fn iterative_retries_per_nameserver_are_pinned() {
    // Each root server is asked max(--retries, 1) times before the walk
    // moves on; with every query timing out, the walk ends SERVFAIL.
    for (retries, per_server) in [(0, 1), (1, 1), (3, 3)] {
        let mut config = ResolverConfig::iterative(root_hints());
        config.retries = retries;
        let mut machine = IterativeMachine::new(
            ResolverCore::new(config),
            question("www.retries.test"),
            true,
        );
        let mut out = Vec::new();
        let mut sent = Vec::new();
        let mut status = machine.start(0, &mut out);
        let mut now = 0;
        while matches!(status, StepStatus::Running) {
            let query = out.pop().expect("a running walk has a query in flight");
            assert!(out.is_empty(), "one query at a time");
            now += 1;
            status = machine.on_event(ClientEvent::Timeout { tag: query.tag }, now, &mut out);
            sent.push(query.to);
        }

        let hints = root_hints();
        let asked: Vec<usize> = hints
            .iter()
            .map(|(_, ip)| sent.iter().filter(|to| *to == ip).count())
            .collect();
        assert_eq!(asked, [per_server; 2], "--retries {retries}");
        assert!(
            sent.windows(2).filter(|w| w[0] != w[1]).count() == 1,
            "--retries {retries}: one server's queries, then the other's"
        );
        let result = machine
            .take_result()
            .expect("a kept lookup keeps its result");
        assert_eq!(result.status, Status::ServFail, "--retries {retries}");
        let total = 2 * per_server as u32;
        assert_eq!(
            (result.queries_sent, result.retries_used),
            (total, total),
            "--retries {retries}"
        );
    }
}

/// A truncated, empty UDP response to `query`.
fn truncated(query: &OutQuery) -> ClientEvent<'static> {
    let mut message = Message::query(query.id, query.question.clone());
    message.flags.response = true;
    message.flags.truncated = true;
    ClientEvent::Response {
        tag: query.tag,
        from: query.to,
        message: MsgRef::Owned(message),
        protocol: Protocol::Udp,
    }
}

/// Start `machine`, answer its first query truncated, time out the TCP
/// retry and answer the next query; returns each query's destination and
/// transport.
fn truncate_time_out_then_answer(machine: &mut dyn SimClient) -> Vec<(Ipv4Addr, Protocol)> {
    let mut out = Vec::new();
    assert!(matches!(machine.start(0, &mut out), StepStatus::Running));
    let first = out.pop().expect("a first query");
    assert!(matches!(
        machine.on_event(truncated(&first), 1, &mut out),
        StepStatus::Running
    ));
    let over_tcp = out.pop().expect("a TCP retry");
    let timeout = ClientEvent::Timeout { tag: over_tcp.tag };
    assert!(matches!(
        machine.on_event(timeout, 2, &mut out),
        StepStatus::Running
    ));
    let next = out.pop().expect("a query after the timeout");
    assert!(matches!(
        machine.on_event(answer(&next), 3, &mut out),
        StepStatus::Done(_)
    ));
    [first, over_tcp, next].map(|q| (q.to, q.protocol)).to_vec()
}

#[test]
fn tc_to_tcp_holds_for_the_stub_lookup_and_for_one_server_of_the_walk() {
    // The stub is one exchange: once truncated, it stays on TCP when it
    // rotates to the next upstream.
    let mut config = ResolverConfig::external(UPSTREAMS.to_vec());
    config.retries = 1;
    let mut stub = StubMachine::external(ResolverCore::new(config), question("stub.tc.test"), true);
    let sent = truncate_time_out_then_answer(&mut stub);
    let protocols: Vec<Protocol> = sent.iter().map(|(_, p)| *p).collect();
    assert_eq!(protocols, [Protocol::Udp, Protocol::Tcp, Protocol::Tcp]);
    assert_eq!(sent[0].0, sent[1].0, "TC→TCP asks the same server");
    assert_ne!(sent[1].0, sent[2].0, "the retry rotates");
    assert_eq!(stub.take_result().unwrap().protocol, "tcp");

    // The walk asks a new nameserver over UDP again.
    let mut config = ResolverConfig::iterative(root_hints());
    config.retries = 1;
    let mut walk = IterativeMachine::new(ResolverCore::new(config), question("walk.tc.test"), true);
    let sent = truncate_time_out_then_answer(&mut walk);
    let protocols: Vec<Protocol> = sent.iter().map(|(_, p)| *p).collect();
    assert_eq!(protocols, [Protocol::Udp, Protocol::Tcp, Protocol::Udp]);
    assert_eq!(sent[0].0, sent[1].0, "TC→TCP asks the same server");
    assert_ne!(sent[1].0, sent[2].0, "the walk moves on");
    assert_eq!(walk.take_result().unwrap().protocol, "udp");
}
