//! The public resolver API.
//!
//! A [`Resolver`] wraps the shared [`ResolverCore`] (config + selective
//! cache) and hands out lookup machines: feed them to the
//! discrete-event engine for scale experiments, or to a [`Reactor`] to
//! run them over real sockets — [`Resolver::lookup`] does that for one.

use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;

use parking_lot::Mutex;
use zdns_netsim::SimClient;
use zdns_wire::{Question, RecordType};

use crate::config::{ResolutionMode, ResolverConfig};
use crate::driver::{Admission, Driver};
use crate::machine::{IterativeMachine, Lookup, ResolverCore, ResultSink, StubMachine};
use crate::reactor::Reactor;
use crate::result::LookupResult;
use crate::status::Status;

/// Maps a destination IP to a concrete socket address — identity (`ip:53`)
/// in production; tests remap simulated server IPs onto loopback ports.
pub type AddrMap = dyn Fn(Ipv4Addr) -> SocketAddr + Send + Sync;

/// The ZDNS resolver.
#[derive(Clone)]
pub struct Resolver {
    core: Arc<ResolverCore>,
}

impl Resolver {
    /// Build a resolver from a config.
    pub fn new(config: ResolverConfig) -> Resolver {
        Resolver {
            core: ResolverCore::new(config),
        }
    }

    /// The shared core (config and cache).
    pub fn core(&self) -> &Arc<ResolverCore> {
        &self.core
    }

    /// Build a lookup machine for `question`, choosing iterative or
    /// external mode from the config. The machine implements
    /// [`SimClient`], so it can be handed directly to the simulator.
    /// Without a sink the lookup is not kept, and builds no result; with
    /// one, it hands its result to `sink` as it ends
    /// ([`Lookup::with_sink`]).
    pub fn machine(&self, question: Question, sink: Option<ResultSink>) -> Box<dyn SimClient> {
        match sink {
            Some(sink) => self.build(question, true).with_sink(sink),
            None => match self.build(question, false) {
                Lookup::Stub(m) => Box::new(m),
                Lookup::Iterative(m) => Box::new(m),
            },
        }
    }

    /// A kept lookup of `question`, iterative or external per the config:
    /// its owner takes the result ([`Lookup::take_result`]).
    pub fn lookup_machine(&self, question: Question) -> Lookup {
        self.build(question, true)
    }

    /// A kept iterative lookup whatever the configured mode (for
    /// `--all-nameservers`-style modules, which read the delegation it
    /// walks).
    pub fn delegation_machine(&self, question: Question) -> Lookup {
        Lookup::Iterative(IterativeMachine::new(
            Arc::clone(&self.core),
            question,
            true,
        ))
    }

    /// A kept direct probe of one server.
    pub fn direct_machine(
        &self,
        question: Question,
        server: Ipv4Addr,
        recursion_desired: bool,
    ) -> Lookup {
        Lookup::Stub(StubMachine::probe(
            Arc::clone(&self.core),
            question,
            server,
            recursion_desired,
            true,
        ))
    }

    fn build(&self, question: Question, keep: bool) -> Lookup {
        let core = Arc::clone(&self.core);
        match &self.core.config.mode {
            ResolutionMode::Iterative => {
                Lookup::Iterative(IterativeMachine::new(core, question, keep))
            }
            ResolutionMode::External { .. } => {
                Lookup::Stub(StubMachine::external(core, question, keep))
            }
        }
    }

    /// Perform one lookup over real sockets and wait for it: a scan of one
    /// machine on `reactor`, which the caller keeps — and with it the
    /// socket, so successive lookups leave from one source port. The
    /// reactor's address map rewrites server IPs to reachable addresses.
    /// The reactor owns the machine and drops it as it ends, so the
    /// result comes back through a sink.
    pub fn lookup(&self, question: Question, reactor: &mut Reactor) -> LookupResult {
        let (sink, results) = collecting_sink();
        let mut machine = Some(self.machine(question.clone(), Some(sink)));
        let started = std::time::Instant::now();
        reactor.run_scan(
            &mut || {
                machine
                    .take()
                    .map_or(Admission::Exhausted, Admission::Admit)
            },
            &mut |_| {},
        );
        let result = results.lock().pop();
        result.unwrap_or_else(|| LookupResult {
            duration: started.elapsed().as_nanos() as u64,
            ..unanswered(question.name, question.qtype, Status::Error)
        })
    }

    /// Convenience: [`Resolver::lookup`] of an A record by name string.
    pub fn lookup_a(&self, name: &str, reactor: &mut Reactor) -> LookupResult {
        match name.parse() {
            Ok(parsed) => self.lookup(Question::new(parsed, RecordType::A), reactor),
            Err(_) => unanswered(zdns_wire::Name::root(), RecordType::A, Status::IllegalInput),
        }
    }
}

/// The result of a lookup that never got one from its machine.
fn unanswered(name: zdns_wire::Name, qtype: RecordType, status: Status) -> LookupResult {
    LookupResult {
        name,
        qtype,
        status,
        answers: Vec::new(),
        authorities: Vec::new(),
        additionals: Vec::new(),
        flags: None,
        resolver: None,
        protocol: "udp",
        trace: Vec::new(),
        delegation: None,
        queries_sent: 0,
        retries_used: 0,
        duration: 0,
        timestamp: 0,
    }
}

/// A sink that collects results into a shared vector — the common pattern
/// for simulator runs and tests.
pub fn collecting_sink() -> (ResultSink, Arc<Mutex<Vec<LookupResult>>>) {
    let collected: Arc<Mutex<Vec<LookupResult>>> = Arc::new(Mutex::new(Vec::new()));
    let inner = Arc::clone(&collected);
    let sink: ResultSink = Arc::new(move |r| inner.lock().push(r));
    (sink, collected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::ReactorConfig;

    #[test]
    fn illegal_input_short_circuits() {
        let resolver = Resolver::new(ResolverConfig::external(vec!["192.0.2.1".parse().unwrap()]));
        let map: Arc<AddrMap> = Arc::new(|ip| SocketAddr::new(ip.into(), 53));
        let mut reactor = Reactor::new(ReactorConfig::default(), map).unwrap();
        let r = resolver.lookup_a("bad..name", &mut reactor);
        assert_eq!(r.status, Status::IllegalInput);
    }
}
