//! The public resolver API.
//!
//! A [`Resolver`] wraps the shared [`ResolverCore`] (config + selective
//! cache + stats) and hands out lookup machines: feed them to the
//! discrete-event engine for scale experiments, or drive them over real
//! sockets with [`Resolver::lookup`].

use std::collections::VecDeque;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use zdns_netsim::{ClientEvent, SimClient, StepStatus};
use zdns_wire::{Question, RecordType};

use crate::config::{ResolutionMode, ResolverConfig};
use crate::machine::{
    DirectMachine, ExternalMachine, IterativeMachine, ResolveTarget, ResolverCore, ResultSink,
};
use crate::result::LookupResult;
use crate::status::Status;
use crate::transport::{Transport, TransportError};

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

    /// The shared core (cache, stats, config).
    pub fn core(&self) -> &Arc<ResolverCore> {
        &self.core
    }

    /// Build a lookup machine for `question`, choosing iterative or
    /// external mode from the config. The machine implements
    /// [`SimClient`], so it can be handed directly to the simulator.
    pub fn machine(&self, question: Question, sink: Option<ResultSink>) -> Box<dyn SimClient> {
        match &self.core.config.mode {
            ResolutionMode::Iterative => Box::new(IterativeMachine::new(
                Arc::clone(&self.core),
                question,
                ResolveTarget::Answer,
                sink,
            )),
            ResolutionMode::External { .. } => {
                Box::new(ExternalMachine::new(Arc::clone(&self.core), question, sink))
            }
        }
    }

    /// Build a delegation-preserving iterative machine (for
    /// `--all-nameservers`-style modules).
    pub fn delegation_machine(
        &self,
        question: Question,
        sink: Option<ResultSink>,
    ) -> Box<dyn SimClient> {
        Box::new(IterativeMachine::new(
            Arc::clone(&self.core),
            question,
            ResolveTarget::Delegation,
            sink,
        ))
    }

    /// Build a direct probe of one server.
    pub fn direct_machine(
        &self,
        question: Question,
        server: Ipv4Addr,
        recursion_desired: bool,
        sink: Option<ResultSink>,
    ) -> Box<dyn SimClient> {
        Box::new(DirectMachine::new(
            Arc::clone(&self.core),
            question,
            server,
            recursion_desired,
            sink,
        ))
    }

    /// Perform one blocking lookup over a real transport. `addr_map`
    /// rewrites simulated server IPs to reachable socket addresses.
    pub fn lookup(
        &self,
        question: Question,
        transport: &mut dyn Transport,
        addr_map: &AddrMap,
    ) -> LookupResult {
        let slot: Arc<Mutex<Option<LookupResult>>> = Arc::new(Mutex::new(None));
        let slot_clone = Arc::clone(&slot);
        let sink: ResultSink = Arc::new(move |r| {
            *slot_clone.lock() = Some(r);
        });
        let mut machine = self.machine(question.clone(), Some(sink));
        let started = std::time::Instant::now();
        drive_blocking(machine.as_mut(), transport, addr_map);
        let result = slot.lock().take();
        result.unwrap_or_else(|| LookupResult {
            name: question.name.clone(),
            qtype: question.qtype,
            status: Status::Error,
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
            duration: started.elapsed().as_nanos() as u64,
            timestamp: 0,
        })
    }

    /// Convenience: blocking A-record lookup by name string.
    pub fn lookup_a(
        &self,
        name: &str,
        transport: &mut dyn Transport,
        addr_map: &AddrMap,
    ) -> LookupResult {
        match name.parse() {
            Ok(parsed) => self.lookup(Question::new(parsed, RecordType::A), transport, addr_map),
            Err(_) => LookupResult {
                name: zdns_wire::Name::root(),
                qtype: RecordType::A,
                status: Status::IllegalInput,
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
            },
        }
    }
}

/// Drive any lookup machine to completion over a blocking transport —
/// the real-socket counterpart of feeding the machine to the simulator.
/// Returns the machine's final outcome.
///
/// Queries the machine emits are serviced strictly in emission order (a
/// blocking transport can only have one exchange on the wire at a time);
/// everything emitted in one step is kept, not just the last query. I/O
/// failures surface as [`ClientEvent::TransportFailed`], so machines can
/// report `Status::Error` rather than mislabelling them as timeouts.
pub fn drive_blocking(
    machine: &mut dyn SimClient,
    transport: &mut dyn Transport,
    addr_map: &AddrMap,
) -> Option<zdns_netsim::JobOutcome> {
    let started = std::time::Instant::now();
    let mut out = Vec::new();
    let mut status = machine.start(0, &mut out);
    let mut queue: std::collections::VecDeque<zdns_netsim::OutQuery> = VecDeque::new();
    loop {
        queue.extend(out.drain(..));
        if let StepStatus::Done(outcome) = status {
            return Some(outcome);
        }
        let Some(oq) = queue.pop_front() else {
            // A running machine with nothing in flight is a bug; fail
            // closed rather than spinning.
            return None;
        };
        let dest = addr_map(oq.to);
        let timeout = Duration::from_nanos(oq.timeout);
        let query = oq.to_message();
        let exchanged = transport.exchange(&query, dest, oq.protocol, timeout);
        let now = started.elapsed().as_nanos() as u64;
        let event = match exchanged {
            Ok(message) => ClientEvent::Response {
                tag: oq.tag,
                from: oq.to,
                message: zdns_wire::MsgRef::Owned(message),
                protocol: oq.protocol,
            },
            Err(TransportError::Timeout) => ClientEvent::Timeout { tag: oq.tag },
            Err(_) => ClientEvent::TransportFailed { tag: oq.tag },
        };
        status = machine.on_event(event, now, &mut out);
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

    #[test]
    fn illegal_input_short_circuits() {
        let resolver = Resolver::new(ResolverConfig::external(vec!["192.0.2.1".parse().unwrap()]));
        let mut transport = NoopTransport;
        let map: Box<AddrMap> = Box::new(|ip| SocketAddr::new(ip.into(), 53));
        let r = resolver.lookup_a("bad..name", &mut transport, &map);
        assert_eq!(r.status, Status::IllegalInput);
    }

    struct NoopTransport;
    impl Transport for NoopTransport {
        fn exchange(
            &mut self,
            _q: &zdns_wire::Message,
            _to: SocketAddr,
            _p: zdns_netsim::Protocol,
            _t: Duration,
        ) -> Result<zdns_wire::Message, TransportError> {
            Err(TransportError::Timeout)
        }
    }

    #[test]
    fn external_lookup_times_out_cleanly() {
        let mut config = ResolverConfig::external(vec!["192.0.2.1".parse().unwrap()]);
        config.retries = 1;
        let resolver = Resolver::new(config);
        let mut transport = NoopTransport;
        let map: Box<AddrMap> = Box::new(|ip| SocketAddr::new(ip.into(), 53));
        let r = resolver.lookup_a("example.com", &mut transport, &map);
        assert_eq!(r.status, Status::Timeout);
        assert_eq!(r.queries_sent, 2); // initial + 1 retry
    }
}
