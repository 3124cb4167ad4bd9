//! Harness-owned, single-threaded replicas of the three hot paths, one
//! span around each call into a layer:
//!
//! * scan — name → `make_machine` → `start` → `encode_query_into` →
//!   `BatchIo::send_slots` → responder → `recv_into_arena` →
//!   `MessageView::parse` → `on_event` → `write_line`;
//! * sim — corpus name → `make_machine` → machine ↔ `Universe` answers (the
//!   machine consults and fills the cache itself) → `write_line`;
//! * serve — `recv_into_arena` → `ServerRole::handle_datagram` →
//!   `send_slots`.
//!
//! A replica runs twice: with spans off for the path time, with spans on
//! for the layer self times. Time spent waiting for the peer (the
//! responder, the client) is not the path's and is subtracted from both.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use zdns_core::{
    BatchIo, CacheKey, Clock, Resolver, ResolverConfig, SendSlot, ServeConfig, ServerRole,
};
use zdns_framework::conf::OutputGroup;
use zdns_framework::output::write_line;
use zdns_framework::{runner, Conf};
use zdns_modules::{LookupModule, ModuleOutput, ModuleRegistry, ModuleSink};
use zdns_netsim::{ClientEvent, InputSource, OutQuery, Protocol, SimClient, StepStatus};
use zdns_wire::{
    encode_query_into, MessageView, MsgRef, Name, RData, Record, RecordType, ScratchBuf,
};
use zdns_workloads::CtCorpus;
use zdns_zones::{SynthConfig, SyntheticUniverse, Universe};

use crate::client::{MixFilter, ServeClient};
use crate::names;
use crate::responder::Responder;
use crate::stats::{self, SliceClock, Span, SpanLog};
use crate::sys::{self, PollFd};
use crate::workloads::{CORPUS_CCTLDS, CORPUS_NGTLDS};

/// Span names that are waiting, not work: excluded from path time and
/// layer sums.
const WAIT: &str = "harness.wait";

/// Lookups per scan-replica window: one full `sendmmsg` batch.
const WINDOW: usize = 32;

/// What one replica measured.
pub struct PathReport {
    /// Path time per operation with spans off.
    pub ns_per_op: f64,
    /// Path time per operation with spans on.
    pub traced_ns_per_op: f64,
    /// Self time per operation of each layer span, first-appearance order.
    pub layers: Vec<(&'static str, f64)>,
    /// Sum of `layers`.
    pub layer_sum_ns: f64,
    /// Traced path time the layers do not cover (replica glue and the
    /// spans' own cost), as a share of the traced path time.
    pub residual_share: f64,
    pub spans: Vec<Span>,
    /// Operations, over all four runs of the replica, that were lost or
    /// answered wrong.
    pub failed: u64,
}

/// Run `replica` with spans off (median of three) and on, and fold the
/// span log into per-layer self times. `replica` returns the busy time
/// (elapsed minus waiting) it spent on `ops` operations and how many of
/// them failed.
pub fn measure(
    ops: u32,
    mut replica: impl FnMut(&mut SpanLog) -> Result<Busy, String>,
) -> Result<PathReport, String> {
    let mut untraced = Vec::new();
    let mut failed = 0;
    for _ in 0..3 {
        let busy = replica(&mut SpanLog::new(false, 0))?;
        untraced.push(busy.ns as f64 / f64::from(ops));
        failed += busy.failed;
    }
    let mut log = SpanLog::new(true, ops as usize * 16);
    let busy = replica(&mut log)?;
    failed += busy.failed;
    let traced_ns_per_op = busy.ns as f64 / f64::from(ops);
    let mut layers = Vec::new();
    let mut residual_ns = 0.0;
    for (name, ns) in stats::self_times(&log.spans) {
        let per_op = ns as f64 / f64::from(ops);
        if name.starts_with("path.") {
            residual_ns += per_op;
        } else if name != WAIT {
            layers.push((name, per_op));
        }
    }
    let layer_sum_ns: f64 = layers.iter().map(|(_, ns)| ns).sum();
    Ok(PathReport {
        ns_per_op: stats::median(&untraced),
        traced_ns_per_op,
        layers,
        layer_sum_ns,
        residual_share: residual_ns / (layer_sum_ns + residual_ns),
        spans: log.spans,
        failed,
    })
}

/// What one run of a replica returns.
pub struct Busy {
    /// Nanoseconds spent on the path, waiting for the peer left out.
    pub ns: u64,
    /// Operations lost or answered wrong.
    pub failed: u64,
}

/// A module sink that parks outputs for the replica to serialise.
fn capturing_sink() -> (ModuleSink, Arc<Mutex<Vec<ModuleOutput>>>) {
    let outputs: Arc<Mutex<Vec<ModuleOutput>>> = Arc::new(Mutex::new(Vec::new()));
    let parked = Arc::clone(&outputs);
    (Arc::new(move |o| parked.lock().push(o)), outputs)
}

/// Module `A` and the resolver `zdns A --name-servers 127.0.0.1` builds:
/// what `scan_flood` looks names up with.
pub fn external_a() -> Result<(Arc<dyn LookupModule>, Resolver), String> {
    let conf = Conf::parse(["A", "--name-servers", "127.0.0.1"]).map_err(|e| e.to_string())?;
    Ok((module_a()?, Resolver::new(conf.resolver.clone())))
}

/// The universe and resolver `zdns A --iterative --seed SEED` builds: what
/// `sim_iterative` looks names up in and with.
pub fn iterative_a(seed: u64) -> Result<(SyntheticUniverse, Resolver), String> {
    let conf = Conf::parse(["A", "--iterative", "--seed", &seed.to_string()])
        .map_err(|e| e.to_string())?;
    let universe = SyntheticUniverse::new(SynthConfig {
        seed,
        ..SynthConfig::default()
    });
    let resolver = runner::resolver_for(&conf, &universe);
    Ok((universe, resolver))
}

pub fn module_a() -> Result<Arc<dyn LookupModule>, String> {
    ModuleRegistry::standard()
        .get("A")
        .ok_or_else(|| "no module A".to_string())
}

/// What the universe's server at `oq.to` sends back for `oq`, as the event
/// the machine receives (a timeout where nothing listens) — the simulator's
/// delivery without its event heap, latency and loss.
pub fn universe_event(universe: &dyn Universe, oq: &OutQuery) -> ClientEvent<'static> {
    let query = oq.to_message();
    match universe.respond(oq.to, &oq.question) {
        Some(auth) => ClientEvent::Response {
            tag: oq.tag,
            from: oq.to,
            message: MsgRef::Owned(auth.to_message(&query)),
            protocol: oq.protocol,
        },
        None => ClientEvent::Timeout { tag: oq.tag },
    }
}

/// A server role (default caches, nothing memoized yet) whose record cache
/// already holds the serve mix's hot names, and the resolver behind it.
pub fn hot_role(seed: u64) -> Result<(ServerRole, Resolver), String> {
    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(192, 0, 2, 53)]));
    for hot in 0..names::HOT_NAMES as u32 {
        let dotted = format!("{}.zbench.test", names::hot_label(seed, hot));
        let name: Name = dotted.parse().map_err(|_| "bad hot name")?;
        let answer = RData::A(names::answer_for(names::hash_dotted(&dotted)));
        let key = CacheKey {
            name: name.clone(),
            rtype: RecordType::A,
        };
        resolver
            .core()
            .cache
            .put(key, vec![Record::new(name, names::ANSWER_TTL, answer)], 0);
    }
    let role = ServerRole::new(resolver.clone(), Clock::new(), ServeConfig::default());
    Ok((role, resolver))
}

fn write_outputs(
    log: &mut SpanLog,
    op: u32,
    outputs: &Mutex<Vec<ModuleOutput>>,
    line: &mut String,
) {
    for output in outputs.lock().drain(..) {
        log.span("framework.output.write_line", op, |_| {
            write_line(&output, OutputGroup::Normal, line);
            let _ = std::io::sink().write_all(line.as_bytes());
        });
    }
}

fn wait_readable(log: &mut SpanLog, op: u32, socket: &UdpSocket, waited: &mut Duration) -> bool {
    let started = Instant::now();
    let ready = log.span(WAIT, op, |_| {
        let mut fds = [PollFd {
            fd: socket.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        sys::poll_readable(&mut fds, 2_000)
    });
    *waited += started.elapsed();
    ready
}

fn replica_socket() -> Result<UdpSocket, String> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
    socket.set_nonblocking(true).map_err(|e| e.to_string())?;
    sys::set_recv_buffer(socket.as_raw_fd(), 4 << 20);
    Ok(socket)
}

/// The scan path: `ops` external-mode A lookups of unique names at the
/// responder, 32 at a time.
pub fn scan(responder: &Responder, seed: u64, ops: u32, log: &mut SpanLog) -> Result<Busy, String> {
    let socket = replica_socket()?;
    let mut io = BatchIo::new(WINDOW);
    let (module, resolver) = external_a()?;
    let (sink, outputs) = capturing_sink();
    let dest = SocketAddr::V4(responder.addr());
    let inputs: Vec<String> = (0..u64::from(ops))
        .map(|i| names::scan_name('t', seed, i))
        .collect();

    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut scratch = ScratchBuf::new();
    let mut slots: Vec<SendSlot> = Vec::with_capacity(WINDOW);
    let mut statuses = Vec::with_capacity(WINDOW);
    let mut machines: Vec<Option<(Box<dyn SimClient>, OutQuery)>> =
        (0..WINDOW).map(|_| None).collect();
    let mut out: Vec<OutQuery> = Vec::with_capacity(4);
    let mut line = String::new();
    let mut busy = Duration::ZERO;
    let mut failed = 0u64;

    for (w, window) in inputs.chunks(WINDOW).enumerate() {
        let first = (w * WINDOW) as u32;
        let started = Instant::now();
        let mut waited = Duration::ZERO;
        let complete = log.span("path.scan.window", first, |log| -> Result<(), String> {
            scratch.reset();
            slots.clear();
            for (i, input) in window.iter().enumerate() {
                let op = first + i as u32;
                let mut machine = log.span("modules.make_machine", op, |_| {
                    module.make_machine(input, &resolver, sink.clone())
                });
                out.clear();
                log.span("core.machine.start", op, |_| machine.start(now(), &mut out));
                let oq = out.pop().ok_or("external machine emitted no query")?;
                log.span("wire.encode_query", op, |_| {
                    let at = scratch.len();
                    let encoded = encode_query_into(
                        &mut scratch,
                        i as u16,
                        &oq.question,
                        oq.recursion_desired,
                        oq.cookie.as_ref(),
                    );
                    slots.push((at as u32, (scratch.len() - at) as u32, dest));
                    encoded
                })
                .map_err(|e| e.to_string())?;
                machines[i] = Some((machine, oq));
            }
            statuses.clear();
            log.span("core.transport.send", first, |_| {
                io.send_slots(
                    &socket,
                    scratch.as_slice(),
                    &slots,
                    &mut statuses,
                    &mut |_| {},
                )
            });
            let mut pending = window.len();
            while pending > 0 {
                if !wait_readable(log, first, &socket, &mut waited) {
                    // Lost on the way: give the window's rest up.
                    failed += pending as u64;
                    machines.iter_mut().for_each(|m| *m = None);
                    break;
                }
                let batch = log.span("core.transport.recv", first, |_| {
                    io.recv_into_arena(&socket)
                });
                for d in 0..batch.count {
                    let bytes = io.arena_bytes(d);
                    let slot = u16::from_be_bytes([bytes[0], bytes[1]]) as usize % WINDOW;
                    let Some((mut machine, oq)) = machines[slot].take() else {
                        continue;
                    };
                    let op = first + slot as u32;
                    let view = log
                        .span("wire.view_parse", op, |_| MessageView::parse(bytes))
                        .map_err(|e| e.to_string())?;
                    out.clear();
                    let status = log.span("core.machine.on_event", op, |_| {
                        let event = ClientEvent::Response {
                            tag: oq.tag,
                            from: oq.to,
                            message: MsgRef::View(view),
                            protocol: Protocol::Udp,
                        };
                        machine.on_event(event, now(), &mut out)
                    });
                    failed += u64::from(!matches!(status, StepStatus::Done(_)));
                    write_outputs(log, op, &outputs, &mut line);
                    pending -= 1;
                }
            }
            Ok(())
        });
        complete?;
        busy += started.elapsed().saturating_sub(waited);
    }
    Ok(Busy {
        ns: busy.as_nanos() as u64,
        failed,
    })
}

/// The sim path: `ops` iterative A lookups of corpus names, each machine
/// answered straight from the universe (no event heap, no latency, no loss).
pub fn sim(seed: u64, ops: u32, log: &mut SpanLog) -> Result<Busy, String> {
    let (universe, resolver) = iterative_a(seed)?;
    let module = module_a()?;
    let (sink, outputs) = capturing_sink();
    let mut source = CtCorpus::new(seed, CORPUS_CCTLDS, CORPUS_NGTLDS).into_stream(u64::from(ops));
    let mut queue: VecDeque<OutQuery> = VecDeque::new();
    let mut out: Vec<OutQuery> = Vec::with_capacity(4);
    let mut line = String::new();
    let started = Instant::now();
    for op in 0..ops {
        // Virtual time: the simulator completes a lookup about every 150 µs.
        let now = u64::from(op) * 150_000;
        log.span("path.sim.lookup", op, |log| -> Result<(), String> {
            let input = log
                .span("workloads.corpus_next_name", op, |_| source.next_name())
                .ok_or("corpus ran dry")?;
            let mut machine = log.span("modules.make_machine", op, |_| {
                module.make_machine(&input, &resolver, sink.clone())
            });
            out.clear();
            queue.clear();
            let mut status = log.span("core.machine.start", op, |_| machine.start(now, &mut out));
            queue.extend(out.drain(..));
            while matches!(status, StepStatus::Running) {
                let oq = queue.pop_front().ok_or("iterative machine wedged")?;
                let query = log.span("netsim.query_message", op, |_| oq.to_message());
                let answer = log.span("zones.respond", op, |_| {
                    universe.respond(oq.to, &query.questions[0])
                });
                let event = match answer {
                    Some(auth) => ClientEvent::Response {
                        tag: oq.tag,
                        from: oq.to,
                        message: MsgRef::Owned(
                            log.span("zones.to_message", op, |_| auth.to_message(&query)),
                        ),
                        protocol: oq.protocol,
                    },
                    None => ClientEvent::Timeout { tag: oq.tag },
                };
                status = log.span("core.machine.on_event", op, |_| {
                    machine.on_event(event, now, &mut out)
                });
                queue.extend(out.drain(..));
            }
            write_outputs(log, op, &outputs, &mut line);
            Ok(())
        })?;
    }
    Ok(Busy {
        ns: started.elapsed().as_nanos() as u64,
        failed: 0,
    })
}

/// The serve path: a `ServerRole` with the hot names cached, fed by the
/// harness client's exact and case-variant queries (no fresh names — the
/// replica has no reactor to forward with).
pub fn serve(seed: u64, ops: u32, log: &mut SpanLog) -> Result<Busy, String> {
    let socket = replica_socket()?;
    let addr = socket.local_addr().map_err(|e| e.to_string())?;
    let mut io = BatchIo::new(WINDOW);
    let (mut role, _) = hot_role(seed)?;
    let clock = role.clock();

    std::thread::scope(|scope| {
        let client = scope.spawn(move || -> Result<u64, String> {
            let _guest = sys::HarnessGuest::enter();
            let mut client = ServeClient::new(addr, seed)?;
            client.filter = MixFilter::NoFresh;
            let outcome =
                client.run_closed_loop(u64::from(ops), &mut SliceClock::new(u64::MAX, Vec::new()));
            Ok(outcome.failed)
        });
        let mut arena: Vec<u8> = Vec::with_capacity(WINDOW * 128);
        let mut slots: Vec<SendSlot> = Vec::with_capacity(WINDOW);
        let mut statuses = Vec::with_capacity(WINDOW);
        let mut busy = Duration::ZERO;
        let mut answered = 0u32;
        while answered < ops {
            let started = Instant::now();
            let mut waited = Duration::ZERO;
            let alive = log.span("path.serve.batch", answered, |log| {
                if !wait_readable(log, answered, &socket, &mut waited) {
                    return false;
                }
                let batch = log.span("core.transport.recv", answered, |_| {
                    io.recv_into_arena(&socket)
                });
                arena.clear();
                slots.clear();
                let now = clock.now();
                for d in 0..batch.count {
                    let (bytes, peer) = (io.arena_bytes(d), io.arena_peer(d));
                    log.span("core.serve.handle_datagram", answered + d as u32, |_| {
                        if let Some(reply) = role.handle_datagram(bytes, peer, now) {
                            slots.push((arena.len() as u32, reply.len() as u32, peer));
                            arena.extend_from_slice(reply);
                        }
                    });
                }
                statuses.clear();
                log.span("core.transport.send", answered, |_| {
                    io.send_slots(&socket, &arena, &slots, &mut statuses, &mut |_| {})
                });
                answered += slots.len() as u32;
                true
            });
            busy += started.elapsed().saturating_sub(waited);
            if !alive {
                break;
            }
        }
        let rejected = client
            .join()
            .map_err(|_| "serve replica: client thread panicked".to_string())??;
        Ok(Busy {
            ns: busy.as_nanos() as u64,
            failed: rejected.max(u64::from(ops.saturating_sub(answered))),
        })
    })
}
