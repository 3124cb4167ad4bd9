//! The discrete-event simulation engine.
//!
//! The engine owns virtual time and models exactly the resources the paper's
//! evaluation varies:
//!
//! * **Thread slots** — the paper's "lightweight routines" (1K–100K). Each
//!   slot runs one lookup job at a time and owns one long-lived UDP socket
//!   bound to (client IP, port), so the usable thread count is capped by
//!   `|scanning prefix| × ephemeral ports` exactly as in Figure 1's /32
//!   socket limit.
//! * **Client CPU** — a work-conserving queue with a per-packet cost; 24
//!   cores saturate around 2K routines/core (§4.1), which produces the
//!   50K-thread throughput plateau. An optional GC model reproduces the
//!   "more frequent GC is faster" observation.
//! * **The network** — per-server RTT classes, silent drops (base loss,
//!   §5 per-domain blocking, rate limiting), truncation, and TCP retries.
//!
//! Lookup logic lives in client state machines ([`SimClient`]); the engine
//! is resolution-agnostic. Every exchange is carried as wire bytes, as the
//! reactor's sockets carry it: the query is encoded, the server answers a
//! view over it, the answer is encoded (over UDP, truncated by the encoder
//! at the query's payload size) and the client is handed a view over that.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zdns_pacing::{PaceDecision, SendGate};
use zdns_wire::{
    encode_query_into, Cookie, Message, MessageView, MsgRef, Question, ScratchBuf, WireResult,
};
use zdns_zones::{AuthResponse, Universe};

use crate::latency::sample_rtt;
use crate::resolvers::{PublicResolverSim, ResolverOutcome};
use crate::time::{as_secs_f64, SimTime, MICROS, MILLIS, SECONDS};
use crate::wire_server::encode_response;

/// Transport protocol of a simulated exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// UDP: subject to truncation.
    Udp,
    /// TCP: an extra round trip, no truncation.
    Tcp,
}

/// A query a client wants sent.
///
/// Deliberately *not* a full [`Message`]: the fields below are everything a
/// ZDNS query contains, held inline so emitting a query performs no heap
/// allocation beyond the (inline-storage) question name. Every driver —
/// the simulator, the reactor's UDP sends and its TCP fallback — encodes
/// the wire bytes straight from these fields ([`OutQuery::encode_into`]);
/// [`OutQuery::to_message`] builds the owned equivalent for tests and
/// tools that want one.
#[derive(Debug, Clone)]
pub struct OutQuery {
    /// Destination server.
    pub to: Ipv4Addr,
    /// The machine's own transaction id (drivers may rewrite the wire id).
    pub id: u16,
    /// The question being asked.
    pub question: Question,
    /// RD flag: ask the server to recurse (external mode).
    pub recursion_desired: bool,
    /// DNS cookie to attach to the query's OPT record (RFC 7873).
    pub cookie: Option<Cookie>,
    /// UDP or TCP.
    pub protocol: Protocol,
    /// Client-side timeout.
    pub timeout: SimTime,
    /// Client-chosen correlation tag, echoed back in the event.
    pub tag: u64,
}

impl OutQuery {
    /// Encode the query into `scratch` as one message carrying wire id
    /// `id` (the reactor's may differ from the machine's): the bytes every
    /// driver sends. Allocation-free once `scratch` is warm.
    pub fn encode_into(&self, scratch: &mut ScratchBuf, id: u16) -> WireResult<()> {
        encode_query_into(
            scratch,
            id,
            &self.question,
            self.recursion_desired,
            self.cookie.as_ref(),
        )
    }

    /// Build the owned query [`Message`] these fields describe (EDNS
    /// attached, cookie included): the message whose encoding is the bytes
    /// the drivers send. Off every driver's path by design.
    pub fn to_message(&self) -> Message {
        let mut msg = Message::query(self.id, self.question.clone());
        msg.flags.recursion_desired = self.recursion_desired;
        if let (Some(cookie), Some(edns)) = (self.cookie.as_ref(), msg.edns.as_mut()) {
            edns.set_cookie(*cookie);
        }
        msg
    }
}

/// What a client receives back. The lifetime is the borrow of the bytes a
/// response arrived as: every driver delivers a [`MsgRef::View`] over them —
/// the reactor over its receive arena or a TCP frame, the simulator over
/// the answer it encoded.
#[derive(Debug)]
pub enum ClientEvent<'a> {
    /// A response arrived in time.
    Response {
        /// Correlation tag from the [`OutQuery`].
        tag: u64,
        /// The responding server.
        from: Ipv4Addr,
        /// The response message, borrowed or owned.
        message: MsgRef<'a>,
        /// Protocol it arrived over.
        protocol: Protocol,
    },
    /// The query timed out (dropped, dead address, or too slow).
    Timeout {
        /// Correlation tag from the [`OutQuery`].
        tag: u64,
    },
    /// The transport failed outright (socket error, unreachable network,
    /// undecodable response) — distinct from a timeout so drivers over real
    /// sockets can surface `Status::Error` instead of masking I/O failures
    /// as `Status::Timeout`. The simulator itself never emits this.
    TransportFailed {
        /// Correlation tag from the [`OutQuery`].
        tag: u64,
    },
}

/// Final report for one finished job.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// "Success" in the paper's sense: a NOERROR or NXDOMAIN result.
    pub success: bool,
    /// ZDNS-style status string (`NOERROR`, `TIMEOUT`, `SERVFAIL`, ...).
    /// A static string so finishing a lookup never allocates.
    pub status: &'static str,
}

/// Client state-machine progress.
pub enum StepStatus {
    /// More events expected.
    Running,
    /// Job finished.
    Done(JobOutcome),
}

/// A lookup job: a state machine both drivers (the [`Engine`] and the
/// socket reactor) feed through [`step`]. [`StepStatus::Running`] promises
/// that the driver owes the job an event for a query it emitted; a job
/// running with none owed is wedged, and ends through
/// [`SimClient::abandon`]. A step that returns `Done` emits no query.
pub trait SimClient {
    /// Begin the job, pushing initial queries. May complete immediately.
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus;
    /// Handle a response or timeout. Responses may be borrowed views over
    /// the driver's receive buffer — promote only what you keep.
    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus;
    /// End a wedged job, once; one that reports its result somewhere (an
    /// output line) reports it here too.
    fn abandon(&mut self, _now: SimTime) -> JobOutcome {
        JobOutcome {
            success: false,
            status: "ERROR",
        }
    }
}

/// Step `client` once ([`SimClient::start`] when `event` is `None`) with
/// `out` as scratch. A running job's queries go to `hand_over`, which
/// drains `out` and returns how many events the caller now owes the job;
/// none is a wedge, which [`SimClient::abandon`] ends. So `Running` means
/// an event is owed, and each job ends `Done` exactly once.
pub fn step(
    client: &mut dyn SimClient,
    event: Option<ClientEvent<'_>>,
    now: SimTime,
    out: &mut Vec<OutQuery>,
    hand_over: impl FnOnce(&mut Vec<OutQuery>) -> usize,
) -> StepStatus {
    out.clear();
    let status = match event {
        None => client.start(now, out),
        Some(event) => client.on_event(event, now, out),
    };
    let running = matches!(status, StepStatus::Running);
    debug_assert!(running || out.is_empty(), "a finished job emitted queries");
    match status {
        StepStatus::Running if hand_over(out) == 0 => StepStatus::Done(client.abandon(now)),
        status => status,
    }
}

/// Garbage-collection pause model (§3.4 "Increased Garbage Collection").
///
/// After every `work_per_cycle` of accumulated CPU work the collector stalls
/// the process for `pause`. Longer cycles accumulate more garbage, so pauses
/// grow superlinearly with cycle length — which is why the paper found that
/// *quadrupling* GC frequency increased throughput.
#[derive(Debug, Clone, Copy)]
pub struct GcModel {
    /// CPU work per collection cycle.
    pub work_per_cycle: SimTime,
    /// Stop-the-world pause per collection.
    pub pause: SimTime,
}

impl GcModel {
    /// Go's default-ish behaviour under this load.
    pub fn go_default() -> GcModel {
        GcModel {
            work_per_cycle: 800 * MILLIS,
            pause: 48 * MILLIS,
        }
    }

    /// The paper's tuned configuration: 4× more frequent, much shorter
    /// pauses that interleave between request processing.
    pub fn frequent() -> GcModel {
        GcModel {
            work_per_cycle: 200 * MILLIS,
            pause: 7 * MILLIS,
        }
    }
}

/// Usable ephemeral ports per source IP (the paper's setup: 45K).
const PORTS_PER_IP: usize = 45_000;

/// Received packets are dropped if the CPU backlog exceeds this
/// (socket-buffer overflow under overload).
const CPU_BACKLOG_DROP: SimTime = 2 * SECONDS;

/// Engine configuration: the knobs Figure 1 and Table 1/2 vary.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Requested lightweight-routine count.
    pub threads: usize,
    /// Scanning source addresses (/32 = 1, /29 = 8, /28 = 16).
    pub client_ips: Vec<Ipv4Addr>,
    /// Per-core CPU cost of one packet event (send or receive), µs. This is
    /// an *effective* cost including parsing, cache updates, scheduling, and
    /// output encoding — calibrated so 24 cores plateau near the paper's
    /// packet rates.
    pub per_packet_cpu_us: u64,
    /// Virtual cores.
    pub cores: u32,
    /// Optional GC pause model.
    pub gc: Option<GcModel>,
    /// Extra per-query CPU charged when querying 127.0.0.1 — a co-located
    /// recursive resolver (Unbound in Table 2) competes for the same cores.
    pub local_resolver_cpu_us: u64,
    /// RNG seed.
    pub seed: u64,
    /// Thread start times are staggered uniformly over this window.
    pub stagger: SimTime,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1_000,
            client_ips: vec![Ipv4Addr::new(192, 0, 2, 1)],
            per_packet_cpu_us: 240,
            cores: 24,
            gc: Some(GcModel::frequent()),
            local_resolver_cpu_us: 0,
            seed: 1,
            stagger: 500 * MILLIS,
        }
    }
}

/// Aggregated results of an engine run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Jobs completed.
    pub jobs: u64,
    /// Jobs whose outcome counts as success (NOERROR/NXDOMAIN).
    pub successes: u64,
    /// Outcome counts by status string.
    pub status_counts: HashMap<String, u64>,
    /// Queries sent (all protocols).
    pub queries_sent: u64,
    /// Queries dropped silently in the network.
    pub net_drops: u64,
    /// Sends held back by the client-side send gate (pacing). Each
    /// deferral counts once, at first admission.
    pub paced_deferrals: u64,
    /// Virtual time of the last completion.
    pub makespan: SimTime,
    /// Sum of per-job durations (for mean latency).
    pub total_job_duration: SimTime,
    /// Effective thread count after the socket/port cap.
    pub effective_threads: usize,
    /// Successes per 1-second bucket (for steady-state rates).
    pub success_series: Vec<u64>,
    /// Queries per 1-second bucket.
    pub query_series: Vec<u64>,
}

impl RunReport {
    /// Overall success fraction.
    pub fn success_rate(&self) -> f64 {
        if self.jobs == 0 {
            return 0.0;
        }
        self.successes as f64 / self.jobs as f64
    }

    /// Mean successes/second over the steady part of the run: the window
    /// holding the middle 80% of completions. Clock-based windows would be
    /// dragged down by the long retry/timeout tail after input exhaustion.
    pub fn steady_success_rate(&self) -> f64 {
        steady_rate(&self.success_series)
    }

    /// Mean queries/second over the steady part of the run.
    pub fn steady_query_rate(&self) -> f64 {
        steady_rate(&self.query_series)
    }

    /// Mean per-job duration in seconds.
    pub fn mean_job_secs(&self) -> f64 {
        if self.jobs == 0 {
            return 0.0;
        }
        as_secs_f64(self.total_job_duration) / self.jobs as f64
    }
}

fn steady_rate(series: &[u64]) -> f64 {
    let total: u64 = series.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Find the buckets holding the middle 80% of events.
    let p10 = total / 10;
    let p90 = total - p10;
    let mut acc = 0u64;
    let mut start = 0usize;
    let mut end = series.len() - 1;
    let mut seen_start = false;
    for (i, &v) in series.iter().enumerate() {
        acc += v;
        if !seen_start && acc >= p10 {
            start = i;
            seen_start = true;
        }
        if acc >= p90 {
            end = i;
            break;
        }
    }
    let window = &series[start..=end];
    let events: u64 = window.iter().sum();
    events as f64 / window.len() as f64
}

enum EventKind {
    JobStart,
    Outcome {
        generation: u32,
        tag: u64,
        /// The server this exchange targeted and, on an answer, the one
        /// that sent it (send-gate feedback needs it even for timeouts).
        dest: Ipv4Addr,
        /// The exchange's transport.
        protocol: Protocol,
        /// None = timeout; Some = the encoded answer to deliver.
        response: Option<Vec<u8>>,
    },
    /// A send the gate deferred: dispatch it now, without re-admission.
    /// Boxed: only paced runs have any, and every event is moved as the
    /// heap reorders.
    PacedSend {
        generation: u32,
        oq: Box<OutQuery>,
    },
}

/// A scheduled event, ordered for [`BinaryHeap`] (a max-heap) so that the
/// earliest `time`, then the lowest `seq` — the order events were
/// scheduled in — pops first.
struct Event {
    time: SimTime,
    seq: u64,
    slot: u32,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for Event {}

struct Slot {
    client: Option<Box<dyn SimClient>>,
    generation: u32,
    /// Events scheduled for this generation's job and not yet popped.
    owed: u32,
    started_at: SimTime,
    ip: Ipv4Addr,
}

/// The simulation engine.
pub struct Engine {
    config: EngineConfig,
    universe: Arc<dyn Universe>,
    resolvers: Vec<PublicResolverSim>,
    send_gate: Option<Box<dyn SendGate>>,
    rng: SmallRng,
    heap: BinaryHeap<Event>,
    seq: u64,
    cpu_free_at: SimTime,
    gc_accum: SimTime,
    report: RunReport,
    /// The query being answered, as [`OutQuery::encode_into`] wrote it.
    query_buf: ScratchBuf,
    /// The answer being encoded, before it is copied into its event.
    answer_buf: ScratchBuf,
    /// Answer buffers whose events are done, for the next answers: the
    /// engine holds at most one per exchange in flight.
    spare: Vec<Vec<u8>>,
}

impl Engine {
    /// Create an engine over a universe.
    pub fn new(config: EngineConfig, universe: Arc<dyn Universe>) -> Engine {
        let seed = config.seed;
        Engine {
            config,
            universe,
            resolvers: Vec::new(),
            send_gate: None,
            rng: SmallRng::seed_from_u64(seed),
            heap: BinaryHeap::new(),
            seq: 0,
            cpu_free_at: 0,
            gc_accum: 0,
            report: RunReport::default(),
            query_buf: ScratchBuf::new(),
            answer_buf: ScratchBuf::new(),
            spare: Vec::new(),
        }
    }

    /// Attach a public resolver model (Google/Cloudflare/local Unbound).
    pub fn add_resolver(&mut self, resolver: PublicResolverSim) {
        self.resolvers.push(resolver);
    }

    /// Attach a client-side send gate (pacing + backoff). Every query any
    /// simulated client emits is admitted through it; deferred sends are
    /// rescheduled to their release time, and per-destination outcomes
    /// are fed back so adaptive backoff closes its loop under virtual
    /// time exactly as it does over real sockets.
    pub fn set_send_gate(&mut self, gate: Box<dyn SendGate>) {
        self.send_gate = Some(gate);
    }

    /// Per-resolver drop counters, for reports.
    pub fn resolver_stats(&self) -> Vec<(&'static str, u64, u64)> {
        self.resolvers
            .iter()
            .map(|r| (r.config.label, r.rate_limited, r.overloaded))
            .collect()
    }

    fn schedule(&mut self, time: SimTime, slot: u32, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq: self.seq,
            slot,
            kind,
        });
    }

    /// Consume client CPU: returns the time the work completes.
    fn cpu_consume(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        let start = self.cpu_free_at.max(now);
        let mut finish = start + cost;
        if let Some(gc) = self.config.gc {
            self.gc_accum += cost;
            if self.gc_accum >= gc.work_per_cycle {
                self.gc_accum = 0;
                finish += gc.pause;
            }
        }
        self.cpu_free_at = finish;
        finish
    }

    fn packet_cost(&self) -> SimTime {
        // Aggregate machine: per-core cost divided across cores.
        (self.config.per_packet_cpu_us * MICROS) / self.config.cores.max(1) as u64
    }

    /// Run one machine per name pulled from a streaming
    /// [`crate::InputSource`] — the same input layer the real-socket scan
    /// pipeline drains, so simulated and real scans are fed identically
    /// and paper-scale generated workloads never materialize a name set.
    pub fn run_names(
        &mut self,
        source: &mut dyn crate::InputSource,
        mut make: impl FnMut(&str) -> Box<dyn SimClient>,
    ) -> RunReport {
        self.run(move || source.next_name().map(|name| make(&name)))
    }

    /// Run jobs from `source` until it is exhausted and all slots drain.
    pub fn run(&mut self, mut source: impl FnMut() -> Option<Box<dyn SimClient>>) -> RunReport {
        let effective_threads = self
            .config
            .threads
            .min(self.config.client_ips.len() * PORTS_PER_IP)
            .max(1);
        self.report = RunReport {
            effective_threads,
            ..RunReport::default()
        };
        let mut slots: Vec<Slot> = (0..effective_threads)
            .map(|t| Slot {
                client: None,
                generation: 0,
                owed: 0,
                started_at: 0,
                ip: self.config.client_ips[t % self.config.client_ips.len()],
            })
            .collect();
        // Stagger thread start-up.
        for t in 0..effective_threads {
            let jitter = if self.config.stagger > 0 {
                self.rng.gen_range(0..self.config.stagger)
            } else {
                0
            };
            self.schedule(jitter, t as u32, EventKind::JobStart);
        }
        let mut actions: Vec<OutQuery> = Vec::with_capacity(4);
        while let Some(Event {
            time, slot, kind, ..
        }) = self.heap.pop()
        {
            let (idx, slot) = (slot, &mut slots[slot as usize]);
            match kind {
                EventKind::JobStart => {
                    let Some(client) = source() else {
                        continue; // input exhausted; slot retires
                    };
                    slot.generation += 1;
                    slot.started_at = time;
                    self.step_job(slot, idx, client, None, time, &mut actions);
                }
                EventKind::PacedSend { generation, oq } => {
                    if slot.generation != generation {
                        continue; // owner finished while the send was held
                    }
                    // One owed event becomes another: the count stands.
                    self.dispatch(slot, idx, time, *oq, true);
                }
                EventKind::Outcome {
                    generation,
                    tag,
                    dest,
                    protocol,
                    response,
                } => {
                    if slot.generation != generation {
                        self.spare.extend(response);
                        continue; // stale event from a finished job
                    }
                    slot.owed -= 1;
                    if let Some(gate) = self.send_gate.as_mut() {
                        match &response {
                            Some(_) => gate.on_success(dest, time),
                            None => gate.on_failure(dest, time),
                        }
                    }
                    let client = slot.client.take().expect("a job owed an event runs");
                    // Receive-side CPU; under heavy backlog the packet is
                    // dropped and the client sees its timeout instead.
                    let backlog = self.cpu_free_at.saturating_sub(time);
                    let (client_event, now) = match &response {
                        Some(_) if backlog > CPU_BACKLOG_DROP => {
                            (ClientEvent::Timeout { tag }, time)
                        }
                        // The bytes are this engine's own encoding, so they
                        // parse; were they ever not to, the client would
                        // see the loss it amounts to.
                        Some(bytes) => match MessageView::parse(bytes) {
                            Ok(view) => {
                                let event = ClientEvent::Response {
                                    tag,
                                    from: dest,
                                    message: MsgRef::View(view),
                                    protocol,
                                };
                                (event, self.cpu_consume(time, self.packet_cost()))
                            }
                            Err(_) => (ClientEvent::Timeout { tag }, time),
                        },
                        None => (ClientEvent::Timeout { tag }, time),
                    };
                    self.step_job(slot, idx, client, Some(client_event), now, &mut actions);
                    self.spare.extend(response);
                }
            }
        }
        std::mem::take(&mut self.report)
    }

    /// Step the job in `slot` through [`step`]; one that ends frees the
    /// slot for the next.
    fn step_job(
        &mut self,
        slot: &mut Slot,
        idx: u32,
        mut client: Box<dyn SimClient>,
        event: Option<ClientEvent<'_>>,
        now: SimTime,
        actions: &mut Vec<OutQuery>,
    ) {
        let status = step(&mut *client, event, now, actions, |actions| {
            for oq in actions.drain(..) {
                self.dispatch(slot, idx, now, oq, false);
            }
            slot.owed as usize
        });
        match status {
            StepStatus::Running => slot.client = Some(client),
            StepStatus::Done(outcome) => {
                self.finish_job(slot, now, outcome);
                self.schedule(now + MICROS, idx, EventKind::JobStart);
            }
        }
    }

    fn finish_job(&mut self, slot: &mut Slot, now: SimTime, outcome: JobOutcome) {
        slot.client = None;
        slot.generation += 1; // invalidate in-flight events
        slot.owed = 0;
        self.report.jobs += 1;
        if outcome.success {
            self.report.successes += 1;
            let bucket = (now / SECONDS) as usize;
            if self.report.success_series.len() <= bucket {
                self.report.success_series.resize(bucket + 1, 0);
            }
            self.report.success_series[bucket] += 1;
        }
        if let Some(n) = self.report.status_counts.get_mut(outcome.status) {
            *n += 1;
        } else {
            self.report
                .status_counts
                .insert(outcome.status.to_string(), 1);
        }
        self.report.makespan = self.report.makespan.max(now);
        self.report.total_job_duration += now.saturating_sub(slot.started_at);
    }

    /// Decide the fate of one query at send time and schedule its single
    /// outcome event. `paced` marks a send released from the gate's hold
    /// queue — its budget is already reserved, so it must not re-admit.
    fn dispatch(&mut self, slot: &mut Slot, idx: u32, now: SimTime, oq: OutQuery, paced: bool) {
        let generation = slot.generation;
        if !paced {
            // Whichever event this send becomes, it is owed to the job.
            slot.owed += 1;
            if let Some(gate) = self.send_gate.as_mut() {
                if let PaceDecision::Defer { until, .. } = gate.admit(oq.to, now) {
                    self.report.paced_deferrals += 1;
                    self.schedule(
                        until.max(now + 1),
                        idx,
                        EventKind::PacedSend {
                            generation,
                            oq: Box::new(oq),
                        },
                    );
                    return;
                }
            }
        }
        self.report.queries_sent += 1;
        let bucket = (now / SECONDS) as usize;
        if self.report.query_series.len() <= bucket {
            self.report.query_series.resize(bucket + 1, 0);
        }
        self.report.query_series[bucket] += 1;

        // Send-side CPU (TCP costs ~3x: connect, send, teardown).
        let mut send_cost = self.packet_cost();
        if oq.protocol == Protocol::Tcp {
            send_cost *= 3;
        }
        if oq.to.is_loopback() && self.config.local_resolver_cpu_us > 0 {
            // The co-located resolver's recursion work shares our cores.
            send_cost +=
                (self.config.local_resolver_cpu_us * MICROS) / self.config.cores.max(1) as u64;
        }
        let t_send = self.cpu_consume(now, send_cost);
        let deadline = now + oq.timeout;
        // An answer too late for the client is the same timeout as none.
        let (time, response) = match self.exchange(slot.ip, &oq, t_send) {
            Some((arrival, bytes)) if arrival <= deadline => (arrival, Some(bytes)),
            late => {
                self.spare.extend(late.map(|(_, bytes)| bytes));
                (deadline, None)
            }
        };
        self.schedule(
            time,
            idx,
            EventKind::Outcome {
                generation,
                tag: oq.tag,
                dest: oq.to,
                protocol: oq.protocol,
                response,
            },
        );
    }

    /// What the server at `oq.to` sends back for a query leaving at
    /// `t_send` — the bytes a loopback server would, answering a view of the
    /// bytes the reactor would send — and when it arrives. `None` when
    /// nothing does: lost, nobody listening, or failing to encode.
    fn exchange(
        &mut self,
        client_ip: Ipv4Addr,
        oq: &OutQuery,
        t_send: SimTime,
    ) -> Option<(SimTime, Vec<u8>)> {
        self.query_buf.reset();
        oq.encode_into(&mut self.query_buf, oq.id).ok()?;
        let query = MessageView::parse(self.query_buf.as_slice()).ok()?;
        let question = query.question()?.to_question();
        self.answer_buf.reset();

        // Public resolver path.
        if let Some(resolver) = self.resolvers.iter_mut().find(|r| r.config.addr == oq.to) {
            let outcome = resolver.handle(
                self.universe.as_ref(),
                client_ip,
                &question,
                t_send,
                &mut self.rng,
            );
            let (answer, latency) = match outcome {
                ResolverOutcome::Dropped => {
                    self.report.net_drops += 1;
                    return None;
                }
                ResolverOutcome::ServFail { latency } => (AuthResponse::servfail(), latency),
                ResolverOutcome::Answer { response, latency } => (response, latency),
            };
            let mut response = answer.into_message_for(&query);
            response.flags.recursion_available = true;
            encode_response(&response, &query, oq.protocol, &mut self.answer_buf).ok()?;
            return Some((t_send + latency, self.answer_bytes()));
        }

        // Authoritative-universe path.
        let profile = self.universe.server_profile(oq.to);
        let drop_p = profile.base_drop + self.universe.drop_probability(oq.to, &question.name);
        if self.rng.gen_bool(drop_p.clamp(0.0, 1.0)) {
            self.report.net_drops += 1;
            return None;
        }
        let auth = self.universe.respond(oq.to, &question)?;
        let response = auth.into_message_for(&query);
        encode_response(&response, &query, oq.protocol, &mut self.answer_buf).ok()?;
        let mut rtt = sample_rtt(profile.latency, &mut self.rng);
        if oq.protocol == Protocol::Tcp {
            rtt = rtt * 2 + sample_rtt(profile.latency, &mut self.rng);
        }
        let arrival = t_send + rtt + profile.processing_us * MICROS;
        Some((arrival, self.answer_bytes()))
    }

    /// The encoded answer, copied into a spare buffer for its event.
    fn answer_bytes(&mut self) -> Vec<u8> {
        let mut bytes = self.spare.pop().unwrap_or_default();
        bytes.clear();
        bytes.extend_from_slice(self.answer_buf.as_slice());
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_wire::{Name, Question, Rcode, RecordType};
    use zdns_zones::{SynthConfig, SyntheticUniverse};

    /// A minimal client: one UDP query to a fixed server, success on any
    /// response.
    struct OneShot {
        to: Ipv4Addr,
        name: Name,
        qtype: RecordType,
        retries: u32,
    }

    impl OneShot {
        fn query(&self) -> OutQuery {
            OutQuery {
                to: self.to,
                id: 1,
                question: Question::new(self.name.clone(), self.qtype),
                recursion_desired: false,
                cookie: None,
                protocol: Protocol::Udp,
                timeout: 2 * SECONDS,
                tag: 0,
            }
        }
    }

    impl SimClient for OneShot {
        fn start(&mut self, _now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
            out.push(self.query());
            StepStatus::Running
        }

        fn on_event(
            &mut self,
            event: ClientEvent<'_>,
            _now: SimTime,
            out: &mut Vec<OutQuery>,
        ) -> StepStatus {
            match event {
                ClientEvent::Response { message, .. } => StepStatus::Done(JobOutcome {
                    success: matches!(message.rcode(), Rcode::NoError | Rcode::NxDomain),
                    status: message.rcode().as_str(),
                }),
                ClientEvent::Timeout { .. } => {
                    if self.retries > 0 {
                        self.retries -= 1;
                        out.push(self.query());
                        StepStatus::Running
                    } else {
                        StepStatus::Done(JobOutcome {
                            success: false,
                            status: "TIMEOUT",
                        })
                    }
                }
                // The simulator never produces transport failures.
                ClientEvent::TransportFailed { .. } => StepStatus::Done(JobOutcome {
                    success: false,
                    status: "ERROR",
                }),
            }
        }
    }

    fn universe() -> Arc<SyntheticUniverse> {
        Arc::new(SyntheticUniverse::new(SynthConfig::default()))
    }

    /// Asks a dead address twice; on its second timeout it either gives
    /// up or, when `wedge` is set, returns `Running` with no query out.
    struct Scripted {
        query: OneShot,
        events: u32,
        wedge: bool,
    }

    impl SimClient for Scripted {
        fn start(&mut self, _now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
            out.push(self.query.query());
            StepStatus::Running
        }

        fn on_event(
            &mut self,
            _: ClientEvent<'_>,
            _: SimTime,
            out: &mut Vec<OutQuery>,
        ) -> StepStatus {
            self.events += 1;
            match (self.events, self.wedge) {
                (1, _) => out.push(self.query.query()),
                (_, true) => {}
                (_, false) => {
                    return StepStatus::Done(JobOutcome {
                        success: false,
                        status: "TIMEOUT",
                    })
                }
            }
            StepStatus::Running
        }
    }

    #[test]
    fn a_wedged_job_ends_as_an_error_and_frees_its_thread() {
        let mut engine = Engine::new(
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            universe(),
        );
        let mut jobs = (0..3).map(|i| Scripted {
            query: OneShot {
                to: "203.0.113.99".parse().unwrap(),
                name: format!("wedge{i}.test").parse().unwrap(),
                qtype: RecordType::A,
                retries: 0,
            },
            events: 0,
            wedge: i == 0,
        });
        let report = engine.run(move || jobs.next().map(|j| Box::new(j) as Box<dyn SimClient>));
        assert_eq!(report.jobs, 3, "{:?}", report.status_counts);
        assert_eq!(report.status_counts["ERROR"], 1);
        assert_eq!(report.status_counts["TIMEOUT"], 2);
        assert_eq!(report.queries_sent, 6);
    }

    #[test]
    fn jobs_complete_against_root_servers() {
        let u = universe();
        let root = u.root_hints()[0].1;
        let mut engine = Engine::new(
            EngineConfig {
                threads: 16,
                ..EngineConfig::default()
            },
            u,
        );
        let mut remaining = 200;
        let report = engine.run(move || {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            Some(Box::new(OneShot {
                to: root,
                name: format!("job{remaining}.com").parse().unwrap(),
                qtype: RecordType::A,
                retries: 3,
            }))
        });
        assert_eq!(report.jobs, 200);
        // Root referrals are NOERROR; nearly everything succeeds.
        assert!(report.success_rate() > 0.97, "{}", report.success_rate());
        assert!(report.queries_sent >= 200);
        assert!(report.makespan > 0);
    }

    #[test]
    fn dead_address_times_out() {
        let u = universe();
        let mut engine = Engine::new(
            EngineConfig {
                threads: 4,
                ..EngineConfig::default()
            },
            u,
        );
        let mut remaining = 8;
        let report = engine.run(move || {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            Some(Box::new(OneShot {
                to: "203.0.113.99".parse().unwrap(),
                name: "dead.test".parse().unwrap(),
                qtype: RecordType::A,
                retries: 1,
            }))
        });
        assert_eq!(report.jobs, 8);
        assert_eq!(report.successes, 0);
        assert_eq!(report.status_counts["TIMEOUT"], 8);
        // 8 jobs × (1 try + 1 retry).
        assert_eq!(report.queries_sent, 16);
    }

    #[test]
    fn port_cap_limits_threads() {
        let u = universe();
        let mut engine = Engine::new(
            EngineConfig {
                threads: 100_000,
                client_ips: vec!["192.0.2.1".parse().unwrap()],
                ..EngineConfig::default()
            },
            u,
        );
        let report = engine.run(|| None);
        assert_eq!(report.effective_threads, 45_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let u = universe();
            let root = u.root_hints()[0].1;
            let mut engine = Engine::new(
                EngineConfig {
                    threads: 8,
                    seed: 42,
                    ..EngineConfig::default()
                },
                u,
            );
            let mut remaining = 50;
            engine.run(move || {
                if remaining == 0 {
                    return None;
                }
                remaining -= 1;
                Some(Box::new(OneShot {
                    to: root,
                    name: format!("det{remaining}.org").parse().unwrap(),
                    qtype: RecordType::A,
                    retries: 2,
                }) as Box<dyn SimClient>)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.queries_sent, b.queries_sent);
        assert_eq!(a.successes, b.successes);
    }

    #[test]
    fn gc_pauses_slow_the_run() {
        let mk = |gc: Option<GcModel>| {
            let u = universe();
            let root = u.root_hints()[0].1;
            let mut engine = Engine::new(
                EngineConfig {
                    threads: 64,
                    seed: 7,
                    gc,
                    // Make CPU the bottleneck so GC matters.
                    per_packet_cpu_us: 2_000,
                    cores: 2,
                    ..EngineConfig::default()
                },
                u,
            );
            let mut remaining = 2_000;
            engine
                .run(move || {
                    if remaining == 0 {
                        return None;
                    }
                    remaining -= 1;
                    Some(Box::new(OneShot {
                        to: root,
                        name: format!("gc{remaining}.net").parse().unwrap(),
                        qtype: RecordType::A,
                        retries: 2,
                    }) as Box<dyn SimClient>)
                })
                .makespan
        };
        let slow_gc = mk(Some(GcModel::go_default()));
        let fast_gc = mk(Some(GcModel::frequent()));
        // The paper's observation: more frequent, shorter collections win.
        assert!(
            fast_gc < slow_gc,
            "frequent {fast_gc} should beat default {slow_gc}"
        );
    }
}
