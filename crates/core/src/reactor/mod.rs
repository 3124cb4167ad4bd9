//! The event-driven real-socket engine.
//!
//! One [`Reactor`] owns one long-lived non-blocking UDP socket (the
//! paper's §3.4 socket-reuse trick) and multiplexes hundreds-to-thousands
//! of in-flight lookup machines over it:
//!
//! * a **demux table** keyed by `(peer address, wire transaction id)`
//!   routes each incoming datagram to the machine that owns it — wire ids
//!   are reallocated per query so concurrent machines can never collide;
//! * a **hashed timer wheel** ([`TimerWheel`]) arms one entry per
//!   in-flight query and delivers [`ClientEvent::Timeout`] when it fires,
//!   which is what makes the machines' own retry logic run without any
//!   blocking waits; an answered query's entry is unlinked and freed at
//!   once, so the wheel holds what is in flight and nothing else;
//! * a **TCP table** (`tcp.rs`) carries truncation-fallback
//!   exchanges on non-blocking connections pumped by the same loop, each
//!   with its timeout on the same wheel — one thread, and no exchange
//!   ever waits behind another destination's slowness;
//! * an optional **pacer** ([`ConcurrentPacer`], via
//!   [`Reactor::set_pacer`]) gates every UDP send against global and
//!   per-destination budgets: deferred sends are parked on a queue whose
//!   release times are armed on the same timer wheel — no extra threads,
//!   no busy-wait — and timeout/error streaks feed per-destination
//!   adaptive backoff. The pacer is scan-wide: sibling workers share its
//!   budgets and its backoff memory;
//! * a **batched syscall layer** ([`BatchIo`]) amortizes per-datagram
//!   syscall cost: sends emitted in the same event-loop tick — admission
//!   bursts, same-tick retries, and pacer deferred-queue releases that
//!   mature on the same wheel tick — are staged and flushed through one
//!   `sendmmsg(2)`, and receives drain through a reusable
//!   `recvmmsg(2)` arena of [`DEFAULT_BATCH_SIZE`] buffers;
//! * an **admission credit pool** ([`zdns_pacing::CreditPool`]): the
//!   reactor leases one credit per active lookup — from a private pool of
//!   [`ReactorConfig::max_in_flight`] credits, or from a scan-wide one
//!   its sibling workers share ([`Reactor::set_credit_pool`]) — and
//!   *parks* lookups whose every outstanding send is waiting out a
//!   backoff penalty, returning their credits so the rest of the window
//!   absorbs the stranded capacity.
//!
//! The lookup machines are unchanged — the same [`SimClient`] state
//! machines the discrete-event simulator drives. The reactor is the
//! second driver for them and the only one over OS sockets: scans
//! (`run_scan_pipeline`), `zdns serve` and single lookups
//! ([`Resolver::lookup`](crate::resolver::Resolver::lookup)) all run on
//! it, so real-I/O throughput scales with in-flight lookups instead of
//! OS threads.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Instant;

use zdns_netsim::{ClientEvent, JobOutcome, OutQuery, SimClient, SimTime, StepStatus, MILLIS};
use zdns_pacing::{CreditPool, PaceDecision, SendGate};
use zdns_wire::ScratchBuf;

use crate::driver::DriverReport;
use crate::pacer::{ConcurrentGate, ConcurrentPacer};
use crate::resolver::AddrMap;
use crate::serve::ServerRole;
use crate::tcp::TcpTable;
use crate::transport::{readiness, Ready};
use crate::transport::{BatchIo, BatchSendStatus, IoBackend, SendSlot};

pub use crate::doorbell::Doorbell;
pub use crate::timer_wheel::{DemuxKey, TimerHandle, TimerWheel};
use send::{PreparedSend, StagedSend};

mod recv;
mod scan_loop;
mod send;
mod serve_loop;

/// Tunables for one reactor.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Admission window: how many lookup machines may be in flight at
    /// once on this reactor's socket.
    pub max_in_flight: usize,
    /// Source address the UDP socket binds to.
    pub source: Ipv4Addr,
    /// Which syscall strategy drives the hot path. The default
    /// ([`IoBackend::Mmsg`]) is vectored `sendmmsg`/`recvmmsg` of up to
    /// [`DEFAULT_BATCH_SIZE`] datagrams where the platform has them,
    /// per-datagram otherwise; [`IoBackend::Syscall`] forces
    /// per-datagram.
    pub io_backend: IoBackend,
    /// Extra machines this reactor may host *beyond* `max_in_flight`
    /// while they sit parked in backoff. Parked lookups cost no window —
    /// their credits are back in the pool — but they do cost slots, so
    /// this bounds the memory a pathological all-destinations-dead scan
    /// can pin. `0` (the default) keeps hosted machines at or under
    /// `max_in_flight`, so a reactor on its private pool always finds a
    /// parked machine's credit free again when the machine re-leases it.
    pub max_parked: usize,
    /// The instant this reactor's clock counts nanoseconds from.
    /// Workers sharing one pacer ([`Reactor::set_pacer`]) MUST share one
    /// epoch too: the pacer stores absolute release/penalty times, so
    /// callers on different epochs would mis-read each other's backoff
    /// state by their spawn skew. `None` = this reactor's construction
    /// time (fine for a pacer no other reactor uses).
    pub epoch: Option<Instant>,
}

/// Datagrams per syscall on the hot path: same-tick sends coalesce into
/// one `sendmmsg` of up to this many, and the receive arena holds this
/// many buffers. Deep enough to amortize syscall cost, shallow enough
/// that the arena stays ~2 MB per worker.
pub const DEFAULT_BATCH_SIZE: usize = 32;

/// Timer-wheel slot count (a power of two).
const WHEEL_SLOTS: usize = 1_024;

/// Timer-wheel slot width: a timeout or pacer release fires up to this
/// late.
const WHEEL_GRANULARITY: SimTime = 4 * MILLIS;

/// Largest window the demux table is sized for up front; a wider one
/// grows the table as it fills, like any map.
const MAX_PRESIZED: usize = 1 << 16;

/// Places in the idle wait's descriptor list, and so in its [`Ready`]
/// record: the reactor's socket, a server role's UDP and TCP listeners,
/// and the doorbell.
const SOCKET: usize = 0;
const UDP_LISTENER: usize = 1;
const TCP_LISTENER: usize = 2;
const BELL: usize = 3;

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_in_flight: 1_024,
            source: Ipv4Addr::UNSPECIFIED,
            io_backend: IoBackend::default(),
            max_parked: 0,
            epoch: None,
        }
    }
}

struct Pending {
    slot: usize,
    tag: u64,
    sim_ip: Ipv4Addr,
    orig_id: u16,
    /// The armed per-query timeout (cancelled when the answer arrives).
    timer: TimerHandle,
}

struct Slot {
    /// `None` while the machine is being stepped.
    machine: Option<Box<dyn SimClient>>,
    /// Demux keys of this machine's in-flight UDP queries.
    keys: Vec<DemuxKey>,
    /// Exchanges in the TCP table.
    tcp_pending: usize,
    /// Sends held on the pacer's deferred queue.
    deferred: usize,
    /// Sends staged for the next batch flush (same-tick coalescing), and
    /// failed sends whose `TransportFailed` the next flush delivers.
    staged: usize,
    /// The machine's admission credit has been returned to the pool
    /// because *every* outstanding send is waiting on the pacer's
    /// deferred queue (typically a backoff penalty): the lookup is alive
    /// but costs the scan no window. The credit is re-leased before its
    /// next send goes to the wire.
    parked: bool,
}

impl Slot {
    /// Events the reactor owes this machine, one per query it has out.
    fn owed(&self) -> usize {
        self.keys.len() + self.tcp_pending + self.deferred + self.staged
    }
}

/// A UDP send the pacer is holding back. Its budget was reserved at
/// admission, so when the wheel fires it goes straight to the wire.
struct DeferredSend {
    slot: usize,
    generation: u64,
    /// Backpressure requeues this send has already been through.
    attempts: u32,
    oq: OutQuery,
    /// The armed release timer (cancelled if the run ends first).
    timer: TimerHandle,
}

/// This reactor's stake in a [`CreditPool`]: its private pool, or the
/// scan-wide one ([`Reactor::set_credit_pool`]).
struct CreditShare {
    pool: Arc<CreditPool>,
    /// Credits currently held: one per active (unparked) machine, plus
    /// the pre-leased spare.
    held: usize,
    /// One credit leased ahead of the next admission and kept across
    /// `Admission::Later` polls, so an idle loop does not churn the
    /// pool's counters.
    spare: bool,
}

impl CreditShare {
    fn new(pool: Arc<CreditPool>) -> CreditShare {
        CreditShare {
            pool,
            held: 0,
            spare: false,
        }
    }

    /// Lease one credit, if the pool has one free.
    fn lease(&mut self, report: &mut DriverReport) -> bool {
        let leased = self.pool.try_lease(1);
        if leased {
            self.held += 1;
            report.credit_leases += 1;
        }
        leased
    }

    /// Return one held credit to the pool.
    fn release(&mut self) {
        self.pool.release(1);
        self.held -= 1;
    }
}

/// The event-driven driver: one non-blocking UDP socket, a demux table,
/// a timer wheel, and up to [`ReactorConfig::max_in_flight`] concurrent
/// lookup machines.
pub struct Reactor {
    socket: UdpSocket,
    addr_map: Arc<AddrMap>,
    config: ReactorConfig,
    slots: Vec<Option<Slot>>,
    /// Bumped each time a slot retires, so completions addressed to a
    /// previous occupant of a recycled slot are recognizably stale.
    generations: Vec<u64>,
    free_slots: Vec<usize>,
    in_flight: usize,
    demux: HashMap<DemuxKey, Pending>,
    wheel: TimerWheel,
    /// This worker's gate on the scan-wide pacer (`None` = unpaced: the
    /// send path skips admission and feedback entirely).
    pacer: Option<ConcurrentGate>,
    /// The admission credits this reactor leases its window from.
    credits: CreditShare,
    /// Machines alive but holding no credit (all sends in backoff).
    parked_count: usize,
    deferred: HashMap<u64, DeferredSend>,
    next_token: u64,
    txid_cursor: u16,
    started: Instant,
    tcp: TcpTable,
    report: DriverReport,
    /// `Option` so [`Reactor::drain_datagrams`] can move the arena out
    /// while borrowed views over it are delivered to machines (which need
    /// `&mut self`); always `Some` between method calls.
    batch: Option<BatchIo>,
    staged: Vec<StagedSend>,
    // -- steady-state allocation pools -------------------------------------
    /// Shared encode arena for one flush's datagrams.
    send_scratch: ScratchBuf,
    /// `(offset, len, dest)` per prepared datagram, parallel to `prepared`.
    send_slots: Vec<SendSlot>,
    /// Prepared sends of the current flush (reused across flushes).
    prepared: Vec<PreparedSend>,
    /// Per-datagram outcomes of the current flush (reused).
    statuses: Vec<BatchSendStatus>,
    /// The output buffer every step reuses (no step runs inside another).
    out: Vec<OutQuery>,
    /// Failed sends whose `TransportFailed` the next flush delivers:
    /// `(slot, generation, tag)`.
    failed: Vec<(usize, u64, u64)>,
    /// Recycled per-slot demux-key vectors (admit pops, retire pushes).
    keys_pool: Vec<Vec<DemuxKey>>,
    /// Recycled buffer for expired timers (so timeout storms stay
    /// allocation-free too).
    fired: Vec<(u64, DemuxKey)>,
    /// Recycled queue of slots whose sends were just deferred and that
    /// may therefore be parkable (checked at safe points, not mid-step).
    park_checks: Vec<usize>,
    /// The optional server half: installed via
    /// [`Reactor::set_server_role`], it answers the queries arriving on
    /// its own listeners and queues forwarding machines for admission.
    /// `Option` (like `batch`) so role methods taking `&mut` can run
    /// while the reactor is borrowed; boxed to keep the scan-only
    /// reactor layout lean.
    server: Option<Box<ServerRole>>,
    /// Rung by whoever feeds this reactor's machine source from another
    /// thread ([`Reactor::set_doorbell`]).
    bell: Option<Arc<Doorbell>>,
    /// Which sockets the last idle wait saw ready: the next tick reads
    /// only those, then resets it to all of them.
    ready: Ready,
}

impl Reactor {
    /// Bind the long-lived socket and build the reactor around it.
    pub fn new(config: ReactorConfig, addr_map: Arc<AddrMap>) -> std::io::Result<Reactor> {
        let socket = UdpSocket::bind((config.source, 0))?;
        Reactor::from_socket(socket, config, addr_map)
    }

    /// Build around an already-bound socket. Lets callers bind (and surface
    /// bind failures) on one thread, then construct the reactor on the
    /// worker thread that will drive it — the reactor itself is not `Send`
    /// because the machines it owns are not.
    pub fn from_socket(
        socket: UdpSocket,
        config: ReactorConfig,
        addr_map: Arc<AddrMap>,
    ) -> std::io::Result<Reactor> {
        socket.set_nonblocking(true)?;
        // A reactor keeps hundreds of queries in flight on one socket;
        // responses arrive in bursts the default buffer would drop.
        zdns_netsim::set_recv_buffer(&socket, 8 << 20);
        let wheel = TimerWheel::new(WHEEL_SLOTS, WHEEL_GRANULARITY);
        let batch = BatchIo::with_backend(config.io_backend, DEFAULT_BATCH_SIZE);
        let started = config.epoch.unwrap_or_else(Instant::now);
        // Room for twice the window: a table this churned fills with
        // tombstones, and the map clears them in place only while it is at
        // most half full — above that it moves to a bigger allocation, at
        // whatever moment of the scan the tombstones happen to run out.
        let window = config.max_in_flight.min(MAX_PRESIZED);
        let demux = HashMap::with_capacity(2 * (window + 1));
        let credits = CreditShare::new(Arc::new(CreditPool::new(config.max_in_flight)));
        Ok(Reactor {
            socket,
            addr_map,
            config,
            slots: Vec::new(),
            generations: Vec::new(),
            free_slots: Vec::new(),
            in_flight: 0,
            demux,
            wheel,
            pacer: None,
            credits,
            parked_count: 0,
            deferred: HashMap::new(),
            next_token: 0,
            txid_cursor: 1,
            started,
            tcp: TcpTable::default(),
            report: DriverReport::default(),
            batch: Some(batch),
            staged: Vec::new(),
            send_scratch: ScratchBuf::new(),
            send_slots: Vec::new(),
            prepared: Vec::new(),
            statuses: Vec::new(),
            out: Vec::new(),
            failed: Vec::new(),
            keys_pool: Vec::new(),
            fired: Vec::new(),
            park_checks: Vec::new(),
            server: None,
            bell: None,
            ready: Ready::ALL,
        })
    }

    /// Install a server role: [`Reactor::serve_tick`] /
    /// [`Reactor::run_serve`] drive its listeners, TCP table and
    /// forwarded-answer queue, and the idle wait watches its listeners.
    /// The reactor's own socket stays the upstream side: a query arriving
    /// on it is stale, like any datagram the demux table does not expect.
    /// The role's listener takes this reactor's
    /// [`ReactorConfig::io_backend`].
    pub fn set_server_role(&mut self, mut role: ServerRole) {
        role.use_backend(self.config.io_backend);
        self.server = Some(Box::new(role));
    }

    /// Lease this reactor's window from the scan-wide `pool` instead of
    /// its private one: one credit per *active* lookup, returned while a
    /// lookup's every send is held in backoff, so sibling workers absorb
    /// capacity this one is not using. [`ReactorConfig::max_in_flight`]
    /// remains the hard cap on machines this worker will host —
    /// shared-queue scans set it to the whole window so any one worker
    /// can take all of it. Call it before the reactor hosts a lookup.
    pub fn set_credit_pool(&mut self, pool: Arc<CreditPool>) {
        debug_assert_eq!(self.credits.held, 0, "credits held across a pool swap");
        self.credits = CreditShare::new(pool);
    }

    /// Gate this reactor's UDP sends through `pacer`. Reserving from its
    /// budgets *is* the lease: an idle worker simply does not reserve, so
    /// active workers absorb the whole budget with no rebalancing step,
    /// and a destination one worker learns is struggling is backed off
    /// for all of them. Workers sharing a pacer MUST share a
    /// [`ReactorConfig::epoch`].
    pub fn set_pacer(&mut self, pacer: Arc<ConcurrentPacer>) {
        self.pacer = Some(ConcurrentGate::new(pacer));
    }

    /// Sleep on `bell` as well as the socket whenever the scan's machine
    /// source runs dry, so the thread feeding that source can wake this
    /// reactor the moment it has a name again ([`Doorbell`]). The serve
    /// loop sleeps on it always: a ring after its stop flag ends it.
    pub fn set_doorbell(&mut self, bell: Arc<Doorbell>) {
        self.bell = Some(bell);
    }

    /// The bound local address (one reused source port for every lookup).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Machines currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The syscall strategy the batch layer resolved to — what the
    /// requested [`ReactorConfig::io_backend`] means on this platform
    /// (`"syscall"` or `"mmsg"`).
    pub fn io_backend(&self) -> &'static str {
        self.batch
            .as_ref()
            .map(BatchIo::backend_name)
            .unwrap_or("syscall")
    }

    /// Armed (not cancelled, not fired) timers.
    pub fn live_timers(&self) -> usize {
        self.wheel.live()
    }

    /// Timer entries physically stored in the wheel, counted by looking
    /// at each. Always equal to [`Reactor::live_timers`]: a cancelled
    /// timer is unlinked and freed on the spot.
    pub fn stored_timers(&self) -> usize {
        self.wheel.stored()
    }

    /// The most timers this reactor ever had armed at once (its wheel's
    /// slab size): bounded by the queries and deferred sends in flight,
    /// whatever the lookup rate and the timeout.
    pub fn peak_timers(&self) -> usize {
        self.wheel.slab_len()
    }

    /// In-flight UDP queries awaiting demux.
    pub fn pending_queries(&self) -> usize {
        self.demux.len()
    }

    /// TCP connections currently open for truncation-fallback exchanges.
    pub fn open_tcp_connections(&self) -> usize {
        self.tcp.open_connections()
    }

    /// Sends currently held on the pacer's deferred queue.
    pub fn deferred_sends(&self) -> usize {
        self.deferred.len()
    }

    /// Machines alive but holding no admission credit because every send
    /// they own is waiting out a backoff penalty.
    pub fn parked_machines(&self) -> usize {
        self.parked_count
    }

    fn now(&self) -> SimTime {
        self.started.elapsed().as_nanos() as u64
    }

    /// Ask the pacer whether a send to `dest` may go on the wire now.
    fn pace_admit(&mut self, dest: Ipv4Addr) -> PaceDecision {
        match self.pacer.as_mut() {
            Some(gate) => gate.admit(dest, self.started.elapsed().as_nanos() as u64),
            None => PaceDecision::Ready,
        }
    }

    /// Feed one query outcome at `dest` to the pacer's adaptive backoff.
    fn pace_feedback(&mut self, dest: Ipv4Addr, success: bool) {
        if let Some(gate) = self.pacer.as_mut() {
            let now = self.started.elapsed().as_nanos() as u64;
            if success {
                gate.on_success(dest, now);
            } else {
                gate.on_failure(dest, now);
            }
        }
    }

    /// Give unused global-budget block tokens back to the pacer — called
    /// at the same points admission credits go back to the pool
    /// (park/idle/end-of-run). No-op for an empty block, so it is safe to
    /// call freely.
    fn return_pacer_tokens(&mut self) {
        if let Some(gate) = self.pacer.as_mut() {
            gate.return_tokens();
        }
    }

    /// Hold a credit for the next admission: the spare, leased ahead of
    /// pulling a machine (which cannot be pushed back) and kept while
    /// none comes. False when the whole window is active.
    fn lease_admission(&mut self) -> bool {
        if !self.credits.spare {
            self.credits.spare = self.credits.lease(&mut self.report);
        }
        self.credits.spare
    }

    /// Admit one machine on the spare credit, starting it immediately.
    fn admit(&mut self, machine: Box<dyn SimClient>, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        debug_assert!(self.credits.spare, "admitted without a credit");
        self.credits.spare = false; // the machine carries it now
        let idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        let keys = self.keys_pool.pop().unwrap_or_default();
        self.slots[idx] = Some(Slot {
            machine: None,
            keys,
            tcp_pending: 0,
            deferred: 0,
            staged: 0,
            parked: false,
        });
        self.in_flight += 1;
        self.report.peak_in_flight = self.report.peak_in_flight.max(self.in_flight);
        self.step(idx, machine, None, on_done);
    }

    /// Step the machine hosted in `idx` through [`zdns_netsim::step`]
    /// (starting it when `event` is `None`); one that ends retires.
    pub(super) fn step(
        &mut self,
        idx: usize,
        mut machine: Box<dyn SimClient>,
        event: Option<ClientEvent<'_>>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        let mut out = std::mem::take(&mut self.out);
        let status = zdns_netsim::step(&mut *machine, event, self.now(), &mut out, |out| {
            self.register_out(idx, out);
            self.slots[idx].as_ref().map_or(0, Slot::owed)
        });
        self.out = out;
        match status {
            StepStatus::Running => {
                self.slots[idx].as_mut().expect("hosted").machine = Some(machine);
                // Its last query on the wire may just have ended while an
                // older send waits on the deferred queue: it may be fully
                // in backoff now (`defer_send` queues its own checks).
                self.park_checks.push(idx);
            }
            StepStatus::Done(outcome) => {
                self.retire(idx);
                self.report.completed += 1;
                if outcome.success {
                    self.report.successes += 1;
                }
                on_done(Some(outcome));
            }
        }
        // Park what is now fully in backoff while no machine is mid-step.
        self.process_park_checks();
    }

    /// Release a finished machine's slot and cancel anything it left in
    /// the demux table, the TCP table or the timer wheel.
    fn retire(&mut self, idx: usize) {
        let slot = self.slots[idx].take().expect("a hosted machine retires");
        if slot.tcp_pending > 0 {
            self.tcp.close_slot(idx, &mut self.wheel);
        }
        let mut keys = slot.keys;
        for key in keys.drain(..) {
            if let Some(pending) = self.demux.remove(&key) {
                self.wheel.cancel(pending.timer);
            }
        }
        if self.keys_pool.len() < 4_096 {
            self.keys_pool.push(keys);
        }
        if slot.parked {
            // A parked machine retired without re-leasing (its credit was
            // already back in the pool).
            self.parked_count -= 1;
        } else {
            self.credits.release();
        }
        self.generations[idx] += 1;
        self.free_slots.push(idx);
        self.in_flight -= 1;
    }

    /// Park `idx` if every outstanding send it owns is sitting on the
    /// pacer's deferred queue: the lookup is alive but off the wire, so
    /// its admission credit goes back to the pool for a sibling (or this
    /// worker's next admission) to use. No-op for already-parked slots
    /// and for slots with live work.
    fn maybe_park(&mut self, idx: usize) {
        let Some(slot) = self.slots[idx].as_mut() else {
            return;
        };
        if !slot.parked && slot.deferred > 0 && slot.owed() == slot.deferred {
            slot.parked = true;
            self.parked_count += 1;
            self.credits.release();
            self.report.idle_credit_returns += 1;
            // A park means pacing is the bottleneck here: unused global
            // token-block slots go back with the credit, so siblings
            // (and this worker's own deferred queue) drain the budget.
            self.return_pacer_tokens();
        }
    }

    /// Whether admission may host one more machine: *active* machines
    /// (in flight minus parked) stay under the window, and total hosted
    /// machines stay under window + parked allowance.
    fn admittable(&self) -> bool {
        let (window, parked) = (self.config.max_in_flight, self.config.max_parked);
        self.in_flight - self.parked_count < window
            && self.in_flight < window.saturating_add(parked)
    }

    /// Run the queued park checks (slots whose sends were just deferred).
    /// Safe to call at any point where no machine is mid-step.
    fn process_park_checks(&mut self) {
        while let Some(idx) = self.park_checks.pop() {
            self.maybe_park(idx);
        }
    }

    /// Sleep until the reactor's socket or a server role's listener is
    /// readable, or `wait_ms` passes — the one idle wait of the scan and
    /// serve loops — and record which were ready for the next tick. A
    /// scan whose source just ran dry (`starved`) sleeps on its
    /// [`Doorbell`] too, and reads away the rings that woke it.
    fn idle_wait(&mut self, wait_ms: i32, starved: bool) {
        let bell = self.bell.as_deref().filter(|_| starved);
        #[cfg(unix)]
        let fds = {
            use std::os::fd::AsRawFd;
            let [udp, tcp] = self.server.as_ref().map_or([-1, -1], |r| r.listener_fds());
            let bell = bell.map_or(-1, |b| b.ends.1.as_raw_fd());
            [self.socket.as_raw_fd(), udp, tcp, bell]
        };
        #[cfg(not(unix))]
        let fds = [0; 4];
        self.ready = readiness::wait_readable(fds, wait_ms);
        if self.ready.has(BELL) {
            bell.map(Doorbell::silence);
        }
    }

    /// What the last idle wait saw ready, for the tick it precedes to
    /// read; the record goes back to every socket, so a tick no wait
    /// precedes reads them all.
    fn take_ready(&mut self) -> Ready {
        std::mem::replace(&mut self.ready, Ready::ALL)
    }
}
