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
//!   `recvmmsg(2)` arena of [`ReactorConfig::batch_size`] buffers;
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
//! (`run_real_scan`), `zdns serve` and single lookups
//! ([`Resolver::lookup`](crate::resolver::Resolver::lookup)) all run on
//! it, so real-I/O throughput scales with in-flight lookups instead of
//! OS threads.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zdns_netsim::{ClientEvent, JobOutcome, OutQuery, Protocol, SimClient, SimTime, MILLIS};
use zdns_pacing::{CreditPool, PaceDecision, SendGate};
use zdns_wire::{MessageView, MsgRef, ScratchBuf};

use crate::driver::{Admission, Driver, DriverReport};
use crate::pacer::{ConcurrentGate, ConcurrentPacer};
use crate::resolver::AddrMap;
use crate::serve::{ServeStats, ServerRole};
use crate::tcp::{Exchange, TcpTable};
use crate::transport::readiness;
use crate::transport::{BatchIo, BatchSendStatus, IoBackend, SendSlot};

/// Tunables for one reactor.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Admission window: how many lookup machines may be in flight at
    /// once on this reactor's socket.
    pub max_in_flight: usize,
    /// Source address the UDP socket binds to.
    pub source: Ipv4Addr,
    /// Timer-wheel slot width in nanoseconds.
    pub wheel_granularity: SimTime,
    /// Datagrams per syscall on the hot path: same-tick sends coalesce
    /// into one `sendmmsg` of up to this many datagrams, and the receive
    /// arena pre-allocates this many buffers for `recvmmsg`. `1` forces
    /// the per-datagram `send_to`/`recv_from` path.
    pub batch_size: usize,
    /// Which syscall strategy drives the hot path. The default
    /// ([`IoBackend::Mmsg`]) is vectored `sendmmsg`/`recvmmsg` where the
    /// platform has them and `batch_size > 1`, per-datagram otherwise;
    /// [`IoBackend::Syscall`] forces per-datagram.
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

/// Default [`ReactorConfig::batch_size`]: deep enough to amortize
/// syscall cost, shallow enough that the arena stays ~2 MB per worker.
pub const DEFAULT_BATCH_SIZE: usize = 32;

/// Timer-wheel slot count (a power of two).
const WHEEL_SLOTS: usize = 1_024;

/// Largest window the demux table is sized for up front; a wider one
/// grows the table as it fills, like any map.
const MAX_PRESIZED: usize = 1 << 16;

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_in_flight: 1_024,
            source: Ipv4Addr::UNSPECIFIED,
            wheel_granularity: 4 * MILLIS,
            batch_size: DEFAULT_BATCH_SIZE,
            io_backend: IoBackend::default(),
            max_parked: 0,
            epoch: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// What a timer is armed for: the demux entry of the query it guards
/// (deferred-send releases all share one placeholder key and are told
/// apart by token).
pub type DemuxKey = (SocketAddr, u16);

/// Slab sentinel: end of a chain / no entry / (in `TimerEntry::slot`) a
/// free slab node.
const NIL: u32 = u32::MAX;

struct TimerEntry {
    deadline: SimTime,
    token: u64,
    key: DemuxKey,
    /// Wheel slot whose chain holds this entry; `NIL` while the slab node
    /// is free.
    slot: u32,
    /// Neighbours in the slot's chain (slab indices). A free node keeps
    /// the free list in `next`.
    prev: u32,
    next: u32,
}

/// Names one armed timer: the slab node [`TimerWheel::arm`] put it in,
/// plus the token it was armed with — the token is what makes a handle
/// kept past its timer's end harmless (the node may since hold a newer
/// timer; [`TimerWheel::cancel`] compares before it touches anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    idx: u32,
    token: u64,
}

/// A hashed timer wheel whose cancellations are real: [`arm`] returns a
/// [`TimerHandle`], and [`cancel`] unlinks that entry from its slot's
/// doubly linked chain and frees its slab node on the spot, in O(1) and
/// without hashing. Nothing cancelled is ever stored, so the slab holds
/// exactly the armed timers — for the reactor, one per in-flight query or
/// deferred send, however fast lookups complete and however long their
/// timeouts are. (Cancelling lazily, at the deadline, kept rate × timeout
/// dead entries alive: 270 K of them, 20 MB, at 90 K lookups/s under the
/// default 3 s timeout.)
///
/// Entries live in one slab with intrusive per-slot chains (a `u32` head
/// per slot) instead of a `Vec` per slot: wall-clock keeps marching the
/// cursor into fresh slot indices, and per-slot buffers would regrow from
/// zero every lap. The slab grows to the peak concurrent entry count once
/// and is recycled through an intrusive free list from then on — arming
/// and cancelling in the steady state perform zero heap allocations,
/// which the `zero_alloc` integration test enforces.
///
/// [`arm`]: TimerWheel::arm
/// [`cancel`]: TimerWheel::cancel
pub struct TimerWheel {
    entries: Vec<TimerEntry>,
    /// Head of the free list threaded through `TimerEntry::next`.
    free: u32,
    heads: Vec<u32>,
    granularity: SimTime,
    cursor: usize,
    cursor_time: SimTime,
    live: usize,
}

impl TimerWheel {
    /// A wheel of `slots` slots (rounded up to a power of two), each
    /// `granularity` nanoseconds wide, with its cursor at time zero.
    pub fn new(slots: usize, granularity: SimTime) -> TimerWheel {
        let n = slots.next_power_of_two().max(2);
        TimerWheel {
            entries: Vec::new(),
            free: NIL,
            heads: vec![NIL; n],
            granularity: granularity.max(1),
            cursor: 0,
            cursor_time: 0,
            live: 0,
        }
    }

    /// The slot a deadline routes to from the current cursor position.
    fn slot_for(&self, deadline: SimTime) -> usize {
        let horizon = self.granularity * self.heads.len() as SimTime;
        let offset = deadline.saturating_sub(self.cursor_time).min(horizon - 1);
        let ticks = offset / self.granularity;
        (self.cursor + ticks as usize) % self.heads.len()
    }

    /// Put slab node `i` at the head of the chain its deadline routes to.
    fn link(&mut self, i: u32) {
        let slot = self.slot_for(self.entries[i as usize].deadline);
        let head = std::mem::replace(&mut self.heads[slot], i);
        let e = &mut self.entries[i as usize];
        (e.slot, e.prev, e.next) = (slot as u32, NIL, head);
        if head != NIL {
            self.entries[head as usize].prev = i;
        }
    }

    /// Put slab node `i`, already out of every chain, on the free list.
    fn free_node(&mut self, i: u32) {
        let e = &mut self.entries[i as usize];
        (e.slot, e.next) = (NIL, self.free);
        self.free = i;
        self.live -= 1;
    }

    /// Arm a timer. Deadlines beyond the wheel horizon are parked in the
    /// furthest slot and moved on as the wheel turns (same slab node, so
    /// the handle stays good).
    pub fn arm(&mut self, deadline: SimTime, token: u64, key: DemuxKey) -> TimerHandle {
        let entry = TimerEntry {
            deadline,
            token,
            key,
            slot: NIL,
            prev: NIL,
            next: NIL,
        };
        let idx = self.free;
        let idx = if idx == NIL {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        } else {
            self.free = std::mem::replace(&mut self.entries[idx as usize], entry).next;
            idx
        };
        self.link(idx);
        self.live += 1;
        TimerHandle { idx, token }
    }

    /// Cancel the timer `handle` names, if it is still armed: unlink it
    /// and free its node. A handle whose timer already fired or was
    /// already cancelled — even if the node has since been reused by a
    /// newer timer — cancels nothing. Returns whether a timer was removed.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let (slot, prev, next) = match self.entries.get(handle.idx as usize) {
            Some(e) if e.slot != NIL && e.token == handle.token => (e.slot, e.prev, e.next),
            _ => return false,
        };
        if prev == NIL {
            self.heads[slot as usize] = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next != NIL {
            self.entries[next as usize].prev = prev;
        }
        self.free_node(handle.idx);
        true
    }

    /// Advance to `now`, collecting every fired `(token, key)`.
    pub fn expire(&mut self, now: SimTime, fired: &mut Vec<(u64, DemuxKey)>) {
        while self.cursor_time + self.granularity <= now {
            let slot_end = self.cursor_time + self.granularity;
            // Detach the whole chain, then walk it: every node either
            // fires or moves to another slot, so no neighbour needs fixing.
            let mut i = std::mem::replace(&mut self.heads[self.cursor], NIL);
            while i != NIL {
                let e = &self.entries[i as usize];
                let next = e.next;
                if e.deadline >= slot_end {
                    // Parked from beyond the horizon: move it on relative
                    // to the cursor. It is at least one tick away, so it
                    // joins another slot's chain, never the one being
                    // walked — and keeps its node, so its handle holds.
                    self.link(i);
                } else {
                    fired.push((e.token, e.key));
                    self.free_node(i);
                }
                i = next;
            }
            self.cursor = (self.cursor + 1) % self.heads.len();
            self.cursor_time = slot_end;
        }
    }

    /// Nanoseconds until the next tick that could fire something, if any
    /// timer is armed.
    pub fn ns_until_next_tick(&self, now: SimTime) -> Option<SimTime> {
        (self.live > 0).then(|| (self.cursor_time + self.granularity).saturating_sub(now))
    }

    /// Armed timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slab nodes holding a timer, counted by looking at every node — an
    /// independent (O(slab), for tests and asserts) count that always
    /// equals [`TimerWheel::live`]: nothing but armed timers is stored.
    pub fn stored(&self) -> usize {
        self.entries.iter().filter(|e| e.slot != NIL).count()
    }

    /// Slab nodes ever allocated: the most timers that were armed at once.
    pub fn slab_len(&self) -> usize {
        self.entries.len()
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

struct Pending {
    slot: usize,
    tag: u64,
    sim_ip: Ipv4Addr,
    orig_id: u16,
    /// The armed per-query timeout (cancelled when the answer arrives).
    timer: TimerHandle,
}

struct Slot {
    machine: Box<dyn SimClient>,
    /// Demux keys of this machine's in-flight UDP queries.
    keys: Vec<DemuxKey>,
    /// Exchanges in the TCP table.
    tcp_pending: usize,
    /// Sends held on the pacer's deferred queue.
    deferred: usize,
    /// Sends staged for the next batch flush (same-tick coalescing).
    staged: usize,
    /// The machine's admission credit has been returned to the pool
    /// because *every* outstanding send is waiting on the pacer's
    /// deferred queue (typically a backoff penalty): the lookup is alive
    /// but costs the scan no window. The credit is re-leased before its
    /// next send goes to the wire.
    parked: bool,
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

/// Wheel key for deferred-send releases. Never collides with demux
/// lookups: releases are resolved by token (globally unique) before the
/// demux path is consulted.
fn pace_key() -> DemuxKey {
    (
        SocketAddr::new(std::net::IpAddr::V4(Ipv4Addr::UNSPECIFIED), 0),
        0,
    )
}

/// A UDP send admitted by the pacer and waiting for the next batch
/// flush. Staging is what lets every send emitted in one event-loop tick
/// share a single `sendmmsg`.
struct StagedSend {
    slot: usize,
    generation: u64,
    /// Backpressure requeues this send has already been through.
    attempts: u32,
    oq: OutQuery,
}

/// A staged send that has its wire id, demux entry, and timeout armed,
/// and is about to go through the batched syscall. Registration happens
/// at prep time (before the syscall) so two same-tick sends to one peer
/// can never pick the same wire id; non-`Sent` outcomes roll it back.
/// The encoded bytes live in the flush's shared scratch arena (the slot
/// range rides in the parallel [`SendSlot`] vector), so preparing a send
/// touches the allocator zero times in the steady state.
struct PreparedSend {
    slot: usize,
    attempts: u32,
    key: DemuxKey,
    oq: OutQuery,
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
    fn release(&mut self, report: &mut DriverReport) {
        self.pool.release(1);
        self.held -= 1;
        report.credit_returns += 1;
    }
}

/// Delay before re-checking the credit pool when a matured deferred send
/// finds it empty (its owner was parked and the window is fully used).
const CREDIT_RETRY_DELAY: SimTime = 2 * MILLIS;

/// Ceiling on consecutive receive errors absorbed in one drain pass, so
/// a repeating error cannot spin the loop while still letting queued
/// datagrams behind an error be drained (not stranded until next poll).
const MAX_DRAIN_ERRORS: u32 = 64;

/// Delay before retrying a send that hit send-buffer backpressure.
const BACKPRESSURE_DELAY: SimTime = 2 * MILLIS;

/// Backpressure requeues one send may consume before it fails the
/// lookup. A bounded retry keeps WouldBlock from looping a query on the
/// deferred queue forever with no timeout armed (the per-query timer
/// only starts at an actual send).
const MAX_BACKPRESSURE_RETRIES: u32 = 8;

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
    /// Recycled machine-output buffers: stepping a machine pops one,
    /// finishing the step pushes it back, so per-lookup stepping never
    /// allocates. A small pool (not one buffer) because event delivery
    /// re-enters: a step can synchronously trigger another step.
    out_pool: Vec<Vec<OutQuery>>,
    /// Recycled per-slot demux-key vectors (admit pops, retire pushes).
    keys_pool: Vec<Vec<DemuxKey>>,
    /// Recycled buffer for expired timers (so timeout storms stay
    /// allocation-free too).
    fired: Vec<(u64, DemuxKey)>,
    /// Recycled queue of slots whose sends were just deferred and that
    /// may therefore be parkable (checked at safe points, not mid-step).
    park_checks: Vec<usize>,
    /// The optional server half: installed via
    /// [`Reactor::set_server_role`], it receives inbound queries (QR=0
    /// demux misses) and queues forwarding machines for admission.
    /// `Option` (like `batch`) so role methods taking `&mut` can run
    /// while the reactor is borrowed; boxed to keep the scan-only
    /// reactor layout lean.
    server: Option<Box<ServerRole>>,
    /// Rung by whoever feeds this reactor's machine source from another
    /// thread ([`Reactor::set_doorbell`]).
    bell: Option<Arc<Doorbell>>,
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
        let wheel = TimerWheel::new(WHEEL_SLOTS, config.wheel_granularity);
        let batch = BatchIo::with_backend(config.io_backend, config.batch_size);
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
            out_pool: Vec::new(),
            keys_pool: Vec::new(),
            fired: Vec::new(),
            park_checks: Vec::new(),
            server: None,
            bell: None,
        })
    }

    /// Install a server role: from here on, inbound QR=0 datagrams on the
    /// reactor socket dispatch to it instead of counting as stale, and
    /// [`Reactor::serve_tick`] / [`Reactor::run_serve`] drive its
    /// listener, TCP table, and forwarded-answer queue.
    pub fn set_server_role(&mut self, role: ServerRole) {
        self.server = Some(Box::new(role));
    }

    /// The installed server role's shared counters, if any.
    pub fn server_stats(&self) -> Option<Arc<ServeStats>> {
        self.server.as_ref().map(|r| r.stats())
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
    /// reactor the moment it has a name again ([`Doorbell`]).
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
    /// requested [`ReactorConfig::io_backend`] means on this platform at
    /// this batch size (`"syscall"` or `"mmsg"`).
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

    /// Pop a recycled machine-output buffer (or make a fresh one — only
    /// before the pool has warmed up).
    fn take_out_buf(&mut self) -> Vec<OutQuery> {
        self.out_pool.pop().unwrap_or_default()
    }

    /// Return a machine-output buffer to the pool.
    fn put_out_buf(&mut self, mut out: Vec<OutQuery>) {
        out.clear();
        if self.out_pool.len() < 64 {
            self.out_pool.push(out);
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
            machine,
            keys,
            tcp_pending: 0,
            deferred: 0,
            staged: 0,
            parked: false,
        });
        self.in_flight += 1;
        self.report.peak_in_flight = self.report.peak_in_flight.max(self.in_flight);

        let mut slot = self.slots[idx].take().expect("fresh slot");
        let mut out = self.take_out_buf();
        let status = slot.machine.start(self.now(), &mut out);
        self.after_step(idx, slot, status, out, on_done);
    }

    /// Common post-step handling: either the machine finished, or its new
    /// queries go on the wire (which may synchronously produce failure
    /// events that feed straight back into the machine).
    fn after_step(
        &mut self,
        idx: usize,
        slot: Slot,
        status: zdns_netsim::StepStatus,
        mut out: Vec<OutQuery>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        use zdns_netsim::StepStatus;
        match status {
            StepStatus::Done(outcome) => {
                self.put_out_buf(out);
                self.retire(idx, slot);
                self.report.completed += 1;
                if outcome.success {
                    self.report.successes += 1;
                }
                on_done(Some(outcome));
            }
            StepStatus::Running => {
                self.slots[idx] = Some(slot);
                let mut immediate = Vec::new();
                self.register_out(idx, &mut out, &mut immediate);
                self.put_out_buf(out);
                for event in immediate {
                    self.deliver(idx, event, on_done);
                }
                self.reap_if_wedged(idx, on_done);
                // This step may have retired the machine's last on-wire
                // query while an older send still sits on the deferred
                // queue — the machine is now fully in backoff even though
                // nothing was deferred *in this step* (defer_send queues
                // its own checks).
                self.park_checks.push(idx);
            }
        }
        // Machines whose sends were just deferred (or whose last live
        // query just retired) may now be fully in backoff; park them
        // (returning their credits) while no machine is mid-step.
        self.process_park_checks();
    }

    /// A running machine with nothing in flight would hang the scan; fail
    /// it closed. A machine whose sends are
    /// merely held by the pacer — or staged for the next batch flush —
    /// is waiting, not wedged.
    fn reap_if_wedged(&mut self, idx: usize, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        let wedged = match &self.slots[idx] {
            Some(slot) => {
                slot.keys.is_empty()
                    && slot.tcp_pending == 0
                    && slot.deferred == 0
                    && slot.staged == 0
            }
            None => false,
        };
        if wedged {
            let slot = self.slots[idx].take().expect("checked above");
            self.retire(idx, slot);
            self.report.completed += 1;
            on_done(None);
        }
    }

    /// Release a finished machine's slot and cancel anything it left in
    /// the demux table, the TCP table or the timer wheel.
    fn retire(&mut self, idx: usize, slot: Slot) {
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
            self.credits.release(&mut self.report);
        }
        self.slots[idx] = None;
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
        let idle = !slot.parked
            && slot.deferred > 0
            && slot.keys.is_empty()
            && slot.tcp_pending == 0
            && slot.staged == 0;
        if idle {
            slot.parked = true;
            self.parked_count += 1;
            self.credits.release(&mut self.report);
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

    /// Allocate a wire transaction id that is unique for `peer`,
    /// preferring the machine's own deterministic id.
    fn allocate_txid(&mut self, peer: SocketAddr, preferred: u16) -> Option<u16> {
        if !self.demux.contains_key(&(peer, preferred)) {
            return Some(preferred);
        }
        for _ in 0..=u16::MAX {
            let candidate = self.txid_cursor;
            self.txid_cursor = self.txid_cursor.wrapping_add(1);
            if !self.demux.contains_key(&(peer, candidate)) {
                return Some(candidate);
            }
        }
        None
    }

    /// Route a machine's emitted queries: UDP through the pacer (then
    /// the shared socket + demux table + timer wheel), TCP into the TCP
    /// table.
    fn register_out(
        &mut self,
        idx: usize,
        out: &mut Vec<OutQuery>,
        immediate: &mut Vec<ClientEvent<'static>>,
    ) {
        for oq in out.drain(..) {
            match oq.protocol {
                Protocol::Tcp => {
                    // The bytes a UDP send carries, under the machine's id.
                    let scratch = &mut self.send_scratch;
                    scratch.reset();
                    if oq.encode_into(scratch, oq.id).is_err() {
                        immediate.push(ClientEvent::TransportFailed { tag: oq.tag });
                        continue;
                    }
                    let query = scratch.as_slice().to_vec();
                    // The timeout runs from here, waiting for a
                    // connection included, on the wheel the UDP queries
                    // and the deferred sends use (and, like a deferred
                    // send, found again by its token).
                    let token = self.next_token;
                    self.next_token += 1;
                    let timer = self.wheel.arm(self.now() + oq.timeout, token, pace_key());
                    self.tcp.submit(Exchange {
                        token,
                        slot: idx,
                        tag: oq.tag,
                        sim_ip: oq.to,
                        to: (self.addr_map)(oq.to),
                        timeout: Duration::from_nanos(oq.timeout),
                        timer,
                        query,
                    });
                    if let Some(slot) = self.slots[idx].as_mut() {
                        slot.tcp_pending += 1;
                    }
                    self.report.tcp_fallbacks += 1;
                }
                Protocol::Udp => match self.pace_admit(oq.to) {
                    PaceDecision::Ready => self.stage_send(idx, oq, 0),
                    PaceDecision::Defer {
                        until,
                        host_limited,
                    } => {
                        if host_limited {
                            self.report.per_host_throttles += 1;
                        }
                        self.report.queries_deferred += 1;
                        self.defer_send(idx, oq, 0, until);
                    }
                },
            }
        }
    }

    /// Park a UDP send on the deferred queue, armed on the timer wheel
    /// for its pacer-assigned release time.
    fn defer_send(&mut self, idx: usize, oq: OutQuery, attempts: u32, release: SimTime) {
        let token = self.next_token;
        self.next_token += 1;
        let timer = self.wheel.arm(release, token, pace_key());
        self.deferred.insert(
            token,
            DeferredSend {
                slot: idx,
                generation: self.generations[idx],
                attempts,
                oq,
                timer,
            },
        );
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.deferred += 1;
        }
        // The owner may now be fully in backoff; check at the next safe
        // point (never mid-step).
        self.park_checks.push(idx);
        self.report.max_deferred_depth = self.report.max_deferred_depth.max(self.deferred.len());
    }

    /// A deferred send's release time arrived: its budget is already
    /// reserved, so it goes into the next batch flush (unless its owner
    /// retired while it was held). Releases that mature on the same wheel
    /// tick therefore coalesce into one `sendmmsg`.
    ///
    /// A *parked* owner gave its admission credit back when it went into
    /// backoff, so its send must re-lease one before touching the wire.
    /// If the pool is momentarily empty (the window is fully active
    /// elsewhere), the send is re-parked for [`CREDIT_RETRY_DELAY`] — a
    /// bounded-rate retry, counted as a credit stall.
    fn release_deferred(&mut self, mut sent: DeferredSend) {
        if self.generations[sent.slot] != sent.generation {
            return; // owner finished while the send was held
        }
        let parked = self.slots[sent.slot]
            .as_ref()
            .map(|slot| slot.parked)
            .unwrap_or(false);
        if parked {
            if self.credits.lease(&mut self.report) {
                self.parked_count -= 1;
                if let Some(slot) = self.slots[sent.slot].as_mut() {
                    slot.parked = false;
                }
            } else {
                self.report.credit_stalls += 1;
                let token = self.next_token;
                self.next_token += 1;
                sent.timer = self
                    .wheel
                    .arm(self.now() + CREDIT_RETRY_DELAY, token, pace_key());
                self.deferred.insert(token, sent);
                return;
            }
        }
        if let Some(slot) = self.slots[sent.slot].as_mut() {
            slot.deferred -= 1;
        }
        self.stage_send(sent.slot, sent.oq, sent.attempts);
    }

    /// Queue one pacer-admitted UDP send for the next batch flush.
    fn stage_send(&mut self, idx: usize, oq: OutQuery, attempts: u32) {
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.staged += 1;
        }
        self.staged.push(StagedSend {
            slot: idx,
            generation: self.generations[idx],
            attempts,
            oq,
        });
    }

    /// Flush every staged send through the batched syscall layer, looping
    /// until the stage is empty (a `TransportFailed` delivered here can
    /// make its machine emit a retry, which stages again).
    ///
    /// Each flush is three phases so no machine code runs while the batch
    /// is being assembled:
    /// 1. **prep** — per send: allocate a wire id, encode, arm the
    ///    timeout, and register the demux entry (registering *before* the
    ///    syscall is what keeps two same-tick sends to one peer from
    ///    colliding on a wire id);
    /// 2. **syscall** — one `sendmmsg` per `batch_size` datagrams (or
    ///    per-datagram sends on the fallback path);
    /// 3. **settle** — non-`Sent` datagrams roll their registration back:
    ///    backpressure requeues on the deferred queue, errors fail the
    ///    lookup.
    fn flush_staged(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        while !self.staged.is_empty() {
            // Working storage is owned by the reactor and recycled every
            // flush: the encode arena, the slot list, the prepared list,
            // and the status list all keep their capacity, so a
            // steady-state flush performs zero heap allocations.
            let mut staged = std::mem::take(&mut self.staged);
            let mut prepared = std::mem::take(&mut self.prepared);
            let mut send_slots = std::mem::take(&mut self.send_slots);
            let mut statuses = std::mem::take(&mut self.statuses);
            let mut scratch = std::mem::take(&mut self.send_scratch);
            prepared.clear();
            send_slots.clear();
            statuses.clear();
            scratch.reset();
            let mut events: Vec<(usize, u64)> = Vec::new();
            for send in staged.drain(..) {
                if self.generations[send.slot] != send.generation {
                    continue; // owner retired while the send was staged
                }
                if let Some(slot) = self.slots[send.slot].as_mut() {
                    slot.staged -= 1;
                }
                let oq = send.oq;
                let dest = (self.addr_map)(oq.to);
                // The machine's own id is never mutated: the wire carries
                // `txid`, the demux entry remembers the original.
                let Some(txid) = self.allocate_txid(dest, oq.id) else {
                    events.push((send.slot, oq.tag));
                    continue;
                };
                let start = scratch.len();
                if oq.encode_into(&mut scratch, txid).is_err() {
                    events.push((send.slot, oq.tag));
                    continue;
                }
                let len = scratch.len() - start;
                let token = self.next_token;
                self.next_token += 1;
                let key = (dest, txid);
                let timer = self.wheel.arm(self.now() + oq.timeout, token, key);
                self.demux.insert(
                    key,
                    Pending {
                        slot: send.slot,
                        tag: oq.tag,
                        sim_ip: oq.to,
                        orig_id: oq.id,
                        timer,
                    },
                );
                if let Some(slot) = self.slots[send.slot].as_mut() {
                    slot.keys.push(key);
                }
                send_slots.push((start as u32, len as u32, dest));
                prepared.push(PreparedSend {
                    slot: send.slot,
                    attempts: send.attempts,
                    key,
                    oq,
                });
            }

            if !prepared.is_empty() {
                let (batch, report) = (
                    self.batch.as_mut().expect("batch io present"),
                    &mut self.report,
                );
                let stats = batch.send_slots(
                    &self.socket,
                    scratch.as_slice(),
                    &send_slots,
                    &mut statuses,
                    &mut |fill| report.send_batch_fill.record(fill),
                );
                self.report.send_syscalls += stats.syscalls;
                self.report.datagrams_sent += stats.sent;

                for (p, status) in prepared.drain(..).zip(statuses.iter()) {
                    if matches!(status, BatchSendStatus::Sent) {
                        continue; // registration done at prep time
                    }
                    // Roll the registration back: the datagram never made
                    // it onto the wire.
                    if let Some(pending) = self.demux.remove(&p.key) {
                        self.wheel.cancel(pending.timer);
                    }
                    if let Some(slot) = self.slots[p.slot].as_mut() {
                        if let Some(pos) = slot.keys.iter().position(|k| *k == p.key) {
                            slot.keys.swap_remove(pos);
                        }
                    }
                    match status {
                        BatchSendStatus::Backpressure if p.attempts < MAX_BACKPRESSURE_RETRIES => {
                            // Retry shortly; a bounded retry keeps
                            // WouldBlock from cycling a query on the
                            // deferred queue forever with no timeout
                            // armed.
                            self.report.backpressure_requeues += 1;
                            self.defer_send(
                                p.slot,
                                p.oq,
                                p.attempts + 1,
                                self.now() + BACKPRESSURE_DELAY,
                            );
                        }
                        _ => {
                            // Sustained backpressure or a hard socket
                            // error: fail the lookup.
                            events.push((p.slot, p.oq.tag));
                        }
                    }
                }
            }

            // Restore the recycled storage *before* delivering failure
            // events: a machine reacting to one may stage a retry, which
            // must land in the capacity-retaining `staged` vector.
            self.staged = staged;
            self.prepared = prepared;
            self.send_slots = send_slots;
            self.statuses = statuses;
            self.send_scratch = scratch;
            for (idx, tag) in events {
                self.deliver(idx, ClientEvent::TransportFailed { tag }, on_done);
            }
        }
        self.process_park_checks();
    }

    /// Feed one event to the machine in `idx` and process the aftermath.
    fn deliver(
        &mut self,
        idx: usize,
        event: ClientEvent<'_>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        let Some(mut slot) = self.slots[idx].take() else {
            return; // machine already retired
        };
        let mut out = self.take_out_buf();
        let status = slot.machine.on_event(event, self.now(), &mut out);
        self.after_step(idx, slot, status, out, on_done);
    }

    /// Drain every datagram currently queued on the socket, one arena
    /// batch at a time.
    ///
    /// Hard socket errors (e.g. ICMP unreachable surfaced as
    /// ECONNREFUSED) are skipped — the per-query timer still guards the
    /// lookup — and draining continues so one error doesn't strand
    /// already-queued datagrams until the next poll round; the
    /// [`MAX_DRAIN_ERRORS`] cap stops a repeating error from spinning the
    /// loop. A *short batch* (fewer datagrams than the arena holds) is a
    /// normal drain — the queue simply emptied — and is counted in
    /// `recv_partial_batches`, never against the error cap.
    fn drain_datagrams(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        // Move the arena out so machines (stepped via `&mut self`) can be
        // handed borrowed views straight over its buffers — the zero-copy
        // receive path: no `to_vec`, no owned decode per datagram.
        let mut io = self.batch.take().expect("batch io present");
        // The server role is moved out the same way: its dispatch method
        // needs `&mut` while `self` stays borrowed for the socket and
        // report counters.
        let mut server = self.server.take();
        let mut errors = 0u32;
        'drain: loop {
            let batch = io.recv_into_arena(&self.socket);
            self.report.recv_syscalls += batch.syscalls;
            if batch.count > 0 {
                self.report.datagrams_received += batch.count as u64;
                self.report.recv_batch_fill.record(batch.count);
                if batch.count < io.batch_size() {
                    self.report.recv_partial_batches += 1;
                }
            }
            for i in 0..batch.count {
                let peer = io.arena_peer(i);
                let bytes = io.arena_bytes(i);
                // Parse up front, but touch the demux table only after
                // the datagram proves to be a well-formed response.
                let Ok(view) = MessageView::parse(bytes) else {
                    self.report.decode_errors += 1;
                    continue;
                };
                if !view.flags().response {
                    // QR=0: with a server role installed this is a client
                    // query for the serve path — the dual-role socket's
                    // inbound half. Without one, an echoed query from a
                    // reflecting server or middlebox must not complete a
                    // lookup as a response.
                    match server.as_deref_mut() {
                        Some(role) => {
                            let now = self.now();
                            role.on_udp_datagram(&self.socket, bytes, peer, now);
                        }
                        None => self.report.stale_datagrams += 1,
                    }
                    continue;
                }
                let key = (peer, view.id());
                let Some(pending) = self.demux.remove(&key) else {
                    // Late, stale, or unsolicited: exactly the datagrams
                    // the demux table exists to reject.
                    self.report.stale_datagrams += 1;
                    continue;
                };
                self.wheel.cancel(pending.timer);
                if let Some(slot) = self.slots[pending.slot].as_mut() {
                    if let Some(pos) = slot.keys.iter().position(|k| *k == key) {
                        slot.keys.swap_remove(pos);
                    }
                }
                // The machine sees its own transaction id: the view
                // overrides it without touching the arena.
                let message = MsgRef::View(view.with_id(pending.orig_id));
                self.report.datagrams_delivered += 1;
                self.pace_feedback(pending.sim_ip, true);
                let event = ClientEvent::Response {
                    tag: pending.tag,
                    from: pending.sim_ip,
                    message,
                    protocol: Protocol::Udp,
                };
                self.deliver(pending.slot, event, on_done);
            }
            match batch.err {
                None if batch.count == 0 => break 'drain, // socket drained
                None => {}                                // keep draining
                Some(_) => {
                    self.report.socket_errors += 1;
                    errors += 1;
                    if errors >= MAX_DRAIN_ERRORS {
                        break 'drain;
                    }
                }
            }
        }
        self.batch = Some(io);
        self.server = server;
    }

    /// Pump the TCP table and hand every exchange that ended to its
    /// machine.
    fn pump_tcp(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        if self.tcp.is_empty() {
            return;
        }
        let mut finished = Vec::new();
        self.tcp.pump(&mut finished);
        for (exchange, frame) in finished {
            self.wheel.cancel(exchange.timer);
            // An answer that does not parse fails the exchange as a
            // broken connection does.
            let answer = frame.as_deref().and_then(|f| MessageView::parse(f).ok());
            self.pace_feedback(exchange.sim_ip, answer.is_some());
            let event = match answer {
                Some(view) => ClientEvent::Response {
                    tag: exchange.tag,
                    from: exchange.sim_ip,
                    message: MsgRef::View(view),
                    protocol: Protocol::Tcp,
                },
                None => ClientEvent::TransportFailed { tag: exchange.tag },
            };
            self.deliver_tcp(exchange.slot, event, on_done);
        }
    }

    /// Deliver the end of one of `idx`'s TCP exchanges.
    fn deliver_tcp(
        &mut self,
        idx: usize,
        event: ClientEvent<'_>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.tcp_pending -= 1;
        }
        self.deliver(idx, event, on_done);
    }

    /// Drop every held send together with its release timer (end of run).
    fn drop_deferred(&mut self) {
        for (_, sent) in self.deferred.drain() {
            self.wheel.cancel(sent.timer);
        }
    }

    /// Fire every expired timer: deferred-send releases go to the wire,
    /// per-query timeouts go to their machines (and feed backoff).
    fn fire_timers(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.expire(self.now(), &mut fired);
        for (token, key) in fired.drain(..) {
            if let Some(sent) = self.deferred.remove(&token) {
                // Staged, not sent: every deferred release maturing on
                // this tick lands in the same upcoming batch flush.
                self.release_deferred(sent);
                continue;
            }
            if let Some(exchange) = self.tcp.take(token) {
                // Dropping the exchange closes its connection, if it
                // ever got one.
                self.report.timeouts_fired += 1;
                self.pace_feedback(exchange.sim_ip, false);
                let event = ClientEvent::Timeout { tag: exchange.tag };
                self.deliver_tcp(exchange.slot, event, on_done);
                continue;
            }
            let stale = match self.demux.get(&key) {
                Some(pending) => pending.timer.token != token,
                None => true,
            };
            if stale {
                continue;
            }
            let pending = self.demux.remove(&key).expect("checked above");
            if let Some(slot) = self.slots[pending.slot].as_mut() {
                if let Some(pos) = slot.keys.iter().position(|k| *k == key) {
                    slot.keys.swap_remove(pos);
                }
            }
            self.report.timeouts_fired += 1;
            self.pace_feedback(pending.sim_ip, false);
            self.deliver(
                pending.slot,
                ClientEvent::Timeout { tag: pending.tag },
                on_done,
            );
        }
        self.fired = fired;
    }

    /// One iteration of the serve loop: drain inbound datagrams (client
    /// queries dispatch to the server role, upstream responses to their
    /// lookup machines), collect TCP completions and timers, run the
    /// role's own listener/TCP/answer work, admit the forwarding machines
    /// that cache misses queued, and flush staged upstream sends in one
    /// batch.
    ///
    /// Public — rather than only reachable through [`Reactor::run_serve`]
    /// — so the zero-allocation suite can tick the loop on the measuring
    /// thread (allocation counters are per-thread) and benches can drive
    /// it without a stop flag.
    pub fn serve_tick(&mut self) {
        let mut on_done = |_outcome: Option<JobOutcome>| {};
        self.drain_datagrams(&mut on_done);
        self.pump_tcp(&mut on_done);
        self.fire_timers(&mut on_done);
        if let Some(mut role) = self.server.take() {
            let now = self.now();
            role.poll(&self.socket, now);
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
    /// counterpart to [`Driver::run_scan`] for a reactor with a server
    /// role installed. Sleeps between ticks on the same readiness/timer
    /// logic as a scan, capped tighter while the role has work the
    /// reactor's own socket cannot signal (a dedicated `SO_REUSEPORT`
    /// listener, live TCP connections, queued answers).
    pub fn run_serve(&mut self, stop: &AtomicBool) -> DriverReport {
        self.report = DriverReport::default();
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
            self.idle_wait(wait_ns.div_ceil(MILLIS).clamp(1, 50) as i32, false);
        }

        // Same end-of-run hygiene as a scan: machines still forwarding
        // are abandoned (their clients will retry) and deferred sends are
        // dropped with their release timers, so the reactor can be reused.
        self.drop_deferred();

        self.report.io_backend = self.io_backend();
        self.report.clone()
    }

    /// Sleep until the reactor's socket is readable or `wait_ms` passes —
    /// the one idle wait of the scan and serve loops. A scan whose source
    /// just ran dry (`starved`) sleeps on its [`Doorbell`] too, and reads
    /// away the rings that woke it.
    fn idle_wait(&self, wait_ms: i32, starved: bool) {
        let bell = self.bell.as_deref().filter(|_| starved);
        #[cfg(unix)]
        let (fd, bell_fd) = (
            std::os::fd::AsRawFd::as_raw_fd(&self.socket),
            bell.map(|b| std::os::fd::AsRawFd::as_raw_fd(&b.ends.1)),
        );
        #[cfg(not(unix))]
        let (fd, bell_fd) = (0, None);
        if readiness::wait_readable(fd, bell_fd, wait_ms) {
            bell.map(Doorbell::silence);
        }
    }
}

/// What another thread rings to cut short the sleep of a reactor whose
/// machine source ran dry: the scan pipeline's feeder rings its workers'
/// bells after every name it queues. A reactor with nothing in flight that
/// finds its source empty ([`Admission::Later`]) marks its bell, asks the
/// source once more, and then sleeps on its socket and the bell; a ring
/// wakes it at once, where it used to find the name only when its poll
/// timed out. The second look is what keeps a ring from being lost: a
/// source that takes its names from a locked queue either sees a name
/// queued before that look, or its feeder, having queued the name after
/// it, sees the mark. A reactor with lookups in flight does not mark its
/// bell: their answers wake it, and it takes what was queued meanwhile a
/// batch at a time, not one name per wake-up.
///
/// A ring writes one octet, and only to a reactor that marked its bell
/// and has not been rung since; otherwise it is one atomic load, so a scan
/// whose workers always have lookups in flight pays no system call for
/// its bells.
pub struct Doorbell {
    /// Set by the reactor when its source ran dry; cleared by the ring
    /// that wakes it.
    starved: AtomicBool,
    /// The end [`Doorbell::ring`] writes to, and the end the reactor
    /// polls and reads.
    #[cfg(unix)]
    ends: (
        std::os::unix::net::UnixStream,
        std::os::unix::net::UnixStream,
    ),
}

impl Doorbell {
    /// A bell for [`Reactor::set_doorbell`]: a connected pair of
    /// non-blocking local sockets.
    pub fn new() -> std::io::Result<Doorbell> {
        #[cfg(unix)]
        let ends = {
            let (ring, wake) = std::os::unix::net::UnixStream::pair()?;
            ring.set_nonblocking(true)?;
            wake.set_nonblocking(true)?;
            (ring, wake)
        };
        Ok(Doorbell {
            starved: AtomicBool::new(false),
            #[cfg(unix)]
            ends,
        })
    }

    /// Wake the reactor if it is waiting for its source; returns whether
    /// it was.
    pub fn ring(&self) -> bool {
        if !(self.starved.load(Ordering::SeqCst) && self.starved.swap(false, Ordering::SeqCst)) {
            return false;
        }
        // A full socket buffer already holds a ring the reactor will read.
        #[cfg(unix)]
        let _ = std::io::Write::write(&mut &self.ends.0, &[1]);
        true
    }

    /// Mark the bell: the reactor's source ran dry. Returns whether it was
    /// marked already (and not rung since).
    fn mark_starved(&self) -> bool {
        self.starved.swap(true, Ordering::SeqCst)
    }

    /// Read away the rings that are waiting.
    fn silence(&self) {
        #[cfg(unix)]
        {
            let mut rings = [0u8; 64];
            while let Ok(n) = std::io::Read::read(&mut &self.ends.1, &mut rings) {
                if n < rings.len() {
                    break;
                }
            }
        }
    }
}

impl Driver for Reactor {
    fn run_scan(
        &mut self,
        source: &mut dyn FnMut() -> Admission,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) -> DriverReport {
        self.run_scan_with(source, on_done, &mut || {})
    }
}

impl Reactor {
    /// The scan loop — [`Driver::run_scan`] plus a third callback,
    /// `hand_off`, for callers that collect what completions produce
    /// (through `on_done`, or through the machines' own sinks) into a
    /// block and pass it on a block at a time. The loop calls it wherever
    /// a collected block would otherwise sit and wait: before every sleep,
    /// at the end of every pass over the socket, the TCP table and the
    /// timers, and once more when the scan is over. The caller may also
    /// pass a block on from inside a completion once it is full; a
    /// `hand_off` that blocks (a full queue downstream) stalls this
    /// reactor, which is how a slow consumer throttles admission.
    pub fn run_scan_with(
        &mut self,
        source: &mut dyn FnMut() -> Admission,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
        hand_off: &mut dyn FnMut(),
    ) -> DriverReport {
        // A reactor is reusable; each scan reports its own counts.
        self.report = DriverReport::default();
        let mut exhausted = false;
        loop {
            // Admission: top the window up from the source, one leased
            // credit per machine. Parked machines cost slots but no
            // window, so the hosting cap is `max_in_flight` *active*
            // machines plus up to `max_parked` parked ones.
            let mut starved = false;
            while !exhausted && self.admittable() && self.lease_admission() {
                match source() {
                    Admission::Admit(machine) => self.admit(machine, on_done),
                    Admission::Later => {
                        // With nothing in flight, nothing but the bell can
                        // wake this reactor before its poll times out: mark
                        // it, then look once more (see `Doorbell`). With
                        // lookups in flight, their answers wake it to the
                        // names queued meanwhile, a batch at a time.
                        let bell = self.bell.as_ref().filter(|_| self.in_flight == 0);
                        starved = bell.is_some();
                        if bell.is_some_and(|bell| !bell.mark_starved()) {
                            continue;
                        }
                        break;
                    }
                    Admission::Exhausted => exhausted = true,
                }
            }
            if exhausted {
                // No more inputs will ever need the pre-leased spare.
                if std::mem::take(&mut self.credits.spare) {
                    self.credits.release(&mut self.report);
                }
                // Nor will fresh admissions need the token block: the
                // drain phase re-leases on demand if retries crop up.
                self.return_pacer_tokens();
            }
            if self.in_flight == 0 && exhausted {
                break;
            }

            // Flush the admission burst in one batch before sleeping —
            // nothing would ever answer an unsent query.
            self.flush_staged(on_done);
            if self.in_flight == 0 && exhausted {
                break;
            }

            // Sleep until the next timer tick could fire, capped so the
            // TCP table (whose sockets this wait does not watch) and a
            // refilling source are looked at promptly.
            let now = self.now();
            let mut wait_ns = self.wheel.ns_until_next_tick(now).unwrap_or(5 * MILLIS);
            if !self.tcp.is_empty() || !exhausted {
                wait_ns = wait_ns.min(2 * MILLIS);
            }
            let wait_ms = wait_ns.div_ceil(MILLIS).clamp(0, 50) as i32;
            if self.in_flight > 0 || !exhausted {
                // Admission and the flush above can complete lookups
                // (bad input, a send that fails outright).
                hand_off();
                self.idle_wait(wait_ms, starved);
            }

            self.drain_datagrams(on_done);
            self.pump_tcp(on_done);
            self.fire_timers(on_done);
            // Same-tick coalescing: retries emitted by responses and
            // timeouts above, plus deferred releases that just matured,
            // all go out in one sendmmsg.
            self.flush_staged(on_done);
            hand_off();
            debug_assert_eq!(
                self.wheel.stored(),
                self.wheel.live(),
                "the wheel stores only armed timers"
            );
        }
        // The last pass can end in admission (every remaining input was
        // bad) with completions still in the caller's hands.
        hand_off();
        debug_assert!(self.staged.is_empty(), "staged sends leaked past the scan");
        debug_assert!(self.tcp.is_empty(), "TCP exchanges leaked past the scan");
        debug_assert!(
            self.credits.held == 0 && self.parked_count == 0,
            "credits leaked past the scan"
        );

        // End-of-run hygiene: every slot is free, the demux table is empty,
        // and deferred sends whose owners retired are dropped with their
        // release timers, so nothing leaks into the next scan on this
        // reactor.
        self.drop_deferred();
        debug_assert_eq!(self.wheel.live(), 0, "timers leaked past the scan");
        self.return_pacer_tokens();

        self.report.io_backend = self.io_backend();
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16) -> DemuxKey {
        ("127.0.0.1:53".parse().unwrap(), n)
    }

    #[test]
    fn wheel_fires_in_deadline_order_windows() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        wheel.arm(2 * MILLIS, 1, key(1));
        wheel.arm(5 * MILLIS, 2, key(2));
        let mut fired = Vec::new();
        wheel.expire(3 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1]);
        wheel.expire(6 * MILLIS, &mut fired);
        assert_eq!(
            fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(wheel.live(), 0);
    }

    #[test]
    fn wheel_cancellation_unlinks_at_once() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        let first = wheel.arm(2 * MILLIS, 1, key(1));
        wheel.arm(2 * MILLIS, 2, key(2));
        assert!(wheel.cancel(first));
        assert_eq!((wheel.live(), wheel.stored()), (1, 1));
        let mut fired = Vec::new();
        wheel.expire(4 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![2]);
        assert_eq!((wheel.live(), wheel.stored()), (0, 0));
    }

    #[test]
    fn wheel_parks_beyond_horizon_and_still_fires() {
        let mut wheel = TimerWheel::new(4, MILLIS); // horizon = 4ms
        wheel.arm(11 * MILLIS, 7, key(7));
        let mut fired = Vec::new();
        wheel.expire(10 * MILLIS, &mut fired);
        assert!(fired.is_empty(), "{fired:?}");
        assert_eq!(wheel.live(), 1);
        wheel.expire(12 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![7]);
        assert_eq!(wheel.live(), 0);
    }

    #[test]
    fn wheel_cancel_after_fire_is_a_noop() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        let first = wheel.arm(2 * MILLIS, 1, key(1));
        let second = wheel.arm(2 * MILLIS, 2, key(2));
        let mut fired = Vec::new();
        wheel.expire(4 * MILLIS, &mut fired);
        assert_eq!(fired.len(), 2);
        assert_eq!(wheel.live(), 0);
        // A machine retiring right after its timers fired in the same batch
        // cancels handles that are no longer armed — and whose node the
        // next timer has taken: must cancel nothing.
        wheel.arm(6 * MILLIS, 3, key(3));
        assert!(!wheel.cancel(first));
        assert!(!wheel.cancel(second));
        assert_eq!((wheel.live(), wheel.stored()), (1, 1));
        fired.clear();
        wheel.expire(8 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![3]);
        assert_eq!((wheel.stored(), wheel.slab_len()), (0, 2));
    }

    #[test]
    fn txid_allocation_avoids_collisions() {
        let addr_map: Arc<AddrMap> = Arc::new(|ip| SocketAddr::new(std::net::IpAddr::V4(ip), 53));
        let mut reactor = Reactor::new(
            ReactorConfig {
                source: Ipv4Addr::LOCALHOST,
                ..ReactorConfig::default()
            },
            addr_map,
        )
        .unwrap();
        let peer: SocketAddr = "127.0.0.1:5300".parse().unwrap();
        assert_eq!(reactor.allocate_txid(peer, 42), Some(42));
        reactor.demux.insert(
            (peer, 42),
            Pending {
                slot: 0,
                tag: 1,
                sim_ip: Ipv4Addr::LOCALHOST,
                orig_id: 42,
                timer: reactor.wheel.arm(MILLIS, 0, (peer, 42)),
            },
        );
        let other = reactor.allocate_txid(peer, 42).unwrap();
        assert_ne!(other, 42);
        // A different peer can reuse the same wire id freely.
        let peer2: SocketAddr = "127.0.0.1:5301".parse().unwrap();
        assert_eq!(reactor.allocate_txid(peer2, 42), Some(42));
    }

    #[test]
    fn serve_sheds_misses_beyond_its_window_and_gets_the_window_back() {
        use crate::clock::Clock;
        use crate::config::ResolverConfig;
        use crate::resolver::Resolver;
        use crate::serve::ServeConfig;
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
                wheel_granularity: MILLIS,
                epoch: Some(epoch),
                ..ReactorConfig::default()
            },
            Arc::new(move |_| upstream),
        )
        .unwrap();
        reactor.set_server_role(ServerRole::new(
            Resolver::new(config),
            Clock::from_epoch(epoch),
            ServeConfig::default(),
        ));
        let stats = reactor.server_stats().unwrap();
        let listen = reactor.local_addr().unwrap();
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
}
