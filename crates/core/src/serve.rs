//! The reactor's server role: `zdns serve`'s engine-side half.
//!
//! A [`ServerRole`] is the server half of a serve worker: it owns the
//! worker's UDP and TCP listeners on the serve port, while the reactor it
//! is installed in keeps its own socket for upstream traffic. Each query
//! drained from a listener walks the serve dataflow:
//!
//! ```text
//! listener → per-client token bucket → packet cache probe → [hot hit:
//!   memcpy] / → record cache probe → [hit: canonical encode (+ memoize)]
//!   / [miss: forwarding machine behind the same reactor → canonical
//!   encode] → finish_reply → reply arena → one batched send per tick
//! ```
//!
//! * **One reply writer** — every reply, whichever path produced it
//!   (packet hit, record hit, FORMERR, forwarded answer over UDP or
//!   TCP), starts as a canonical message in the role's scratch: ID 0, no
//!   cookie, a bare OPT record as its last [`OPT_TAIL_LEN`] octets.
//!   `finish_reply` is the one place it is finished for its client:
//!   ID, flags, OPT trim or cookie splice, and all-or-nothing truncation
//!   to the client's UDP payload.
//! * **Fairness gate** — a [`ClientBuckets`] table (response-rate-limiting
//!   flavor: over-budget UDP queries are dropped, never queued; TCP is the
//!   client's escape hatch and is never gated).
//! * **Packet front** — repeat queries are answered from the
//!   [`PacketCache`], a memo in front of the writer: a record hit's
//!   canonical bytes are memoized, one entry per name whatever its
//!   spelling, and a hot hit is a memcpy, the writer's patch, and the
//!   client's own question octets laid over the question section — no
//!   shard lock, no record iteration, no per-record encode.
//!   `packet_cache_capacity: 0` memoizes nothing.
//! * **Cache front** — remaining hits are answered from the resolver's
//!   selective [`Cache`](crate::cache::Cache) via the non-cloning
//!   [`with_records`](crate::cache::Cache::with_records) accessor and
//!   encoded out of the entry's wire-shaped block straight into a
//!   reusable [`ScratchBuf`]: both hit paths perform zero heap
//!   allocations at steady state, memoized or not (the `zero_alloc`
//!   suite enforces it). One key hash per query serves both probes.
//! * **Forwarding behind** — misses admit an ordinary lookup machine
//!   (External-mode stub + CNAME chase) into the *same* reactor; its
//!   result sink fills the cache and parks the answer on a pending queue
//!   the next [`Reactor::serve_tick`](crate::reactor::Reactor::serve_tick)
//!   drains back to the client.
//! * **TCP serving** — a non-blocking listener plus a connection table on
//!   the same event loop, each connection a [`FramedConn`] (the framing
//!   the reactor's own TCP fallback and the loopback wire server pump
//!   through too), with a per-tick read budget, at most `MAX_TCP_CONNS`
//!   connections (more are shed at accept) and a reap after `TCP_IDLE`
//!   of silence. UDP replies that exceed the client's advertised payload
//!   size — hits and forwarded answers alike — come back empty with TC
//!   set, so the client retries here.
//!
//! Time is real: a [`Clock`] maps monotonic wall time into the `SimTime`
//! nanosecond domain the cache, buckets, and timer wheel already speak.

use std::cmp::Reverse;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use zdns_netsim::{FramedConn, SimClient, SimTime, SECONDS};
use zdns_pacing::ClientBuckets;
use zdns_wire::{
    cookie_option_len, min_answer_ttl, write_cookie_option, Cookie, Edns, Flags, Header, Message,
    MessageView, Name, Question, Rcode, RcodeField, RecordClass, RecordType, ScratchBuf,
};

use crate::cache::{key_hash, CacheKey, CachedRecords};
use crate::clock::Clock;
use crate::machine::ResultSink;
use crate::packet_cache::{PacketCache, PacketEntry, PacketLookup, OPT_TAIL_LEN};
use crate::resolver::Resolver;
use crate::result::LookupResult;
use crate::status::Status;
use crate::transport::{BatchIo, BatchSendStatus, IoBackend, SendSlot};

/// The serve-mode server cookie (RFC 7873): appended to every echoed
/// client cookie. Deterministic so tests can assert the echo end-to-end;
/// distinct from the netsim fixture's `ZDNSSRVR`.
pub const SERVER_COOKIE: [u8; 8] = *b"ZDNSSERV";

/// Minimum UDP payload size assumed for clients that advertise none
/// (RFC 1035 classic limit).
const MIN_UDP_PAYLOAD: usize = 512;

/// Ceiling on bytes read from one TCP connection per tick, so a
/// fire-hosing client cannot starve its neighbours on the shared loop.
const TCP_READ_BUDGET: usize = 64 * 1024;

/// Hard cap on tracked client buckets (see [`ClientBuckets`]).
const CLIENT_CAPACITY: usize = 4_096;

/// Most TCP connections one worker keeps open; more are shed at accept.
const MAX_TCP_CONNS: usize = 64;

/// Silence after which a TCP connection is reaped.
const TCP_IDLE: SimTime = 10 * SECONDS;

/// Datagrams drained from the UDP listener per tick: the depth of its
/// batch layer's receive arena.
const MAX_DATAGRAMS_PER_TICK: usize = 256;

/// Default packet-cache slot count ([`ServeConfig::packet_cache_capacity`]).
pub const DEFAULT_PACKET_CACHE_CAPACITY: usize = 65_536;

/// Tunables for one server role.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-client UDP query budget (tokens/second). `0` disables the gate.
    pub client_pps: f64,
    /// Slots in the shared pre-encoded packet cache riding in front of
    /// the record cache. `0` disables it, keeping the scratch-encode path
    /// as the A/B lever.
    pub packet_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            client_pps: 0.0,
            packet_cache_capacity: DEFAULT_PACKET_CACHE_CAPACITY,
        }
    }
}

/// Serve-side counters, shared (`Arc`) with whoever started the worker.
#[derive(Debug, Default)]
pub struct ServeStats {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    forwarded: AtomicU64,
    responses: AtomicU64,
    truncated: AtomicU64,
    rate_limited: AtomicU64,
    overloaded: AtomicU64,
    malformed: AtomicU64,
    tcp_accepted: AtomicU64,
    tcp_closed: AtomicU64,
    packet_hits: AtomicU64,
    packet_fills: AtomicU64,
    packet_expired: AtomicU64,
    /// The fleet-shared packet cache, linked so `packet_invalidations`
    /// can be read off the same stats handle as the other counters.
    packet: OnceLock<Arc<PacketCache>>,
}

macro_rules! stat_reader {
    ($(#[$doc:meta] $name:ident),* $(,)?) => {
        $(#[$doc]
        pub fn $name(&self) -> u64 {
            self.$name.load(Ordering::Relaxed)
        })*
    };
}

impl ServeStats {
    stat_reader! {
        /// Well-formed queries received (UDP + TCP).
        queries,
        /// Queries answered straight from the cache.
        cache_hits,
        /// Queries forwarded to an upstream via a lookup machine.
        forwarded,
        /// Responses sent (UDP datagrams + TCP frames queued).
        responses,
        /// UDP responses sent with TC set (client should retry over TCP).
        truncated,
        /// UDP queries dropped by the per-client token bucket.
        rate_limited,
        /// Queries dropped because the forwarding window was full.
        overloaded,
        /// Datagrams/frames that failed to parse as a DNS query.
        malformed,
        /// TCP connections accepted.
        tcp_accepted,
        /// TCP connections closed (error, EOF, idle reap, or cap).
        tcp_closed,
        /// Cache hits served straight from a pre-encoded packet.
        packet_hits,
        /// Canonical responses memoized into the packet cache.
        packet_fills,
        /// Packet lookups that found an entry past its TTL deadline.
        packet_expired,
    }

    /// Packet entries dropped because the record cache promoted a fresher
    /// RRset. The packet cache (and this counter) is shared by the whole
    /// fleet — sum the per-worker readers above, but take this one from
    /// any single worker.
    pub fn packet_invalidations(&self) -> u64 {
        self.packet.get().map_or(0, |pc| pc.invalidations())
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a query arrived and where its answer must go back.
#[derive(Debug, Clone, Copy)]
enum Via {
    Udp,
    Tcp { slot: usize, generation: u64 },
}

/// What [`finish_reply`] patches a canonical reply with for one client:
/// the query's ID and flags, whether it carried EDNS, the cookie to echo
/// and the payload limit (unbounded over TCP).
#[derive(Debug, Clone, Copy)]
struct Client {
    id: u16,
    flags: Flags,
    edns: bool,
    cookie: Option<Cookie>,
    udp_limit: usize,
}

/// Everything needed to answer a forwarded query once its lookup machine
/// finishes.
struct ClientContext {
    peer: SocketAddr,
    via: Via,
    question: Question,
    client: Client,
}

/// A finished forwarded lookup waiting for the serve tick to encode and
/// send its response.
struct PendingAnswer {
    ctx: ClientContext,
    result: LookupResult,
}

/// A tick's UDP replies, laid end to end in one reused arena, with where
/// each goes and how its send ended.
#[derive(Default)]
struct Replies {
    bytes: Vec<u8>,
    slots: Vec<SendSlot>,
    statuses: Vec<BatchSendStatus>,
}

/// What [`ServerRole::handle_query`] decided about one inbound query.
enum HandleOutcome {
    /// A response was encoded into the role's scratch buffer; the caller
    /// sends `scratch.message_bytes()` back over the query's transport.
    Respond,
    /// A forwarding machine was queued for admission; the answer comes
    /// back through the pending queue later.
    Forwarded,
    /// Gated, malformed, or otherwise dropped — nothing to send.
    Dropped,
}

struct TcpConn {
    framed: FramedConn<TcpStream>,
    peer: SocketAddr,
    last_seen: SimTime,
}

/// The server half of a serve worker's reactor: fairness gate, cache
/// front, forwarding queue, and the TCP connection table. Install one
/// with [`Reactor::set_server_role`](crate::reactor::Reactor::set_server_role)
/// and drive it with [`Reactor::serve_tick`](crate::reactor::Reactor::serve_tick)
/// or [`Reactor::run_serve`](crate::reactor::Reactor::run_serve).
pub struct ServerRole {
    resolver: Resolver,
    clock: Clock,
    gate: ClientBuckets,
    /// Fleet-shared pre-encoded answer cache (`None` = disabled, the
    /// scratch-encode A/B lever).
    packet: Option<Arc<PacketCache>>,
    stats: Arc<ServeStats>,
    pending: Arc<Mutex<Vec<PendingAnswer>>>,
    admissions: Vec<Box<dyn SimClient>>,
    /// The UDP listener. `None` only for a role driven through
    /// [`ServerRole::handle_datagram`] alone.
    listener: Option<UdpSocket>,
    /// The batch layer the listener is drained and answered through,
    /// built when the role is installed in a reactor, with its backend.
    listener_io: Option<BatchIo>,
    /// This tick's UDP replies, end to end, sent once per tick.
    replies: Replies,
    tcp: Option<TcpListener>,
    conns: Vec<Option<TcpConn>>,
    conn_generations: Vec<u64>,
    scratch: ScratchBuf,
}

impl ServerRole {
    /// Build a server role around a forwarding resolver (External mode
    /// pointing at the upstreams) and a real-time clock.
    pub fn new(resolver: Resolver, clock: Clock, config: ServeConfig) -> ServerRole {
        let gate = ClientBuckets::new(config.client_pps, CLIENT_CAPACITY);
        // The packet cache lives on the shared record cache so every
        // worker of a fleet sees one table, and `Cache::put` can
        // invalidate memoized answers at promotion time.
        let packet = (config.packet_cache_capacity > 0).then(|| {
            resolver
                .core()
                .cache
                .attach_packet_cache(config.packet_cache_capacity)
        });
        let stats = Arc::new(ServeStats::default());
        if let Some(pc) = &packet {
            let _ = stats.packet.set(Arc::clone(pc));
        }
        ServerRole {
            resolver,
            clock,
            gate,
            packet,
            stats,
            pending: Arc::new(Mutex::new(Vec::new())),
            admissions: Vec::new(),
            listener: None,
            listener_io: None,
            tcp: None,
            conns: Vec::new(),
            conn_generations: Vec::new(),
            scratch: ScratchBuf::new(),
            replies: Replies::default(),
        }
    }

    /// Attach the UDP listener (a serve fleet gives each worker its own,
    /// one of an `SO_REUSEPORT` group when sharded, while the reactor
    /// keeps its ephemeral upstream socket). UDP answers leave from it.
    pub fn with_udp_listener(mut self, socket: UdpSocket) -> std::io::Result<ServerRole> {
        socket.set_nonblocking(true)?;
        zdns_netsim::set_recv_buffer(&socket, 8 << 20);
        self.listener = Some(socket);
        Ok(self)
    }

    /// Build the UDP listener's batch layer with `backend`'s syscalls:
    /// the reactor the role is installed in passes its own.
    pub(crate) fn use_backend(&mut self, backend: IoBackend) {
        self.listener_io = self
            .listener
            .as_ref()
            .map(|_| BatchIo::with_backend(backend, MAX_DATAGRAMS_PER_TICK));
    }

    /// Attach a non-blocking TCP listener serviced on the same event loop.
    pub fn with_tcp_listener(mut self, listener: TcpListener) -> std::io::Result<ServerRole> {
        listener.set_nonblocking(true)?;
        self.tcp = Some(listener);
        Ok(self)
    }

    /// The shared counters for this role.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// The clock this role (and its cache fills) runs on.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The forwarding resolver behind the listener.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Count a query dropped because the reactor's forwarding window was
    /// full (the admission loop could not host its machine).
    pub(crate) fn note_overload(&self) {
        ServeStats::bump(&self.stats.overloaded);
    }

    /// Pop one forwarding machine queued by a cache miss.
    pub(crate) fn pop_admission(&mut self) -> Option<Box<dyn SimClient>> {
        self.admissions.pop()
    }

    /// Whether the role has work no poll of its listeners can signal:
    /// live TCP connections, or queued answers/admissions. Callers cap
    /// their sleep when this is true.
    pub(crate) fn wants_fast_tick(&self) -> bool {
        self.conns.iter().any(Option::is_some)
            || !self.admissions.is_empty()
            || !self.pending.lock().is_empty()
    }

    /// The UDP and TCP listeners' descriptors (`-1` for one not
    /// attached), for the reactor's idle wait.
    #[cfg(unix)]
    pub(crate) fn listener_fds(&self) -> [std::os::fd::RawFd; 2] {
        use std::os::fd::AsRawFd;
        [
            self.listener.as_ref().map_or(-1, AsRawFd::as_raw_fd),
            self.tcp.as_ref().map_or(-1, AsRawFd::as_raw_fd),
        ]
    }

    /// Transport-free serve entry: run one raw UDP query through the full
    /// gate → packet cache → record cache dataflow and return the encoded
    /// response (borrowed from the role's scratch buffer) if one was
    /// produced immediately. Forwarded and dropped queries return `None`.
    /// This is the seam benches and tests use to measure the hot path
    /// without a socket send per query.
    pub fn handle_datagram(&mut self, raw: &[u8], peer: SocketAddr, now: SimTime) -> Option<&[u8]> {
        match self.handle_query(raw, peer, Via::Udp, now) {
            HandleOutcome::Respond => Some(self.scratch.message_bytes()),
            _ => None,
        }
    }

    /// Per-tick role work: drain the UDP listener and accept on the TCP
    /// one where `ready` (in [`ServerRole::listener_fds`]' order) says
    /// they have something, service the TCP connections, flush finished
    /// forwarded answers, and send the tick's UDP replies.
    pub(crate) fn poll(&mut self, now: SimTime, ready: [bool; 2]) {
        let [datagrams, connections] = ready;
        if datagrams {
            self.drain_listener(now);
        }
        self.pump_tcp(now, connections);
        self.flush_answers(now);
        self.send_replies();
    }

    /// Answer up to one arena of queued datagrams from the listener.
    fn drain_listener(&mut self, now: SimTime) {
        let (Some(listener), Some(mut io)) = (&self.listener, self.listener_io.take()) else {
            return;
        };
        let batch = io.recv_into_arena(listener);
        for i in 0..batch.count {
            let (raw, peer) = (io.arena_bytes(i), io.arena_peer(i));
            if let HandleOutcome::Respond = self.handle_query(raw, peer, Via::Udp, now) {
                self.stage_reply(peer);
            }
        }
        self.listener_io = Some(io);
    }

    /// Queue the reply in the scratch for `peer`, counting it now: a
    /// client that has the answer in hand (and a test reading the
    /// counter) must never observe the response as uncounted.
    fn stage_reply(&mut self, peer: SocketAddr) {
        ServeStats::bump(&self.stats.responses);
        let bytes = self.scratch.message_bytes();
        let replies = &mut self.replies;
        replies
            .slots
            .push((replies.bytes.len() as u32, bytes.len() as u32, peer));
        replies.bytes.extend_from_slice(bytes);
    }

    /// Send the tick's UDP replies in one flush of the listener's batch
    /// layer, grouped by client and by length, longest first (in arrival
    /// order within a group). A client's longest group then leaves as one
    /// segmented send with the next group's first reply as its shorter
    /// tail, and so does each group behind it that still holds two
    /// replies; the first lone reply takes the rest of the flush by
    /// `sendmmsg`. Clients match replies by ID, so the order across
    /// groups is free.
    ///
    /// A full send buffer holds the tick once: the flush waits up to
    /// 1 ms for room (the batch layer's one writability wait per flush),
    /// then drops what the socket still refuses, as a lost datagram
    /// would be. A per-reply `send_to` would drop at once instead; the
    /// wait happens only while the socket is already saturated, when a
    /// dropped reply costs its client a retry after its timeout.
    fn send_replies(&mut self) {
        let Replies {
            bytes,
            slots,
            statuses,
        } = &mut self.replies;
        let listener = match (&self.listener, &mut self.listener_io) {
            (Some(listener), Some(io)) if !slots.is_empty() => Some((listener, io)),
            _ => None,
        };
        if let Some((listener, io)) = listener {
            slots.sort_unstable_by_key(|&(start, len, peer)| (peer, Reverse(len), start));
            statuses.clear();
            io.send_slots(listener, bytes, slots, statuses, &mut |_| {});
        }
        bytes.clear();
        slots.clear();
    }

    /// Parse, gate, probe the cache, and either answer or forward one
    /// query. On [`HandleOutcome::Respond`] the encoded reply sits in
    /// `self.scratch` ([`ScratchBuf::message_bytes`]).
    fn handle_query(
        &mut self,
        raw: &[u8],
        peer: SocketAddr,
        via: Via,
        now: SimTime,
    ) -> HandleOutcome {
        let Ok(view) = MessageView::parse(raw) else {
            ServeStats::bump(&self.stats.malformed);
            return HandleOutcome::Dropped;
        };
        if view.flags().response {
            // A response reaching a listener is noise, not a query.
            ServeStats::bump(&self.stats.malformed);
            return HandleOutcome::Dropped;
        }
        ServeStats::bump(&self.stats.queries);

        // Response-rate-limiting flavor: UDP only — dropping (not queueing)
        // over-budget clients caps reflection amplification, and TCP is
        // exactly the retry path we want abusers pushed onto.
        if matches!(via, Via::Udp) {
            if let IpAddr::V4(client) = peer.ip() {
                if !self.gate.admit(client, now) {
                    ServeStats::bump(&self.stats.rate_limited);
                    return HandleOutcome::Dropped;
                }
            }
        }

        let client = Client {
            id: view.id(),
            flags: view.flags(),
            edns: view.has_edns(),
            cookie: view.cookie().map(|c| c.echo(SERVER_COOKIE)),
            udp_limit: match via {
                Via::Udp => (view.udp_payload_size().unwrap_or(0) as usize).max(MIN_UDP_PAYLOAD),
                Via::Tcp { .. } => usize::MAX,
            },
        };

        let Some(qv) = view.question() else {
            // No question to answer: FORMERR with an empty question section.
            let formerr = Message {
                rcode: RcodeField(Rcode::FormErr),
                ..Message::default()
            };
            self.finish_message(formerr, &client);
            return HandleOutcome::Respond;
        };
        // Alloc-free for names within the inline bound — the common case.
        let qname = qv.name.to_name();
        // One hash for both cache layers.
        let hash = key_hash(&qname, qv.qtype);

        // Packet front: a memoized answer skips the shard lock, the
        // record walk, and the encode — memcpy, the client's patch, and
        // the question echo. IN-class only, matching the record cache's
        // implicit keying, and only for a question name sent in the plain
        // (`echo`: the client's spelling, to lay over the entry's) — a
        // compressed one has no octets of the entry's length to echo.
        // Anything else falls through to the record path, and is not
        // memoized there either.
        let echo = qv.name.wire_bytes();
        let packet = match (&self.packet, echo) {
            (Some(pc), Some(echo)) if qv.qclass == RecordClass::IN => Some((pc, echo)),
            _ => None,
        };
        if let Some((pc, echo)) = packet {
            match pc.lookup_hashed(hash, &qname, qv.qtype, now) {
                PacketLookup::Hit(entry) => {
                    let truncated = entry.serve_into(
                        &mut self.scratch,
                        client.id,
                        client.flags,
                        client.edns,
                        client.cookie.as_ref(),
                        client.udp_limit,
                    );
                    self.scratch.patch_bytes(QUESTION_AT, echo);
                    ServeStats::bump(&self.stats.cache_hits);
                    ServeStats::bump(&self.stats.packet_hits);
                    if truncated {
                        ServeStats::bump(&self.stats.truncated);
                    }
                    return HandleOutcome::Respond;
                }
                PacketLookup::Expired => ServeStats::bump(&self.stats.packet_expired),
                PacketLookup::Miss => {}
            }
        }

        // Cache front: encode the hit canonically straight off the shared
        // entry, under the shard lock, with no cloning and no LRU touch;
        // memoizing and the client's patch both happen after the lock
        // drops.
        let scratch = &mut self.scratch;
        let hit = self.resolver.core().cache.with_records_hashed(
            hash,
            &qname,
            qv.qtype,
            now,
            |records: &CachedRecords, expires: SimTime| {
                encode_sections(scratch, &qname, qv.qtype, qv.qclass, records);
                expires
            },
        );
        if let Some(expires) = hit {
            if let Some((pc, _)) = packet {
                // Memoize before answering: even when this UDP reply must
                // truncate, the full canonical answer is already cached,
                // so the client's TCP retry hits the packet path. The
                // deadline is the record entry's own expiry, capped by
                // the encoded answers' minimum TTL.
                let min_ttl = min_answer_ttl(self.scratch.message_bytes()).unwrap_or(0);
                let deadline = expires.min(now + u64::from(min_ttl) * SECONDS);
                let bytes = self.scratch.message_bytes();
                pc.fill(Arc::new(PacketEntry::new(qname, qv.qtype, deadline, bytes)));
                ServeStats::bump(&self.stats.packet_fills);
            }
            ServeStats::bump(&self.stats.cache_hits);
            self.finish(&client);
            return HandleOutcome::Respond;
        }

        // Miss: forward through an ordinary lookup machine on this same
        // reactor. The sink fills the cache and parks the answer for the
        // next serve tick. Allocation here is fine — this is the cold path
        // the cache exists to make rare.
        let question = Question {
            name: qname,
            qtype: qv.qtype,
            qclass: qv.qclass,
        };
        let ctx = ClientContext {
            peer,
            via,
            question: question.clone(),
            client,
        };
        let ctx_cell = Mutex::new(Some(ctx));
        let pending = Arc::clone(&self.pending);
        let core = Arc::clone(self.resolver.core());
        let clock = self.clock;
        let sink: ResultSink = Arc::new(move |result: LookupResult| {
            if result.status == Status::NoError && !result.answers.is_empty() {
                // Promotion-time cache fill; `put` itself refuses types the
                // selective cache does not admit.
                core.cache.put(
                    CacheKey {
                        name: result.name.clone(),
                        rtype: result.qtype,
                    },
                    &result.answers,
                    clock.now(),
                );
            }
            if let Some(ctx) = ctx_cell.lock().take() {
                pending.lock().push(PendingAnswer { ctx, result });
            }
        });
        let machine = self.resolver.machine(question, Some(sink));
        self.admissions.push(machine);
        ServeStats::bump(&self.stats.forwarded);
        HandleOutcome::Forwarded
    }

    /// Finish the canonical reply in the scratch for `client`, counting
    /// it if it had to be truncated.
    fn finish(&mut self, c: &Client) {
        if finish_reply(
            &mut self.scratch,
            c.id,
            c.flags,
            c.edns,
            c.cookie.as_ref(),
            c.udp_limit,
        ) {
            ServeStats::bump(&self.stats.truncated);
        }
    }

    /// Encode `msg` (ID 0, flags clear) with a bare OPT record into the
    /// scratch — the canonical form — and finish it for `client`. False
    /// when it does not encode (over 64 KiB).
    fn finish_message(&mut self, msg: Message, client: &Client) -> bool {
        let msg = Message {
            edns: Some(Edns::default()),
            ..msg
        };
        self.scratch.reset();
        if msg.encode_into(&mut self.scratch).is_err() {
            return false;
        }
        self.finish(client);
        true
    }

    /// Encode and deliver every forwarded answer whose machine finished.
    fn flush_answers(&mut self, now: SimTime) {
        if self.pending.lock().is_empty() {
            return;
        }
        let drained: Vec<PendingAnswer> = std::mem::take(&mut *self.pending.lock());
        for PendingAnswer { ctx, result } in drained {
            let rcode = match result.status {
                Status::NoError => Rcode::NoError,
                Status::NxDomain => Rcode::NxDomain,
                Status::Refused => Rcode::Refused,
                _ => Rcode::ServFail,
            };
            let msg = Message {
                rcode: RcodeField(rcode),
                questions: vec![ctx.question],
                answers: result.answers,
                authorities: result.authorities,
                ..Message::default()
            };
            if !self.finish_message(msg, &ctx.client) {
                continue;
            }
            match ctx.via {
                Via::Udp => {
                    if self.listener_io.is_some() {
                        self.stage_reply(ctx.peer);
                    }
                }
                Via::Tcp { slot, generation } => {
                    if self.conn_generations.get(slot) != Some(&generation) {
                        continue; // connection closed while the lookup ran
                    }
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    conn.framed.queue_frame(self.scratch.message_bytes());
                    conn.last_seen = now;
                    ServeStats::bump(&self.stats.responses);
                }
            }
        }
    }

    // -- TCP ---------------------------------------------------------------

    /// Accept what the listener holds, when `accept`, then service
    /// every connection.
    fn pump_tcp(&mut self, now: SimTime, accept: bool) {
        if self.tcp.is_none() {
            return;
        }
        if accept {
            self.accept_tcp(now);
        }
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let generation = self.conn_generations[slot];
            let mut alive = self.pump_conn(&mut conn, slot, generation, now);
            if alive && now.saturating_sub(conn.last_seen) > TCP_IDLE {
                alive = false;
            }
            if alive {
                self.conns[slot] = Some(conn);
            } else {
                self.conn_generations[slot] += 1;
                ServeStats::bump(&self.stats.tcp_closed);
            }
        }
    }

    fn accept_tcp(&mut self, now: SimTime) {
        let Some(listener) = self.tcp.take() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let live = self.conns.iter().filter(|c| c.is_some()).count();
                    if live >= MAX_TCP_CONNS {
                        // Shed at the accept edge: dropping the socket sends
                        // RST/FIN now instead of wedging the new client.
                        ServeStats::bump(&self.stats.tcp_closed);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = TcpConn {
                        framed: FramedConn::new(stream),
                        peer,
                        last_seen: now,
                    };
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => {
                            self.conns.push(Some(conn));
                            self.conn_generations.push(0);
                        }
                    }
                    ServeStats::bump(&self.stats.tcp_accepted);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        self.tcp = Some(listener);
    }

    /// Service one connection: flush buffered writes, read what is
    /// available (bounded per tick), and answer every complete
    /// length-prefixed frame. Returns whether the connection stays alive.
    fn pump_conn(
        &mut self,
        conn: &mut TcpConn,
        slot: usize,
        generation: u64,
        now: SimTime,
    ) -> bool {
        // Writes first: answers queued by earlier ticks (forwarded
        // lookups) leave before new reads can queue more.
        let (Ok(wrote), Ok(_)) = (conn.framed.flush(), conn.framed.fill(TCP_READ_BUDGET)) else {
            return false;
        };
        if wrote > 0 {
            conn.last_seen = now;
        }
        // Answer every complete frame buffered.
        while let Some(frame) = conn.framed.frame() {
            conn.last_seen = now;
            let outcome = self.handle_query(frame, conn.peer, Via::Tcp { slot, generation }, now);
            conn.framed.consume();
            if let HandleOutcome::Respond = outcome {
                conn.framed.queue_frame(self.scratch.message_bytes());
                ServeStats::bump(&self.stats.responses);
            }
        }
        // Half-closed and fully flushed: nothing more can happen here.
        // Otherwise unflushed writes are tried again next tick.
        !(conn.framed.peer_closed() && conn.framed.is_flushed())
    }
}

/// Offset of the question section in every DNS message: right behind the
/// 12-octet header.
const QUESTION_AT: usize = 12;

/// Encode the canonical reply to `name`/`qtype`/`qclass` from its cached
/// `records` into `scratch` as its one message: ID 0 and flags clear
/// (both [`finish_reply`]'s to set), the question as written here, the
/// answer section copied out of the entry's block, and a bare OPT record.
/// Zero heap allocations.
fn encode_sections(
    scratch: &mut ScratchBuf,
    name: &Name,
    qtype: RecordType,
    qclass: RecordClass,
    records: &CachedRecords,
) {
    scratch.reset();
    scratch.begin_message();
    let header = Header {
        qdcount: 1,
        ancount: records.len() as u16,
        arcount: 1,
        ..Header::default()
    };
    // Writes into a growable scratch cannot fail below the 64 KiB message
    // cap, and a cached RRset plus OPT sits far under it; a pathological
    // overflow yields a short buffer the client discards as malformed.
    let _ = header.encode(scratch);
    let _ = scratch.write_name(name);
    let _ = scratch.write_u16(qtype.to_u16());
    let _ = scratch.write_u16(qclass.to_u16());
    records.encode_answers(scratch);
    let _ = Edns::default().encode(scratch);
}

/// Finish the reply in `scratch` for the client whose query carried
/// `id`, `query_flags`, EDNS (or not), `cookie` and a payload limit of
/// `udp_limit`: the one place a [`ServerRole`] reply is finished,
/// whichever path encoded it. The
/// message must be canonical — ID 0, no cookie, no additional record but
/// a bare OPT as its last [`OPT_TAIL_LEN`] octets, and the question (if
/// any) written in full. In place, it sets the ID and the flags (the
/// query's, answered: QR and RA set, AA and AD clear, TC when cut; the
/// canonical rcode kept), and trims the OPT for a client that sent none
/// or splices the cookie echo into it. A reply over the client's UDP
/// limit is cut to header, question and OPT with zero answer and
/// authority records — all or nothing, so the client retries over TCP.
/// Returns whether it was cut. Takes the client's fields one by one, as
/// [`PacketEntry::serve_into`] receives them: building a [`Client`] there
/// costs the packet-hit path a copy of the cookie.
pub(crate) fn finish_reply(
    scratch: &mut ScratchBuf,
    id: u16,
    query_flags: Flags,
    edns: bool,
    cookie: Option<&Cookie>,
    udp_limit: usize,
) -> bool {
    let message = scratch.message_bytes();
    let (mut len, rcode_low) = (message.len(), message[3] & 0x0F);
    let base = scratch.len() - len;
    let cookie = cookie.filter(|_| edns);
    let full_len = match edns {
        false => len - OPT_TAIL_LEN,
        true => len + cookie.map_or(0, cookie_option_len),
    };
    let truncated = full_len > udp_limit;
    if truncated {
        let question_end = question_end(message);
        scratch.remove(question_end..len - OPT_TAIL_LEN);
        scratch.patch_u16(base + 6, 0); // ANCOUNT
        scratch.patch_u16(base + 8, 0); // NSCOUNT
        len = question_end + OPT_TAIL_LEN;
    }
    if !edns {
        scratch.remove(len - OPT_TAIL_LEN..len);
        scratch.patch_u16(base + 10, 0); // ARCOUNT: the OPT was the only one
    } else if let Some(cookie) = cookie {
        let _ = write_cookie_option(scratch, cookie);
        scratch.patch_u16(base + len - 2, cookie_option_len(cookie) as u16); // OPT RDLENGTH
    }
    let mut flags = query_flags;
    flags.response = true;
    flags.authoritative = false;
    flags.truncated = truncated;
    flags.recursion_available = true;
    flags.authenticated = false;
    scratch.patch_u16(base, id);
    scratch.patch_u16(base + 2, u16::from_be_bytes(flags.pack(rcode_low)));
    truncated
}

/// Offset just past the question section of a canonical message: the
/// header alone when it has no question, else its name's labels and the
/// four octets of type and class.
fn question_end(message: &[u8]) -> usize {
    if message[4..6] == [0, 0] {
        return QUESTION_AT;
    }
    let mut at = QUESTION_AT;
    while message[at] != 0 {
        at += 1 + usize::from(message[at]);
    }
    at + 5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResolverConfig;
    use zdns_wire::{Name, Record};

    fn question(name: &str) -> Question {
        Question::new(name.parse().unwrap(), RecordType::A)
    }

    fn role_with_cache() -> ServerRole {
        let resolver = Resolver::new(ResolverConfig::external(vec!["192.0.2.53"
            .parse()
            .unwrap()]));
        ServerRole::new(resolver, Clock::new(), ServeConfig::default())
    }

    fn query_bytes(id: u16, name: &str, cookie: Option<Cookie>) -> Vec<u8> {
        let mut scratch = ScratchBuf::new();
        zdns_wire::encode_query_into(&mut scratch, id, &question(name), true, cookie.as_ref())
            .unwrap();
        scratch.take_bytes()
    }

    #[test]
    fn cache_hit_is_answered_in_place_with_cookie_echo() {
        let mut role = role_with_cache();
        let now = role.clock.now();
        let name: Name = "cached.example".parse().unwrap();
        role.resolver.core().cache.put(
            CacheKey {
                name: name.clone(),
                rtype: RecordType::A,
            },
            vec![Record::new(
                name.clone(),
                300,
                zdns_wire::RData::A("192.0.2.7".parse().unwrap()),
            )],
            now,
        );
        let cookie = Cookie::client(*b"clientCK");
        let raw = query_bytes(0x4242, "cached.example", Some(cookie));
        let peer: SocketAddr = "127.0.0.1:50000".parse().unwrap();
        let outcome = role.handle_query(&raw, peer, Via::Udp, now);
        assert!(matches!(outcome, HandleOutcome::Respond));
        let reply = MessageView::parse(role.scratch.message_bytes()).unwrap();
        assert_eq!(reply.id(), 0x4242);
        assert!(reply.flags().response);
        assert!(reply.flags().recursion_available);
        assert_eq!(reply.answer_count(), 1);
        let echoed = reply.cookie().expect("cookie echoed");
        assert_eq!(echoed.client_part(), b"clientCK");
        assert_eq!(echoed.server_part(), &SERVER_COOKIE[..]);
        assert_eq!(role.stats.cache_hits(), 1);
        assert_eq!(role.stats.forwarded(), 0);
    }

    #[test]
    fn cache_miss_queues_a_forwarding_machine() {
        let mut role = role_with_cache();
        let now = role.clock.now();
        let raw = query_bytes(7, "missing.example", None);
        let peer: SocketAddr = "127.0.0.1:50001".parse().unwrap();
        let outcome = role.handle_query(&raw, peer, Via::Udp, now);
        assert!(matches!(outcome, HandleOutcome::Forwarded));
        assert!(role.pop_admission().is_some());
        assert_eq!(role.stats.forwarded(), 1);
    }

    #[test]
    fn oversized_hit_truncates_to_the_advertised_limit() {
        let mut role = role_with_cache();
        let now = role.clock.now();
        let name: Name = "fat.example".parse().unwrap();
        let records: Vec<Record> = (0..120)
            .map(|i| {
                Record::new(
                    name.clone(),
                    300,
                    zdns_wire::RData::A(std::net::Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8)),
                )
            })
            .collect();
        role.resolver.core().cache.put(
            CacheKey {
                name: name.clone(),
                rtype: RecordType::A,
            },
            records,
            now,
        );
        // EDNS advertises 1232; 120 A records (~16 bytes each compressed)
        // exceed it, so the UDP answer must come back empty with TC set.
        let raw = query_bytes(9, "fat.example", None);
        let peer: SocketAddr = "127.0.0.1:50002".parse().unwrap();
        let outcome = role.handle_query(&raw, peer, Via::Udp, now);
        assert!(matches!(outcome, HandleOutcome::Respond));
        let reply = MessageView::parse(role.scratch.message_bytes()).unwrap();
        assert!(reply.flags().truncated);
        assert_eq!(reply.answer_count(), 0);
        assert_eq!(role.stats.truncated(), 1);
        // The same query over TCP gets the full answer.
        let outcome = role.handle_query(
            &raw,
            peer,
            Via::Tcp {
                slot: 0,
                generation: 0,
            },
            now,
        );
        assert!(matches!(outcome, HandleOutcome::Respond));
        let reply = MessageView::parse(role.scratch.message_bytes()).unwrap();
        assert!(!reply.flags().truncated);
        assert_eq!(reply.answer_count(), 120);
    }

    #[test]
    fn per_client_gate_drops_udp_but_never_tcp() {
        let resolver = Resolver::new(ResolverConfig::external(vec!["192.0.2.53"
            .parse()
            .unwrap()]));
        let config = ServeConfig {
            client_pps: 1.0,
            ..ServeConfig::default()
        };
        let mut role = ServerRole::new(resolver, Clock::new(), config);
        let now = role.clock.now();
        let name: Name = "gated.example".parse().unwrap();
        role.resolver.core().cache.put(
            CacheKey {
                name: name.clone(),
                rtype: RecordType::A,
            },
            vec![Record::new(
                name,
                300,
                zdns_wire::RData::A("192.0.2.8".parse().unwrap()),
            )],
            now,
        );
        let raw = query_bytes(1, "gated.example", None);
        let peer: SocketAddr = "127.0.0.1:50003".parse().unwrap();
        assert!(matches!(
            role.handle_query(&raw, peer, Via::Udp, now),
            HandleOutcome::Respond
        ));
        // Bucket of 1 pps: the immediate second UDP query is dropped...
        assert!(matches!(
            role.handle_query(&raw, peer, Via::Udp, now),
            HandleOutcome::Dropped
        ));
        assert_eq!(role.stats.rate_limited(), 1);
        // ...but TCP is never gated.
        assert!(matches!(
            role.handle_query(
                &raw,
                peer,
                Via::Tcp {
                    slot: 0,
                    generation: 0
                },
                now
            ),
            HandleOutcome::Respond
        ));
    }

    #[test]
    fn tcp_beyond_64_connections_is_shed_and_10_s_of_silence_reaps() {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut role = role_with_cache().with_tcp_listener(listener).unwrap();
        let now = role.clock.now();
        let clients: Vec<TcpStream> = (0..65).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Every handshake is done; poll at one instant until the role has
        // taken them all off the accept queue.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while role.stats.tcp_accepted() + role.stats.tcp_closed() < 65 {
            assert!(std::time::Instant::now() < deadline, "accept stalled");
            role.poll(now, [true; 2]);
        }
        assert_eq!(
            (role.stats.tcp_accepted(), role.stats.tcp_closed()),
            (64, 1)
        );
        // Silent for exactly 10 s the connections stay; a nanosecond more
        // and every one is reaped.
        role.poll(now + 10 * SECONDS, [true; 2]);
        assert_eq!(role.stats.tcp_closed(), 1);
        role.poll(now + 10 * SECONDS + 1, [true; 2]);
        assert_eq!(role.stats.tcp_closed(), 65);
        drop(clients);
    }

    #[test]
    fn questionless_query_gets_formerr() {
        let mut role = role_with_cache();
        let now = role.clock.now();
        let mut scratch = ScratchBuf::new();
        scratch.begin_message();
        Header {
            id: 77,
            ..Header::default()
        }
        .encode(&mut scratch)
        .unwrap();
        let raw = scratch.take_bytes();
        let peer: SocketAddr = "127.0.0.1:50004".parse().unwrap();
        let outcome = role.handle_query(&raw, peer, Via::Udp, now);
        assert!(matches!(outcome, HandleOutcome::Respond));
        let reply = MessageView::parse(role.scratch.message_bytes()).unwrap();
        assert_eq!(reply.id(), 77);
        assert_eq!(reply.rcode(), Rcode::FormErr);
        assert_eq!(reply.question_count(), 0);
    }
}
