//! The reactor's server role: `zdns serve`'s engine-side half.
//!
//! A [`ServerRole`] turns a reactor socket bidirectional. Inbound
//! datagrams that fail the `(peer, txid)` demux — queries (QR=0) rather
//! than late responses — are dispatched here instead of being counted as
//! stale, and each one walks the serve dataflow:
//!
//! ```text
//! listener → per-client token bucket → packet cache probe → [hot hit:
//!   memcpy + ID/cookie patch] / → record cache probe → [hit: scratch-
//!   encode + memoize] / [miss: forwarding machine behind the same
//!   reactor] → send
//! ```
//!
//! * **Fairness gate** — a [`ClientBuckets`] table (response-rate-limiting
//!   flavor: over-budget UDP queries are dropped, never queued; TCP is the
//!   client's escape hatch and is never gated).
//! * **Packet front** — repeat queries are answered from the
//!   [`PacketCache`]: the fully encoded response is memoized on first
//!   scratch-encode, one entry per name whatever its spelling, and a hot
//!   hit is a memcpy plus a 2-byte ID patch, flag patch, cookie splice,
//!   TC re-check, and the client's own question octets laid over the
//!   question section — no shard lock, no record iteration, no
//!   per-record encode. `packet_cache_capacity: 0` disables the layer
//!   (the A/B lever).
//! * **Cache front** — remaining hits are answered from the resolver's
//!   selective [`Cache`](crate::cache::Cache) via the non-cloning
//!   [`with_records`](crate::cache::Cache::with_records) accessor and
//!   encoded out of the entry's wire-shaped block straight into a
//!   reusable [`ScratchBuf`]: both hit paths perform zero heap
//!   allocations at steady state (the `zero_alloc` suite enforces it).
//!   One key hash per query serves both probes.
//! * **Forwarding behind** — misses admit an ordinary lookup machine
//!   (External-mode stub + CNAME chase) into the *same* reactor; its
//!   result sink fills the cache and parks the answer on a pending queue
//!   the next [`Reactor::serve_tick`](crate::reactor::Reactor::serve_tick)
//!   drains back to the client.
//! * **TCP serving** — a non-blocking listener plus a connection table on
//!   the same event loop, each connection a [`FramedConn`] (the framing
//!   the reactor's own TCP fallback and the loopback wire server pump
//!   through too), with a per-tick read budget and idle reaping. UDP replies
//!   that exceed the client's advertised payload size come back truncated
//!   (TC set) so the client retries here.
//!
//! Time is real: a [`Clock`] maps monotonic wall time into the `SimTime`
//! nanosecond domain the cache, buckets, and timer wheel already speak.

use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use zdns_netsim::{FramedConn, SimClient, SimTime, SECONDS};
use zdns_pacing::ClientBuckets;
use zdns_wire::{
    min_answer_ttl, Cookie, Edns, Flags, Header, Message, MessageView, Question, Rcode, RcodeField,
    RecordClass, RecordType, ScratchBuf, CLIENT_COOKIE_LEN, DEFAULT_UDP_PAYLOAD, OPTION_COOKIE,
};

use crate::cache::{key_hash, CacheKey, CachedRecords};
use crate::clock::Clock;
use crate::machine::ResultSink;
use crate::packet_cache::{PacketCache, PacketEntry, PacketLookup};
use crate::resolver::Resolver;
use crate::result::LookupResult;
use crate::status::Status;

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

/// Default packet-cache slot count ([`ServeConfig::packet_cache_capacity`]).
pub const DEFAULT_PACKET_CACHE_CAPACITY: usize = 65_536;

/// Tunables for one server role.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-client UDP query budget (tokens/second). `0` disables the gate.
    pub client_pps: f64,
    /// Hard cap on tracked client buckets (see [`ClientBuckets`]).
    pub client_capacity: usize,
    /// UDP payload size advertised in our response OPT.
    pub udp_payload: u16,
    /// Maximum concurrent TCP connections per worker.
    pub max_tcp_conns: usize,
    /// Idle nanoseconds before a TCP connection is reaped.
    pub tcp_idle: SimTime,
    /// Datagrams drained from a dedicated listener socket per tick.
    pub max_datagrams_per_tick: usize,
    /// Slots in the shared pre-encoded packet cache riding in front of
    /// the record cache. `0` disables it, keeping the scratch-encode path
    /// as the A/B lever.
    pub packet_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            client_pps: 0.0,
            client_capacity: 4_096,
            udp_payload: DEFAULT_UDP_PAYLOAD,
            max_tcp_conns: 64,
            tcp_idle: 10 * SECONDS,
            max_datagrams_per_tick: 256,
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
    servfail: AtomicU64,
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
        /// Forwarded lookups that came back as SERVFAIL.
        servfail,
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

/// Everything needed to synthesize the response to a forwarded query once
/// its lookup machine finishes.
struct ClientContext {
    peer: SocketAddr,
    via: Via,
    txid: u16,
    flags: Flags,
    question: Question,
    udp_limit: usize,
    edns: bool,
    cookie: Option<Cookie>,
}

/// A finished forwarded lookup waiting for the serve tick to encode and
/// send its response.
struct PendingAnswer {
    ctx: ClientContext,
    result: LookupResult,
}

/// How the record-cache hit branch produced its response bytes.
enum HitEncoding {
    /// Packet cache disabled: the reply was scratch-encoded directly for
    /// this client, truncation already resolved (the A/B lever path).
    Direct { truncated: bool },
    /// The canonical form (ID 0, cookie-less, bare OPT tail) was encoded
    /// for memoization; the caller builds the [`PacketEntry`] and serves
    /// this client through the same patch path every future hit takes.
    Canonical { deadline: SimTime },
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

/// The server half of a bidirectional reactor: fairness gate, cache
/// front, forwarding queue, and the TCP connection table. Install one
/// with [`Reactor::set_server_role`](crate::reactor::Reactor::set_server_role)
/// and drive it with [`Reactor::serve_tick`](crate::reactor::Reactor::serve_tick)
/// or [`Reactor::run_serve`](crate::reactor::Reactor::run_serve).
pub struct ServerRole {
    resolver: Resolver,
    clock: Clock,
    config: ServeConfig,
    gate: ClientBuckets,
    /// Fleet-shared pre-encoded answer cache (`None` = disabled, the
    /// scratch-encode A/B lever).
    packet: Option<Arc<PacketCache>>,
    stats: Arc<ServeStats>,
    pending: Arc<Mutex<Vec<PendingAnswer>>>,
    admissions: Vec<Box<dyn SimClient>>,
    /// Dedicated listener socket (sharded mode). `None` = dual-role: the
    /// reactor's own socket is the listener and responses leave it too.
    listener: Option<UdpSocket>,
    tcp: Option<TcpListener>,
    conns: Vec<Option<TcpConn>>,
    conn_generations: Vec<u64>,
    scratch: ScratchBuf,
    recv_buf: Vec<u8>,
}

impl ServerRole {
    /// Build a server role around a forwarding resolver (External mode
    /// pointing at the upstreams) and a real-time clock.
    pub fn new(resolver: Resolver, clock: Clock, config: ServeConfig) -> ServerRole {
        let gate = ClientBuckets::new(config.client_pps, config.client_capacity);
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
            config,
            gate,
            packet,
            stats,
            pending: Arc::new(Mutex::new(Vec::new())),
            admissions: Vec::new(),
            listener: None,
            tcp: None,
            conns: Vec::new(),
            conn_generations: Vec::new(),
            scratch: ScratchBuf::new(),
            recv_buf: vec![0u8; 65_535],
        }
    }

    /// Attach a dedicated UDP listener socket (sharded mode: each worker
    /// binds its own `SO_REUSEPORT` listener while the reactor keeps its
    /// ephemeral upstream socket). Responses to queries drained from this
    /// socket are sent from it.
    pub fn with_udp_listener(mut self, socket: UdpSocket) -> std::io::Result<ServerRole> {
        socket.set_nonblocking(true)?;
        zdns_netsim::set_recv_buffer(&socket, 8 << 20);
        self.listener = Some(socket);
        Ok(self)
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

    /// Whether the role has work the reactor's poll cannot see on its own
    /// socket: a dedicated listener, live TCP connections, or queued
    /// answers/admissions. Callers cap their sleep when this is true.
    pub(crate) fn wants_fast_tick(&self) -> bool {
        self.listener.is_some()
            || self.tcp.is_some()
            || !self.admissions.is_empty()
            || !self.pending.lock().is_empty()
    }

    /// One inbound UDP query (dual-role socket or dedicated listener):
    /// handle it and send any immediate response from `socket`.
    pub(crate) fn on_udp_datagram(
        &mut self,
        socket: &UdpSocket,
        raw: &[u8],
        peer: SocketAddr,
        now: SimTime,
    ) {
        // Count before sending: a client that has the answer in hand (and
        // a test reading the counter) must never observe the response as
        // uncounted. The Arc clone keeps `stats` reachable while the
        // returned slice borrows `self`.
        let stats = Arc::clone(&self.stats);
        if let Some(bytes) = self.handle_datagram(raw, peer, now) {
            ServeStats::bump(&stats.responses);
            let _ = socket.send_to(bytes, peer);
        }
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

    /// Per-tick role work: drain the dedicated listener (if any), service
    /// the TCP table, and flush finished forwarded answers. `fallback` is
    /// the reactor's socket — the response path in dual-role mode.
    pub(crate) fn poll(&mut self, fallback: &UdpSocket, now: SimTime) {
        self.drain_listener(now);
        self.pump_tcp(now);
        self.flush_answers(fallback, now);
    }

    fn drain_listener(&mut self, now: SimTime) {
        let Some(listener) = self.listener.take() else {
            return;
        };
        let mut buf = std::mem::take(&mut self.recv_buf);
        for _ in 0..self.config.max_datagrams_per_tick {
            match listener.recv_from(&mut buf) {
                Ok((n, peer)) => self.on_udp_datagram(&listener, &buf[..n], peer, now),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        self.recv_buf = buf;
        self.listener = Some(listener);
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
            // A response reaching the server role (possible on a dedicated
            // listener) is noise, not a query.
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

        let edns = view.has_edns();
        let udp_limit = match via {
            Via::Udp => (view.udp_payload_size().unwrap_or(0) as usize).max(MIN_UDP_PAYLOAD),
            Via::Tcp { .. } => usize::MAX,
        };
        // Cookie echo: the client half they sent plus our server half,
        // assembled on the stack (RFC 7873 §5.2).
        let cookie = view.cookie().and_then(|c| {
            let mut full = [0u8; CLIENT_COOKIE_LEN + SERVER_COOKIE.len()];
            full[..CLIENT_COOKIE_LEN].copy_from_slice(c.client_part());
            full[CLIENT_COOKIE_LEN..].copy_from_slice(&SERVER_COOKIE);
            Cookie::from_wire(&full)
        });

        let Some(qv) = view.question() else {
            // No question to answer: FORMERR with an empty question section.
            let _ = encode_response(
                &mut self.scratch,
                view.id(),
                view.flags(),
                Rcode::FormErr,
                None,
                None,
                edns.then_some((self.config.udp_payload, cookie)),
                udp_limit,
            );
            return HandleOutcome::Respond;
        };
        // Alloc-free for names within the inline bound — the common case.
        let qname = qv.name.to_name();
        // One hash for both cache layers.
        let hash = key_hash(&qname, qv.qtype);

        // Packet front: a memoized answer skips the shard lock, the
        // record walk, and the encode — memcpy, ID/flags patch, cookie
        // splice, TC re-check, question echo. IN-class only, matching the
        // record cache's implicit keying, and only for a question name
        // sent in the plain (`echo`: the client's spelling, to lay over
        // the entry's) — a compressed one has no octets of the entry's
        // length to echo. Anything else falls through to the record path.
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
                        view.id(),
                        view.flags(),
                        edns,
                        cookie.as_ref(),
                        udp_limit,
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

        // Cache front: encode the hit straight off the shared entry, under
        // the shard lock, with no cloning and no LRU touch. With the
        // packet cache enabled the encode is the canonical (memoizable)
        // form; entry construction and the per-client patch both happen
        // after the shard lock drops.
        let memoize = packet.is_some();
        let hit = {
            let scratch = &mut self.scratch;
            let payload = self.config.udp_payload;
            let id = view.id();
            let flags = view.flags();
            self.resolver.core().cache.with_records_hashed(
                hash,
                &qname,
                qv.qtype,
                now,
                |records: &CachedRecords, expires: SimTime| {
                    if memoize {
                        scratch.reset();
                        encode_sections(
                            scratch,
                            0,
                            flags,
                            Rcode::NoError,
                            Some((&qname, qv.qtype.to_u16(), qv.qclass.to_u16())),
                            Some(records),
                            Some((payload, None)),
                            false,
                        );
                        HitEncoding::Canonical { deadline: expires }
                    } else {
                        HitEncoding::Direct {
                            truncated: encode_response(
                                scratch,
                                id,
                                flags,
                                Rcode::NoError,
                                Some((&qname, qv.qtype.to_u16(), qv.qclass.to_u16())),
                                Some(records),
                                edns.then_some((payload, cookie)),
                                udp_limit,
                            ),
                        }
                    }
                },
            )
        };
        match hit {
            Some(HitEncoding::Direct { truncated }) => {
                ServeStats::bump(&self.stats.cache_hits);
                if truncated {
                    ServeStats::bump(&self.stats.truncated);
                }
                return HandleOutcome::Respond;
            }
            Some(HitEncoding::Canonical { deadline }) => {
                // Memoize before answering: even when this UDP reply must
                // truncate, the full canonical answer is already cached,
                // so the client's TCP retry hits the packet path (the
                // PR 7 fill-before-truncate learning). The deadline is
                // the record entry's own expiry, re-derived from (and
                // capped by) the encoded answers' minimum TTL.
                let min_ttl = min_answer_ttl(self.scratch.message_bytes()).unwrap_or(0);
                let deadline = deadline.min(now + u64::from(min_ttl) * SECONDS);
                let entry = Arc::new(PacketEntry::new(
                    qname,
                    qv.qtype,
                    deadline,
                    self.scratch.message_bytes(),
                ));
                if let Some((pc, _)) = packet {
                    pc.fill(Arc::clone(&entry));
                    ServeStats::bump(&self.stats.packet_fills);
                }
                // The entry was just encoded in this client's own
                // spelling: nothing to lay over the question.
                let truncated = entry.serve_into(
                    &mut self.scratch,
                    view.id(),
                    view.flags(),
                    edns,
                    cookie.as_ref(),
                    udp_limit,
                );
                ServeStats::bump(&self.stats.cache_hits);
                if truncated {
                    ServeStats::bump(&self.stats.truncated);
                }
                return HandleOutcome::Respond;
            }
            None => {}
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
            txid: view.id(),
            flags: view.flags(),
            question: question.clone(),
            udp_limit,
            edns,
            cookie,
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

    /// Encode and deliver every forwarded answer whose machine finished.
    fn flush_answers(&mut self, fallback: &UdpSocket, now: SimTime) {
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
            if rcode == Rcode::ServFail {
                ServeStats::bump(&self.stats.servfail);
            }
            let mut flags = ctx.flags;
            flags.response = true;
            flags.authoritative = false;
            flags.truncated = false;
            flags.recursion_available = true;
            flags.authenticated = false;
            let edns = ctx.edns.then(|| {
                let mut e = Edns {
                    udp_payload_size: self.config.udp_payload,
                    ..Edns::default()
                };
                if let Some(c) = ctx.cookie {
                    e.set_cookie(c);
                }
                e
            });
            let msg = Message {
                id: ctx.txid,
                flags,
                rcode: RcodeField(rcode),
                questions: vec![ctx.question],
                answers: result.answers,
                authorities: result.authorities,
                additionals: Vec::new(),
                edns,
            };
            match ctx.via {
                Via::Udp => {
                    self.scratch.reset();
                    let Ok(truncated) = msg.encode_udp_into(&mut self.scratch, ctx.udp_limit)
                    else {
                        continue;
                    };
                    if truncated {
                        ServeStats::bump(&self.stats.truncated);
                    }
                    let socket = self.listener.as_ref().unwrap_or(fallback);
                    // Count before sending (see `on_udp_datagram`).
                    ServeStats::bump(&self.stats.responses);
                    let _ = socket.send_to(self.scratch.message_bytes(), ctx.peer);
                }
                Via::Tcp { slot, generation } => {
                    if self.conn_generations.get(slot) != Some(&generation) {
                        continue; // connection closed while the lookup ran
                    }
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    self.scratch.reset();
                    if msg.encode_into(&mut self.scratch).is_err() {
                        continue;
                    }
                    conn.framed.queue_frame(self.scratch.message_bytes());
                    conn.last_seen = now;
                    ServeStats::bump(&self.stats.responses);
                }
            }
        }
    }

    // -- TCP ---------------------------------------------------------------

    fn pump_tcp(&mut self, now: SimTime) {
        if self.tcp.is_none() {
            return;
        }
        self.accept_tcp(now);
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let generation = self.conn_generations[slot];
            let mut alive = self.pump_conn(&mut conn, slot, generation, now);
            if alive && now.saturating_sub(conn.last_seen) > self.config.tcp_idle {
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
                    if live >= self.config.max_tcp_conns {
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

/// Encode a response directly from wire primitives into `scratch` —
/// header, echoed question, the cached answer section copied out of its
/// block, and a hand-rolled OPT with the cookie echo. Zero heap
/// allocations. If the encoded message exceeds `udp_limit` it is
/// re-encoded empty with TC set
/// (all-or-nothing truncation: cached RRsets are small, and the client's
/// TCP retry gets the full answer). Returns whether truncation happened.
#[allow(clippy::too_many_arguments)]
fn encode_response(
    scratch: &mut ScratchBuf,
    id: u16,
    query_flags: Flags,
    rcode: Rcode,
    question: Option<(&zdns_wire::Name, u16, u16)>,
    answers: Option<&CachedRecords>,
    edns: Option<(u16, Option<Cookie>)>,
    udp_limit: usize,
) -> bool {
    scratch.reset();
    encode_sections(
        scratch,
        id,
        query_flags,
        rcode,
        question,
        answers,
        edns,
        false,
    );
    if scratch.message_bytes().len() > udp_limit {
        scratch.abort_message();
        encode_sections(scratch, id, query_flags, rcode, question, None, edns, true);
        return true;
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn encode_sections(
    scratch: &mut ScratchBuf,
    id: u16,
    query_flags: Flags,
    rcode: Rcode,
    question: Option<(&zdns_wire::Name, u16, u16)>,
    answers: Option<&CachedRecords>,
    edns: Option<(u16, Option<Cookie>)>,
    tc: bool,
) {
    scratch.begin_message();
    let mut flags = query_flags;
    flags.response = true;
    flags.authoritative = false;
    flags.truncated = tc;
    flags.recursion_available = true;
    flags.authenticated = false;
    let header = Header {
        id,
        flags,
        rcode_low: (rcode.to_u16() & 0x0F) as u8,
        qdcount: question.is_some() as u16,
        ancount: answers.map_or(0, CachedRecords::len) as u16,
        nscount: 0,
        arcount: edns.is_some() as u16,
    };
    // Writes into a growable scratch cannot fail below the 64 KiB message
    // cap, and a cached RRset plus OPT sits far under it; a pathological
    // overflow yields a short buffer the client discards as malformed.
    let _ = header.encode(scratch);
    if let Some((name, qtype, qclass)) = question {
        let _ = scratch.write_name(name);
        let _ = scratch.write_u16(qtype);
        let _ = scratch.write_u16(qclass);
    }
    if let Some(answers) = answers {
        answers.encode_answers(scratch);
    }
    if let Some((payload, cookie)) = edns {
        // Hand-rolled OPT pseudo-record: root name, type OPT, requestor
        // payload size in CLASS, zeroed TTL (extended rcode 0, version 0,
        // no flags), then the cookie option if the query carried one.
        let _ = scratch.write_u8(0);
        let _ = scratch.write_u16(RecordType::OPT.to_u16());
        let _ = scratch.write_u16(payload);
        let _ = scratch.write_u32(0);
        match cookie {
            Some(c) => {
                let bytes = c.as_bytes();
                let _ = scratch.write_u16(4 + bytes.len() as u16);
                let _ = scratch.write_u16(OPTION_COOKIE);
                let _ = scratch.write_u16(bytes.len() as u16);
                let _ = scratch.write_bytes(bytes);
            }
            None => {
                let _ = scratch.write_u16(0);
            }
        }
    }
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
