//! Lookup state machines.
//!
//! Each lookup is a state machine fed with responses/timeouts — the shape
//! that lets one implementation run under both the discrete-event simulator
//! (tens of thousands of concurrent routines) and the reactor over real
//! sockets.
//!
//! * [`IterativeMachine`] — ZDNS's own recursion: start at the deepest
//!   cached zone cut (or the roots), follow referrals, chase CNAMEs,
//!   resolve glueless NS hosts with nested walks, record the lookup chain,
//!   and cache *only* NS/glue RRsets (§3.4 selective caching).
//! * [`StubMachine`] — one stub exchange: a question, a server list,
//!   retries with rotation, TC→TCP. Built as an RD=1 lookup against the
//!   external recursive resolvers (the Google/Cloudflare rows), or as a
//!   probe of one named server — the building block for the §5
//!   `--all-nameservers` extension and misc modules.
//!
//! The two differ in whom they ask, not in how: one `Querier` per lookup
//! asks and ends it for either (ids, tags, cookies, UDP or TCP, stale
//! events, counts, and the one [`LookupResult`]). The stub keeps its server
//! list, rotation and transport-failure rule; the iterative machine its
//! walks, referrals, CNAME chain, trace and cache writes.
//!
//! Responses arrive as [`MsgRef`] — a borrowed [`zdns_wire::MessageView`]
//! over the bytes the response came as, from the reactor's sockets and the
//! simulator alike. Machines inspect the borrowed form and **promote**
//! records to owned values only when they keep them: the CNAME chain,
//! referral NS/glue RRsets headed for the cache, and the final
//! [`LookupResult`] (which is not even built unless the lookup is kept).
//! A kept lookup holds its result until its owner takes it by value
//! ([`Lookup::take_result`]). Queries go out as [`OutQuery`] field
//! bundles, not messages — every driver encodes them straight into a
//! scratch buffer, so the reactor's steady-state send path performs zero
//! heap allocations.

use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_netsim::oracle::{MAX_CNAME_HOPS, MAX_NS_SUBWALKS, MAX_REFERRALS};
use zdns_netsim::{ClientEvent, JobOutcome, OutQuery, Protocol, SimClient, SimTime, StepStatus};
use zdns_wire::{Cookie, MsgRef, Name, Question, RData, Rcode, Record, RecordType};

use crate::cache::{Cache, CacheKey};
use crate::config::{Detail, ResolutionMode, ResolverConfig};
use crate::result::{DelegationInfo, LookupResult};
use crate::status::Status;
use crate::trace::{step_for, TraceStep};

/// Shared state behind every machine: config and selective cache.
pub struct ResolverCore {
    /// Resolver configuration.
    pub config: ResolverConfig,
    /// The selective infrastructure cache.
    pub cache: Cache,
}

impl ResolverCore {
    /// Build from a config.
    pub fn new(config: ResolverConfig) -> Arc<ResolverCore> {
        let cache = Cache::new(config.cache_size);
        Arc::new(ResolverCore { config, cache })
    }
}

/// Callback invoked with the full result of each finished lookup
/// ([`Lookup::with_sink`]).
pub type ResultSink = Arc<dyn Fn(LookupResult) + Send + Sync>;

/// `ip:53`, as trace steps name a server, in one allocation sized for the
/// longest such text.
fn server_text(ip: Ipv4Addr) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity("255.255.255.255:53".len());
    let _ = write!(s, "{ip}:53");
    s
}

fn query_id(name: &Name, counter: u32) -> u16 {
    // Deterministic per-(name, attempt) transaction ids.
    let mut h: u32 = 0x811C_9DC5;
    for l in name.labels() {
        for &b in l.iter() {
            h ^= b.to_ascii_lowercase() as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    (h ^ counter.rotate_left(16)) as u16
}

/// Deterministic 8-octet client cookie for a lookup (FNV-1a 64 over the
/// lowercased name; real deployments would mix in a secret, but the sim
/// and loopback paths value reproducibility).
fn client_cookie_for(name: &Name) -> [u8; 8] {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for l in name.labels() {
        for &b in l.iter() {
            h ^= b.to_ascii_lowercase() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h.to_be_bytes()
}

/// One SipHash compression round.
#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// Keyed client-cookie derivation (RFC 7873 §6): SipHash-2-4 — the PRF
/// the RFC recommends — keyed with the 16-octet client secret over the
/// destination address. Every destination gets a distinct client cookie
/// computed allocation-free per query, and (unlike a plain mixing hash)
/// observing one destination's cookie reveals nothing about any
/// other's: recovering cross-destination state requires breaking the
/// PRF, not inverting a bijection.
fn keyed_client_cookie(secret: &[u8; 16], dest: Ipv4Addr) -> [u8; 8] {
    let k0 = u64::from_le_bytes(secret[..8].try_into().expect("8 bytes"));
    let k1 = u64::from_le_bytes(secret[8..].try_into().expect("8 bytes"));
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    // The 4-octet address fits one final block: message bytes
    // little-endian in the low lanes, message length in the top byte.
    let octets = dest.octets();
    let b: u64 = (4u64 << 56) | u64::from(u32::from_le_bytes(octets));
    v[3] ^= b;
    sip_round(&mut v);
    sip_round(&mut v);
    v[0] ^= b;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sip_round(&mut v);
    }
    (v[0] ^ v[1] ^ v[2] ^ v[3]).to_be_bytes()
}

/// How a lookup derives the client half of its cookies.
#[derive(Debug, Clone, Copy)]
enum CookieKey {
    /// One fixed cookie per lookup, hashed from the queried name — fully
    /// reproducible (the sim/loopback default).
    PerName([u8; 8]),
    /// Keyed per-destination derivation from a scan-wide secret
    /// (`--cookie-secret`, RFC 7873 §6).
    Keyed([u8; 16]),
}

/// RFC 7873 client-side cookie state: our client cookie derivation, plus
/// the last full (client + server) cookie learned, pinned to the server
/// it came from. Retries to that server echo the full cookie; queries to
/// anyone else carry the bare client cookie.
#[derive(Debug, Clone, Copy)]
struct CookieState {
    key: CookieKey,
    learned: Option<(Ipv4Addr, Cookie)>,
}

impl CookieState {
    /// The client half we send to `dest`.
    fn client_for(&self, dest: Ipv4Addr) -> [u8; 8] {
        match &self.key {
            CookieKey::PerName(client) => *client,
            CookieKey::Keyed(secret) => keyed_client_cookie(secret, dest),
        }
    }

    /// The cookie to attach to a query for `dest`.
    fn for_dest(&self, dest: Ipv4Addr) -> Cookie {
        match &self.learned {
            Some((server, cookie)) if *server == dest => *cookie,
            _ => Cookie::client(self.client_for(dest)),
        }
    }

    /// Record the cookie a response from `from` carried. Only cookies
    /// that echo the client part we send *that destination* and actually
    /// contain a server part are kept.
    fn learn(&mut self, from: Ipv4Addr, cookie: Option<Cookie>) {
        if let Some(cookie) = cookie {
            if cookie.client_part() == self.client_for(from) && cookie.has_server_part() {
                self.learned = Some((from, cookie));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The querier: how every lookup asks and ends
// ---------------------------------------------------------------------------

/// The response a lookup ends with: the message, the server that sent it
/// and the transport it arrived on.
type Reply<'r, 'm> = (&'r MsgRef<'m>, Ipv4Addr, Protocol);

/// Everything a lookup does with its exchanges, whichever machine drives
/// it: number and tag each query, attach the cookie for its destination
/// and learn the server's back, choose UDP or TCP, drop stale events,
/// count queries and retries, and end the lookup with its one
/// [`LookupResult`], kept for the owner to take, and [`JobOutcome`].
struct Querier {
    core: Arc<ResolverCore>,
    /// The RD bit and the timeout every query carries.
    rd: bool,
    timeout: SimTime,
    /// Queries sent so far. The n-th query's tag is n, so an event whose
    /// tag is not `queries` answers a query already given up on.
    queries: u32,
    retries_used: u32,
    started: SimTime,
    /// A truncated UDP answer moved this exchange to TCP.
    over_tcp: bool,
    cookies: CookieState,
    /// Whether the lookup's owner wants its result: only then is one built.
    keep: bool,
    /// The finished lookup's result, until its owner takes it.
    result: Option<LookupResult>,
}

impl Querier {
    fn new(
        core: Arc<ResolverCore>,
        name: &Name,
        rd: bool,
        timeout: SimTime,
        keep: bool,
    ) -> Querier {
        let config = &core.config;
        Querier {
            // Keyed per destination when a secret is configured (RFC 7873
            // §6), the reproducible per-name hash otherwise.
            cookies: CookieState {
                key: match config.cookie_secret {
                    Some(secret) => CookieKey::Keyed(secret),
                    None => CookieKey::PerName(client_cookie_for(name)),
                },
                learned: None,
            },
            core,
            rd,
            timeout,
            queries: 0,
            retries_used: 0,
            started: 0,
            over_tcp: false,
            keep,
            result: None,
        }
    }

    /// The transport of the next query: TCP under `--tcp-only` or after a
    /// truncated UDP answer, UDP otherwise.
    fn protocol(&self) -> Protocol {
        if self.over_tcp || self.core.config.tcp_only {
            Protocol::Tcp
        } else {
            Protocol::Udp
        }
    }

    /// Start the lookup's clock.
    fn start(&mut self, now: SimTime) {
        self.started = now;
    }

    /// Ask `to` for `question`: the n-th query of a lookup carries the id
    /// `query_id(question's name, n)` and the tag n. A query that opens
    /// an exchange with a `new_server` goes over UDP again (unless
    /// `--tcp-only`): TC→TCP holds until then.
    fn send(
        &mut self,
        to: Ipv4Addr,
        question: &Question,
        new_server: bool,
        out: &mut Vec<OutQuery>,
    ) {
        if new_server {
            self.over_tcp = false;
        }
        self.queries += 1;
        out.push(OutQuery {
            to,
            id: query_id(&question.name, self.queries),
            question: question.clone(),
            recursion_desired: self.rd,
            cookie: Some(self.cookies.for_dest(to)),
            protocol: self.protocol(),
            timeout: self.timeout,
            tag: u64::from(self.queries),
        });
    }

    /// Whether `event` is about the query in flight; one about a query
    /// already given up on is stale. A current response teaches its
    /// cookie; a current timeout or transport failure uses a retry.
    fn accept(&mut self, event: &ClientEvent<'_>) -> bool {
        let (ClientEvent::Response { tag, .. }
        | ClientEvent::Timeout { tag }
        | ClientEvent::TransportFailed { tag }) = event;
        if *tag != u64::from(self.queries) {
            return false;
        }
        match event {
            ClientEvent::Response { from, message, .. } => {
                self.cookies.learn(*from, message.cookie());
            }
            _ => self.retries_used += 1,
        }
        true
    }

    /// TC→TCP: whether `message`, which arrived over `protocol`, is a
    /// truncated UDP answer to ask the same server again over TCP. If it
    /// is, the next query goes over TCP.
    fn retry_over_tcp(&mut self, message: &MsgRef<'_>, protocol: Protocol) -> bool {
        let retry = message.flags().truncated
            && protocol == Protocol::Udp
            && self.core.config.tcp_on_truncated;
        self.over_tcp |= retry;
        retry
    }

    /// End the lookup of `question` with `status`. A kept lookup builds
    /// its one [`LookupResult`] here and holds it for its owner: the
    /// sections, flags, resolver and transport of `reply` (the last
    /// query's transport when nothing answered) and the counts, then
    /// `fill` adds what only the machine knows (answers, trace,
    /// delegation). Promotion happens here, and only here, because the
    /// result is being kept: a lookup nobody keeps never materializes the
    /// sections at all.
    fn finish(
        &mut self,
        now: SimTime,
        question: &Question,
        status: Status,
        reply: Option<Reply<'_, '_>>,
        fill: impl FnOnce(&mut LookupResult),
    ) -> StepStatus {
        if self.keep {
            let mut result = LookupResult {
                name: question.name.clone(),
                qtype: question.qtype,
                status,
                answers: Vec::new(),
                authorities: reply.map(|(m, ..)| m.authorities_vec()).unwrap_or_default(),
                additionals: reply.map(|(m, ..)| m.additionals_vec()).unwrap_or_default(),
                flags: reply.map(|(m, ..)| m.flags()),
                resolver: reply.map(|(_, from, _)| from),
                protocol: match reply.map_or(self.protocol(), |(.., p)| p) {
                    Protocol::Udp => "udp",
                    Protocol::Tcp => "tcp",
                },
                trace: Vec::new(),
                delegation: None,
                queries_sent: self.queries,
                retries_used: self.retries_used,
                duration: now.saturating_sub(self.started),
                timestamp: now,
            };
            fill(&mut result);
            self.result = Some(result);
        }
        StepStatus::Done(JobOutcome {
            success: status.is_success(),
            status: status.as_str(),
        })
    }
}

// ---------------------------------------------------------------------------
// Stub mode: external lookups and per-server probes
// ---------------------------------------------------------------------------

/// One stub exchange: a question asked of a server list, with retries
/// rotating through the list and TC→TCP against the server that
/// truncated. It comes in two flavours that share every step:
///
/// * [`StubMachine::external`] — RD=1 lookups against the configured
///   external recursive resolvers (the Google/Cloudflare rows);
/// * [`StubMachine::probe`] — one question to one named server, the
///   building block for the §5 `--all-nameservers` extension and misc
///   modules like `version.bind`. Its list is that one server, so a
///   rotating retry asks it again.
pub struct StubMachine {
    querier: Querier,
    question: Question,
    /// The one server a probe asks; `None` asks the configured upstreams.
    probe: Option<Ipv4Addr>,
    /// Where in the server list the first query goes; each retry asks
    /// the next server.
    first_server: usize,
    transport_failed: bool,
}

impl StubMachine {
    /// An RD=1 lookup of `question` against the configured upstreams.
    /// With `keep`, it holds its result for [`StubMachine::take_result`];
    /// without, it builds none.
    pub fn external(core: Arc<ResolverCore>, question: Question, keep: bool) -> StubMachine {
        StubMachine::new(core, question, None, true, keep)
    }

    /// A probe of `server` alone for `question`, with the RD bit `rd`.
    pub fn probe(
        core: Arc<ResolverCore>,
        question: Question,
        server: Ipv4Addr,
        rd: bool,
        keep: bool,
    ) -> StubMachine {
        StubMachine::new(core, question, Some(server), rd, keep)
    }

    fn new(
        core: Arc<ResolverCore>,
        question: Question,
        probe: Option<Ipv4Addr>,
        rd: bool,
        keep: bool,
    ) -> StubMachine {
        let timeout = core.config.timeout;
        StubMachine {
            querier: Querier::new(core, &question.name, rd, timeout, keep),
            // Load-balance the starting server across lookups.
            first_server: query_id(&question.name, 0) as usize,
            question,
            probe,
            transport_failed: false,
        }
    }

    /// The servers this lookup rotates through: the probed one, or the
    /// upstream resolvers, read where the config holds them.
    fn servers(&self) -> &[Ipv4Addr] {
        match (&self.probe, &self.querier.core.config.mode) {
            (Some(server), _) => std::slice::from_ref(server),
            (None, ResolutionMode::External { servers }) => servers,
            (None, ResolutionMode::Iterative) => &[],
        }
    }

    fn send(&mut self, out: &mut Vec<OutQuery>) {
        let servers = self.servers();
        let to = servers[(self.first_server + self.querier.retries_used as usize) % servers.len()];
        // One exchange however many servers it rotates through: once a
        // truncated answer moved it to TCP, it stays there.
        self.querier.send(to, &self.question, false, out);
    }

    fn finish(&mut self, now: SimTime, status: Status, reply: Option<Reply<'_, '_>>) -> StepStatus {
        let probe = self.probe;
        self.querier
            .finish(now, &self.question, status, reply, |result| {
                result.answers = reply.map(|(m, ..)| m.answers_vec()).unwrap_or_default();
                // A probe names its server even when nothing answered; an
                // external lookup names only the resolver that did.
                result.resolver = result.resolver.or(probe);
            })
    }

    /// The finished lookup's result, once, if it is kept: `None` before
    /// the end and after the first call.
    pub fn take_result(&mut self) -> Option<LookupResult> {
        self.querier.result.take()
    }
}

impl SimClient for StubMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        self.querier.start(now);
        if self.servers().is_empty() {
            return self.finish(now, Status::Error, None);
        }
        self.send(out);
        StepStatus::Running
    }

    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        if !self.querier.accept(&event) {
            return StepStatus::Running;
        }
        match event {
            ClientEvent::Response {
                from,
                message,
                protocol,
                ..
            } => {
                if self.querier.retry_over_tcp(&message, protocol) {
                    self.send(out);
                    return StepStatus::Running;
                }
                let status = if message.flags().truncated {
                    Status::Truncated
                } else {
                    Status::from_rcode(message.rcode())
                };
                self.finish(now, status, Some((&message, from, protocol)))
            }
            ClientEvent::Timeout { .. } | ClientEvent::TransportFailed { .. } => {
                self.transport_failed |= matches!(event, ClientEvent::TransportFailed { .. });
                if self.querier.retries_used <= self.querier.core.config.retries {
                    // Rotate to the next server (ZDNS load-balances
                    // retries across its resolver list; a probe's list
                    // is its one server).
                    self.send(out);
                    StepStatus::Running
                } else if self.transport_failed {
                    // At least one attempt died to an I/O failure rather
                    // than silence: report ERROR, not TIMEOUT.
                    self.finish(now, Status::Error, None)
                } else {
                    self.finish(now, Status::Timeout, None)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Iterative mode
// ---------------------------------------------------------------------------

/// Total time one iterative lookup may take.
const LOOKUP_BUDGET: SimTime = 15 * zdns_netsim::SECONDS;

/// Most queries one iterative lookup sends (the runaway guard).
const MAX_QUERIES_PER_LOOKUP: u32 = 64;

#[derive(Debug, Clone)]
struct Candidate {
    ns: Name,
    addr: Option<Ipv4Addr>,
    dead: bool,
}

struct Walk {
    q: Question,
    chain: Vec<Record>,
    cname_hops: u32,
    zone: Name,
    depth: u32,
    candidates: Vec<Candidate>,
    cand_idx: usize,
    attempt: u32,
    /// Which candidate of the parent walk this NS-address walk serves.
    parent_cand: Option<usize>,
}

/// ZDNS's own caching iterative resolver as a state machine.
pub struct IterativeMachine {
    querier: Querier,
    original: Question,
    stack: Vec<Walk>,
    trace: Vec<TraceStep>,
}

impl IterativeMachine {
    /// Build a machine for `question`. With `keep`, it holds its result
    /// for [`IterativeMachine::take_result`]; without, it builds none.
    pub fn new(core: Arc<ResolverCore>, question: Question, keep: bool) -> IterativeMachine {
        let timeout = core.config.iteration_timeout;
        IterativeMachine {
            querier: Querier::new(core, &question.name, false, timeout, keep),
            original: question,
            stack: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// The finished lookup's result, once, if it is kept: `None` before
    /// the end and after the first call.
    pub fn take_result(&mut self) -> Option<LookupResult> {
        self.querier.result.take()
    }

    fn new_walk(&mut self, q: Question, parent_cand: Option<usize>, now: SimTime) -> Walk {
        let core = &self.querier.core;
        let (zone, candidates, cached) = match core.cache.deepest_cut(&q.name, now) {
            Some((cut, ns_records)) => {
                let mut candidates = Vec::with_capacity(ns_records.len());
                core.cache
                    .cut_addresses(&cut, &ns_records, now, |ns, addr| {
                        candidates.push(Candidate {
                            ns: ns.clone(),
                            addr,
                            dead: false,
                        })
                    });
                (cut, candidates, true)
            }
            None => {
                let candidates = core
                    .config
                    .root_hints
                    .iter()
                    .map(|(ns, addr)| Candidate {
                        ns: ns.clone(),
                        addr: Some(*addr),
                        dead: false,
                    })
                    .collect();
                (Name::root(), candidates, false)
            }
        };
        if cached && core.config.detail == Detail::Trace {
            self.trace
                .push(step_for(&q, &zone, 1, "cache".to_string(), 1, true, None));
        }
        let mut walk = Walk {
            q,
            chain: Vec::new(),
            cname_hops: 0,
            zone,
            depth: 0,
            candidates,
            cand_idx: 0,
            attempt: 0,
            parent_cand,
        };
        Self::rotate_candidates(&mut walk);
        walk
    }

    /// Spread load across a zone's nameservers deterministically.
    fn rotate_candidates(walk: &mut Walk) {
        if walk.candidates.len() > 1 {
            let r = query_id(&walk.q.name, walk.depth) as usize % walk.candidates.len();
            walk.candidates.rotate_left(r);
        }
        // Glued candidates first: querying them needs no extra resolution.
        walk.candidates.sort_by_key(|c| c.addr.is_none());
    }

    /// One candidate per nameserver host of a referral's NS records,
    /// addressed from the referral's own `glue` or, failing that, from the
    /// cache.
    fn candidates_from_ns(
        &self,
        ns_records: &[Record],
        glue: &[Record],
        now: SimTime,
    ) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(ns_records.len());
        let hosts = ns_records.iter().filter_map(|r| match &r.rdata {
            RData::Ns(host) => Some(host.clone()),
            _ => None,
        });
        for ns in hosts {
            let mut addr = glue.iter().find_map(|g| {
                if g.name == ns {
                    match &g.rdata {
                        RData::A(a) => Some(*a),
                        _ => None,
                    }
                } else {
                    None
                }
            });
            if addr.is_none() {
                // Borrowing accessor: this glue probe runs once per NS per
                // referral on the iterative hot path, and `get` would
                // refresh the entry's recency just to pick one address.
                let cache = &self.querier.core.cache;
                addr = cache
                    .with_records(&ns, RecordType::A, now, |records, _| {
                        records.iter().find_map(|r| r.a_addr())
                    })
                    .flatten();
            }
            out.push(Candidate {
                ns,
                addr,
                dead: false,
            });
        }
        out
    }

    /// Ask the current candidate: a `new_server` when the walk has just
    /// picked it, the same one again on a retry or after TC.
    fn send_current(&mut self, new_server: bool, out: &mut Vec<OutQuery>) {
        let walk = self.stack.last().expect("active walk");
        let to = walk.candidates[walk.cand_idx]
            .addr
            .expect("send_current requires an address");
        self.querier.send(to, &walk.q, new_server, out);
    }

    /// Drive the machine forward until a query is in flight or the lookup
    /// completes.
    fn advance(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        loop {
            if self.querier.queries >= MAX_QUERIES_PER_LOOKUP
                || now.saturating_sub(self.querier.started) > LOOKUP_BUDGET
            {
                return self.finish(now, Status::IterativeTimeout, None);
            }
            let stack_len = self.stack.len();
            let walk = self.stack.last_mut().expect("active walk");

            // Find a usable candidate: first a live one with an address...
            let next_with_addr = walk
                .candidates
                .iter()
                .enumerate()
                .skip(walk.cand_idx)
                .find(|(_, c)| !c.dead && c.addr.is_some())
                .map(|(i, _)| i);
            if let Some(i) = next_with_addr {
                walk.cand_idx = i;
                self.send_current(true, out);
                return StepStatus::Running;
            }
            // ...then a live glueless one we can resolve.
            let glueless = walk
                .candidates
                .iter()
                .enumerate()
                .find(|(_, c)| !c.dead && c.addr.is_none())
                .map(|(i, c)| (i, c.ns.clone()));
            if let Some((i, ns_name)) = glueless {
                // Guard against resolution cycles: the NS host must not sit
                // inside the zone we are currently stuck on, and nesting is
                // bounded.
                if stack_len > MAX_NS_SUBWALKS || ns_name.is_subdomain_of(&walk.zone) {
                    walk.candidates[i].dead = true;
                    continue;
                }
                walk.cand_idx = i;
                let sub_q = Question::new(ns_name, RecordType::A);
                let sub = self.new_walk(sub_q, Some(i), now);
                self.stack.push(sub);
                continue;
            }
            // All candidates dead: this walk failed.
            let failed = self.stack.pop().expect("active walk");
            if self.stack.is_empty() {
                return self.finish(now, Status::ServFail, None);
            }
            // Mark the parent candidate as unresolvable.
            if let Some(ci) = failed.parent_cand {
                if let Some(parent) = self.stack.last_mut() {
                    parent.candidates[ci].dead = true;
                }
            }
        }
    }

    fn current_candidate_exhausted(&mut self) {
        let walk = self.stack.last_mut().expect("active walk");
        walk.candidates[walk.cand_idx].dead = true;
        walk.cand_idx = 0; // rescan from the start; dead ones are skipped
        walk.attempt = 0;
    }

    fn record_trace(&mut self, message: &MsgRef<'_>, from: Ipv4Addr) {
        if self.querier.core.config.detail != Detail::Trace {
            return;
        }
        let walk = self.stack.last().expect("active walk");
        self.trace.push(step_for(
            &walk.q,
            &walk.zone,
            walk.depth + 1,
            server_text(from),
            walk.attempt + 1,
            false,
            message.to_message().ok(),
        ));
    }

    /// Complete a walk with an authoritative outcome.
    fn finish_walk(
        &mut self,
        now: SimTime,
        status: Status,
        reply: Option<Reply<'_, '_>>,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        let walk = self.stack.pop().expect("active walk");
        if self.stack.is_empty() {
            return self.end(now, status, reply, Some(walk), true);
        }
        // NS-address sub-walk: hand addresses to the parent candidate.
        let mut addrs: Vec<Ipv4Addr> = Vec::new();
        if status == Status::NoError {
            for r in &walk.chain {
                if let RData::A(a) = r.rdata {
                    addrs.push(a);
                }
            }
            if let Some((m, ..)) = reply {
                addrs.extend(m.answers().filter_map(|r| r.a_addr()));
            }
        }
        if let Some(ci) = walk.parent_cand {
            let parent = self.stack.last_mut().expect("parent walk");
            match addrs.first() {
                Some(&a) => parent.candidates[ci].addr = Some(a),
                None => parent.candidates[ci].dead = true,
            }
        }
        self.advance(now, out)
    }

    /// Failure outside a completed walk: salvage whatever chain the
    /// outermost walk holds.
    fn finish(&mut self, now: SimTime, status: Status, reply: Option<Reply<'_, '_>>) -> StepStatus {
        let outermost = self.stack.drain(..).next();
        self.end(now, status, reply, outermost, false)
    }

    /// End the lookup. The result keeps `walk`'s CNAME chain, zone cut
    /// and nameservers, followed by `reply`'s answers if `answered`, and
    /// the trace.
    fn end(
        &mut self,
        now: SimTime,
        status: Status,
        reply: Option<Reply<'_, '_>>,
        walk: Option<Walk>,
        answered: bool,
    ) -> StepStatus {
        self.querier
            .finish(now, &self.original, status, reply, |result| {
                if let Some(walk) = walk {
                    result.answers = walk.chain;
                    result.delegation = Some(DelegationInfo {
                        zone: walk.zone,
                        nameservers: walk
                            .candidates
                            .into_iter()
                            .map(|c| (c.ns, c.addr))
                            .collect(),
                    });
                }
                match reply {
                    // No CNAME chain (the common case): the promoted
                    // section is the whole answer.
                    Some((m, ..)) if answered && result.answers.is_empty() => {
                        result.answers = m.answers_vec()
                    }
                    Some((m, ..)) if answered => result.answers.extend(m.answers_vec()),
                    _ => {}
                }
                result.trace = std::mem::take(&mut self.trace);
            })
    }

    /// Selective caching (§3.4): NS RRsets at zone cuts plus in-bailiwick
    /// glue addresses — never the leaf answers. The delegation is one
    /// entry that carries the glue it came with; the glue RRsets are also
    /// cached on their own, for glueless referrals elsewhere.
    fn cache_referral(
        &self,
        cut: &Name,
        ns_records: &[Record],
        glue: &[Record],
        bailiwick: &Name,
        now: SimTime,
    ) {
        // Bailiwick rule: only names the referring zone may speak for.
        let usable = |rec: &Record| {
            matches!(rec.rtype, RecordType::A | RecordType::AAAA)
                && rec.name.is_subdomain_of(bailiwick)
        };
        self.querier.core.cache.put_delegation(
            cut,
            ns_records,
            |host| {
                glue.iter()
                    .find(|g| g.rtype == RecordType::A && g.name == *host && usable(g))
            },
            now,
        );
        // Cache each glue address RRset — the records sharing a (name,
        // type) — once, where it first appears. Servers emit an RRset's
        // records together, so this is also the order the sets end in.
        for (i, rec) in glue.iter().enumerate() {
            if !usable(rec) {
                continue;
            }
            let same_set = |g: &Record| g.name == rec.name && g.rtype == rec.rtype;
            if glue[..i].iter().any(same_set) {
                continue;
            }
            self.querier.core.cache.put_records(
                &CacheKey {
                    name: rec.name.clone(),
                    rtype: rec.rtype,
                },
                glue[i..].iter().filter(|g| same_set(g)),
                None,
                now,
            );
        }
    }

    fn handle_response(
        &mut self,
        message: MsgRef<'_>,
        from: Ipv4Addr,
        protocol: Protocol,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        self.record_trace(&message, from);
        let reply = Some((&message, from, protocol));

        // Truncation → TCP fallback against the same server.
        if self.querier.retry_over_tcp(&message, protocol) {
            self.send_current(false, out);
            return StepStatus::Running;
        }
        if message.flags().truncated {
            return self.finish(now, Status::Truncated, reply);
        }

        match message.rcode() {
            Rcode::NxDomain => return self.finish_walk(now, Status::NxDomain, reply, out),
            Rcode::NoError => {}
            _ => {
                // REFUSED / SERVFAIL / anything else: lame or broken server.
                self.current_candidate_exhausted();
                return self.advance(now, out);
            }
        }

        let walk = self.stack.last_mut().expect("active walk");
        let wants = walk.q.qtype;
        // One borrowed pass over the answer section: nothing is promoted
        // unless this response turns out to be a CNAME restart or a keeper.
        let mut has_final = false;
        let mut trailing_cname: Option<Name> = None;
        let mut answers_empty = true;
        for rec in message.answers() {
            answers_empty = false;
            if rec.rtype() == wants || wants == RecordType::ANY {
                has_final = true;
            }
            if wants != RecordType::CNAME {
                if let Some(target) = rec.cname_target() {
                    trailing_cname = Some(target);
                }
            }
        }

        if !answers_empty {
            if has_final {
                return self.finish_walk(now, Status::NoError, reply, out);
            }
            if let Some(target) = trailing_cname {
                // CNAME restart: keep the chain, walk again for the target.
                walk.chain.extend(message.answers_vec());
                walk.cname_hops += 1;
                if walk.cname_hops > MAX_CNAME_HOPS {
                    return self.finish(now, Status::ServFail, reply);
                }
                let q = Question {
                    name: target,
                    qtype: wants,
                    qclass: walk.q.qclass,
                };
                let chain = std::mem::take(&mut walk.chain);
                let hops = walk.cname_hops;
                let parent_cand = walk.parent_cand;
                let mut fresh = self.new_walk(q, parent_cand, now);
                fresh.chain = chain;
                fresh.cname_hops = hops;
                *self.stack.last_mut().expect("active walk") = fresh;
                return self.advance(now, out);
            }
            // Answers of some other type: return them as-is.
            return self.finish_walk(now, Status::NoError, reply, out);
        }

        // No answers: referral or negative.
        let authoritative = message.flags().authoritative;
        let ns_refs: Vec<Record> = message
            .authorities()
            .filter(|r| r.rtype() == RecordType::NS)
            .filter_map(|r| r.to_record())
            .collect();
        if !ns_refs.is_empty() && !authoritative {
            let cut = ns_refs[0].name.clone();
            // Validity: the cut must enclose the qname and be strictly
            // deeper than the current zone — otherwise it is a lame upward
            // or sideways referral.
            let valid = walk.q.name.is_subdomain_of(&cut)
                && cut.is_subdomain_of(&walk.zone)
                && cut != walk.zone;
            if !valid {
                self.current_candidate_exhausted();
                return self.advance(now, out);
            }
            if walk.depth + 1 > MAX_REFERRALS {
                return self.finish(now, Status::IterativeTimeout, reply);
            }
            let bailiwick = walk.zone.clone();
            walk.zone = cut.clone();
            walk.depth += 1;
            walk.attempt = 0;
            walk.cand_idx = 0;
            // Referral RRsets are kept (candidates + selective cache), so
            // this is exactly the promote-on-keep point.
            let glue = message.additionals_vec();
            let candidates = self.candidates_from_ns(&ns_refs, &glue, now);
            let w = self.stack.last_mut().expect("active walk");
            w.candidates = candidates;
            Self::rotate_candidates(w);
            self.cache_referral(&cut, &ns_refs, &glue, &bailiwick, now);
            return self.advance(now, out);
        }
        if authoritative {
            // NODATA.
            return self.finish_walk(now, Status::NoError, reply, out);
        }
        // Neither referral nor authoritative data: broken server.
        self.current_candidate_exhausted();
        self.advance(now, out)
    }
}

impl SimClient for IterativeMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        self.querier.start(now);
        if self.querier.core.config.root_hints.is_empty() {
            return self.finish(now, Status::Error, None);
        }
        let walk = self.new_walk(self.original.clone(), None, now);
        self.stack.push(walk);
        self.advance(now, out)
    }

    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        if !self.querier.accept(&event) {
            return StepStatus::Running;
        }
        match event {
            ClientEvent::Response {
                from,
                message,
                protocol,
                ..
            } => self.handle_response(message, from, protocol, now, out),
            ClientEvent::Timeout { .. } => {
                let walk = self.stack.last_mut().expect("active walk");
                walk.attempt += 1;
                if walk.attempt < self.querier.core.config.retries {
                    self.send_current(false, out);
                    StepStatus::Running
                } else {
                    self.current_candidate_exhausted();
                    self.advance(now, out)
                }
            }
            ClientEvent::TransportFailed { .. } => {
                // An I/O failure is not silence — the server (or the route
                // to it) is broken, so skip straight to the next candidate
                // instead of burning retries on it.
                self.current_candidate_exhausted();
                self.advance(now, out)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One lookup of either kind
// ---------------------------------------------------------------------------

/// One lookup as the resolver hands it out: a stub exchange (external or
/// probe) or an iterative walk, held by value. The two are about one size
/// (each carries its querier and the result it keeps), so neither takes a
/// box of its own. A kept one holds its result until its owner takes it,
/// by value, with [`Lookup::take_result`].
pub enum Lookup {
    /// An external lookup or a probe of one server.
    Stub(StubMachine),
    /// ZDNS's own iterative walk.
    Iterative(IterativeMachine),
}

impl Lookup {
    /// The finished lookup's result, once, if it is kept.
    pub fn take_result(&mut self) -> Option<LookupResult> {
        match self {
            Lookup::Stub(m) => m.take_result(),
            Lookup::Iterative(m) => m.take_result(),
        }
    }

    /// This kept lookup as a machine that hands its result to `sink` as it
    /// ends: for an owner that gives the machine away to a driver, which
    /// drops it when it is done.
    pub fn with_sink(self, sink: ResultSink) -> Box<dyn SimClient> {
        Box::new(Sinked { lookup: self, sink })
    }
}

impl SimClient for Lookup {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        match self {
            Lookup::Stub(m) => m.start(now, out),
            Lookup::Iterative(m) => m.start(now, out),
        }
    }

    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        match self {
            Lookup::Stub(m) => m.on_event(event, now, out),
            Lookup::Iterative(m) => m.on_event(event, now, out),
        }
    }
}

/// A kept lookup that hands its result to a sink as it ends
/// ([`Lookup::with_sink`]).
struct Sinked {
    lookup: Lookup,
    sink: ResultSink,
}

impl Sinked {
    fn deliver(&mut self, step: StepStatus) -> StepStatus {
        if matches!(step, StepStatus::Done(_)) {
            if let Some(result) = self.lookup.take_result() {
                (self.sink)(result);
            }
        }
        step
    }
}

impl SimClient for Sinked {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        let step = self.lookup.start(now, out);
        self.deliver(step)
    }

    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        let step = self.lookup.on_event(event, now, out);
        self.deliver(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_referral_puts_each_rrset_once() {
        let core = ResolverCore::new(ResolverConfig::default());
        let zone: Name = "example.com".parse().unwrap();
        let ns1: Name = "ns1.example.com".parse().unwrap();
        let ns2: Name = "ns2.example.com".parse().unwrap();
        let question = Question::new("www.example.com".parse().unwrap(), RecordType::A);
        let machine = IterativeMachine::new(Arc::clone(&core), question.clone(), false);
        let ns_records: Vec<Record> = [&ns1, &ns2]
            .map(|ns| Record::new(zone.clone(), 3600, RData::Ns(ns.clone())))
            .into();
        let a = |name: &Name, last: u8| {
            Record::new(name.clone(), 3600, RData::A(Ipv4Addr::new(192, 0, 2, last)))
        };
        // ns1 has two addresses (one RRset of two records), ns2 an A and
        // an AAAA (two RRsets), and one glue record is out of bailiwick.
        let glue = vec![
            a(&ns1, 1),
            a(&ns1, 2),
            a(&ns2, 3),
            Record::new(
                ns2.clone(),
                3600,
                RData::Aaaa("2001:db8::3".parse().unwrap()),
            ),
            a(&"ns.elsewhere.org".parse().unwrap(), 9),
        ];
        machine.cache_referral(&zone, &ns_records, &glue, &"com".parse().unwrap(), 0);

        // One put for the NS set and one per in-bailiwick glue RRset —
        // not one per glue record.
        assert_eq!(
            core.cache.puts.load(std::sync::atomic::Ordering::Relaxed),
            4
        );
        assert_eq!(core.cache.len(), 4);
        let cached = |name: &Name, rtype| core.cache.get(name, rtype, 0).map(|hit| hit.to_vec());
        assert_eq!(cached(&ns1, RecordType::A).as_deref(), Some(&glue[..2]));
        assert_eq!(cached(&ns2, RecordType::A).as_deref(), Some(&glue[2..3]));
        assert_eq!(cached(&ns2, RecordType::AAAA).as_deref(), Some(&glue[3..4]));
        // What a later walk reads back is what it always was: the cut,
        // its NS set, and the first glue address of each nameserver.
        let (cut, cached_ns) = core.cache.deepest_cut(&question.name, 0).unwrap();
        assert_eq!(cut, zone);
        assert_eq!(cached_ns.to_vec(), ns_records);
        let mut addrs = Vec::new();
        core.cache.cut_addresses(&cut, &cached_ns, 0, |ns, addr| {
            addrs.push((ns.clone(), addr))
        });
        assert_eq!(
            addrs,
            vec![
                (ns1, Some(Ipv4Addr::new(192, 0, 2, 1))),
                (ns2, Some(Ipv4Addr::new(192, 0, 2, 3))),
            ]
        );
    }

    #[test]
    fn a_cached_cut_keeps_its_glue_when_the_glue_entries_are_evicted() {
        // Two entries per shard, so churn soon evicts the glue entries.
        let core = ResolverCore::new(ResolverConfig {
            cache_size: 128,
            ..ResolverConfig::default()
        });
        let zone: Name = "example.com".parse().unwrap();
        let hosts: [Name; 2] = ["ns1.example.com", "ns2.example.com"].map(|h| h.parse().unwrap());
        let question = Question::new("www.example.com".parse().unwrap(), RecordType::A);
        let machine = IterativeMachine::new(Arc::clone(&core), question.clone(), false);
        let ns_records: Vec<Record> = hosts
            .iter()
            .map(|ns| Record::new(zone.clone(), 3600, RData::Ns(ns.clone())))
            .collect();
        let glue: Vec<Record> = hosts
            .iter()
            .zip(1..)
            .map(|(ns, last)| {
                Record::new(ns.clone(), 3600, RData::A(Ipv4Addr::new(192, 0, 2, last)))
            })
            .collect();
        machine.cache_referral(&zone, &ns_records, &glue, &"com".parse().unwrap(), 0);
        for i in 0..64 * 20 {
            // Walks keep the cut itself in use while unrelated names churn.
            assert!(core.cache.get(&zone, RecordType::NS, 0).is_some());
            let name: Name = format!("churn{i}.example.net").parse().unwrap();
            let a = Record::new(name.clone(), 3600, RData::A(Ipv4Addr::new(198, 51, 100, 1)));
            core.cache.put(
                CacheKey {
                    name,
                    rtype: RecordType::A,
                },
                [a],
                0,
            );
        }
        for host in &hosts {
            assert!(
                core.cache.get(host, RecordType::A, 0).is_none(),
                "{host} evicted"
            );
        }
        let (cut, cached_ns) = core.cache.deepest_cut(&question.name, 0).unwrap();
        assert_eq!(cut, zone);
        let mut addrs = Vec::new();
        core.cache.cut_addresses(&cut, &cached_ns, 0, |ns, addr| {
            addrs.push((ns.clone(), addr))
        });
        let want: Vec<_> = hosts
            .iter()
            .cloned()
            .zip([1, 2].map(|last| Some(Ipv4Addr::new(192, 0, 2, last))))
            .collect();
        assert_eq!(addrs, want);
    }

    #[test]
    fn keyed_cookie_is_reference_siphash24() {
        // The SipHash-2-4 paper's test vector: key 00..0f over the
        // 4-byte message 00 01 02 03 yields cf2794e0277187b7 (as a u64).
        // Our 4-octet message is the destination address, so the same
        // inputs must reproduce the reference output exactly — this
        // pins the derivation to the real PRF, not a lookalike.
        let secret: [u8; 16] = core::array::from_fn(|i| i as u8);
        let cookie = keyed_client_cookie(&secret, Ipv4Addr::new(0, 1, 2, 3));
        assert_eq!(cookie, 0xcf27_94e0_2771_87b7u64.to_be_bytes());
    }

    #[test]
    fn keyed_cookie_differs_per_destination_and_secret() {
        let a = keyed_client_cookie(&[1; 16], Ipv4Addr::new(192, 0, 2, 1));
        let b = keyed_client_cookie(&[1; 16], Ipv4Addr::new(192, 0, 2, 2));
        let c = keyed_client_cookie(&[2; 16], Ipv4Addr::new(192, 0, 2, 1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            keyed_client_cookie(&[1; 16], Ipv4Addr::new(192, 0, 2, 1))
        );
    }
}
