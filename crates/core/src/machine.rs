//! Lookup state machines.
//!
//! Each lookup is a state machine fed with responses/timeouts — the shape
//! that lets one implementation run under both the discrete-event simulator
//! (tens of thousands of concurrent routines) and a blocking driver over
//! real sockets.
//!
//! * [`IterativeMachine`] — ZDNS's own recursion: start at the deepest
//!   cached zone cut (or the roots), follow referrals, chase CNAMEs,
//!   resolve glueless NS hosts with nested walks, record the lookup chain,
//!   and cache *only* NS/glue RRsets (§3.4 selective caching).
//! * [`ExternalMachine`] — RD=1 queries against external recursive
//!   resolvers with retry/rotation (the Google/Cloudflare rows).
//! * [`DirectMachine`] — one server, one question, n retries; the building
//!   block for the §5 `--all-nameservers` extension and misc modules.
//!
//! Responses arrive as [`MsgRef`] — a borrowed [`zdns_wire::MessageView`]
//! on the reactor's UDP hot path, an owned [`zdns_wire::Message`] elsewhere.
//! Machines inspect the borrowed form and **promote** records to owned
//! values only when they keep them: the CNAME chain, referral NS/glue
//! RRsets headed for the cache, and the final [`LookupResult`] (which is
//! not even built unless a result sink is attached). Queries go out as
//! [`OutQuery`] field bundles, not messages — on the reactor they are
//! encoded straight into a scratch buffer, so the steady-state send path
//! performs zero heap allocations.

use std::net::Ipv4Addr;
use std::sync::Arc;

use zdns_netsim::{ClientEvent, JobOutcome, OutQuery, Protocol, SimClient, SimTime, StepStatus};
use zdns_wire::{Cookie, MsgRef, Name, Question, RData, Rcode, Record, RecordType};

use crate::cache::{Cache, CacheKey, CachedRecords};
use crate::config::{ResolutionMode, ResolverConfig};
use crate::result::{DelegationInfo, LookupResult};
use crate::stats::Stats;
use crate::status::Status;
use crate::trace::{step_for, TraceStep};

/// Shared state behind every machine: config, selective cache, counters.
pub struct ResolverCore {
    /// Resolver configuration.
    pub config: ResolverConfig,
    /// The selective infrastructure cache.
    pub cache: Cache,
    /// Run-time counters.
    pub stats: Stats,
}

impl ResolverCore {
    /// Build from a config.
    pub fn new(config: ResolverConfig) -> Arc<ResolverCore> {
        let cache = Cache::new(config.cache_size);
        Arc::new(ResolverCore {
            config,
            cache,
            stats: Stats::default(),
        })
    }

    /// The machine-side cookie state for a lookup of `name`, if cookies
    /// are enabled: keyed per-destination derivation when a secret is
    /// configured (RFC 7873 §6), the reproducible per-name hash
    /// otherwise.
    fn cookie_state(&self, name: &Name) -> Option<CookieState> {
        self.config
            .edns_cookies
            .then(|| match self.config.cookie_secret {
                Some(secret) => CookieState::keyed(secret),
                None => CookieState::per_name(client_cookie_for(name)),
            })
    }
}

/// Callback invoked with the full result of each finished lookup.
pub type ResultSink = Arc<dyn Fn(LookupResult) + Send + Sync>;

/// The nameserver hosts of a referral's NS records.
fn ns_hosts(ns_records: &[Record]) -> impl Iterator<Item = Name> + '_ {
    ns_records.iter().filter_map(|r| match &r.rdata {
        RData::Ns(host) => Some(host.clone()),
        _ => None,
    })
}

/// The nameserver hosts of a cached NS section, read in place: the
/// records themselves are never promoted.
fn cached_ns_hosts(ns_records: &CachedRecords) -> impl Iterator<Item = Name> + '_ {
    ns_records.iter().filter_map(|r| match r.rtype {
        RecordType::NS => r.target_name(),
        _ => None,
    })
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
    fn per_name(client: [u8; 8]) -> CookieState {
        CookieState {
            key: CookieKey::PerName(client),
            learned: None,
        }
    }

    fn keyed(secret: [u8; 16]) -> CookieState {
        CookieState {
            key: CookieKey::Keyed(secret),
            learned: None,
        }
    }

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
// External mode
// ---------------------------------------------------------------------------

/// RD=1 lookups against external recursive resolvers.
pub struct ExternalMachine {
    core: Arc<ResolverCore>,
    question: Question,
    servers: Vec<Ipv4Addr>,
    server_idx: usize,
    attempt: u32,
    retries_used: u32,
    queries: u32,
    started: SimTime,
    tag: u64,
    over_tcp: bool,
    transport_failed: bool,
    cookies: Option<CookieState>,
    sink: Option<ResultSink>,
}

impl ExternalMachine {
    /// Build a machine for `question`.
    pub fn new(
        core: Arc<ResolverCore>,
        question: Question,
        sink: Option<ResultSink>,
    ) -> ExternalMachine {
        let servers = match &core.config.mode {
            ResolutionMode::External { servers } => servers.clone(),
            ResolutionMode::Iterative => Vec::new(),
        };
        // Load-balance the starting server across lookups.
        let server_idx = if servers.is_empty() {
            0
        } else {
            query_id(&question.name, 0) as usize % servers.len()
        };
        let cookies = core.cookie_state(&question.name);
        ExternalMachine {
            core,
            question,
            servers,
            server_idx,
            attempt: 0,
            retries_used: 0,
            queries: 0,
            started: 0,
            tag: 0,
            over_tcp: false,
            transport_failed: false,
            cookies,
            sink,
        }
    }

    fn current_server(&self) -> Ipv4Addr {
        self.servers[self.server_idx % self.servers.len()]
    }

    /// The cookie this machine's most recent query carried (tests).
    #[doc(hidden)]
    pub fn last_cookie_for(&self, dest: Ipv4Addr) -> Option<Cookie> {
        self.cookies.as_ref().map(|c| c.for_dest(dest))
    }

    fn send(&mut self, out: &mut Vec<OutQuery>) {
        self.queries += 1;
        self.tag += 1;
        let to = self.current_server();
        let protocol = if self.over_tcp || self.core.config.tcp_only {
            Protocol::Tcp
        } else {
            Protocol::Udp
        };
        out.push(OutQuery {
            to,
            id: query_id(&self.question.name, self.queries),
            question: self.question.clone(),
            recursion_desired: true,
            cookie: self.cookies.as_ref().map(|c| c.for_dest(to)),
            protocol,
            timeout: self.core.config.timeout,
            tag: self.tag,
        });
        self.core
            .stats
            .queries_sent
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn finish(
        &mut self,
        now: SimTime,
        status: Status,
        response: Option<(&MsgRef<'_>, Ipv4Addr)>,
    ) -> StepStatus {
        self.core.stats.record_lookup(status);
        if let Some(sink) = &self.sink {
            // Promotion happens here — and only here — because the result
            // is being kept. Sink-less lookups (scans that only count
            // statuses) never materialize the sections at all.
            let result = LookupResult {
                name: self.question.name.clone(),
                qtype: self.question.qtype,
                status,
                answers: response.map(|(m, _)| m.answers_vec()).unwrap_or_default(),
                authorities: response
                    .map(|(m, _)| m.authorities_vec())
                    .unwrap_or_default(),
                additionals: response
                    .map(|(m, _)| m.additionals_vec())
                    .unwrap_or_default(),
                flags: response.map(|(m, _)| m.flags()),
                resolver: response.map(|(_, ip)| format!("{ip}:53")),
                protocol: if self.over_tcp { "tcp" } else { "udp" },
                trace: Vec::new(),
                delegation: None,
                queries_sent: self.queries,
                retries_used: self.retries_used,
                duration: now.saturating_sub(self.started),
                timestamp: now,
            };
            sink(result);
        }
        StepStatus::Done(JobOutcome {
            success: status.is_success(),
            status: status.as_str(),
        })
    }
}

impl SimClient for ExternalMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        self.started = now;
        if self.servers.is_empty() {
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
        let failed = matches!(event, ClientEvent::TransportFailed { .. });
        match event {
            ClientEvent::Response {
                tag,
                from,
                message,
                protocol,
            } => {
                if tag != self.tag {
                    return StepStatus::Running; // stale
                }
                if let Some(cookies) = self.cookies.as_mut() {
                    cookies.learn(from, message.cookie());
                }
                let flags = message.flags();
                if flags.truncated && protocol == Protocol::Udp && self.core.config.tcp_on_truncated
                {
                    // Retry over TCP against the same resolver.
                    self.over_tcp = true;
                    self.core
                        .stats
                        .tcp_fallbacks
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.send(out);
                    return StepStatus::Running;
                }
                if flags.truncated {
                    return self.finish(now, Status::Truncated, Some((&message, from)));
                }
                let status = Status::from_rcode(message.rcode());
                self.finish(now, status, Some((&message, from)))
            }
            ClientEvent::Timeout { tag } | ClientEvent::TransportFailed { tag } => {
                if tag != self.tag {
                    return StepStatus::Running;
                }
                if failed {
                    self.transport_failed = true;
                }
                self.attempt += 1;
                self.retries_used += 1;
                self.core
                    .stats
                    .retries
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if self.attempt <= self.core.config.retries {
                    // Rotate to the next upstream (ZDNS load-balances
                    // retries across its resolver list).
                    self.server_idx += 1;
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

/// What the iterative machine is after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveTarget {
    /// Resolve to a final answer (normal lookups).
    Answer,
    /// Resolve normally but keep the final delegation for the caller (the
    /// §5 `--all-nameservers` extension builds on this).
    Delegation,
}

/// ZDNS's own caching iterative resolver as a state machine.
pub struct IterativeMachine {
    core: Arc<ResolverCore>,
    original: Question,
    stack: Vec<Walk>,
    trace: Vec<TraceStep>,
    queries: u32,
    retries_used: u32,
    started: SimTime,
    tag: u64,
    over_tcp: bool,
    cookies: Option<CookieState>,
    sink: Option<ResultSink>,
    #[allow(dead_code)]
    target: ResolveTarget,
}

impl IterativeMachine {
    /// Build a machine for `question`.
    pub fn new(
        core: Arc<ResolverCore>,
        question: Question,
        target: ResolveTarget,
        sink: Option<ResultSink>,
    ) -> IterativeMachine {
        let cookies = core.cookie_state(&question.name);
        IterativeMachine {
            core,
            original: question,
            stack: Vec::new(),
            trace: Vec::new(),
            queries: 0,
            retries_used: 0,
            started: 0,
            tag: 0,
            over_tcp: false,
            cookies,
            sink,
            target,
        }
    }

    fn new_walk(&mut self, q: Question, parent_cand: Option<usize>, now: SimTime) -> Walk {
        let (zone, candidates, cached) = match self.core.cache.deepest_cut(&q.name, now) {
            Some((cut, ns_records)) => {
                let candidates = self.candidates_from_ns(cached_ns_hosts(&ns_records), &[], now);
                (cut, candidates, true)
            }
            None => {
                let candidates = self
                    .core
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
        if cached && self.core.config.trace {
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

    /// One candidate per nameserver host, addressed from the referral's
    /// own `glue` or, failing that, from the cache.
    fn candidates_from_ns(
        &self,
        ns_hosts: impl Iterator<Item = Name>,
        glue: &[Record],
        now: SimTime,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        for ns in ns_hosts {
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
                addr = self
                    .core
                    .cache
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

    fn send_current(&mut self, out: &mut Vec<OutQuery>) {
        let walk = self.stack.last().expect("active walk");
        let candidate = &walk.candidates[walk.cand_idx];
        let addr = candidate.addr.expect("send_current requires an address");
        self.queries += 1;
        self.tag += 1;
        let protocol = if self.over_tcp || self.core.config.tcp_only {
            Protocol::Tcp
        } else {
            Protocol::Udp
        };
        out.push(OutQuery {
            to: addr,
            id: query_id(&walk.q.name, self.queries),
            question: walk.q.clone(),
            recursion_desired: false,
            cookie: self.cookies.as_ref().map(|c| c.for_dest(addr)),
            protocol,
            timeout: self.core.config.iteration_timeout,
            tag: self.tag,
        });
        self.core
            .stats
            .queries_sent
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drive the machine forward until a query is in flight or the lookup
    /// completes.
    fn advance(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        loop {
            if self.queries >= self.core.config.max_queries_per_lookup
                || now.saturating_sub(self.started) > self.core.config.lookup_budget
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
                self.over_tcp = self.core.config.tcp_only;
                self.send_current(out);
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
                if stack_len >= 4 || ns_name.is_subdomain_of(&walk.zone) {
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
        self.over_tcp = false;
    }

    fn record_trace(&mut self, message: &MsgRef<'_>, from: Ipv4Addr) {
        if !self.core.config.trace {
            return;
        }
        let walk = self.stack.last().expect("active walk");
        self.trace.push(step_for(
            &walk.q,
            &walk.zone,
            walk.depth + 1,
            format!("{from}:53"),
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
        message: Option<(&MsgRef<'_>, Ipv4Addr)>,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        let walk = self.stack.pop().expect("active walk");
        if self.stack.is_empty() {
            let mut answers = walk.chain.clone();
            if let Some((m, _)) = message {
                answers.extend(m.answers_vec());
            }
            let delegation = Some(DelegationInfo {
                zone: walk.zone.clone(),
                nameservers: walk
                    .candidates
                    .iter()
                    .map(|c| (c.ns.clone(), c.addr))
                    .collect(),
            });
            return self.finish_with(now, status, message, answers, delegation);
        }
        // NS-address sub-walk: hand addresses to the parent candidate.
        let mut addrs: Vec<Ipv4Addr> = Vec::new();
        if status == Status::NoError {
            for r in &walk.chain {
                if let RData::A(a) = r.rdata {
                    addrs.push(a);
                }
            }
            if let Some((m, _)) = message {
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

    fn finish(
        &mut self,
        now: SimTime,
        status: Status,
        message: Option<(&MsgRef<'_>, Ipv4Addr)>,
    ) -> StepStatus {
        // Failure outside a completed walk: salvage whatever chain exists.
        let answers = self
            .stack
            .first()
            .map(|w| w.chain.clone())
            .unwrap_or_default();
        let delegation = self.stack.first().map(|w| DelegationInfo {
            zone: w.zone.clone(),
            nameservers: w
                .candidates
                .iter()
                .map(|c| (c.ns.clone(), c.addr))
                .collect(),
        });
        self.finish_with(now, status, message, answers, delegation)
    }

    fn finish_with(
        &mut self,
        now: SimTime,
        status: Status,
        message: Option<(&MsgRef<'_>, Ipv4Addr)>,
        answers: Vec<Record>,
        delegation: Option<DelegationInfo>,
    ) -> StepStatus {
        self.core.stats.record_lookup(status);
        if let Some(sink) = &self.sink {
            let result = LookupResult {
                name: self.original.name.clone(),
                qtype: self.original.qtype,
                status,
                answers,
                authorities: message
                    .map(|(m, _)| m.authorities_vec())
                    .unwrap_or_default(),
                additionals: message
                    .map(|(m, _)| m.additionals_vec())
                    .unwrap_or_default(),
                flags: message.map(|(m, _)| m.flags()),
                resolver: message.map(|(_, ip)| format!("{ip}:53")),
                protocol: if self.over_tcp { "tcp" } else { "udp" },
                trace: std::mem::take(&mut self.trace),
                delegation,
                queries_sent: self.queries,
                retries_used: self.retries_used,
                duration: now.saturating_sub(self.started),
                timestamp: now,
            };
            sink(result);
        }
        self.stack.clear();
        StepStatus::Done(JobOutcome {
            success: status.is_success(),
            status: status.as_str(),
        })
    }

    /// Selective caching (§3.4): NS RRsets at zone cuts plus in-bailiwick
    /// glue addresses — never the leaf answers.
    fn cache_referral(
        &self,
        cut: &Name,
        ns_records: &[Record],
        glue: &[Record],
        bailiwick: &Name,
        now: SimTime,
    ) {
        self.core.cache.put(
            CacheKey {
                name: cut.clone(),
                rtype: RecordType::NS,
            },
            ns_records,
            now,
        );
        // Cache each glue address RRset — the records sharing a (name,
        // type) — once, where it first appears. Servers emit an RRset's
        // records together, so this is also the order the sets end in.
        for (i, rec) in glue.iter().enumerate() {
            if !matches!(rec.rtype, RecordType::A | RecordType::AAAA) {
                continue;
            }
            // Bailiwick rule: only names the referring zone may speak for.
            if !rec.name.is_subdomain_of(bailiwick) {
                continue;
            }
            let same_set = |g: &Record| g.name == rec.name && g.rtype == rec.rtype;
            if glue[..i].iter().any(same_set) {
                continue;
            }
            self.core.cache.put_records(
                &CacheKey {
                    name: rec.name.clone(),
                    rtype: rec.rtype,
                },
                glue[i..].iter().filter(|g| same_set(g)),
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
        if let Some(cookies) = self.cookies.as_mut() {
            cookies.learn(from, message.cookie());
        }

        // Truncation → TCP fallback against the same server.
        if message.flags().truncated {
            if protocol == Protocol::Udp && self.core.config.tcp_on_truncated {
                self.over_tcp = true;
                self.core
                    .stats
                    .tcp_fallbacks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.send_current(out);
                return StepStatus::Running;
            }
            return self.finish(now, Status::Truncated, Some((&message, from)));
        }

        match message.rcode() {
            Rcode::NxDomain => {
                return self.finish_walk(now, Status::NxDomain, Some((&message, from)), out)
            }
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
                return self.finish_walk(now, Status::NoError, Some((&message, from)), out);
            }
            if let Some(target) = trailing_cname {
                // CNAME restart: keep the chain, walk again for the target.
                walk.chain.extend(message.answers_vec());
                walk.cname_hops += 1;
                if walk.cname_hops > 8 {
                    return self.finish(now, Status::ServFail, Some((&message, from)));
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
            return self.finish_walk(now, Status::NoError, Some((&message, from)), out);
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
            if walk.depth + 1 > self.core.config.max_depth {
                return self.finish(now, Status::IterativeTimeout, Some((&message, from)));
            }
            let bailiwick = walk.zone.clone();
            walk.zone = cut.clone();
            walk.depth += 1;
            walk.attempt = 0;
            walk.cand_idx = 0;
            self.over_tcp = false;
            // Referral RRsets are kept (candidates + selective cache), so
            // this is exactly the promote-on-keep point.
            let glue = message.additionals_vec();
            let candidates = self.candidates_from_ns(ns_hosts(&ns_refs), &glue, now);
            let w = self.stack.last_mut().expect("active walk");
            w.candidates = candidates;
            Self::rotate_candidates(w);
            self.cache_referral(&cut, &ns_refs, &glue, &bailiwick, now);
            return self.advance(now, out);
        }
        if authoritative {
            // NODATA.
            return self.finish_walk(now, Status::NoError, Some((&message, from)), out);
        }
        // Neither referral nor authoritative data: broken server.
        self.current_candidate_exhausted();
        self.advance(now, out)
    }
}

impl SimClient for IterativeMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        self.started = now;
        if self.core.config.root_hints.is_empty() {
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
        match event {
            ClientEvent::Response {
                tag,
                from,
                message,
                protocol,
            } => {
                if tag != self.tag {
                    return StepStatus::Running;
                }
                self.handle_response(message, from, protocol, now, out)
            }
            ClientEvent::Timeout { tag } => {
                if tag != self.tag {
                    return StepStatus::Running;
                }
                self.retries_used += 1;
                self.core
                    .stats
                    .retries
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let retries = self.core.config.retries;
                let walk = self.stack.last_mut().expect("active walk");
                walk.attempt += 1;
                if walk.attempt < retries {
                    self.send_current(out);
                    StepStatus::Running
                } else {
                    self.current_candidate_exhausted();
                    self.advance(now, out)
                }
            }
            ClientEvent::TransportFailed { tag } => {
                if tag != self.tag {
                    return StepStatus::Running;
                }
                // An I/O failure is not silence — the server (or the route
                // to it) is broken, so skip straight to the next candidate
                // instead of burning retries on it.
                self.retries_used += 1;
                self.core
                    .stats
                    .retries
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.current_candidate_exhausted();
                self.advance(now, out)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Direct mode
// ---------------------------------------------------------------------------

/// One question to one specific server with retries — the probe primitive
/// behind `--all-nameservers` (§5) and misc modules like `version.bind`.
pub struct DirectMachine {
    core: Arc<ResolverCore>,
    question: Question,
    server: Ipv4Addr,
    recursion_desired: bool,
    attempt: u32,
    retries_used: u32,
    queries: u32,
    started: SimTime,
    tag: u64,
    over_tcp: bool,
    transport_failed: bool,
    cookies: Option<CookieState>,
    sink: Option<ResultSink>,
}

impl DirectMachine {
    /// Build a probe of `server` for `question`.
    pub fn new(
        core: Arc<ResolverCore>,
        question: Question,
        server: Ipv4Addr,
        recursion_desired: bool,
        sink: Option<ResultSink>,
    ) -> DirectMachine {
        let cookies = core.cookie_state(&question.name);
        DirectMachine {
            core,
            question,
            server,
            recursion_desired,
            attempt: 0,
            retries_used: 0,
            queries: 0,
            started: 0,
            tag: 0,
            over_tcp: false,
            transport_failed: false,
            cookies,
            sink,
        }
    }

    /// The cookie the next query will carry (tests).
    #[doc(hidden)]
    pub fn next_cookie(&self) -> Option<Cookie> {
        self.cookies.as_ref().map(|c| c.for_dest(self.server))
    }

    fn send(&mut self, out: &mut Vec<OutQuery>) {
        self.queries += 1;
        self.tag += 1;
        out.push(OutQuery {
            to: self.server,
            id: query_id(&self.question.name, self.queries),
            question: self.question.clone(),
            recursion_desired: self.recursion_desired,
            cookie: self.cookies.as_ref().map(|c| c.for_dest(self.server)),
            protocol: if self.over_tcp || self.core.config.tcp_only {
                Protocol::Tcp
            } else {
                Protocol::Udp
            },
            timeout: self.core.config.timeout,
            tag: self.tag,
        });
        self.core
            .stats
            .queries_sent
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn finish(&mut self, now: SimTime, status: Status, message: Option<&MsgRef<'_>>) -> StepStatus {
        self.core.stats.record_lookup(status);
        if let Some(sink) = &self.sink {
            let result = LookupResult {
                name: self.question.name.clone(),
                qtype: self.question.qtype,
                status,
                answers: message.map(|m| m.answers_vec()).unwrap_or_default(),
                authorities: message.map(|m| m.authorities_vec()).unwrap_or_default(),
                additionals: message.map(|m| m.additionals_vec()).unwrap_or_default(),
                flags: message.map(|m| m.flags()),
                resolver: Some(format!("{}:53", self.server)),
                protocol: if self.over_tcp { "tcp" } else { "udp" },
                trace: Vec::new(),
                delegation: None,
                queries_sent: self.queries,
                retries_used: self.retries_used,
                duration: now.saturating_sub(self.started),
                timestamp: now,
            };
            sink(result);
        }
        StepStatus::Done(JobOutcome {
            success: status.is_success(),
            status: status.as_str(),
        })
    }
}

impl SimClient for DirectMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        self.started = now;
        self.send(out);
        StepStatus::Running
    }

    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        let failed = matches!(event, ClientEvent::TransportFailed { .. });
        match event {
            ClientEvent::Response {
                tag,
                from,
                message,
                protocol,
            } => {
                if tag != self.tag {
                    return StepStatus::Running;
                }
                if let Some(cookies) = self.cookies.as_mut() {
                    cookies.learn(from, message.cookie());
                }
                if message.flags().truncated
                    && protocol == Protocol::Udp
                    && self.core.config.tcp_on_truncated
                {
                    self.over_tcp = true;
                    self.send(out);
                    return StepStatus::Running;
                }
                let status = Status::from_rcode(message.rcode());
                self.finish(now, status, Some(&message))
            }
            ClientEvent::Timeout { tag } | ClientEvent::TransportFailed { tag } => {
                if tag != self.tag {
                    return StepStatus::Running;
                }
                if failed {
                    self.transport_failed = true;
                }
                self.attempt += 1;
                self.retries_used += 1;
                if self.attempt <= self.core.config.retries {
                    self.send(out);
                    StepStatus::Running
                } else if self.transport_failed {
                    self.finish(now, Status::Error, None)
                } else {
                    self.finish(now, Status::Timeout, None)
                }
            }
        }
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
        let machine = IterativeMachine::new(
            Arc::clone(&core),
            question.clone(),
            ResolveTarget::Answer,
            None,
        );
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
        let candidates = machine.candidates_from_ns(cached_ns_hosts(&cached_ns), &[], 0);
        let addrs: Vec<_> = candidates.iter().map(|c| (c.ns.clone(), c.addr)).collect();
        assert_eq!(
            addrs,
            vec![
                (ns1, Some(Ipv4Addr::new(192, 0, 2, 1))),
                (ns2, Some(Ipv4Addr::new(192, 0, 2, 3))),
            ]
        );
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
