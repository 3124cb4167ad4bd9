//! The `Universe` abstraction: everything the simulator needs to know about
//! the authoritative side of the DNS, with the network itself factored out.
//!
//! A universe answers "what would the server at this IP say to this
//! question?" plus per-server behavioural metadata (latency class, drop
//! probability). The discrete-event simulator in `zdns-netsim` turns those
//! answers into packets, delays, and losses.

use std::net::Ipv4Addr;

use zdns_wire::{Message, MessageView, Name, Question, Rcode, Record};

use crate::zone::{Zone, ZoneAnswer};

/// What an authoritative server would respond, before transport concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthResponse {
    /// Response code.
    pub rcode: Rcode,
    /// Whether the AA bit is set.
    pub authoritative: bool,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (NS for referrals, SOA for negatives).
    pub authorities: Vec<Record>,
    /// Additional section (glue).
    pub additionals: Vec<Record>,
}

impl AuthResponse {
    /// An authoritative NOERROR carrying `records`.
    pub fn answer(records: Vec<Record>) -> AuthResponse {
        AuthResponse {
            rcode: Rcode::NoError,
            authoritative: true,
            answers: records,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// An authoritative answer with no records but the zone's SOA: NODATA
    /// under NOERROR, a nonexistent name under NXDOMAIN.
    pub fn negative(rcode: Rcode, soa: Record) -> AuthResponse {
        AuthResponse {
            rcode,
            authoritative: true,
            answers: Vec::new(),
            authorities: vec![soa],
            additionals: Vec::new(),
        }
    }

    /// A referral: the cut's NS records, with glue for those of its hosts
    /// that have any.
    pub fn referral(ns: Vec<Record>, glue: Vec<Record>) -> AuthResponse {
        AuthResponse {
            rcode: Rcode::NoError,
            authoritative: false,
            answers: Vec::new(),
            authorities: ns,
            additionals: glue,
        }
    }

    /// An empty authoritative NOERROR (NODATA without SOA).
    pub fn empty() -> AuthResponse {
        AuthResponse::answer(Vec::new())
    }

    /// A REFUSED response — what lame servers send.
    pub fn refused() -> AuthResponse {
        AuthResponse {
            rcode: Rcode::Refused,
            ..AuthResponse::referral(Vec::new(), Vec::new())
        }
    }

    /// A SERVFAIL response.
    pub fn servfail() -> AuthResponse {
        AuthResponse {
            rcode: Rcode::ServFail,
            ..AuthResponse::referral(Vec::new(), Vec::new())
        }
    }

    /// Build from a [`ZoneAnswer`], the shared authoritative semantics.
    pub fn from_zone_answer(answer: ZoneAnswer) -> AuthResponse {
        match answer {
            ZoneAnswer::Answer { records } => AuthResponse::answer(records),
            // The server returns what it has; the resolver restarts on the
            // out-of-zone target.
            ZoneAnswer::Cname { chain, .. } => AuthResponse::answer(chain),
            ZoneAnswer::Referral { ns, glue, .. } => AuthResponse::referral(ns, glue),
            ZoneAnswer::NxDomain { soa } => AuthResponse::negative(Rcode::NxDomain, soa),
            ZoneAnswer::NoData { soa } => AuthResponse::negative(Rcode::NoError, soa),
            ZoneAnswer::NotInZone => AuthResponse::refused(),
        }
    }

    /// Render into a wire [`Message`] answering a borrowed query view,
    /// moving the records in — what the simulator and the loopback wire
    /// servers answer with, so neither the query nor the records are
    /// copied on the way.
    pub fn into_message_for(self, query: &MessageView<'_>) -> Message {
        let questions = query.questions().map(|q| q.to_question()).collect();
        let rd = query.flags().recursion_desired;
        self.render(query.id(), questions, rd, query.has_edns())
    }

    /// Render into a wire [`Message`] answering `query`.
    pub fn to_message(&self, query: &Message) -> Message {
        let rd = query.flags.recursion_desired;
        self.clone()
            .render(query.id, query.questions.clone(), rd, query.edns.is_some())
    }

    /// The response to a query with this id, questions, RD bit and EDNS
    /// presence (echoed as a default OPT record).
    fn render(self, id: u16, questions: Vec<Question>, rd: bool, edns: bool) -> Message {
        let mut m = Message {
            id,
            questions,
            answers: self.answers,
            authorities: self.authorities,
            additionals: self.additionals,
            edns: edns.then(zdns_wire::Edns::default),
            ..Message::default()
        };
        m.flags.response = true;
        m.flags.authoritative = self.authoritative;
        m.flags.recursion_desired = rd;
        m.flags.recursion_available = false;
        m.rcode = zdns_wire::RcodeField(self.rcode);
        m
    }
}

/// Coarse latency classes for servers; the simulator samples concrete RTTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyClass {
    /// Anycast / CDN-grade: ~10-40 ms.
    Fast,
    /// Typical hosting: ~40-120 ms.
    Medium,
    /// Distant or overloaded: ~120-400 ms.
    Slow,
}

/// Behavioural metadata for one server.
#[derive(Debug, Clone, Copy)]
pub struct ServerProfile {
    /// Latency class for RTT sampling.
    pub latency: LatencyClass,
    /// Baseline probability that a query to this server is silently
    /// dropped (before any per-domain blocking).
    pub base_drop: f64,
    /// Server-side processing time in microseconds.
    pub processing_us: u64,
}

impl Default for ServerProfile {
    fn default() -> Self {
        ServerProfile {
            latency: LatencyClass::Medium,
            base_drop: 0.005,
            processing_us: 100,
        }
    }
}

/// The authoritative side of a simulated Internet.
pub trait Universe: Send + Sync {
    /// What the server at `server` answers to `question`; `None` means no
    /// server listens there (the packet disappears).
    fn respond(&self, server: Ipv4Addr, question: &Question) -> Option<AuthResponse>;

    /// Behavioural profile of the server at `server`.
    fn server_profile(&self, server: Ipv4Addr) -> ServerProfile;

    /// Probability that this specific (server, qname) query is dropped —
    /// the §5 per-domain "probabilistic blocking" hook. Combined by the
    /// simulator with the profile's `base_drop`.
    fn drop_probability(&self, _server: Ipv4Addr, _qname: &Name) -> f64 {
        0.0
    }

    /// Root name-server hints: (host name, address) pairs.
    fn root_hints(&self) -> Vec<(Name, Ipv4Addr)>;
}

/// A universe assembled from explicit [`Zone`]s — used by unit tests and the
/// real-socket loopback servers.
#[derive(Default)]
pub struct ExplicitUniverse {
    servers: Vec<(Ipv4Addr, Vec<Zone>)>,
    hints: Vec<(Name, Ipv4Addr)>,
}

impl ExplicitUniverse {
    /// Empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host `zone` on `server`.
    pub fn host(&mut self, server: Ipv4Addr, zone: Zone) {
        if let Some((_, zones)) = self.servers.iter_mut().find(|(ip, _)| *ip == server) {
            zones.push(zone);
        } else {
            self.servers.push((server, vec![zone]));
        }
    }

    /// Declare a root hint.
    pub fn hint(&mut self, name: Name, addr: Ipv4Addr) {
        self.hints.push((name, addr));
    }
}

impl Universe for ExplicitUniverse {
    fn respond(&self, server: Ipv4Addr, question: &Question) -> Option<AuthResponse> {
        let zones = self
            .servers
            .iter()
            .find(|(ip, _)| *ip == server)
            .map(|(_, z)| z)?;
        // Deepest zone whose origin encloses the qname wins.
        let best = zones
            .iter()
            .filter(|z| question.name.is_subdomain_of(z.origin()))
            .max_by_key(|z| z.origin().label_count());
        Some(match best {
            Some(zone) => {
                AuthResponse::from_zone_answer(zone.lookup(&question.name, question.qtype))
            }
            None => AuthResponse::refused(),
        })
    }

    fn server_profile(&self, _server: Ipv4Addr) -> ServerProfile {
        ServerProfile::default()
    }

    fn root_hints(&self) -> Vec<(Name, Ipv4Addr)> {
        self.hints.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_wire::{RData, RecordType};

    #[test]
    fn explicit_universe_routes_to_deepest_zone() {
        let mut u = ExplicitUniverse::new();
        let ip = Ipv4Addr::new(127, 0, 0, 1);
        let mut parent = Zone::new(
            "example".parse().unwrap(),
            "ns.example".parse().unwrap(),
            300,
        );
        parent.delegate(
            "sub.example".parse().unwrap(),
            &["ns.sub.example".parse().unwrap()],
            &[],
        );
        let mut child = Zone::new(
            "sub.example".parse().unwrap(),
            "ns.sub.example".parse().unwrap(),
            300,
        );
        child.add(Record::new(
            "www.sub.example".parse().unwrap(),
            300,
            RData::A("10.0.0.1".parse().unwrap()),
        ));
        u.host(ip, parent);
        u.host(ip, child);

        let q = Question::new("www.sub.example".parse().unwrap(), RecordType::A);
        let resp = u.respond(ip, &q).unwrap();
        // The child zone answers authoritatively rather than the parent
        // referring.
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.authoritative);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn unknown_server_is_none() {
        let u = ExplicitUniverse::new();
        let q = Question::new("x.test".parse().unwrap(), RecordType::A);
        assert!(u.respond(Ipv4Addr::new(203, 0, 113, 1), &q).is_none());
    }

    #[test]
    fn unrelated_zone_refuses() {
        let mut u = ExplicitUniverse::new();
        let ip = Ipv4Addr::new(127, 0, 0, 2);
        u.host(
            ip,
            Zone::new(
                "example".parse().unwrap(),
                "ns.example".parse().unwrap(),
                300,
            ),
        );
        let q = Question::new("other.test".parse().unwrap(), RecordType::A);
        assert_eq!(u.respond(ip, &q).unwrap().rcode, Rcode::Refused);
    }

    #[test]
    fn response_message_mirrors_query() {
        let resp = AuthResponse::empty();
        let query = Message::query(77, Question::new("q.test".parse().unwrap(), RecordType::A));
        let msg = resp.to_message(&query);
        assert_eq!(msg.id, 77);
        assert!(msg.flags.response);
        assert!(msg.flags.authoritative);
        assert_eq!(msg.questions, query.questions);
    }
}
