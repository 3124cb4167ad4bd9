//! An explicit, in-memory DNS zone with full authoritative lookup semantics:
//! answers, referrals with glue, CNAMEs, wildcards, empty non-terminals,
//! NXDOMAIN vs NODATA.
//!
//! Explicit zones back the real-socket test servers and every unit test;
//! the planet-scale namespace is procedural (see [`crate::synth`]) but
//! produces responses with exactly these semantics.

use std::collections::{BTreeMap, HashMap, HashSet};

use zdns_wire::rdata::Soa;
use zdns_wire::{Name, RData, Record, RecordType};

/// A zone: an apex with SOA/NS, a set of in-zone RRsets, and child zone
/// cuts (delegations).
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: Record,
    /// RRsets keyed by owner name and type.
    rrsets: HashMap<Name, BTreeMap<u16, Vec<Record>>>,
    /// Every name that exists (including empty non-terminals).
    names: HashSet<Name>,
    /// Child zone cuts: cut name → NS records (and any glue under the cut).
    delegations: BTreeMap<Name, Vec<Record>>,
    /// Glue addresses for names below zone cuts.
    glue: HashMap<Name, Vec<Record>>,
    default_ttl: u32,
}

/// The outcome of an authoritative lookup within one zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Authoritative data (possibly preceded by an in-zone CNAME chain).
    Answer {
        /// Records for the answer section, CNAME chain included in order.
        records: Vec<Record>,
    },
    /// A CNAME whose target left the zone; the caller restarts resolution.
    Cname {
        /// The CNAME chain followed so far.
        chain: Vec<Record>,
        /// The out-of-zone target.
        target: Name,
    },
    /// The name is below a child zone cut: here are the NS records and glue.
    Referral {
        /// The delegated child zone apex.
        cut: Name,
        /// NS records for the authority section.
        ns: Vec<Record>,
        /// A/AAAA glue for the additional section.
        glue: Vec<Record>,
    },
    /// The name does not exist; SOA for negative caching.
    NxDomain {
        /// The zone SOA record.
        soa: Record,
    },
    /// The name exists but has no records of the requested type.
    NoData {
        /// The zone SOA record.
        soa: Record,
    },
    /// The zone is not authoritative for this name at all.
    NotInZone,
}

impl Zone {
    /// Create a zone with a synthesized SOA.
    pub fn new(origin: Name, primary_ns: Name, default_ttl: u32) -> Zone {
        let soa = Record::new(
            origin.clone(),
            default_ttl,
            RData::Soa(Soa {
                mname: primary_ns,
                rname: origin
                    .child("hostmaster")
                    .unwrap_or_else(|_| origin.clone()),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
        );
        let mut zone = Zone {
            origin: origin.clone(),
            soa,
            rrsets: HashMap::new(),
            names: HashSet::new(),
            delegations: BTreeMap::new(),
            glue: HashMap::new(),
            default_ttl,
        };
        zone.names.insert(origin);
        zone
    }

    /// The zone apex.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The SOA record.
    pub fn soa(&self) -> &Record {
        &self.soa
    }

    /// Add a record. Records outside the zone are rejected; records below an
    /// existing delegation become glue only.
    pub fn add(&mut self, record: Record) -> bool {
        if !record.name.is_subdomain_of(&self.origin) {
            return false;
        }
        // Register the name and all intermediate names (empty non-terminals
        // make the NODATA-vs-NXDOMAIN distinction possible).
        let mut n = record.name.clone();
        while n != self.origin {
            self.names.insert(n.clone());
            n = n.parent();
        }
        self.rrsets
            .entry(record.name.clone())
            .or_default()
            .entry(record.rtype.to_u16())
            .or_default()
            .push(record);
        true
    }

    /// Add a delegation: NS records at `cut` plus optional glue addresses.
    pub fn delegate(&mut self, cut: Name, ns_names: &[Name], glue: &[(Name, RData)]) {
        let ns_records: Vec<Record> = ns_names
            .iter()
            .map(|ns| Record::new(cut.clone(), self.default_ttl, RData::Ns(ns.clone())))
            .collect();
        let mut n = cut.clone();
        while n != self.origin {
            self.names.insert(n.clone());
            n = n.parent();
        }
        self.delegations.insert(cut, ns_records);
        for (name, rdata) in glue {
            self.glue.entry(name.clone()).or_default().push(Record::new(
                name.clone(),
                self.default_ttl,
                rdata.clone(),
            ));
        }
    }

    /// Find the closest enclosing delegation strictly below the apex that
    /// covers `qname` (i.e. is `qname` or an ancestor of it).
    fn covering_delegation(&self, qname: &Name) -> Option<(&Name, &Vec<Record>)> {
        // Walk ancestors from qname toward the origin; the first hit is the
        // deepest cut.
        let mut n = qname.clone();
        loop {
            if n == self.origin {
                return None;
            }
            if let Some(ns) = self.delegations.get(&n) {
                // A cut at the qname itself only matters for non-NS/DS
                // queries; for simplicity we treat NS-at-cut as a referral
                // too, which is what a parent-side server does.
                let key = self.delegations.get_key_value(&n).expect("present").0;
                return Some((key, ns));
            }
            if n.label_count() == 0 {
                return None;
            }
            n = n.parent();
        }
    }

    /// Authoritative lookup. `qtype` ANY returns every RRset at the name.
    pub fn lookup(&self, qname: &Name, qtype: RecordType) -> ZoneAnswer {
        if !qname.is_subdomain_of(&self.origin) {
            return ZoneAnswer::NotInZone;
        }
        // Referral wins over everything except data at the apex.
        if let Some((cut, ns)) = self.covering_delegation(qname) {
            let mut glue = Vec::new();
            for rec in ns {
                if let RData::Ns(ns_name) = &rec.rdata {
                    if let Some(g) = self.glue.get(ns_name) {
                        glue.extend(g.iter().cloned());
                    }
                }
            }
            return ZoneAnswer::Referral {
                cut: cut.clone(),
                ns: ns.clone(),
                glue,
            };
        }
        // Exact name match.
        if let Some(sets) = self.rrsets.get(qname) {
            if qtype == RecordType::ANY {
                let records: Vec<Record> = sets.values().flat_map(|v| v.iter().cloned()).collect();
                return ZoneAnswer::Answer { records };
            }
            if let Some(recs) = sets.get(&qtype.to_u16()) {
                return ZoneAnswer::Answer {
                    records: recs.clone(),
                };
            }
            // CNAME redirection (never for CNAME queries themselves).
            if qtype != RecordType::CNAME {
                if let Some(cnames) = sets.get(&RecordType::CNAME.to_u16()) {
                    return self.follow_cname(cnames.clone(), qtype);
                }
            }
            return ZoneAnswer::NoData {
                soa: self.soa.clone(),
            };
        }
        // Name exists only as an empty non-terminal → NODATA.
        if self.names.contains(qname) {
            return ZoneAnswer::NoData {
                soa: self.soa.clone(),
            };
        }
        // Wildcard synthesis: look for `*` at the closest encloser.
        if let Some(answer) = self.wildcard_lookup(qname, qtype) {
            return answer;
        }
        ZoneAnswer::NxDomain {
            soa: self.soa.clone(),
        }
    }

    fn follow_cname(&self, mut chain: Vec<Record>, qtype: RecordType) -> ZoneAnswer {
        // Follow in-zone CNAME links, guarding against loops.
        let mut seen: HashSet<Name> = chain.iter().map(|r| r.name.clone()).collect();
        loop {
            let target = match &chain.last().expect("non-empty chain").rdata {
                RData::Cname(t) => t.clone(),
                _ => unreachable!("chain holds CNAMEs"),
            };
            if seen.contains(&target) {
                // CNAME loop inside the zone: answer with the chain so far;
                // the resolver will detect the loop.
                return ZoneAnswer::Answer { records: chain };
            }
            seen.insert(target.clone());
            if !target.is_subdomain_of(&self.origin) {
                return ZoneAnswer::Cname { chain, target };
            }
            match self.rrsets.get(&target) {
                Some(sets) => {
                    if let Some(recs) = sets.get(&qtype.to_u16()) {
                        chain.extend(recs.iter().cloned());
                        return ZoneAnswer::Answer { records: chain };
                    }
                    if let Some(cn) = sets.get(&RecordType::CNAME.to_u16()) {
                        chain.extend(cn.iter().cloned());
                        continue;
                    }
                    return ZoneAnswer::NoData {
                        soa: self.soa.clone(),
                    };
                }
                None => {
                    // Target in zone but absent: empty answer with chain,
                    // mirroring authoritative behaviour (NOERROR + chain).
                    return ZoneAnswer::Answer { records: chain };
                }
            }
        }
    }

    fn wildcard_lookup(&self, qname: &Name, qtype: RecordType) -> Option<ZoneAnswer> {
        // Find the closest encloser: deepest existing ancestor of qname.
        let mut encloser = qname.parent();
        loop {
            if self.names.contains(&encloser) || encloser == self.origin {
                break;
            }
            if encloser.label_count() == 0 {
                return None;
            }
            encloser = encloser.parent();
        }
        let wildcard = encloser.child("*").ok()?;
        let sets = self.rrsets.get(&wildcard)?;
        let recs = sets.get(&qtype.to_u16())?;
        // Synthesize records at the query name.
        let records = recs
            .iter()
            .map(|r| Record {
                name: qname.clone(),
                ..r.clone()
            })
            .collect();
        Some(ZoneAnswer::Answer { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn example_zone() -> Zone {
        let origin: Name = "example.com".parse().unwrap();
        let mut z = Zone::new(origin.clone(), "ns1.example.com".parse().unwrap(), 3600);
        z.add(Record::new(
            origin.clone(),
            3600,
            RData::Ns("ns1.example.com".parse().unwrap()),
        ));
        z.add(Record::new(
            origin.clone(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        z.add(Record::new(
            "www.example.com".parse().unwrap(),
            300,
            RData::Cname(origin.clone()),
        ));
        z.add(Record::new(
            "a.b.example.com".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
        ));
        z.add(Record::new(
            "*.wild.example.com".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 3)),
        ));
        z.add(Record::new(
            "ext.example.com".parse().unwrap(),
            300,
            RData::Cname("target.example.net".parse().unwrap()),
        ));
        z.delegate(
            "sub.example.com".parse().unwrap(),
            &["ns1.sub.example.com".parse().unwrap()],
            &[(
                "ns1.sub.example.com".parse().unwrap(),
                RData::A(Ipv4Addr::new(198, 51, 100, 1)),
            )],
        );
        z
    }

    #[test]
    fn exact_answer() {
        let z = example_zone();
        match z.lookup(&"example.com".parse().unwrap(), RecordType::A) {
            ZoneAnswer::Answer { records } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nxdomain_vs_nodata() {
        let z = example_zone();
        assert!(matches!(
            z.lookup(&"missing.example.com".parse().unwrap(), RecordType::A),
            ZoneAnswer::NxDomain { .. }
        ));
        // example.com exists but has no MX.
        assert!(matches!(
            z.lookup(&"example.com".parse().unwrap(), RecordType::MX),
            ZoneAnswer::NoData { .. }
        ));
        // b.example.com exists only as an empty non-terminal.
        assert!(matches!(
            z.lookup(&"b.example.com".parse().unwrap(), RecordType::A),
            ZoneAnswer::NoData { .. }
        ));
    }

    #[test]
    fn in_zone_cname_followed() {
        let z = example_zone();
        match z.lookup(&"www.example.com".parse().unwrap(), RecordType::A) {
            ZoneAnswer::Answer { records } => {
                assert_eq!(records.len(), 2);
                assert!(matches!(records[0].rdata, RData::Cname(_)));
                assert!(matches!(records[1].rdata, RData::A(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cname_query_returns_cname_itself() {
        let z = example_zone();
        match z.lookup(&"www.example.com".parse().unwrap(), RecordType::CNAME) {
            ZoneAnswer::Answer { records } => {
                assert_eq!(records.len(), 1);
                assert!(matches!(records[0].rdata, RData::Cname(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_zone_cname_surfaces_target() {
        let z = example_zone();
        match z.lookup(&"ext.example.com".parse().unwrap(), RecordType::A) {
            ZoneAnswer::Cname { chain, target } => {
                assert_eq!(chain.len(), 1);
                assert_eq!(target, "target.example.net".parse().unwrap());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delegation_returns_referral_with_glue() {
        let z = example_zone();
        match z.lookup(&"deep.sub.example.com".parse().unwrap(), RecordType::A) {
            ZoneAnswer::Referral { cut, ns, glue } => {
                assert_eq!(cut, "sub.example.com".parse().unwrap());
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].rdata, RData::A(Ipv4Addr::new(198, 51, 100, 1)));
            }
            other => panic!("{other:?}"),
        }
        // Query at the cut itself also refers.
        assert!(matches!(
            z.lookup(&"sub.example.com".parse().unwrap(), RecordType::A),
            ZoneAnswer::Referral { .. }
        ));
    }

    #[test]
    fn wildcard_synthesis() {
        let z = example_zone();
        match z.lookup(&"anything.wild.example.com".parse().unwrap(), RecordType::A) {
            ZoneAnswer::Answer { records } => {
                assert_eq!(
                    records[0].name,
                    "anything.wild.example.com".parse().unwrap()
                );
                assert_eq!(records[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 3)));
            }
            other => panic!("{other:?}"),
        }
        // The wildcard does not apply to names that exist.
        assert!(matches!(
            z.lookup(&"wild.example.com".parse().unwrap(), RecordType::A),
            ZoneAnswer::NoData { .. }
        ));
    }

    #[test]
    fn any_query_returns_all_rrsets() {
        let z = example_zone();
        match z.lookup(&"example.com".parse().unwrap(), RecordType::ANY) {
            ZoneAnswer::Answer { records } => {
                let types: Vec<RecordType> = records.iter().map(|r| r.rtype).collect();
                assert!(types.contains(&RecordType::A));
                assert!(types.contains(&RecordType::NS));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_bailiwick_rejected() {
        let z = example_zone();
        assert_eq!(
            z.lookup(&"example.org".parse().unwrap(), RecordType::A),
            ZoneAnswer::NotInZone
        );
        let mut z2 = example_zone();
        assert!(!z2.add(Record::new(
            "example.org".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 9))
        )));
    }

    #[test]
    fn cname_loop_terminates() {
        let origin: Name = "loop.test".parse().unwrap();
        let mut z = Zone::new(origin.clone(), "ns1.loop.test".parse().unwrap(), 300);
        z.add(Record::new(
            "a.loop.test".parse().unwrap(),
            300,
            RData::Cname("b.loop.test".parse().unwrap()),
        ));
        z.add(Record::new(
            "b.loop.test".parse().unwrap(),
            300,
            RData::Cname("a.loop.test".parse().unwrap()),
        ));
        // Must not hang; returns the chain.
        match z.lookup(&"a.loop.test".parse().unwrap(), RecordType::A) {
            ZoneAnswer::Answer { records } => assert_eq!(records.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
