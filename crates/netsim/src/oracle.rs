//! An instant "oracle" resolver over a [`Universe`].
//!
//! Public-resolver models (Google/Cloudflare in the evaluation) need final
//! answers without simulating their internal recursion packet-by-packet —
//! the paper treats them as opaque black boxes with a latency and a rate
//! limit. The oracle walks the same authoritative data the iterative
//! resolver sees, so both modes agree on ground truth.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use zdns_wire::{Name, Question, RData, Rcode, Record, RecordType};
use zdns_zones::Universe;

/// Outcome of an oracle resolution.
#[derive(Debug, Clone)]
pub struct OracleAnswer {
    /// Final response code.
    pub rcode: Rcode,
    /// Answer records (CNAME chains included).
    pub answers: Vec<Record>,
    /// Authority records from the final response (SOA for negatives).
    pub authorities: Vec<Record>,
    /// How many authoritative queries the walk would have taken (used by
    /// resolver models to scale recursion latency).
    pub upstream_queries: u32,
}

impl OracleAnswer {
    fn failed(rcode: Rcode, upstream_queries: u32) -> OracleAnswer {
        OracleAnswer {
            rcode,
            answers: Vec::new(),
            authorities: Vec::new(),
            upstream_queries,
        }
    }
}

/// Referrals one walk follows (shared with the iterative machine, as are
/// the two limits below).
pub const MAX_REFERRALS: u32 = 16;
/// CNAME hops one lookup chases (matches common resolver limits).
pub const MAX_CNAME_HOPS: u32 = 8;
/// Glueless sub-walks that may nest under one walk.
pub const MAX_NS_SUBWALKS: usize = 3;

/// Resolve `question` to completion against `universe`.
pub fn resolve(universe: &dyn Universe, question: &Question) -> OracleAnswer {
    let mut chain: Vec<Record> = Vec::new();
    let mut current = question.clone();
    let mut cname_hops = 0;
    let mut queries = 0u32;
    loop {
        let mut sub = resolve_no_cname(universe, &current, 0, &mut queries);
        if sub.rcode != Rcode::NoError {
            sub.answers = [chain, sub.answers].concat();
            return sub;
        }
        // Detect a CNAME-terminated answer that still needs chasing.
        let has_final = sub
            .answers
            .iter()
            .any(|r| r.rtype == current.qtype || current.qtype == RecordType::ANY);
        let last_cname = sub.answers.iter().rev().find_map(|r| match &r.rdata {
            RData::Cname(t) if current.qtype != RecordType::CNAME => Some(t.clone()),
            _ => None,
        });
        chain.extend(sub.answers);
        match (has_final, last_cname) {
            (false, Some(target)) => {
                cname_hops += 1;
                if cname_hops > MAX_CNAME_HOPS {
                    return OracleAnswer {
                        rcode: Rcode::ServFail,
                        answers: chain,
                        authorities: Vec::new(),
                        upstream_queries: queries,
                    };
                }
                current = Question {
                    name: target,
                    qtype: current.qtype,
                    qclass: current.qclass,
                };
            }
            _ => {
                return OracleAnswer {
                    rcode: Rcode::NoError,
                    answers: chain,
                    authorities: sub.authorities,
                    upstream_queries: queries,
                };
            }
        }
    }
}

/// Resolve without following trailing CNAMEs (one delegation walk).
fn resolve_no_cname(
    universe: &dyn Universe,
    question: &Question,
    depth: usize,
    queries: &mut u32,
) -> OracleAnswer {
    if depth > MAX_NS_SUBWALKS {
        return OracleAnswer::failed(Rcode::ServFail, *queries);
    }
    let mut servers: Vec<Ipv4Addr> = universe.root_hints().iter().map(|(_, a)| *a).collect();
    let mut visited_cuts: HashSet<Name> = HashSet::new();
    for _hop in 0..=MAX_REFERRALS {
        let mut referral: Option<(Vec<Record>, Vec<Record>)> = None;
        let mut last_rcode = Rcode::ServFail;
        let mut answered = None;
        for &server in &servers {
            *queries += 1;
            let Some(resp) = universe.respond(server, question) else {
                continue; // dead address
            };
            match resp.rcode {
                Rcode::NoError if resp.authoritative => {
                    answered = Some(OracleAnswer {
                        rcode: Rcode::NoError,
                        answers: resp.answers,
                        authorities: resp.authorities,
                        upstream_queries: *queries,
                    });
                    break;
                }
                Rcode::NoError if !resp.authorities.is_empty() => {
                    referral = Some((resp.authorities, resp.additionals));
                    break;
                }
                Rcode::NxDomain => {
                    answered = Some(OracleAnswer {
                        rcode: Rcode::NxDomain,
                        answers: resp.answers,
                        authorities: resp.authorities,
                        upstream_queries: *queries,
                    });
                    break;
                }
                rcode => {
                    // Lame / refused / servfail: try the next server.
                    last_rcode = rcode;
                }
            }
        }
        if let Some(a) = answered {
            return a;
        }
        let Some((ns_records, glue)) = referral else {
            return OracleAnswer::failed(last_rcode, *queries);
        };
        // Loop protection: never descend into the same cut twice.
        if let Some(first) = ns_records.first() {
            let cut = first.name.clone();
            if !visited_cuts.insert(cut) {
                return OracleAnswer::failed(Rcode::ServFail, *queries);
            }
        }
        let mut next: Vec<Ipv4Addr> = Vec::new();
        for ns in &ns_records {
            let RData::Ns(ns_name) = &ns.rdata else {
                continue;
            };
            // In-referral glue first.
            let glued: Vec<Ipv4Addr> = glue
                .iter()
                .filter(|g| g.name == *ns_name)
                .filter_map(|g| match &g.rdata {
                    RData::A(a) => Some(*a),
                    _ => None,
                })
                .collect();
            if glued.is_empty() {
                // Glueless: resolve the NS host recursively.
                let sub_q = Question::new(ns_name.clone(), RecordType::A);
                let sub = resolve_no_cname(universe, &sub_q, depth + 1, queries);
                for rec in sub.answers {
                    if let RData::A(a) = rec.rdata {
                        next.push(a);
                    }
                }
            } else {
                next.extend(glued);
            }
        }
        if next.is_empty() {
            return OracleAnswer::failed(Rcode::ServFail, *queries);
        }
        servers = next;
    }
    OracleAnswer::failed(Rcode::ServFail, *queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_zones::{SynthConfig, SyntheticUniverse};

    fn universe() -> SyntheticUniverse {
        SyntheticUniverse::new(SynthConfig::default())
    }

    fn find_existing(u: &SyntheticUniverse, tld: &str) -> Name {
        (0..20_000)
            .map(|i| format!("oracle{i}.{tld}").parse::<Name>().unwrap())
            .find(|n| u.domain_exists(n))
            .expect("existing domain")
    }

    #[test]
    fn resolves_existing_apex_a() {
        let u = universe();
        let base = find_existing(&u, "com");
        let ans = resolve(&u, &Question::new(base.clone(), RecordType::A));
        assert_eq!(ans.rcode, Rcode::NoError, "{ans:?}");
        let profile = u.domain_profile(&base);
        assert!(ans
            .answers
            .iter()
            .any(|r| r.rdata == RData::A(profile.apex_a)));
        assert!(ans.upstream_queries >= 3, "walked the chain");
    }

    #[test]
    fn nxdomain_for_missing_domain() {
        let u = universe();
        let missing = (0..20_000)
            .map(|i| format!("oracle{i}.com").parse::<Name>().unwrap())
            .find(|n| !u.domain_exists(n))
            .unwrap();
        let ans = resolve(&u, &Question::new(missing, RecordType::A));
        assert_eq!(ans.rcode, Rcode::NxDomain);
        assert!(!ans.authorities.is_empty(), "negative answers carry SOA");
    }

    #[test]
    fn follows_www_cname() {
        let u = universe();
        // Find a domain whose www is a CNAME.
        let base = (0..50_000)
            .map(|i| format!("oracle{i}.net").parse::<Name>().unwrap())
            .find(|n| {
                u.domain_exists(n)
                    && u.domain_profile(n).www == zdns_zones::synth::WwwKind::CnameToApex
            })
            .unwrap();
        let www = base.child("www").unwrap();
        let ans = resolve(&u, &Question::new(www, RecordType::A));
        assert_eq!(ans.rcode, Rcode::NoError);
        assert!(ans
            .answers
            .iter()
            .any(|r| matches!(r.rdata, RData::Cname(_))));
        assert!(ans.answers.iter().any(|r| matches!(r.rdata, RData::A(_))));
    }

    #[test]
    fn resolves_glueless_domains() {
        let u = universe();
        let base = (0..100_000)
            .map(|i| format!("oracle{i}.org").parse::<Name>().unwrap())
            .find(|n| u.domain_exists(n) && u.domain_profile(n).glueless)
            .unwrap();
        let ans = resolve(&u, &Question::new(base, RecordType::A));
        assert_eq!(ans.rcode, Rcode::NoError, "{ans:?}");
    }

    #[test]
    fn resolves_ptr_chain() {
        let u = universe();
        let ip = (0..u32::MAX)
            .map(|i| Ipv4Addr::from(0x2000_0000u32.wrapping_add(i * 7919)))
            .find(|&ip| u.ptr_exists(ip))
            .unwrap();
        let ans = resolve(&u, &Question::new(Name::reverse_ipv4(ip), RecordType::PTR));
        assert_eq!(ans.rcode, Rcode::NoError);
        assert_eq!(ans.answers[0].rdata, RData::Ptr(u.ptr_name(ip)));
        // root → arpa → /8 → /16: at least 4 queries.
        assert!(ans.upstream_queries >= 4);
    }

    #[test]
    fn caa_via_cname_resolves_to_issue_record() {
        let u = universe();
        let base = (0..2_000_000)
            .map(|i| format!("oracle{i}.pl").parse::<Name>().unwrap())
            .find(|n| {
                u.domain_exists(n) && {
                    let p = u.domain_profile(n);
                    p.caa_via_cname && !p.caa_records.is_empty()
                }
            })
            .expect("a CAA-via-CNAME domain in .pl");
        let ans = resolve(&u, &Question::new(base, RecordType::CAA));
        assert_eq!(ans.rcode, Rcode::NoError, "{ans:?}");
        assert!(ans
            .answers
            .iter()
            .any(|r| matches!(r.rdata, RData::Cname(_))));
        assert!(ans.answers.iter().any(|r| matches!(r.rdata, RData::Caa(_))));
    }
}
