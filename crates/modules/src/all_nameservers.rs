//! `--all-nameservers` — the §5 case-study extension: resolve a domain,
//! then query **every** authoritative nameserver for it and record each
//! server's answers and how many retries it needed. The paper implements
//! this in ~30 lines on top of the library; the building blocks here are
//! the delegation-preserving walk and the direct-probe machine.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use serde_json::json;
use zdns_core::{LookupResult, Resolver, Status};
use zdns_netsim::SimClient;
use zdns_wire::{Name, Question, RData, RecordType};

use crate::api::{input_to_name, machine, trace_json, Inner, LookupModule, ModuleSink, Next, Plan};

/// The all-nameservers module.
#[derive(Default)]
pub struct AllNameserversModule;

/// Record type each server is probed with.
const PROBE_TYPE: RecordType = RecordType::A;

struct NsProbe {
    ns: Name,
    addr: Option<Ipv4Addr>,
    status: Option<Status>,
    retries: u32,
    answers: BTreeSet<String>,
}

/// Which sub-lookup the plan is waiting for.
enum Waiting {
    /// The delegation-preserving walk to the domain's nameservers.
    Walk,
    /// The address of the nameserver at this index.
    NsAddr(usize),
    /// The probe of the nameserver at this index.
    Probe(usize),
}

struct AllNsPlan {
    resolver: Resolver,
    question: Question,
    waiting: Waiting,
    probes: Vec<NsProbe>,
    trace: Vec<serde_json::Value>,
    walk_status: Status,
}

impl Plan for AllNsPlan {
    fn next(&mut self, result: LookupResult) -> Next {
        match self.waiting {
            Waiting::Walk => {
                self.trace.extend(trace_json(&result));
                self.walk_status = result.status;
                if let Some(delegation) = &result.delegation {
                    self.probes = (delegation.nameservers.iter())
                        .map(|(ns, addr)| NsProbe {
                            ns: ns.clone(),
                            addr: *addr,
                            status: None,
                            retries: 0,
                            answers: BTreeSet::new(),
                        })
                        .collect();
                }
            }
            Waiting::NsAddr(i) => {
                let probe = &mut self.probes[i];
                probe.addr = result.answers.iter().find_map(|r| match &r.rdata {
                    RData::A(a) => Some(*a),
                    _ => None,
                });
                if probe.addr.is_none() {
                    probe.status = Some(Status::ServFail);
                }
            }
            Waiting::Probe(i) => {
                let probe = &mut self.probes[i];
                probe.status = Some(result.status);
                probe.retries = result.retries_used;
                for rec in &result.answers {
                    if let RData::A(a) = &rec.rdata {
                        probe.answers.insert(a.to_string());
                    }
                }
            }
        }
        // The first server not yet probed: probe it, or find its address.
        if let Some(i) = self.probes.iter().position(|p| p.status.is_none()) {
            let probe = &self.probes[i];
            let inner = match probe.addr {
                Some(addr) => {
                    self.waiting = Waiting::Probe(i);
                    Inner::direct(&self.resolver, self.question.clone(), addr, false)
                }
                None => {
                    self.waiting = Waiting::NsAddr(i);
                    let question = Question::new(probe.ns.clone(), RecordType::A);
                    Inner::lookup(&self.resolver, question)
                }
            };
            return Next::Lookup(inner);
        }
        self.finish()
    }
}

impl AllNsPlan {
    fn finish(&mut self) -> Next {
        // §5's two findings come straight from this shape: per-NS retries
        // (availability) and per-NS answer sets (response consistency).
        let answered: Vec<&NsProbe> = self
            .probes
            .iter()
            .filter(|p| matches!(p.status, Some(s) if s.is_success()) && !p.answers.is_empty())
            .collect();
        let consistent = answered.windows(2).all(|w| w[0].answers == w[1].answers);
        let max_retries = self.probes.iter().map(|p| p.retries).max().unwrap_or(0);
        let nameservers: Vec<_> = self
            .probes
            .iter()
            .map(|p| {
                json!({
                    "nameserver": format!("{}.", p.ns),
                    "ip": p.addr.map(|a| a.to_string()),
                    "status": p.status.unwrap_or(Status::Error).as_str(),
                    "retries": p.retries,
                    "answers": p.answers.iter().collect::<Vec<_>>(),
                })
            })
            .collect();
        let status = if self.probes.is_empty() {
            self.walk_status
        } else if answered.is_empty() {
            Status::ServFail
        } else {
            Status::NoError
        };
        let data = json!({
            "nameservers": nameservers,
            "consistent": consistent,
            "max_retries": max_retries,
        });
        Next::Done(status, data.into(), std::mem::take(&mut self.trace))
    }
}

impl LookupModule for AllNameserversModule {
    fn name(&self) -> &'static str {
        "ALLNAMESERVERS"
    }

    fn description(&self) -> &'static str {
        "query every authoritative nameserver and compare answers (§5)"
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let start = input_to_name(input, false).map(|name| {
            let question = Question::new(name, PROBE_TYPE);
            let plan = AllNsPlan {
                resolver: resolver.clone(),
                question: question.clone(),
                waiting: Waiting::Walk,
                probes: Vec::new(),
                trace: Vec::new(),
                walk_status: Status::Error,
            };
            (Inner::delegation(resolver, question), plan)
        });
        machine(self.name(), input, sink, start)
    }
}
