//! `--all-nameservers` — the §5 case-study extension: resolve a domain,
//! then query **every** authoritative nameserver for it and record each
//! server's answers and how many retries it needed. The paper implements
//! this in ~30 lines on top of the library; the building blocks here are
//! the delegation-preserving walk and the direct-probe machine.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use serde_json::json;
use zdns_core::{LookupResult, Resolver, Status};
use zdns_netsim::{ClientEvent, OutQuery, SimClient, SimTime, StepStatus};
use zdns_wire::{Name, Question, RData, RecordType};

use crate::api::{emit, input_to_name, trace_json, FailMachine, Inner, LookupModule, ModuleSink};

/// The all-nameservers module.
pub struct AllNameserversModule {
    /// Record type to probe each server with.
    pub qtype: RecordType,
}

impl Default for AllNameserversModule {
    fn default() -> Self {
        AllNameserversModule {
            qtype: RecordType::A,
        }
    }
}

struct NsProbe {
    ns: Name,
    addr: Option<Ipv4Addr>,
    status: Option<Status>,
    retries: u32,
    answers: BTreeSet<String>,
}

struct AllNsMachine {
    input: String,
    sink: ModuleSink,
    resolver: Resolver,
    question: Question,
    phase: Phase,
    probes: Vec<NsProbe>,
    current: usize,
    trace: Vec<serde_json::Value>,
    walk_status: Status,
}

enum Phase {
    Walk(Inner),
    NsAddr(Inner),
    Probe(Inner),
}

impl AllNsMachine {
    fn handle_done(
        &mut self,
        result: LookupResult,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        match &self.phase {
            Phase::Walk(_) => {
                self.trace.extend(trace_json(&result));
                self.walk_status = result.status;
                match &result.delegation {
                    Some(delegation) if !delegation.nameservers.is_empty() => {
                        self.probes = delegation
                            .nameservers
                            .iter()
                            .map(|(ns, addr)| NsProbe {
                                ns: ns.clone(),
                                addr: *addr,
                                status: None,
                                retries: 0,
                                answers: BTreeSet::new(),
                            })
                            .collect();
                        self.launch_next(now, out)
                    }
                    _ => self.finish(),
                }
            }
            Phase::NsAddr(_) => {
                let probe = &mut self.probes[self.current];
                probe.addr = result.answers.iter().find_map(|r| match &r.rdata {
                    RData::A(a) => Some(*a),
                    _ => None,
                });
                if probe.addr.is_none() {
                    probe.status = Some(Status::ServFail);
                    self.current += 1;
                }
                self.launch_next(now, out)
            }
            Phase::Probe(_) => {
                let probe = &mut self.probes[self.current];
                probe.status = Some(result.status);
                probe.retries = result.retries_used;
                for rec in &result.answers {
                    if let RData::A(a) = &rec.rdata {
                        probe.answers.insert(a.to_string());
                    }
                }
                self.current += 1;
                self.launch_next(now, out)
            }
        }
    }

    fn launch_next(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        while self.current < self.probes.len() {
            let probe = &self.probes[self.current];
            if probe.status.is_some() {
                self.current += 1;
                continue;
            }
            let mut inner = match probe.addr {
                Some(addr) => {
                    let inner = Inner::direct(&self.resolver, self.question.clone(), addr, false);
                    self.phase = Phase::Probe(inner);
                    match &mut self.phase {
                        Phase::Probe(i) => match i.start(now, out) {
                            Some(result) => return self.handle_done(result, now, out),
                            None => return StepStatus::Running,
                        },
                        _ => unreachable!(),
                    }
                }
                None => Inner::lookup(
                    &self.resolver,
                    Question::new(probe.ns.clone(), RecordType::A),
                ),
            };
            match inner.start(now, out) {
                Some(result) => {
                    self.phase = Phase::NsAddr(inner);
                    return self.handle_done(result, now, out);
                }
                None => {
                    self.phase = Phase::NsAddr(inner);
                    return StepStatus::Running;
                }
            }
        }
        self.finish()
    }

    fn finish(&mut self) -> StepStatus {
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
        emit(
            &self.sink,
            std::mem::take(&mut self.input),
            "ALLNAMESERVERS",
            status,
            json!({
                "nameservers": nameservers,
                "consistent": consistent,
                "max_retries": max_retries,
            }),
            std::mem::take(&mut self.trace),
        )
    }
}

impl SimClient for AllNsMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        let done = match &mut self.phase {
            Phase::Walk(i) | Phase::NsAddr(i) | Phase::Probe(i) => i.start(now, out),
        };
        match done {
            Some(result) => self.handle_done(result, now, out),
            None => StepStatus::Running,
        }
    }

    fn on_event(
        &mut self,
        event: ClientEvent,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        let done = match &mut self.phase {
            Phase::Walk(i) | Phase::NsAddr(i) | Phase::Probe(i) => i.on_event(event, now, out),
        };
        match done {
            Some(result) => self.handle_done(result, now, out),
            None => StepStatus::Running,
        }
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
        let Some(name) = input_to_name(input, false) else {
            return Box::new(FailMachine {
                input: input.to_string(),
                module: self.name(),
                status: Status::IllegalInput,
                sink,
            });
        };
        let question = Question::new(name, self.qtype);
        Box::new(AllNsMachine {
            input: input.to_string(),
            sink,
            resolver: resolver.clone(),
            question: question.clone(),
            phase: Phase::Walk(Inner::delegation(resolver, question)),
            probes: Vec::new(),
            current: 0,
            trace: Vec::new(),
            walk_status: Status::Error,
        })
    }
}
