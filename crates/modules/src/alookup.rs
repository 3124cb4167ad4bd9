//! `alookup` — nslookup-style address resolution that follows CNAMEs and
//! returns plain address lists (§3.3 "Lookup modules").

use serde_json::json;
use zdns_core::{LookupResult, Resolver, Status};
use zdns_netsim::{ClientEvent, OutQuery, SimClient, SimTime, StepStatus};
use zdns_wire::{Question, RData, RecordType};

use crate::api::{emit, input_to_name, trace_json, FailMachine, Inner, LookupModule, ModuleSink};

/// The `alookup` module: A (and optionally AAAA) with CNAME chasing.
pub struct ALookupModule {
    /// Also query AAAA.
    pub ipv6: bool,
    /// Query A (disable for AAAA-only scans).
    pub ipv4: bool,
}

impl Default for ALookupModule {
    fn default() -> Self {
        ALookupModule {
            ipv6: false,
            ipv4: true,
        }
    }
}

struct ALookupMachine {
    input: String,
    sink: ModuleSink,
    phase: Phase,
    want_aaaa: bool,
    resolver: Resolver,
    question_name: zdns_wire::Name,
    v4: Vec<String>,
    v6: Vec<String>,
    cnames: Vec<String>,
    trace: Vec<serde_json::Value>,
    status: Status,
}

enum Phase {
    A(Inner),
    Aaaa(Inner),
}

impl ALookupMachine {
    fn absorb(&mut self, result: &LookupResult) {
        for rec in &result.answers {
            match &rec.rdata {
                RData::A(a) => self.v4.push(a.to_string()),
                RData::Aaaa(a) => self.v6.push(a.to_string()),
                RData::Cname(c) => self.cnames.push(format!("{c}.")),
                _ => {}
            }
        }
        self.trace.extend(trace_json(result));
        // The worst status wins; a failed AAAA after a good A demotes.
        if !result.status.is_success() || self.status == Status::NoError {
            self.status = if self.status.is_success() || !result.status.is_success() {
                result.status
            } else {
                self.status
            };
        }
    }

    fn step(&mut self, result: LookupResult, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        self.absorb(&result);
        match self.phase {
            Phase::A(_) if self.want_aaaa => {
                let mut inner = Inner::lookup(
                    &self.resolver,
                    Question::new(self.question_name.clone(), RecordType::AAAA),
                );
                if let Some(r) = inner.start(now, out) {
                    self.phase = Phase::Aaaa(inner);
                    return self.step(r, now, out);
                }
                self.phase = Phase::Aaaa(inner);
                StepStatus::Running
            }
            _ => self.finish(),
        }
    }

    fn finish(&mut self) -> StepStatus {
        // Dedup while preserving order.
        self.v4.dedup();
        self.v6.dedup();
        self.cnames.dedup();
        let data = json!({
            "ipv4_addresses": self.v4,
            "ipv6_addresses": self.v6,
            "cnames": self.cnames,
        });
        emit(
            &self.sink,
            std::mem::take(&mut self.input),
            "ALOOKUP",
            self.status,
            data,
            std::mem::take(&mut self.trace),
        )
    }
}

impl SimClient for ALookupMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        let done = match &mut self.phase {
            Phase::A(inner) | Phase::Aaaa(inner) => inner.start(now, out),
        };
        match done {
            Some(result) => self.step(result, now, out),
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
            Phase::A(inner) | Phase::Aaaa(inner) => inner.on_event(event, now, out),
        };
        match done {
            Some(result) => self.step(result, now, out),
            None => StepStatus::Running,
        }
    }
}

impl LookupModule for ALookupModule {
    fn name(&self) -> &'static str {
        "ALOOKUP"
    }

    fn description(&self) -> &'static str {
        "follow CNAMEs and return IPv4/IPv6 addresses, like nslookup"
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
        let first_type = if self.ipv4 {
            RecordType::A
        } else {
            RecordType::AAAA
        };
        let inner = Inner::lookup(resolver, Question::new(name.clone(), first_type));
        Box::new(ALookupMachine {
            input: input.to_string(),
            sink,
            want_aaaa: self.ipv6 && self.ipv4,
            phase: if self.ipv4 {
                Phase::A(inner)
            } else {
                Phase::Aaaa(inner)
            },
            resolver: resolver.clone(),
            question_name: name,
            v4: Vec::new(),
            v6: Vec::new(),
            cnames: Vec::new(),
            trace: Vec::new(),
            status: Status::NoError,
        })
    }
}
