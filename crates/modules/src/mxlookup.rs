//! `mxlookup` — MX records plus the A records of each exchange (§3.3:
//! "mxlookup will additionally do an A lookup for the IP addresses that
//! correspond with an exchange record").

use serde_json::json;
use zdns_core::{LookupResult, Resolver, Status};
use zdns_netsim::{ClientEvent, OutQuery, SimClient, SimTime, StepStatus};
use zdns_wire::{Name, Question, RData, RecordType};

use crate::api::{emit, input_to_name, trace_json, FailMachine, Inner, LookupModule, ModuleSink};

/// The `mxlookup` module.
pub struct MxLookupModule {
    /// Cap on how many exchanges get address lookups.
    pub max_exchanges: usize,
}

impl Default for MxLookupModule {
    fn default() -> Self {
        MxLookupModule { max_exchanges: 8 }
    }
}

struct Exchange {
    name: Name,
    preference: u16,
    addresses: Vec<String>,
}

struct MxMachine {
    input: String,
    sink: ModuleSink,
    resolver: Resolver,
    phase: Phase,
    exchanges: Vec<Exchange>,
    next_exchange: usize,
    trace: Vec<serde_json::Value>,
    status: Status,
    max_exchanges: usize,
}

enum Phase {
    Mx(Inner),
    ExchangeA(Inner),
}

impl MxMachine {
    fn handle_done(
        &mut self,
        result: LookupResult,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        self.trace.extend(trace_json(&result));
        match &self.phase {
            Phase::Mx(_) => {
                self.status = result.status;
                if !result.status.is_success() {
                    return self.finish();
                }
                for rec in &result.answers {
                    if let RData::Mx(mx) = &rec.rdata {
                        self.exchanges.push(Exchange {
                            name: mx.exchange.clone(),
                            preference: mx.preference,
                            addresses: Vec::new(),
                        });
                    }
                }
                self.exchanges.sort_by_key(|e| e.preference);
                self.exchanges.truncate(self.max_exchanges);
                // Harvest any A records already in the additional section
                // (§3.3 motivates mxlookup precisely because these are
                // often absent).
                for rec in &result.additionals {
                    if let RData::A(a) = &rec.rdata {
                        if let Some(e) = self.exchanges.iter_mut().find(|e| e.name == rec.name) {
                            e.addresses.push(a.to_string());
                        }
                    }
                }
                self.launch_next(now, out)
            }
            Phase::ExchangeA(_) => {
                let idx = self.next_exchange - 1;
                for rec in &result.answers {
                    if let RData::A(a) = &rec.rdata {
                        self.exchanges[idx].addresses.push(a.to_string());
                    }
                }
                self.launch_next(now, out)
            }
        }
    }

    fn launch_next(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        // Find the next exchange that still needs addresses.
        while self.next_exchange < self.exchanges.len() {
            let idx = self.next_exchange;
            self.next_exchange += 1;
            if !self.exchanges[idx].addresses.is_empty() {
                continue;
            }
            let q = Question::new(self.exchanges[idx].name.clone(), RecordType::A);
            let mut inner = Inner::lookup(&self.resolver, q);
            match inner.start(now, out) {
                Some(result) => {
                    self.phase = Phase::ExchangeA(inner);
                    return self.handle_done(result, now, out);
                }
                None => {
                    self.phase = Phase::ExchangeA(inner);
                    return StepStatus::Running;
                }
            }
        }
        self.finish()
    }

    fn finish(&mut self) -> StepStatus {
        let exchanges: Vec<_> = self
            .exchanges
            .iter()
            .map(|e| {
                json!({
                    "name": format!("{}.", e.name),
                    "preference": e.preference,
                    "ipv4_addresses": e.addresses,
                })
            })
            .collect();
        emit(
            &self.sink,
            std::mem::take(&mut self.input),
            "MXLOOKUP",
            self.status,
            json!({ "exchanges": exchanges }),
            std::mem::take(&mut self.trace),
        )
    }
}

impl SimClient for MxMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        let done = match &mut self.phase {
            Phase::Mx(inner) | Phase::ExchangeA(inner) => inner.start(now, out),
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
            Phase::Mx(inner) | Phase::ExchangeA(inner) => inner.on_event(event, now, out),
        };
        match done {
            Some(result) => self.handle_done(result, now, out),
            None => StepStatus::Running,
        }
    }
}

impl LookupModule for MxLookupModule {
    fn name(&self) -> &'static str {
        "MXLOOKUP"
    }

    fn description(&self) -> &'static str {
        "MX records plus address lookups for each exchange"
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
        Box::new(MxMachine {
            input: input.to_string(),
            sink,
            resolver: resolver.clone(),
            phase: Phase::Mx(Inner::lookup(resolver, Question::new(name, RecordType::MX))),
            exchanges: Vec::new(),
            next_exchange: 0,
            trace: Vec::new(),
            status: Status::NoError,
            max_exchanges: self.max_exchanges,
        })
    }
}
