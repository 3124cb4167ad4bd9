//! Misc modules (§3.3): alternative ways of querying servers, such as
//! extracting resolver versions via `version.bind`.

use serde_json::json;
use zdns_core::{Resolver, Status};
use zdns_netsim::{ClientEvent, OutQuery, SimClient, SimTime, StepStatus};
use zdns_wire::{Question, RData, RecordClass, RecordType};

use crate::api::{emit, trace_json, FailMachine, Inner, LookupModule, ModuleSink};

/// `BINDVERSION`: query `version.bind` TXT in the CHAOS class directly at
/// the server named by the input line (an IP address).
pub struct BindVersionModule;

struct BindVersionMachine {
    inner: Inner,
    input: String,
    sink: ModuleSink,
}

impl BindVersionMachine {
    fn finish(&mut self, result: zdns_core::LookupResult) -> StepStatus {
        let version = result.answers.iter().find_map(|rec| match &rec.rdata {
            RData::Txt(t) => Some(t.joined()),
            _ => None,
        });
        emit(
            &self.sink,
            &self.input,
            "BINDVERSION",
            result.status,
            json!({ "version": version }),
            trace_json(&result),
        )
    }
}

impl SimClient for BindVersionMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        match self.inner.start(now, out) {
            Some(result) => self.finish(result),
            None => StepStatus::Running,
        }
    }

    fn on_event(
        &mut self,
        event: ClientEvent,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        match self.inner.on_event(event, now, out) {
            Some(result) => self.finish(result),
            None => StepStatus::Running,
        }
    }
}

impl LookupModule for BindVersionModule {
    fn name(&self) -> &'static str {
        "BINDVERSION"
    }

    fn description(&self) -> &'static str {
        "query version.bind (CHAOS TXT) against a server"
    }

    fn input_addressed(&self) -> bool {
        true
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let Ok(server) = input.trim().parse::<std::net::Ipv4Addr>() else {
            return Box::new(FailMachine {
                input: input.to_string(),
                module: self.name(),
                status: Status::IllegalInput,
                sink,
            });
        };
        let question = Question {
            name: "version.bind".parse().expect("static name"),
            qtype: RecordType::TXT,
            qclass: RecordClass::CH,
        };
        Box::new(BindVersionMachine {
            inner: Inner::direct(resolver, question, server, false),
            input: input.to_string(),
            sink,
        })
    }
}

/// `PROBE`: one direct query per input line, with the destination pinned
/// *by the input* — `name@ip` probes `ip` for `name`'s A record (RD=0),
/// `name@ip#TYPE` picks another record type. The building block for
/// per-server reachability sweeps, and what the scan-pipeline tests use
/// to give each lookup its own destination.
pub struct ProbeModule;

struct ProbeMachine {
    inner: Inner,
    input: String,
    server: std::net::Ipv4Addr,
    sink: ModuleSink,
}

impl ProbeMachine {
    fn finish(&mut self, result: zdns_core::LookupResult) -> StepStatus {
        let mut data = result.data_json();
        if let Some(obj) = data.as_object_mut() {
            obj.insert("server".to_string(), json!(self.server.to_string()));
        }
        emit(
            &self.sink,
            &self.input,
            "PROBE",
            result.status,
            data,
            trace_json(&result),
        )
    }
}

impl SimClient for ProbeMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        match self.inner.start(now, out) {
            Some(result) => self.finish(result),
            None => StepStatus::Running,
        }
    }

    fn on_event(
        &mut self,
        event: ClientEvent,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        match self.inner.on_event(event, now, out) {
            Some(result) => self.finish(result),
            None => StepStatus::Running,
        }
    }
}

impl LookupModule for ProbeModule {
    fn name(&self) -> &'static str {
        "PROBE"
    }

    fn description(&self) -> &'static str {
        "direct query of the server named by the input (name@ip[#TYPE])"
    }

    fn input_addressed(&self) -> bool {
        true
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let fail = |sink| {
            Box::new(FailMachine {
                input: input.to_string(),
                module: "PROBE",
                status: Status::IllegalInput,
                sink,
            }) as Box<dyn SimClient>
        };
        let Some((name_part, rest)) = input.trim().split_once('@') else {
            return fail(sink);
        };
        let (server_part, qtype) = match rest.split_once('#') {
            Some((server, rtype)) => match rtype.parse::<RecordType>() {
                Ok(t) => (server, t),
                Err(_) => return fail(sink),
            },
            None => (rest, RecordType::A),
        };
        let Ok(server) = server_part.trim().parse::<std::net::Ipv4Addr>() else {
            return fail(sink);
        };
        let Some(name) = crate::api::input_to_name(name_part, false) else {
            return fail(sink);
        };
        Box::new(ProbeMachine {
            inner: Inner::direct(resolver, Question::new(name, qtype), server, false),
            input: input.to_string(),
            server,
            sink,
        })
    }
}

/// `NSLOOKUP`: NS records plus the addresses of each nameserver.
pub struct NsLookupModule {
    /// Cap on nameservers resolved.
    pub max_servers: usize,
}

impl Default for NsLookupModule {
    fn default() -> Self {
        NsLookupModule { max_servers: 8 }
    }
}

struct NsMachine {
    input: String,
    sink: ModuleSink,
    resolver: Resolver,
    phase: NsPhase,
    servers: Vec<(zdns_wire::Name, Vec<String>)>,
    next: usize,
    trace: Vec<serde_json::Value>,
    status: Status,
    max_servers: usize,
}

enum NsPhase {
    Ns(Inner),
    Addr(Inner),
}

impl NsMachine {
    fn handle_done(
        &mut self,
        result: zdns_core::LookupResult,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        self.trace.extend(trace_json(&result));
        match &self.phase {
            NsPhase::Ns(_) => {
                self.status = result.status;
                if !result.status.is_success() {
                    return self.finish();
                }
                for rec in &result.answers {
                    if let RData::Ns(ns) = &rec.rdata {
                        self.servers.push((ns.clone(), Vec::new()));
                    }
                }
                self.servers.truncate(self.max_servers);
                for rec in &result.additionals {
                    if let RData::A(a) = &rec.rdata {
                        if let Some((_, addrs)) =
                            self.servers.iter_mut().find(|(n, _)| *n == rec.name)
                        {
                            addrs.push(a.to_string());
                        }
                    }
                }
                self.launch_next(now, out)
            }
            NsPhase::Addr(_) => {
                let idx = self.next - 1;
                for rec in &result.answers {
                    if let RData::A(a) = &rec.rdata {
                        self.servers[idx].1.push(a.to_string());
                    }
                }
                self.launch_next(now, out)
            }
        }
    }

    fn launch_next(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        while self.next < self.servers.len() {
            let idx = self.next;
            self.next += 1;
            if !self.servers[idx].1.is_empty() {
                continue;
            }
            let q = Question::new(self.servers[idx].0.clone(), RecordType::A);
            let mut inner = Inner::lookup(&self.resolver, q);
            match inner.start(now, out) {
                Some(result) => {
                    self.phase = NsPhase::Addr(inner);
                    return self.handle_done(result, now, out);
                }
                None => {
                    self.phase = NsPhase::Addr(inner);
                    return StepStatus::Running;
                }
            }
        }
        self.finish()
    }

    fn finish(&mut self) -> StepStatus {
        let servers: Vec<_> = self
            .servers
            .iter()
            .map(|(name, addrs)| {
                json!({
                    "name": format!("{name}."),
                    "ipv4_addresses": addrs,
                })
            })
            .collect();
        emit(
            &self.sink,
            &self.input,
            "NSLOOKUP",
            self.status,
            json!({ "servers": servers }),
            std::mem::take(&mut self.trace),
        )
    }
}

impl SimClient for NsMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        let done = match &mut self.phase {
            NsPhase::Ns(inner) | NsPhase::Addr(inner) => inner.start(now, out),
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
            NsPhase::Ns(inner) | NsPhase::Addr(inner) => inner.on_event(event, now, out),
        };
        match done {
            Some(result) => self.handle_done(result, now, out),
            None => StepStatus::Running,
        }
    }
}

impl LookupModule for NsLookupModule {
    fn name(&self) -> &'static str {
        "NSLOOKUP"
    }

    fn description(&self) -> &'static str {
        "NS records plus addresses for each nameserver"
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let Some(name) = crate::api::input_to_name(input, false) else {
            return Box::new(FailMachine {
                input: input.to_string(),
                module: self.name(),
                status: Status::IllegalInput,
                sink,
            });
        };
        Box::new(NsMachine {
            input: input.to_string(),
            sink,
            resolver: resolver.clone(),
            phase: NsPhase::Ns(Inner::lookup(resolver, Question::new(name, RecordType::NS))),
            servers: Vec::new(),
            next: 0,
            trace: Vec::new(),
            status: Status::NoError,
            max_servers: self.max_servers,
        })
    }
}
