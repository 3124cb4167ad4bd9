//! Misc modules (§3.3): alternative ways of querying servers, such as
//! extracting resolver versions via `version.bind`.

use std::net::Ipv4Addr;

use serde_json::json;
use zdns_core::{Detail, LookupResult, Resolver};
use zdns_netsim::SimClient;
use zdns_wire::{Name, Question, RData, RecordClass, RecordType};

use crate::api::{
    input_to_name, machine, trace_json, Data, Inner, LookupModule, ModuleSink, Next, Plan,
};
use crate::mxlookup::HostsPlan;

/// `BINDVERSION`: query `version.bind` TXT in the CHAOS class directly at
/// the server named by the input line (an IP address).
pub struct BindVersionModule;

/// Print the version string the server answered with, if any.
struct BindVersionPlan;

impl Plan for BindVersionPlan {
    fn next(&mut self, result: LookupResult) -> Next {
        let version = result.answers.iter().find_map(|rec| match &rec.rdata {
            RData::Txt(t) => Some(t.joined()),
            _ => None,
        });
        Next::Done(
            result.status,
            json!({ "version": version }).into(),
            trace_json(&result),
        )
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
        let start = input.trim().parse::<Ipv4Addr>().ok().map(|server| {
            let question = Question {
                name: "version.bind".parse().expect("static name"),
                qtype: RecordType::TXT,
                qclass: RecordClass::CH,
            };
            (
                Inner::direct(resolver, question, server, false),
                BindVersionPlan,
            )
        });
        machine(self.name(), input, sink, start)
    }
}

/// `PROBE`: one direct query per input line, with the destination pinned
/// *by the input* — `name@ip` probes `ip` for `name`'s A record (RD=0),
/// `name@ip#TYPE` picks another record type. The building block for
/// per-server reachability sweeps, and what the scan-pipeline tests use
/// to give each lookup its own destination.
pub struct ProbeModule;

/// Read a `name@ip[#TYPE]` line.
fn parse_probe(input: &str) -> Option<(Name, Ipv4Addr, RecordType)> {
    let (name, rest) = input.trim().split_once('@')?;
    let (server, qtype) = match rest.split_once('#') {
        Some((server, rtype)) => (server, rtype.parse().ok()?),
        None => (rest, RecordType::A),
    };
    Some((
        input_to_name(name, false)?,
        server.trim().parse().ok()?,
        qtype,
    ))
}

/// The raw modules' `data`, plus the server the input named.
struct ProbePlan {
    server: Ipv4Addr,
    detail: Detail,
}

impl Plan for ProbePlan {
    fn next(&mut self, result: LookupResult) -> Next {
        let (status, trace) = (result.status, trace_json(&result));
        let data = Data::lookup(result, self.detail, Some(self.server));
        Next::Done(status, data, trace)
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
        let start = parse_probe(input).map(|(name, server, qtype)| {
            let detail = resolver.core().config.detail;
            let question = Question::new(name, qtype);
            let inner = Inner::direct(resolver, question, server, false);
            (inner, ProbePlan { server, detail })
        });
        machine(self.name(), input, sink, start)
    }
}

/// `NSLOOKUP`: NS records plus the addresses of each nameserver.
#[derive(Default)]
pub struct NsLookupModule;

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
        let start = input_to_name(input, false)
            .map(|name| HostsPlan::start(resolver, name, RecordType::NS, "servers"));
        machine(self.name(), input, sink, start)
    }
}
