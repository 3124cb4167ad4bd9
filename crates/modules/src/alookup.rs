//! `alookup` — nslookup-style address resolution that follows CNAMEs and
//! returns plain address lists (§3.3 "Lookup modules").

use serde_json::json;
use zdns_core::{LookupResult, Resolver, Status};
use zdns_netsim::SimClient;
use zdns_wire::{Name, Question, RData, RecordType};

use crate::api::{input_to_name, machine, trace_json, Inner, LookupModule, ModuleSink, Next, Plan};

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

/// The first address lookup, then an optional AAAA follow-up; every list
/// keeps the first occurrence of each value.
struct ALookupPlan {
    /// The AAAA lookup still to run after the A lookup.
    aaaa: Option<(Resolver, Name)>,
    v4: Vec<String>,
    v6: Vec<String>,
    cnames: Vec<String>,
    trace: Vec<serde_json::Value>,
    status: Status,
}

impl Plan for ALookupPlan {
    fn next(&mut self, result: LookupResult) -> Next {
        for rec in &result.answers {
            let (list, value) = match &rec.rdata {
                RData::A(a) => (&mut self.v4, a.to_string()),
                RData::Aaaa(a) => (&mut self.v6, a.to_string()),
                RData::Cname(c) => (&mut self.cnames, format!("{c}.")),
                _ => continue,
            };
            if !list.contains(&value) {
                list.push(value);
            }
        }
        self.trace.extend(trace_json(&result));
        // The worst status wins; a failed AAAA after a good A demotes.
        if self.status == Status::NoError || !result.status.is_success() {
            self.status = result.status;
        }
        if let Some((resolver, name)) = self.aaaa.take() {
            let question = Question::new(name, RecordType::AAAA);
            return Next::Lookup(Inner::lookup(&resolver, question));
        }
        let data = json!({
            "ipv4_addresses": self.v4,
            "ipv6_addresses": self.v6,
            "cnames": self.cnames,
        });
        Next::Done(self.status, data.into(), std::mem::take(&mut self.trace))
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
        let start = input_to_name(input, false).map(|name| {
            let first = if self.ipv4 {
                RecordType::A
            } else {
                RecordType::AAAA
            };
            let plan = ALookupPlan {
                aaaa: (self.ipv4 && self.ipv6).then(|| (resolver.clone(), name.clone())),
                v4: Vec::new(),
                v6: Vec::new(),
                cnames: Vec::new(),
                trace: Vec::new(),
                status: Status::NoError,
            };
            (Inner::lookup(resolver, Question::new(name, first)), plan)
        });
        machine(self.name(), input, sink, start)
    }
}
