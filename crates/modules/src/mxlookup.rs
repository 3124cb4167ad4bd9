//! `mxlookup` — MX records plus the A records of each exchange (§3.3:
//! "mxlookup will additionally do an A lookup for the IP addresses that
//! correspond with an exchange record"). `NSLOOKUP` runs the same plan
//! over NS records.

use serde_json::json;
use zdns_core::{LookupResult, Resolver, Status};
use zdns_netsim::SimClient;
use zdns_wire::{Name, Question, RData, RecordType};

use crate::api::{input_to_name, machine, trace_json, Inner, LookupModule, ModuleSink, Next, Plan};

/// The `mxlookup` module.
#[derive(Default)]
pub struct MxLookupModule;

/// Cap on how many exchanges (or nameservers) get address lookups.
const MAX_HOSTS: usize = 8;

/// An MX exchange (with its preference) or an NS nameserver, and the
/// IPv4 addresses found for it.
struct Host {
    name: Name,
    preference: Option<u16>,
    addresses: Vec<String>,
}

/// `MXLOOKUP` and `NSLOOKUP`: the MX (or NS) lookup, then an A lookup for
/// each host the additional section left without an address.
pub(crate) struct HostsPlan {
    resolver: Resolver,
    rtype: RecordType,
    /// The output's key for the host list.
    key: &'static str,
    /// `None` until the MX or NS answer arrives.
    hosts: Option<Vec<Host>>,
    next: usize,
    trace: Vec<serde_json::Value>,
    status: Status,
}

impl HostsPlan {
    /// The first lookup, `rtype` (MX or NS) at `name`, and the plan that
    /// prints the hosts it finds under `key`.
    pub(crate) fn start(
        resolver: &Resolver,
        name: Name,
        rtype: RecordType,
        key: &'static str,
    ) -> (Inner, HostsPlan) {
        let plan = HostsPlan {
            resolver: resolver.clone(),
            rtype,
            key,
            hosts: None,
            next: 0,
            trace: Vec::new(),
            status: Status::NoError,
        };
        (Inner::lookup(resolver, Question::new(name, rtype)), plan)
    }

    /// The hosts the MX or NS answer names, with any addresses the
    /// additional section already holds (§3.3 motivates mxlookup precisely
    /// because these are often absent).
    fn first_answer(&mut self, result: &LookupResult) -> Vec<Host> {
        self.status = result.status;
        if !result.status.is_success() {
            return Vec::new();
        }
        let mut hosts: Vec<Host> = (result.answers.iter())
            .filter(|rec| rec.rtype == self.rtype)
            .filter_map(|rec| {
                let (name, preference) = match &rec.rdata {
                    RData::Mx(mx) => (&mx.exchange, Some(mx.preference)),
                    RData::Ns(ns) => (ns, None),
                    _ => return None,
                };
                Some(Host {
                    name: name.clone(),
                    preference,
                    addresses: Vec::new(),
                })
            })
            .collect();
        hosts.sort_by_key(|h| h.preference);
        hosts.truncate(MAX_HOSTS);
        for rec in &result.additionals {
            if let RData::A(a) = &rec.rdata {
                if let Some(h) = hosts.iter_mut().find(|h| h.name == rec.name) {
                    h.addresses.push(a.to_string());
                }
            }
        }
        hosts
    }
}

impl Plan for HostsPlan {
    fn next(&mut self, result: LookupResult) -> Next {
        self.trace.extend(trace_json(&result));
        let hosts = match &mut self.hosts {
            Some(hosts) => {
                let addresses = &mut hosts[self.next - 1].addresses;
                addresses.extend(result.answers.iter().filter_map(|rec| match &rec.rdata {
                    RData::A(a) => Some(a.to_string()),
                    _ => None,
                }));
                hosts
            }
            None => {
                let hosts = self.first_answer(&result);
                self.hosts.insert(hosts)
            }
        };
        while self.next < hosts.len() {
            self.next += 1;
            let host = &hosts[self.next - 1];
            if host.addresses.is_empty() {
                let question = Question::new(host.name.clone(), RecordType::A);
                return Next::Lookup(Inner::lookup(&self.resolver, question));
            }
        }
        let trace = std::mem::take(&mut self.trace);
        let hosts = hosts.iter().map(|h| {
            let name = format!("{}.", h.name);
            match h.preference {
                Some(p) => json!({ "name": name, "preference": p, "ipv4_addresses": h.addresses }),
                None => json!({ "name": name, "ipv4_addresses": h.addresses }),
            }
        });
        let data = json!({ self.key: hosts.collect::<Vec<_>>() });
        Next::Done(self.status, data.into(), trace)
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
        let start = input_to_name(input, false)
            .map(|name| HostsPlan::start(resolver, name, RecordType::MX, "exchanges"));
        machine(self.name(), input, sink, start)
    }
}
