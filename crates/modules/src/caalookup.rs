//! `CAALOOKUP` — CAA records with RFC 8659 CNAME-chain semantics and tag
//! validation, the instrument behind the §6 case study. The paper notes the
//! whole thing is "less than five lines" changed from the template module
//! plus ~15 lines of CAA-specific code; the analysis fields here (tag
//! classes, CNAME hop count) are what §6 aggregates.

use serde_json::json;
use zdns_core::{LookupResult, Resolver};
use zdns_netsim::SimClient;
use zdns_wire::{Question, RData, RecordType};

use crate::api::{input_to_name, machine, trace_json, Inner, LookupModule, ModuleSink, Next, Plan};

/// The CAA lookup module.
pub struct CaaLookupModule;

/// Classify the CAA records at the end of the CNAME chain.
struct CaaPlan;

impl Plan for CaaPlan {
    fn next(&mut self, result: LookupResult) -> Next {
        let mut records = Vec::new();
        let mut cname_hops = 0u32;
        let mut issue = Vec::new();
        let mut issuewild = Vec::new();
        let mut has_iodef = false;
        let mut invalid_tags = Vec::new();
        for rec in &result.answers {
            match &rec.rdata {
                RData::Cname(_) => cname_hops += 1,
                RData::Caa(caa) => {
                    let tag = caa.tag_str();
                    let value = caa.value_str();
                    match tag.as_str() {
                        "issue" => issue.push(value.clone()),
                        "issuewild" => issuewild.push(value.clone()),
                        "iodef" => has_iodef = true,
                        _ if !caa.tag_is_standard() => invalid_tags.push(tag.clone()),
                        _ => {}
                    }
                    records.push(json!({
                        "flag": caa.flags,
                        "tag": tag,
                        "value": value,
                        "critical": caa.critical(),
                    }));
                }
                _ => {}
            }
        }
        let data = json!({
            "records": records,
            "issue": issue,
            "issuewild": issuewild,
            "has_iodef": has_iodef,
            "invalid_tags": invalid_tags,
            "via_cname": cname_hops > 0,
            "cname_hops": cname_hops,
        });
        Next::Done(result.status, data.into(), trace_json(&result))
    }
}

impl LookupModule for CaaLookupModule {
    fn name(&self) -> &'static str {
        "CAALOOKUP"
    }

    fn description(&self) -> &'static str {
        "CAA records with CNAME chasing (RFC 8659) and tag validation"
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let start = input_to_name(input, false).map(|name| {
            (
                Inner::lookup(resolver, Question::new(name, RecordType::CAA)),
                CaaPlan,
            )
        });
        machine(self.name(), input, sink, start)
    }
}
