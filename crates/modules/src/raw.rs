//! Raw DNS modules: "the raw DNS response from a server similar to dig,
//! but as structured JSON records" (§3.3) — one module per record type.

use zdns_core::{Detail, LookupResult, Resolver};
use zdns_netsim::SimClient;
use zdns_wire::{Question, RecordType};

use crate::api::{
    input_to_name, machine, trace_json, Data, Inner, LookupModule, ModuleSink, Next, Plan,
};

/// A raw module for one record type.
pub struct RawModule {
    rtype: RecordType,
}

impl RawModule {
    /// Build the raw module for `rtype`.
    pub fn new(rtype: RecordType) -> RawModule {
        RawModule { rtype }
    }

    /// Every queryable record type gets a raw module (the paper's footnote
    /// lists 65; OPT/TSIG are transport artifacts, not queries).
    pub fn all() -> impl Iterator<Item = RawModule> {
        RecordType::all()
            .iter()
            .filter(|t| !matches!(t, RecordType::OPT | RecordType::TSIG | RecordType::NULL))
            .map(|&t| RawModule::new(t))
    }
}

/// Print the lookup's own `data` object, written straight into the line.
struct RawPlan {
    detail: Detail,
}

impl Plan for RawPlan {
    fn next(&mut self, result: LookupResult) -> Next {
        let (status, trace) = (result.status, trace_json(&result));
        Next::Done(status, Data::lookup(result, self.detail, None), trace)
    }
}

impl LookupModule for RawModule {
    fn name(&self) -> &'static str {
        self.rtype.as_str()
    }

    fn description(&self) -> &'static str {
        "raw DNS lookup returning the structured response"
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        // The PTR module accepts plain IPs and reverses them.
        let reverse = self.rtype == RecordType::PTR;
        let start = input_to_name(input, reverse).map(|name| {
            let detail = resolver.core().config.detail;
            let question = Question::new(name, self.rtype);
            (Inner::lookup(resolver, question), RawPlan { detail })
        });
        machine(self.name(), input, sink, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_raw_modules_cover_footnote_types() {
        let names: Vec<&str> = RawModule::all().map(|m| m.name()).collect();
        for required in [
            "A", "AAAA", "CAA", "MX", "TXT", "PTR", "NS", "SOA", "NSEC3", "URI",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        assert!(names.len() >= 64, "only {} raw modules", names.len());
        assert!(!names.contains(&"OPT"));
    }
}
