//! Raw DNS modules: "the raw DNS response from a server similar to dig,
//! but as structured JSON records" (§3.3) — one module per record type.

use zdns_core::{Resolver, Status};
use zdns_netsim::{ClientEvent, OutQuery, SimClient, SimTime, StepStatus};
use zdns_wire::{Question, RecordType};

use crate::api::{emit, input_to_name, trace_json, FailMachine, Inner, LookupModule, ModuleSink};

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

struct RawMachine {
    inner: Inner,
    input: String,
    module: &'static str,
    sink: ModuleSink,
}

impl RawMachine {
    fn finish(&mut self, result: zdns_core::LookupResult) -> StepStatus {
        emit(
            &self.sink,
            &self.input,
            self.module,
            result.status,
            result.data_json(),
            trace_json(&result),
        )
    }
}

impl SimClient for RawMachine {
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
        let Some(name) = input_to_name(input, reverse) else {
            return Box::new(FailMachine {
                input: input.to_string(),
                module: self.name(),
                status: Status::IllegalInput,
                sink,
            });
        };
        Box::new(RawMachine {
            inner: Inner::lookup(resolver, Question::new(name, self.rtype)),
            input: input.to_string(),
            module: self.name(),
            sink,
        })
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
