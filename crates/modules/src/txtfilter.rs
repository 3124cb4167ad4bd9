//! TXT-filtering modules: SPF and DMARC.
//!
//! These mirror the paper's Appendix B example module: query TXT, keep the
//! string matching a case-insensitive prefix (`v=spf1` / `v=DMARC1`), and
//! return it under a single key.

use serde_json::json;
use zdns_core::{Resolver, Status};
use zdns_netsim::{ClientEvent, OutQuery, SimClient, SimTime, StepStatus};
use zdns_wire::{Question, RData, RecordType};

use crate::api::{emit, input_to_name, trace_json, FailMachine, Inner, LookupModule, ModuleSink};

/// A TXT-filter module description.
pub struct TxtFilterModule {
    /// Module name (`SPF`, `DMARC`).
    pub module: &'static str,
    /// Case-insensitive prefix the TXT string must start with.
    pub prefix: &'static str,
    /// JSON key for the matched string (`spf`, `dmarc`).
    pub key: &'static str,
    /// Optional label prepended to the queried name (`_dmarc` for DMARC).
    pub subdomain: Option<&'static str>,
}

/// The SPF module (paper Appendix B).
pub fn spf() -> TxtFilterModule {
    TxtFilterModule {
        module: "SPF",
        prefix: "v=spf1",
        key: "spf",
        subdomain: None,
    }
}

/// The DMARC module: `v=DMARC1` TXT at `_dmarc.<name>`.
pub fn dmarc() -> TxtFilterModule {
    TxtFilterModule {
        module: "DMARC",
        prefix: "v=dmarc1",
        key: "dmarc",
        subdomain: Some("_dmarc"),
    }
}

struct TxtFilterMachine {
    inner: Inner,
    input: String,
    module: &'static str,
    prefix: &'static str,
    key: &'static str,
    sink: ModuleSink,
}

impl TxtFilterMachine {
    fn finish(&mut self, result: zdns_core::LookupResult) -> StepStatus {
        // The Appendix B CheckTxtRecords logic: find the TXT record whose
        // joined string starts with the prefix, case-insensitively.
        let matched = result.answers.iter().find_map(|rec| match &rec.rdata {
            RData::Txt(t) => {
                let joined = t.joined();
                joined
                    .to_ascii_lowercase()
                    .starts_with(self.prefix)
                    .then_some(joined)
            }
            _ => None,
        });
        let data = match &matched {
            Some(s) => json!({ self.key: s }),
            None => json!({}),
        };
        // A resolvable name without the record is still NOERROR — the
        // measurement succeeded, the record is absent.
        emit(
            &self.sink,
            std::mem::take(&mut self.input),
            self.module,
            result.status,
            data,
            trace_json(&result),
        )
    }
}

impl SimClient for TxtFilterMachine {
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

impl LookupModule for TxtFilterModule {
    fn name(&self) -> &'static str {
        self.module
    }

    fn description(&self) -> &'static str {
        "TXT lookup filtered to a policy record by prefix"
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let name = input_to_name(input, false).and_then(|n| match self.subdomain {
            Some(label) => n.child(label).ok(),
            None => Some(n),
        });
        let Some(name) = name else {
            return Box::new(FailMachine {
                input: input.to_string(),
                module: self.module,
                status: Status::IllegalInput,
                sink,
            });
        };
        Box::new(TxtFilterMachine {
            inner: Inner::lookup(resolver, Question::new(name, RecordType::TXT)),
            input: input.to_string(),
            module: self.module,
            prefix: self.prefix,
            key: self.key,
            sink,
        })
    }
}
