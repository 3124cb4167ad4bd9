//! TXT-filtering modules: SPF and DMARC.
//!
//! These mirror the paper's Appendix B example module: query TXT, keep the
//! string matching a case-insensitive prefix (`v=spf1` / `v=DMARC1`), and
//! return it under a single key.

use serde_json::json;
use zdns_core::{LookupResult, Resolver};
use zdns_netsim::SimClient;
use zdns_wire::{Question, RData, RecordType};

use crate::api::{input_to_name, machine, trace_json, Inner, LookupModule, ModuleSink, Next, Plan};

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

/// The Appendix B `CheckTxtRecords` logic: keep the TXT record whose
/// joined string starts with the prefix, case-insensitively.
struct TxtFilterPlan {
    prefix: &'static str,
    key: &'static str,
}

impl Plan for TxtFilterPlan {
    fn next(&mut self, result: LookupResult) -> Next {
        let matched = result.answers.iter().find_map(|rec| match &rec.rdata {
            RData::Txt(t) => {
                let joined = t.joined();
                let lower = joined.to_ascii_lowercase();
                lower.starts_with(self.prefix).then_some(joined)
            }
            _ => None,
        });
        let data = match matched {
            Some(s) => json!({ self.key: s }),
            None => json!({}),
        };
        // A resolvable name without the record is still NOERROR — the
        // measurement succeeded, the record is absent.
        Next::Done(result.status, data.into(), trace_json(&result))
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
        let plan = TxtFilterPlan {
            prefix: self.prefix,
            key: self.key,
        };
        let start = name.map(|n| {
            (
                Inner::lookup(resolver, Question::new(n, RecordType::TXT)),
                plan,
            )
        });
        machine(self.module, input, sink, start)
    }
}
