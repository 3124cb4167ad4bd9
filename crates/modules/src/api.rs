//! The module interface — the Rust analog of ZDNS's Go `DoLookup` modules.
//!
//! A module turns one input line (a name, or an IP for PTR/misc modules)
//! into a lookup machine plus a JSON result shape. Modules get direct access
//! to the resolver library (§3.2: "ZDNS modules are given direct access to
//! the DNS library"), so most of them are a few lines: build a question,
//! run it, reshape the answer.

use std::sync::Arc;

use parking_lot::Mutex;
use serde_json::Value;
use zdns_core::{LookupResult, Resolver, ResultSink, Status};
use zdns_netsim::{ClientEvent, JobOutcome, OutQuery, SimClient, SimTime, StepStatus};
use zdns_wire::{Name, Question};

/// One output line produced by a module.
#[derive(Debug, Clone)]
pub struct ModuleOutput {
    /// The input this output answers.
    pub name: String,
    /// Module that produced it.
    pub module: &'static str,
    /// Lookup status.
    pub status: Status,
    /// Module-shaped JSON data: what the configured output group prints.
    /// The raw modules' `data` ([`LookupResult::data_json`]) carries
    /// `flags` and `additionals` only when the resolver's
    /// [`Detail`](zdns_core::Detail) is `Long` or `Trace` — the `long` and
    /// `trace` groups; `short` and `normal` lines never print them.
    pub data: Value,
    /// The exposed lookup chain of the primary lookup, already as JSON.
    pub trace: Vec<Value>,
}

impl ModuleOutput {
    /// Render the full output line.
    pub fn to_json(&self) -> Value {
        let mut v = serde_json::json!({
            "name": self.name,
            "class": "IN",
            "status": self.status.as_str(),
            "module": self.module,
            "data": self.data,
        });
        if !self.trace.is_empty() {
            v["trace"] = Value::Array(self.trace.clone());
        }
        v
    }
}

/// Callback collecting module outputs.
pub type ModuleSink = Arc<dyn Fn(ModuleOutput) + Send + Sync>;

/// A composable lookup module.
pub trait LookupModule: Send + Sync {
    /// Module name as used on the command line (`A`, `MXLOOKUP`, `SPF`...).
    fn name(&self) -> &'static str;
    /// One-line description for `--help`.
    fn description(&self) -> &'static str;
    /// Build the machine that performs this module's lookup of `input`.
    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient>;
    /// True when every destination this module queries comes from its
    /// *input lines* (e.g. `PROBE`'s `name@ip`, `BINDVERSION`'s bare
    /// IPs) rather than from the resolver's mode — such modules run
    /// `--real` without `--name-servers` and never touch the simulated
    /// root hints.
    fn input_addressed(&self) -> bool {
        false
    }
}

/// A sub-lookup inside a module machine: wraps an inner machine and captures
/// its [`LookupResult`] when it completes.
pub struct Inner {
    machine: Box<dyn SimClient>,
    slot: Arc<Mutex<Option<LookupResult>>>,
}

impl Inner {
    /// A normal (iterative or external, per config) lookup.
    pub fn lookup(resolver: &Resolver, question: Question) -> Inner {
        let slot: Arc<Mutex<Option<LookupResult>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&slot);
        let sink: ResultSink = Arc::new(move |r| *s2.lock() = Some(r));
        Inner {
            machine: resolver.machine(question, Some(sink)),
            slot,
        }
    }

    /// A delegation-preserving iterative lookup.
    pub fn delegation(resolver: &Resolver, question: Question) -> Inner {
        let slot: Arc<Mutex<Option<LookupResult>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&slot);
        let sink: ResultSink = Arc::new(move |r| *s2.lock() = Some(r));
        Inner {
            machine: resolver.delegation_machine(question, Some(sink)),
            slot,
        }
    }

    /// A direct probe of one server.
    pub fn direct(
        resolver: &Resolver,
        question: Question,
        server: std::net::Ipv4Addr,
        recursion_desired: bool,
    ) -> Inner {
        let slot: Arc<Mutex<Option<LookupResult>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&slot);
        let sink: ResultSink = Arc::new(move |r| *s2.lock() = Some(r));
        Inner {
            machine: resolver.direct_machine(question, server, recursion_desired, Some(sink)),
            slot,
        }
    }

    /// Start the inner machine; `Some(result)` if it finished immediately.
    pub fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> Option<LookupResult> {
        match self.machine.start(now, out) {
            StepStatus::Done(_) => self.slot.lock().take(),
            StepStatus::Running => None,
        }
    }

    /// Feed an event; `Some(result)` once the inner lookup completes.
    pub fn on_event(
        &mut self,
        event: ClientEvent,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> Option<LookupResult> {
        match self.machine.on_event(event, now, out) {
            StepStatus::Done(_) => self.slot.lock().take(),
            StepStatus::Running => None,
        }
    }
}

/// Shorthand for emitting a finished module output. `name` is the
/// machine's input, moved in: a machine emits once.
pub fn emit(
    sink: &ModuleSink,
    name: String,
    module: &'static str,
    status: Status,
    data: Value,
    trace: Vec<Value>,
) -> StepStatus {
    sink(ModuleOutput {
        name,
        module,
        status,
        data,
        trace,
    });
    StepStatus::Done(JobOutcome {
        success: status.is_success(),
        status: status.as_str(),
    })
}

/// A machine that fails instantly (bad input).
pub struct FailMachine {
    /// The offending input.
    pub input: String,
    /// Module name for the output line.
    pub module: &'static str,
    /// Failure status (usually `IllegalInput`).
    pub status: Status,
    /// Output sink.
    pub sink: ModuleSink,
}

impl SimClient for FailMachine {
    fn start(&mut self, _now: SimTime, _out: &mut Vec<OutQuery>) -> StepStatus {
        emit(
            &self.sink,
            std::mem::take(&mut self.input),
            self.module,
            self.status,
            Value::Null,
            Vec::new(),
        )
    }

    fn on_event(&mut self, _e: ClientEvent, _now: SimTime, _o: &mut Vec<OutQuery>) -> StepStatus {
        StepStatus::Done(JobOutcome {
            success: false,
            status: self.status.as_str(),
        })
    }
}

/// Parse an input line into a DNS name, converting IPv4 addresses into
/// their reverse (`in-addr.arpa`) form the way the ZDNS PTR module does.
pub fn input_to_name(input: &str, reverse_ips: bool) -> Option<Name> {
    let trimmed = input.trim();
    if reverse_ips {
        if let Ok(ip) = trimmed.parse::<std::net::Ipv4Addr>() {
            return Some(Name::reverse_ipv4(ip));
        }
        if let Ok(ip) = trimmed.parse::<std::net::Ipv6Addr>() {
            return Some(Name::reverse_ipv6(ip));
        }
    }
    trimmed.parse().ok()
}

/// The lookup chain of a result as JSON values, for [`ModuleOutput::trace`].
/// Empty, and free, unless the resolver records traces (`Detail::Trace`)
/// — which a scan configured through the CLI does only under the `trace`
/// output group, the one group that prints them.
pub fn trace_json(result: &LookupResult) -> Vec<Value> {
    result.trace.iter().map(|s| s.to_json()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_to_name_reverses_ips() {
        let n = input_to_name("192.0.2.1", true).unwrap();
        assert_eq!(n.to_string(), "1.2.0.192.in-addr.arpa");
        let n6 = input_to_name("2001:db8::1", true).unwrap();
        assert!(n6.to_string().ends_with("ip6.arpa"));
        // Without reversal, an IP-looking string parses as a name.
        let plain = input_to_name("192.0.2.1", false).unwrap();
        assert_eq!(plain.label_count(), 4);
        assert!(input_to_name("bad..name", false).is_none());
    }

    #[test]
    fn module_output_json_shape() {
        let out = ModuleOutput {
            name: "example.com".into(),
            module: "A",
            status: Status::NoError,
            data: serde_json::json!({"answers": []}),
            trace: Vec::new(),
        };
        let v = out.to_json();
        assert_eq!(v["status"], "NOERROR");
        assert_eq!(v["module"], "A");
        assert!(v.get("trace").is_none());
    }
}
