//! The module interface — the Rust analog of ZDNS's Go `DoLookup` modules.
//!
//! A module turns one input line (a name, or an IP for PTR/misc modules)
//! into a first lookup plus a [`Plan`] that reshapes each result into the
//! next lookup or the output line; [`machine`] is the one state machine
//! that runs every plan. Modules get direct access to the resolver library
//! (§3.2: "ZDNS modules are given direct access to the DNS library"), so
//! most of them are a few lines: build a question, run it, reshape the
//! answer.

use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

use serde_json::Value;
use zdns_core::{Detail, Lookup, LookupResult, Resolver, Status};
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
    /// The line's `data`: a tree the module shaped, or a raw lookup's
    /// result that the sink writes straight into the line ([`Data`]).
    /// Either reads as a [`Value`].
    pub data: Data,
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
            "data": &*self.data,
        });
        if !self.trace.is_empty() {
            v["trace"] = Value::Array(self.trace.clone());
        }
        v
    }
}

/// The `data` member of an output line.
///
/// A raw lookup's `data` is written once, by [`LookupResult::write_data`],
/// straight into the line: no tree is built for it on a scan's path. It
/// still reads as a [`Value`] (`Deref`): the tree is parsed from those same
/// bytes the first time something reads it, so a reader sees exactly what
/// the line says.
#[derive(Debug, Clone)]
pub enum Data {
    /// A tree the module shaped itself (ALOOKUP, MXLOOKUP and the like).
    Tree(Value),
    /// A raw lookup's result, boxed: a worker's block holds up to a
    /// thousand outputs, and the result is several times an output's size.
    Lookup(Box<LookupData>),
}

/// What a raw lookup's `data` is written from.
#[derive(Debug, Clone)]
pub struct LookupData {
    result: LookupResult,
    detail: Detail,
    server: Option<Ipv4Addr>,
    tree: OnceLock<Value>,
}

impl Data {
    /// `result`'s `data` as the output group configured for `detail`
    /// prints it, with `server` appended when given (`PROBE`). The
    /// result's trace is dropped: the output carries its own.
    pub fn lookup(mut result: LookupResult, detail: Detail, server: Option<Ipv4Addr>) -> Data {
        result.trace = Vec::new();
        Data::Lookup(Box::new(LookupData {
            result,
            detail,
            server,
            tree: OnceLock::new(),
        }))
    }

    /// Write the `data` member's value into `out`; `drop_noise` leaves out
    /// `additionals` and `flags` (the `normal` group).
    pub fn write(&self, drop_noise: bool, out: &mut String) {
        match self {
            Data::Lookup(l) => l.result.write_data(l.detail, drop_noise, l.server, out),
            Data::Tree(Value::Object(map)) if drop_noise => {
                out.push('{');
                let kept = map
                    .iter()
                    .filter(|(k, _)| *k != "additionals" && *k != "flags");
                for (i, (k, v)) in kept.enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = serde_json::write_escaped(k, out);
                    out.push(':');
                    let _ = serde_json::write_value(v, out);
                }
                out.push('}');
            }
            Data::Tree(v) => {
                let _ = serde_json::write_value(v, out);
            }
        }
    }

    /// Write the `short` group's `data` member, `,"data":{"answers":…}`,
    /// when there are answers; nothing otherwise.
    pub fn write_answers(&self, out: &mut String) {
        const MEMBER: &str = ",\"data\":{\"answers\":";
        match self {
            Data::Lookup(l) if !l.result.answers.is_empty() => {
                out.push_str(MEMBER);
                zdns_wire::json::write_records(&l.result.answers, out);
                out.push('}');
            }
            Data::Tree(v) => {
                if let Some(answers) = v.get("answers") {
                    out.push_str(MEMBER);
                    let _ = serde_json::write_value(answers, out);
                    out.push('}');
                }
            }
            Data::Lookup(_) => {}
        }
    }
}

impl std::ops::Deref for Data {
    type Target = Value;

    fn deref(&self) -> &Value {
        match self {
            Data::Tree(v) => v,
            Data::Lookup(l) => l.tree.get_or_init(|| {
                let mut line = String::new();
                l.result.write_data(l.detail, false, l.server, &mut line);
                serde_json::from_str(&line).expect("write_data writes JSON")
            }),
        }
    }
}

impl From<Value> for Data {
    fn from(v: Value) -> Data {
        Data::Tree(v)
    }
}

impl std::fmt::Display for Data {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut line = String::new();
        self.write(false, &mut line);
        f.write_str(&line)
    }
}

impl PartialEq<Value> for Data {
    fn eq(&self, other: &Value) -> bool {
        **self == *other
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

/// A sub-lookup inside a module: which kept resolver [`Lookup`] to run.
/// The module machine builds it in place, holds it by value while it
/// runs, and takes its [`LookupResult`] by value when it completes. Build
/// one and hand it to [`machine`] as the module's first lookup, or return
/// it from [`Plan::next`] as [`Next::Lookup`].
pub struct Inner {
    resolver: Resolver,
    question: Question,
    kind: InnerKind,
}

enum InnerKind {
    Lookup,
    Delegation,
    Direct {
        server: Ipv4Addr,
        recursion_desired: bool,
    },
}

impl Inner {
    /// A normal (iterative or external, per config) lookup.
    pub fn lookup(resolver: &Resolver, question: Question) -> Inner {
        Inner::new(resolver, question, InnerKind::Lookup)
    }

    /// A delegation-preserving iterative lookup.
    pub fn delegation(resolver: &Resolver, question: Question) -> Inner {
        Inner::new(resolver, question, InnerKind::Delegation)
    }

    /// A direct probe of one server.
    pub fn direct(
        resolver: &Resolver,
        question: Question,
        server: Ipv4Addr,
        recursion_desired: bool,
    ) -> Inner {
        let kind = InnerKind::Direct {
            server,
            recursion_desired,
        };
        Inner::new(resolver, question, kind)
    }

    fn new(resolver: &Resolver, question: Question, kind: InnerKind) -> Inner {
        Inner {
            resolver: resolver.clone(),
            question,
            kind,
        }
    }

    /// The lookup itself, ready to start.
    fn build(self) -> Lookup {
        let Inner {
            resolver,
            question,
            kind,
        } = self;
        match kind {
            InnerKind::Lookup => resolver.lookup_machine(question),
            InnerKind::Delegation => resolver.delegation_machine(question),
            InnerKind::Direct {
                server,
                recursion_desired,
            } => resolver.direct_machine(question, server, recursion_desired),
        }
    }
}

/// What a module does next with a finished sub-lookup.
pub enum Next {
    /// Run this lookup and hand its result to [`Plan::next`] again.
    Lookup(Inner),
    /// The module is done: the output line's status, `data` and trace.
    Done(Status, Data, Vec<Value>),
}

/// A module's logic: what to make of each finished sub-lookup. The first
/// lookup is given to [`machine`]; every result after it comes here, and
/// the plan answers with the next lookup or with the module's output.
pub trait Plan: Send + 'static {
    /// Take one finished sub-lookup and say what comes next.
    fn next(&mut self, result: LookupResult) -> Next;
}

/// The one machine every module runs: start `start`'s lookup, feed each
/// result to the plan, and print the output line when the plan is done.
/// `None` means the input did not parse: the machine prints an
/// `ILLEGAL_INPUT` line at once.
pub fn machine<P: Plan>(
    module: &'static str,
    input: &str,
    sink: ModuleSink,
    start: Option<(Inner, P)>,
) -> Box<dyn SimClient> {
    let line = Line {
        module,
        input: input.to_string(),
        sink,
    };
    match start {
        Some((inner, plan)) => Box::new(ModuleMachine {
            line,
            lookup: inner.build(),
            plan,
        }),
        None => Box::new(IllegalInput(line)),
    }
}

/// What a module's one output line is about, and where it goes.
struct Line {
    module: &'static str,
    input: String,
    sink: ModuleSink,
}

impl Line {
    /// Print the line; the input moves into it, as a module prints once.
    fn print(&mut self, status: Status, data: Data, trace: Vec<Value>) -> JobOutcome {
        (self.sink)(ModuleOutput {
            name: std::mem::take(&mut self.input),
            module: self.module,
            status,
            data,
            trace,
        });
        JobOutcome {
            success: status.is_success(),
            status: status.as_str(),
        }
    }
}

struct ModuleMachine<P> {
    line: Line,
    /// The sub-lookup in flight, held by value.
    lookup: Lookup,
    plan: P,
}

impl<P: Plan> ModuleMachine<P> {
    /// Hand finished sub-lookups to the plan until one is in flight or the
    /// plan is done. A lookup that finishes inside its own `start` (a
    /// cache hit) turns the loop again rather than recursing.
    fn advance(
        &mut self,
        mut step: StepStatus,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        while let StepStatus::Done(_) = step {
            let Some(result) = self.lookup.take_result() else {
                break;
            };
            match self.plan.next(result) {
                Next::Lookup(inner) => {
                    self.lookup = inner.build();
                    step = self.lookup.start(now, out);
                }
                Next::Done(status, data, trace) => {
                    return StepStatus::Done(self.line.print(status, data, trace))
                }
            }
        }
        StepStatus::Running
    }
}

impl<P: Plan> SimClient for ModuleMachine<P> {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        let step = self.lookup.start(now, out);
        self.advance(step, now, out)
    }

    fn on_event(
        &mut self,
        event: ClientEvent,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        let step = self.lookup.on_event(event, now, out);
        self.advance(step, now, out)
    }

    /// A wedged lookup still prints its line: `ERROR`, with no data.
    fn abandon(&mut self, _now: SimTime) -> JobOutcome {
        self.line
            .print(Status::Error, Value::Null.into(), Vec::new())
    }
}

/// The machine for an input the module cannot read.
struct IllegalInput(Line);

impl SimClient for IllegalInput {
    fn start(&mut self, _now: SimTime, _out: &mut Vec<OutQuery>) -> StepStatus {
        StepStatus::Done(
            self.0
                .print(Status::IllegalInput, Value::Null.into(), Vec::new()),
        )
    }

    fn on_event(&mut self, _e: ClientEvent, _now: SimTime, _o: &mut Vec<OutQuery>) -> StepStatus {
        unreachable!("a job that ended in `start` gets no event")
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
    use parking_lot::Mutex;

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

    /// Chains `left` more lookups of `chain.test` after the first, then
    /// prints how many results it saw.
    struct Chain {
        resolver: Resolver,
        left: u32,
        seen: u32,
    }

    impl Plan for Chain {
        fn next(&mut self, result: LookupResult) -> Next {
            assert_eq!(result.status, Status::Error);
            self.seen += 1;
            if self.left == 0 {
                return Next::Done(
                    Status::NoError,
                    serde_json::json!(self.seen).into(),
                    Vec::new(),
                );
            }
            self.left -= 1;
            Next::Lookup(Inner::lookup(&self.resolver, chain_question()))
        }
    }

    fn chain_question() -> Question {
        Question::new("chain.test".parse().unwrap(), zdns_wire::RecordType::A)
    }

    fn chain(servers: Vec<std::net::Ipv4Addr>, left: u32) -> (Box<dyn SimClient>, Outputs) {
        let resolver = Resolver::new(zdns_core::ResolverConfig::external(servers));
        let outputs: Outputs = Arc::default();
        let store = Arc::clone(&outputs);
        let sink: ModuleSink = Arc::new(move |o| store.lock().push(o));
        let first = Inner::lookup(&resolver, chain_question());
        let plan = Chain {
            resolver,
            left,
            seen: 0,
        };
        (
            machine("CHAIN", "chain.test", sink, Some((first, plan))),
            outputs,
        )
    }

    type Outputs = Arc<Mutex<Vec<ModuleOutput>>>;

    #[test]
    fn lookups_that_finish_inside_start_loop_without_growing_the_stack() {
        // With no servers every external lookup fails inside `start`, so
        // the whole chain runs inside the module machine's `start`. On a
        // 256 KiB stack, one frame per lookup would overflow long before
        // 100 000.
        let run = std::thread::Builder::new().stack_size(256 << 10).spawn(|| {
            let (mut m, outputs) = chain(Vec::new(), 100_000);
            let mut out = Vec::new();
            let step = m.start(0, &mut out);
            assert!(matches!(
                step,
                StepStatus::Done(JobOutcome { success: true, .. })
            ));
            assert!(out.is_empty());
            let printed = std::mem::take(&mut *outputs.lock());
            printed
        });
        let outputs = run.unwrap().join().expect("the chain ran on a small stack");
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].data, serde_json::json!(100_001));
        assert_eq!(outputs[0].module, "CHAIN");
        assert_eq!(outputs[0].name, "chain.test");
    }

    #[test]
    fn a_first_lookup_in_flight_leaves_the_machine_running() {
        let (mut m, outputs) = chain(vec![std::net::Ipv4Addr::new(192, 0, 2, 1)], 0);
        let mut out = Vec::new();
        assert!(matches!(m.start(0, &mut out), StepStatus::Running));
        assert_eq!(out.len(), 1, "the first query is on its way");
        assert!(outputs.lock().is_empty());
    }

    /// Notes each result it is handed, chains one more lookup after the
    /// first, and prints what it saw.
    struct Twice {
        resolver: Resolver,
        seen: Vec<String>,
    }

    impl Plan for Twice {
        fn next(&mut self, result: LookupResult) -> Next {
            self.seen
                .push(format!("{} {}", result.name, result.status.as_str()));
            if self.seen.len() == 2 {
                return Next::Done(
                    Status::NoError,
                    serde_json::json!(self.seen).into(),
                    Vec::new(),
                );
            }
            let second = Question::new("second.test".parse().unwrap(), zdns_wire::RecordType::A);
            Next::Lookup(Inner::lookup(&self.resolver, second))
        }
    }

    #[test]
    fn each_sub_lookup_hands_its_result_to_the_plan_exactly_once() {
        // One server and no retries: each lookup times out on its first
        // event, so both results come back from `on_event`, not `start`.
        let mut config = zdns_core::ResolverConfig::external(vec![Ipv4Addr::new(192, 0, 2, 1)]);
        config.retries = 0;
        let resolver = Resolver::new(config);
        let outputs: Outputs = Arc::default();
        let store = Arc::clone(&outputs);
        let sink: ModuleSink = Arc::new(move |o| store.lock().push(o));
        let first = Question::new("first.test".parse().unwrap(), zdns_wire::RecordType::A);
        let plan = Twice {
            resolver: resolver.clone(),
            seen: Vec::new(),
        };
        let start = Some((Inner::lookup(&resolver, first), plan));
        let mut m = machine("TWICE", "first.test", sink, start);

        let mut out = Vec::new();
        assert!(matches!(m.start(0, &mut out), StepStatus::Running));
        let mut step = StepStatus::Running;
        for now in 1..=2 {
            let query = out.pop().expect("a lookup in flight");
            assert!(matches!(step, StepStatus::Running));
            step = m.on_event(ClientEvent::Timeout { tag: query.tag }, now, &mut out);
        }
        assert!(matches!(step, StepStatus::Done(_)));
        assert!(out.is_empty());
        let printed = outputs.lock();
        assert_eq!(printed.len(), 1);
        assert_eq!(
            printed[0].data,
            serde_json::json!(["first.test TIMEOUT", "second.test TIMEOUT"])
        );
    }

    #[test]
    fn abandoning_a_lookup_in_flight_prints_one_error_line() {
        let (mut m, outputs) = chain(vec![std::net::Ipv4Addr::new(192, 0, 2, 1)], 0);
        assert!(matches!(m.start(0, &mut Vec::new()), StepStatus::Running));
        let outcome = m.abandon(1);
        assert_eq!((outcome.success, outcome.status), (false, "ERROR"));
        let printed = outputs.lock();
        assert_eq!(printed.len(), 1);
        assert_eq!(printed[0].status, Status::Error);
        assert_eq!(printed[0].name, "chain.test");
        assert_eq!(printed[0].data, Value::Null);
    }

    #[test]
    fn module_output_json_shape() {
        let out = ModuleOutput {
            name: "example.com".into(),
            module: "A",
            status: Status::NoError,
            data: serde_json::json!({"answers": []}).into(),
            trace: Vec::new(),
        };
        let v = out.to_json();
        assert_eq!(v["status"], "NOERROR");
        assert_eq!(v["module"], "A");
        assert!(v.get("trace").is_none());
    }
}
