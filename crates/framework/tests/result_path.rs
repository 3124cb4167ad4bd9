//! Properties of the result path, `LookupResult` → `ModuleOutput` → line.
//!
//! The `data` object of an output line has one builder,
//! [`LookupResult::data_json`]; [`LookupResult::to_json`] wraps it and the
//! raw modules move it into their [`ModuleOutput`], built for the detail
//! their output group prints (`flags` and `additionals` from `long` up).
//! Over generated results (empty sections, every status, flags with and
//! without a resolver, traces with and without responses) the builder
//! must agree with the full rendering, the full rendering with the `json!`
//! form it replaced, and the streaming [`write_line`] with the
//! tree-shaping [`to_line`] for every output group — and a group's line
//! must print the same from its own detail's `data` as from the full one.

use proptest::prelude::*;
use serde_json::json;
use zdns_core::{Detail, LookupResult, Status, TraceStep};
use zdns_framework::output::{to_line, write_line};
use zdns_framework::OutputGroup;
use zdns_modules::api::trace_json;
use zdns_modules::ModuleOutput;
use zdns_netsim::as_secs_f64;
use zdns_wire::rdata::TxtData;
use zdns_wire::{Flags, Message, Name, Question, RData, Record, RecordType};

const GROUPS: [OutputGroup; 4] = [
    OutputGroup::Short,
    OutputGroup::Normal,
    OutputGroup::Long,
    OutputGroup::Trace,
];

fn name_from(seed: u64) -> Name {
    let labels = 1 + seed % 3;
    (0..labels)
        .map(|i| format!("l{}", (seed >> (8 * i)) & 0xFFF))
        .collect::<Vec<_>>()
        .join(".")
        .parse()
        .expect("generated names are valid")
}

fn record_from(seed: u64) -> Record {
    let owner = name_from(seed);
    let rdata = match seed % 5 {
        0 => RData::A(std::net::Ipv4Addr::from((seed >> 8) as u32)),
        1 => RData::Aaaa(std::net::Ipv6Addr::from(u128::from(seed) << 17)),
        2 => RData::Ns(name_from(seed >> 5)),
        3 => RData::Cname(name_from(seed >> 9)),
        // Text that needs escaping on the way out.
        _ => RData::Txt(TxtData::from_text(&format!(
            "v=\"{}\" \\ é\n{}",
            seed % 97,
            seed >> 40
        ))),
    };
    Record::new(owner, (seed >> 3) as u32 % 100_000, rdata)
}

fn records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(any::<u64>(), 0..=3)
        .prop_map(|seeds| seeds.into_iter().map(record_from).collect())
}

fn flags_from(bits: u8) -> Flags {
    Flags {
        response: bits & 1 != 0,
        authoritative: bits & 2 != 0,
        truncated: bits & 4 != 0,
        recursion_desired: bits & 8 != 0,
        recursion_available: bits & 16 != 0,
        authenticated: bits & 32 != 0,
        checking_disabled: bits & 64 != 0,
        ..Flags::default()
    }
}

fn trace_from(seeds: &[u64]) -> Vec<TraceStep> {
    seeds
        .iter()
        .map(|&seed| {
            let question = Question::new(name_from(seed), RecordType::A);
            let cached = seed & 1 == 1;
            let layer = if seed & 2 == 2 {
                Name::root()
            } else {
                name_from(seed >> 7)
            };
            let results = (!cached).then(|| Message {
                id: seed as u16,
                flags: flags_from((seed >> 11) as u8),
                questions: vec![question.clone()],
                answers: vec![record_from(seed >> 13)],
                ..Message::default()
            });
            zdns_core::trace::step_for(
                &question,
                &layer,
                1 + (seed >> 4) as u32 % 5,
                if cached {
                    "cache".to_string()
                } else {
                    format!("192.0.2.{}:53", seed % 250)
                },
                1 + (seed >> 9) as u32 % 3,
                cached,
                results,
            )
        })
        .collect()
}

fn arb_result() -> impl Strategy<Value = LookupResult> {
    (
        (any::<u64>(), 0usize..Status::ALL.len()),
        (records(), records(), records()),
        (any::<u8>(), 0u8..4),
        proptest::collection::vec(any::<u64>(), 0..=3),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(
                (name, status),
                (answers, authorities, additionals),
                (flag_bits, seen),
                trace,
                times,
            )| {
                LookupResult {
                    name: name_from(name),
                    qtype: RecordType::A,
                    status: Status::ALL[status],
                    answers,
                    authorities,
                    additionals,
                    // A response gives both; failures give neither; the two
                    // mixed cases must not print half a footer.
                    flags: (seen & 1 != 0).then(|| flags_from(flag_bits)),
                    resolver: (seen & 2 != 0).then(|| format!("198.51.100.{flag_bits}:53")),
                    protocol: if flag_bits & 128 != 0 { "tcp" } else { "udp" },
                    trace: trace_from(&trace),
                    delegation: None,
                    queries_sent: times.0 % 30,
                    retries_used: times.1 % 5,
                    duration: u64::from(times.0) * 1_000,
                    timestamp: u64::from(times.1) * 1_000_000,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn data_is_built_once_and_lines_agree(result in arb_result()) {
        // One builder of `data`, wrapped by the full rendering.
        let full = result.to_json();
        let data = result.clone().data_json(Detail::Trace);
        prop_assert_eq!(&data, &full["data"]);

        // The full rendering is what the `json!` form it replaced printed.
        let mut want = json!({
            "name": result.name.to_string(),
            "class": "IN",
            "status": result.status.as_str(),
            "data": data,
            "duration": as_secs_f64(result.duration),
            "timestamp": as_secs_f64(result.timestamp),
        });
        if !result.trace.is_empty() {
            want["trace"] = serde_json::Value::Array(trace_json(&result));
        }
        prop_assert_eq!(full.to_string(), want.to_string());

        // What a raw module emits for it — `data` built for the group's
        // detail — prints through the streaming writer as through the
        // tree-shaping one, and as the full `data` does: a group's line
        // never needed what its detail leaves out.
        let output = |detail| ModuleOutput {
            name: result.name.to_string(),
            module: "A",
            status: result.status,
            data: result.clone().data_json(detail),
            trace: trace_json(&result),
        };
        let everything = output(Detail::Trace);
        let mut buf = String::new();
        for group in GROUPS {
            let printed = output(group.detail());
            write_line(&printed, group, &mut buf);
            prop_assert_eq!(&buf, &to_line(&printed, group), "{:?}", group);
            prop_assert_eq!(&buf, &to_line(&everything, group), "{:?}", group);
        }
        prop_assert_eq!(
            buf.contains("\"trace\":["),
            !result.trace.is_empty(),
            "the trace group prints a trace exactly when one was recorded"
        );
    }

    #[test]
    fn flags_and_additionals_are_built_from_long_up(result in arb_result()) {
        let footer = result.flags.is_some() && result.resolver.is_some();
        for detail in [Detail::Normal, Detail::Long, Detail::Trace] {
            let data = result.clone().data_json(detail);
            let long = detail >= Detail::Long;
            prop_assert_eq!(data.get("flags").is_some(), long && footer, "{:?}", detail);
            prop_assert_eq!(
                data.get("additionals").is_some(),
                long && !result.additionals.is_empty(),
                "{:?}",
                detail
            );
            prop_assert_eq!(data.get("resolver").is_some(), footer, "{:?}", detail);
        }
    }
}

#[test]
fn normal_data_has_no_flags_or_additionals_and_long_has_both() {
    let mut rng = proptest::TestRng::deterministic();
    let mut result = arb_result().generate(&mut rng);
    result.additionals = vec![record_from(7)];
    result.flags = Some(flags_from(3));
    result.resolver = Some("198.51.100.3:53".into());
    let data = |detail| result.clone().data_json(detail);
    let normal = data(Detail::Normal);
    assert!(normal.get("flags").is_none() && normal.get("additionals").is_none());
    assert_eq!(normal["resolver"], "198.51.100.3:53");
    for detail in [Detail::Long, Detail::Trace] {
        let v = data(detail);
        assert!(
            v["flags"].is_object() && v["additionals"].is_array(),
            "{detail:?}"
        );
    }
}
