//! Properties of the result path, `LookupResult` → `ModuleOutput` → line.
//!
//! The `data` object of an output line has one writer,
//! [`LookupResult::write_data`], which streams a raw lookup's records
//! into the line without building a tree of them. This file keeps the
//! tree builder it replaced (`reference_record` and `reference_data`) as
//! the oracle: over generated results (every record shape the JSON
//! renderer has a case for, names that need escapes, empty sections,
//! every status and so every rcode in `flags`, flags with and without a
//! resolver, with and without a `PROBE` server, traces with and without
//! responses) and every [`Detail`], the written bytes must be the
//! reference tree's, the tree a reader gets from [`Data`] must be the
//! reference tree, [`LookupResult::to_json`] must print what the `json!`
//! form it replaced printed, and the streaming [`write_line`] must agree
//! with the tree-shaping [`to_line`] for every output group — and a
//! group's line must print the same from its own detail's `data` as from
//! the full one.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use serde_json::{json, Map, Value};
use zdns_core::{Detail, LookupResult, Status, TraceStep};
use zdns_framework::output::{to_line, write_line};
use zdns_framework::OutputGroup;
use zdns_modules::api::trace_json;
use zdns_modules::{Data, ModuleOutput};
use zdns_netsim::as_secs_f64;
use zdns_wire::json::{answer_value, flags_to_json};
use zdns_wire::rdata::{Caa, Mx, Soa, Srv, TxtData};
use zdns_wire::{Flags, Message, Name, Question, RData, Rcode, Record, RecordClass, RecordType};

const GROUPS: [OutputGroup; 4] = [
    OutputGroup::Short,
    OutputGroup::Normal,
    OutputGroup::Long,
    OutputGroup::Trace,
];

const DETAILS: [Detail; 3] = [Detail::Normal, Detail::Long, Detail::Trace];

/// A name of one to three labels; one seed in four gives its first label
/// an octet that prints as `\DDD`, `\.`, `\\` or a bare `"` — text a JSON
/// string must escape in turn.
fn name_from(seed: u64) -> Name {
    let labels = 1 + seed % 3;
    let mut text: Vec<String> = (0..labels)
        .map(|i| format!("l{}", (seed >> (8 * i)) & 0xFFF))
        .collect();
    if seed & 0x30 == 0 {
        text[0].push_str(&format!("\\{:03}", (seed >> 40) as u8));
    }
    text.join(".").parse().expect("generated names are valid")
}

/// A record of one of the shapes the JSON renderer has a case for: text
/// answers (addresses, names with and without escapes, TXT), structured
/// answers (SOA, MX, SRV, CAA) and an opaque one of a type it does not
/// know.
fn record_from(seed: u64) -> Record {
    let owner = name_from(seed);
    let rdata = match seed % 11 {
        0 => RData::A(Ipv4Addr::from((seed >> 8) as u32)),
        1 => RData::Aaaa(std::net::Ipv6Addr::from(u128::from(seed) << 17)),
        2 => RData::Ns(name_from(seed >> 5)),
        3 => RData::Cname(name_from(seed >> 9)),
        4 => RData::Ptr(if seed & 0x100 == 0 {
            Name::root()
        } else {
            name_from(seed >> 7)
        }),
        // Quotes, backslashes and control bytes on the way out.
        5 => RData::Txt(TxtData::from_text(&format!(
            "v=\"{}\" \\ é\n\u{1}\t{}",
            seed % 97,
            seed >> 40
        ))),
        6 => RData::Soa(Soa {
            mname: name_from(seed >> 3),
            rname: name_from(seed >> 6),
            serial: (seed >> 8) as u32,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: (seed >> 20) as u32 % 86_400,
        }),
        7 => RData::Mx(Mx {
            preference: (seed >> 16) as u16,
            exchange: name_from(seed >> 4),
        }),
        8 => RData::Srv(Srv {
            priority: (seed >> 8) as u16,
            weight: (seed >> 24) as u16,
            port: (seed >> 40) as u16,
            target: name_from(seed >> 2),
        }),
        9 => RData::Caa(Caa {
            flags: (seed >> 8) as u8,
            tag: b"issue".to_vec(),
            value: format!("ca\"{}\\\u{7f}", seed % 1_000).into_bytes(),
        }),
        _ => {
            let bytes = seed.to_be_bytes()[..(seed % 8) as usize].to_vec();
            return Record {
                name: owner,
                rtype: RecordType::Unknown(65_280 + (seed >> 8) as u16 % 200),
                class: RecordClass::IN,
                ttl: (seed >> 3) as u32 % 100_000,
                rdata: RData::Opaque(bytes),
            };
        }
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
                    resolver: (seen & 2 != 0).then(|| Ipv4Addr::new(198, 51, 100, flag_bits)),
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

/// The record tree `write_record` replaced.
fn reference_record(rec: &Record) -> Value {
    let mut map = Map::new();
    map.insert("answer".into(), answer_value(&rec.rdata));
    map.insert("class".into(), rec.class.as_str().into());
    map.insert("name".into(), rec.name.to_string().into());
    map.insert("ttl".into(), rec.ttl.into());
    map.insert("type".into(), rec.rtype.to_string().into());
    Value::Object(map)
}

/// The `data` tree `write_data` replaced: the non-empty sections, the
/// footer when a response was seen (`flags` and `additionals` from
/// `Long` up), and `PROBE`'s server.
fn reference_data(result: &LookupResult, detail: Detail, server: Option<Ipv4Addr>) -> Value {
    let long = detail >= Detail::Long;
    let mut data = Map::new();
    for (key, section, kept) in [
        ("answers", &result.answers, true),
        ("authorities", &result.authorities, true),
        ("additionals", &result.additionals, long),
    ] {
        if kept && !section.is_empty() {
            data.insert(
                key.into(),
                Value::Array(section.iter().map(reference_record).collect()),
            );
        }
    }
    if let (Some(flags), Some(resolver)) = (&result.flags, &result.resolver) {
        if long {
            let rcode = match result.status {
                Status::NxDomain => Rcode::NxDomain,
                Status::ServFail => Rcode::ServFail,
                Status::Refused => Rcode::Refused,
                _ => Rcode::NoError,
            };
            data.insert("flags".into(), flags_to_json(flags, rcode));
        }
        data.insert("protocol".into(), json!(result.protocol));
        data.insert("resolver".into(), json!(format!("{resolver}:53")));
    }
    if let Some(server) = server {
        data.insert("server".into(), json!(server.to_string()));
    }
    Value::Object(data)
}

/// What a raw module (`server` `None`) or `PROBE` emits for `result`.
fn raw_output(result: &LookupResult, detail: Detail, server: Option<Ipv4Addr>) -> ModuleOutput {
    ModuleOutput {
        name: result.name.to_string(),
        module: if server.is_some() { "PROBE" } else { "A" },
        status: result.status,
        data: Data::lookup(result.clone(), detail, server),
        trace: trace_json(result),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn data_is_built_once_and_lines_agree(result in arb_result(), probe in any::<bool>()) {
        let server = probe.then(|| Ipv4Addr::new(192, 0, 2, 53));

        // The written bytes are the reference tree's, and a reader's tree
        // is the reference tree, at every detail; `drop_noise` writes
        // what `Normal` does.
        let mut bytes = String::new();
        for detail in DETAILS {
            let want = reference_data(&result, detail, server);
            for drop_noise in [false, true] {
                bytes.clear();
                result.write_data(detail, drop_noise, server, &mut bytes);
                let want = if drop_noise {
                    reference_data(&result, Detail::Normal, server)
                } else {
                    want.clone()
                };
                prop_assert_eq!(&bytes, &want.to_string(), "{:?} {}", detail, drop_noise);
            }
            let data = Data::lookup(result.clone(), detail, server);
            prop_assert_eq!(&*data, &want, "{:?}", detail);
            prop_assert_eq!(data.to_string(), want.to_string());
        }

        // The full rendering is what the `json!` form it replaced printed.
        let full = result.to_json();
        let mut want = json!({
            "name": result.name.to_string(),
            "class": "IN",
            "status": result.status.as_str(),
            "data": reference_data(&result, Detail::Trace, None),
            "duration": as_secs_f64(result.duration),
            "timestamp": as_secs_f64(result.timestamp),
        });
        if !result.trace.is_empty() {
            want["trace"] = serde_json::Value::Array(trace_json(&result));
        }
        prop_assert_eq!(full.to_string(), want.to_string());

        // Every detail prints through the streaming writer as through the
        // tree-shaping one, in every group; and a group's line from its
        // own detail's `data` is its line from the full `data`: a group
        // never needed what its detail leaves out.
        let everything = raw_output(&result, Detail::Trace, server);
        let mut buf = String::new();
        for detail in DETAILS {
            let printed = raw_output(&result, detail, server);
            for group in GROUPS {
                write_line(&printed, group, &mut buf);
                prop_assert_eq!(&buf, &to_line(&printed, group), "{:?} {:?}", detail, group);
                if detail == group.detail() {
                    prop_assert_eq!(&buf, &to_line(&everything, group), "{:?}", group);
                }
            }
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
        for detail in DETAILS {
            let data = Data::lookup(result.clone(), detail, None);
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
    result.resolver = Some(Ipv4Addr::new(198, 51, 100, 3));
    let data = |detail| Data::lookup(result.clone(), detail, None);
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
