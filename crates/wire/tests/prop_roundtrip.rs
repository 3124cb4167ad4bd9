//! Property tests: encode/decode roundtrips and no-panic guarantees.

use proptest::prelude::*;

use zdns_wire::rdata::{Mx, Soa, TxtData};
use zdns_wire::{
    Flags, Message, Name, Question, RData, Rcode, RcodeField, Record, RecordClass, RecordType,
};

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..=20)
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..=5)
        .prop_map(|labels| Name::from_labels(labels).expect("bounded labels are valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|b| RData::A(b.into())),
        any::<[u8; 16]>().prop_map(|b| RData::Aaaa(b.into())),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx(Mx {
            preference,
            exchange
        })),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=60), 1..=4)
            .prop_map(|strings| RData::Txt(TxtData { strings })),
        proptest::collection::vec(any::<u8>(), 0..=40).prop_map(RData::Opaque),
    ]
}

fn arb_record() -> impl Strategy<Value = RData> {
    arb_rdata()
}

/// Labels of up to 63 octets drawn mostly from the ones text treats apart:
/// the escaped `.` and `\`, and space, NUL, DEL and 0xff, which print as
/// `\DDD`.
fn arb_text_label() -> impl Strategy<Value = Vec<u8>> {
    let octet = prop_oneof![
        Just(b'.'),
        Just(b'\\'),
        Just(b' '),
        Just(0u8),
        Just(0x7f),
        Just(0xff),
        0x21u8..0x7f,
        any::<u8>(),
    ];
    proptest::collection::vec(octet, 1..=63)
}

/// The per-label rendering `Name`'s `Display` replaced, kept as the oracle
/// its text must match.
fn text_per_label(name: &Name) -> String {
    if name.is_root() {
        return ".".into();
    }
    let mut out = String::new();
    for (i, label) in name.labels().enumerate() {
        if i > 0 {
            out.push('.');
        }
        let mut s = String::new();
        for &b in label {
            match b {
                b'.' | b'\\' => {
                    s.push('\\');
                    s.push(b as char);
                }
                0x21..=0x7E => s.push(b as char),
                _ => s.push_str(&format!("\\{b:03}")),
            }
        }
        out.push_str(&s);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn name_text_roundtrip(name in arb_name()) {
        let text = name.to_string();
        let reparsed: Name = text.parse().unwrap();
        prop_assert_eq!(name, reparsed);
    }

    #[test]
    fn name_text_equals_the_per_label_oracle(
        labels in proptest::collection::vec(arb_text_label(), 0..=3),
    ) {
        let name = Name::from_labels(labels).unwrap();
        let text = name.to_string();
        prop_assert_eq!(&text, &text_per_label(&name));
        prop_assert_eq!(name.to_ascii_lower(), text.to_ascii_lowercase());
        let reparsed: Name = text.parse().unwrap();
        prop_assert!(reparsed.eq_exact_case(&name), "{}", text);
    }

    #[test]
    fn name_wire_roundtrip(name in arb_name()) {
        let mut w = zdns_wire::WireWriter::new();
        w.write_name(&name).unwrap();
        let bytes = w.finish();
        let mut r = zdns_wire::WireReader::new(&bytes);
        prop_assert_eq!(r.read_name().unwrap(), name);
    }

    #[test]
    fn message_roundtrip(
        id in any::<u16>(),
        qname in arb_name(),
        rdatas in proptest::collection::vec(arb_record(), 0..=6),
        rcode_val in 0u16..=20,
    ) {
        let mut msg = Message::query(id, Question::new(qname.clone(), RecordType::A));
        msg.flags = Flags { response: true, ..Flags::default() };
        msg.rcode = RcodeField(Rcode::from_u16(rcode_val));
        for rd in rdatas {
            // Opaque data has no natural type on the wire; pair it with NULL
            // which decodes back to opaque.
            let rec = Record {
                name: qname.clone(),
                rtype: rd.natural_type(),
                class: RecordClass::IN,
                ttl: 300,
                rdata: rd,
            };
            msg.answers.push(rec);
        }
        let bytes = msg.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..=600)) {
        let _ = Message::decode(&bytes);
        let _ = zdns_wire::MessageView::parse(&bytes);
    }

    #[test]
    fn view_decode_equals_owned_decode(
        id in any::<u16>(),
        qname in arb_name(),
        rdatas in proptest::collection::vec(arb_record(), 0..=6),
        rcode_val in 0u16..=20,
    ) {
        let mut msg = Message::query(id, Question::new(qname.clone(), RecordType::A));
        msg.flags = Flags { response: true, ..Flags::default() };
        msg.rcode = RcodeField(Rcode::from_u16(rcode_val));
        for rd in rdatas {
            msg.answers.push(Record {
                name: qname.clone(),
                rtype: rd.natural_type(),
                class: RecordClass::IN,
                ttl: 300,
                rdata: rd,
            });
        }
        let bytes = msg.encode().unwrap();
        let owned = Message::decode(&bytes).unwrap();
        let view = zdns_wire::MessageView::parse(&bytes).unwrap();
        // Header-level accessors agree.
        prop_assert_eq!(view.id(), owned.id);
        prop_assert_eq!(view.flags(), owned.flags);
        prop_assert_eq!(view.rcode(), owned.rcode());
        prop_assert_eq!(view.answer_count(), owned.answers.len());
        // Whole-message promotion is the owned decode.
        prop_assert_eq!(view.to_message().unwrap(), owned.clone());
        // Section-wise promotion matches too.
        let answers: Vec<Record> = view.answers().map(|r| r.to_record().unwrap()).collect();
        prop_assert_eq!(answers, owned.answers.clone());
        let q = view.question().unwrap();
        prop_assert!(q.name.eq_name(&owned.questions[0].name));
        prop_assert_eq!(q.to_question(), owned.questions[0].clone());
    }

    #[test]
    fn scratch_encode_equals_one_shot_encode(
        id in any::<u16>(),
        qname in arb_name(),
        rdatas in proptest::collection::vec(arb_record(), 0..=6),
    ) {
        let mut msg = Message::query(id, Question::new(qname.clone(), RecordType::A));
        msg.flags.response = true;
        for rd in rdatas {
            msg.answers.push(Record {
                name: qname.clone(),
                rtype: rd.natural_type(),
                class: RecordClass::IN,
                ttl: 300,
                rdata: rd,
            });
        }
        let one_shot = msg.encode().unwrap();
        // A reused scratch produces byte-identical messages, even after
        // other messages have passed through it.
        let mut scratch = zdns_wire::ScratchBuf::new();
        msg.encode_into(&mut scratch).unwrap();
        prop_assert_eq!(scratch.message_bytes(), &one_shot[..]);
        let other = Message::query(1, Question::new("warmup.test".parse().unwrap(), RecordType::A));
        other.encode_into(&mut scratch).unwrap();
        msg.encode_into(&mut scratch).unwrap();
        prop_assert_eq!(scratch.message_bytes(), &one_shot[..]);
    }

    #[test]
    fn decode_mutated_valid_message_never_panics(
        qname in arb_name(),
        rdatas in proptest::collection::vec(arb_record(), 0..=4),
        flip_at in any::<prop::sample::Index>(),
        new_byte in any::<u8>(),
    ) {
        let mut msg = Message::query(7, Question::new(qname.clone(), RecordType::ANY));
        for rd in rdatas {
            msg.answers.push(Record {
                name: qname.clone(),
                rtype: rd.natural_type(),
                class: RecordClass::IN,
                ttl: 60,
                rdata: rd,
            });
        }
        let mut bytes = msg.encode().unwrap();
        let idx = flip_at.index(bytes.len());
        bytes[idx] = new_byte;
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn udp_truncation_respects_limit(
        qname in arb_name(),
        count in 1usize..=80,
        limit in 100usize..=1400,
    ) {
        let mut msg = Message::query(9, Question::new(qname.clone(), RecordType::A));
        msg.flags.response = true;
        for i in 0..count {
            msg.answers.push(Record::new(
                qname.clone(),
                300,
                RData::A(std::net::Ipv4Addr::from(0x0A00_0000u32 + i as u32)),
            ));
        }
        let mut scratch = zdns_wire::ScratchBuf::new();
        let truncated = msg.encode_udp_into(&mut scratch, limit).unwrap();
        let bytes = scratch.as_slice();
        let header_question_len = 12 + qname.wire_len() + 4;
        // Unless even the header+question exceed the limit, the datagram fits.
        if header_question_len + 11 < limit {
            prop_assert!(bytes.len() <= limit);
        }
        let decoded = Message::decode(bytes).unwrap();
        if truncated {
            prop_assert!(decoded.flags.truncated);
            prop_assert!(decoded.answers.len() < count);
        } else {
            prop_assert_eq!(decoded.answers.len(), count);
        }
    }
}
