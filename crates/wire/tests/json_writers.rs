//! The formatter-free JSON writers print exactly what `Display` followed
//! by JSON escaping prints: `write_ipv4` for addresses, `write_u32` for
//! TTLs and other counts, and `Name::write_json_text` for names — every
//! octet a label can hold, the ones name text escapes (`.`, `\`) and the
//! one JSON escapes (`"`) included, and the root.

use std::fmt::Display;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use serde_json::write_escaped_contents;
use zdns_wire::json::{write_ipv4, write_u32};
use zdns_wire::Name;

/// `value`'s `Display` text, escaped as the contents of a JSON string.
fn displayed(value: impl Display) -> String {
    let mut out = String::new();
    write_escaped_contents(&value.to_string(), &mut out).expect("a String takes any text");
    out
}

fn ipv4_text(addr: Ipv4Addr) -> String {
    let mut out = String::new();
    write_ipv4(addr, &mut out);
    out
}

fn u32_text(n: u32) -> String {
    let mut out = String::new();
    write_u32(n, &mut out);
    out
}

fn name_text(name: &Name) -> String {
    let mut out = String::new();
    name.write_json_text(&mut out);
    out
}

/// Labels drawn mostly from the octets text and JSON treat apart.
fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    let octet = prop_oneof![
        Just(b'.'),
        Just(b'\\'),
        Just(b'"'),
        0u8..0x21,
        0x7Fu8..=0xFF,
        any::<u8>(),
    ];
    proptest::collection::vec(octet, 1..=63)
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..=3)
        .prop_map(|labels| Name::from_labels(labels).expect("three labels of 63 fit"))
}

#[test]
fn every_octet_and_the_root_print_as_display_escaped() {
    let octets: Vec<u8> = (0..=255).collect();
    for chunk in octets.chunks(63) {
        // Each chunk alone, and beside a label of the three special octets.
        for labels in [vec![chunk], vec![b".\\\"".as_slice(), chunk, b"x"]] {
            let name = Name::from_labels(labels).unwrap();
            assert_eq!(name_text(&name), displayed(&name), "{name:?}");
        }
    }
    assert_eq!(name_text(&Name::root()), displayed(Name::root()));
    assert_eq!(name_text(&Name::root()), ".");
    let plain: Name = "www.Example.com".parse().unwrap();
    assert_eq!(name_text(&plain), "www.Example.com");
}

#[test]
fn edge_numbers_and_addresses_print_as_display() {
    for ttl in [
        0,
        9,
        10,
        99,
        100,
        86_400,
        999_999_999,
        1_000_000_000,
        u32::MAX,
    ] {
        assert_eq!(u32_text(ttl), displayed(ttl));
    }
    for octet in [0u8, 9, 10, 99, 100, 199, 200, 255] {
        let addr = Ipv4Addr::new(octet, 255 - octet, octet / 2, 10);
        assert_eq!(ipv4_text(addr), displayed(addr));
    }
    assert_eq!(ipv4_text(Ipv4Addr::UNSPECIFIED), "0.0.0.0");
    assert_eq!(ipv4_text(Ipv4Addr::BROADCAST), "255.255.255.255");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writers_print_display_escaped(bits in any::<u32>(), name in arb_name()) {
        let addr = Ipv4Addr::from(bits);
        prop_assert_eq!(ipv4_text(addr), displayed(addr));
        prop_assert_eq!(u32_text(bits), displayed(bits));
        prop_assert_eq!(name_text(&name), displayed(&name));
    }
}
