//! ZDNS-style JSON serialization.
//!
//! ZDNS's defining interface is programmatically interpretable JSON
//! (Appendix C of the paper contrasts it with dig's text). This module
//! renders records, flags, and whole messages in the same shape:
//!
//! ```json
//! {"answer":"192.5.6.30","class":"IN","name":"a.gtld-servers.net","ttl":172800,"type":"A"}
//! ```

use serde_json::{json, Map, Value};

use crate::header::{Flags, Rcode};
use crate::message::Message;
use crate::rdata::RData;
use crate::record::Record;

fn name_with_dot(n: &crate::name::Name) -> String {
    let s = n.to_string();
    if s == "." {
        s
    } else {
        format!("{s}.")
    }
}

fn b64(bytes: &[u8]) -> String {
    // Standard base64 with padding; hand-rolled to avoid a dependency.
    const TABLE: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let n = b0 << 16 | b1 << 8 | b2;
        out.push(TABLE[(n >> 18) as usize & 63] as char);
        out.push(TABLE[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            TABLE[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            TABLE[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `answer` value for a record: a string for simple types, an object for
/// structured ones — the shape ZDNS's typed result structs produce.
pub fn answer_value(rdata: &RData) -> Value {
    match rdata {
        RData::A(a) => json!(a.to_string()),
        RData::Aaaa(a) => json!(a.to_string()),
        RData::Ns(n)
        | RData::Cname(n)
        | RData::Dname(n)
        | RData::Ptr(n)
        | RData::Mb(n)
        | RData::Md(n)
        | RData::Mf(n)
        | RData::Mg(n)
        | RData::Mr(n)
        | RData::NsapPtr(n) => json!(name_with_dot(n)),
        RData::Soa(s) => json!({
            "mname": name_with_dot(&s.mname),
            "rname": name_with_dot(&s.rname),
            "serial": s.serial,
            "refresh": s.refresh,
            "retry": s.retry,
            "expire": s.expire,
            "min_ttl": s.minimum,
        }),
        RData::Mx(m) => json!({
            "preference": m.preference,
            "name": name_with_dot(&m.exchange),
        }),
        RData::Txt(t) | RData::Spf(t) | RData::Avc(t) | RData::Ninfo(t) => json!(t.joined()),
        RData::Srv(s) => json!({
            "priority": s.priority,
            "weight": s.weight,
            "port": s.port,
            "target": name_with_dot(&s.target),
        }),
        RData::Naptr(n) => json!({
            "order": n.order,
            "preference": n.preference,
            "flags": String::from_utf8_lossy(&n.flags),
            "service": String::from_utf8_lossy(&n.service),
            "regexp": String::from_utf8_lossy(&n.regexp),
            "replacement": name_with_dot(&n.replacement),
        }),
        RData::Rp(rp) => json!({
            "mbox": name_with_dot(&rp.mbox),
            "txt": name_with_dot(&rp.txt),
        }),
        RData::Afsdb(a) => json!({
            "subtype": a.subtype,
            "hostname": name_with_dot(&a.hostname),
        }),
        RData::Px(p) => json!({
            "preference": p.preference,
            "map822": name_with_dot(&p.map822),
            "mapx400": name_with_dot(&p.mapx400),
        }),
        RData::Kx(k) => json!({
            "preference": k.preference,
            "exchanger": name_with_dot(&k.exchanger),
        }),
        RData::Rt(r) => json!({
            "preference": r.preference,
            "host": name_with_dot(&r.host),
        }),
        RData::Talink(t) => json!({
            "previous": name_with_dot(&t.previous),
            "next": name_with_dot(&t.next),
        }),
        RData::Ds(d) | RData::Cds(d) => json!({
            "key_tag": d.key_tag,
            "algorithm": d.algorithm,
            "digest_type": d.digest_type,
            "digest": hex(&d.digest),
        }),
        RData::Dnskey(k) | RData::Cdnskey(k) | RData::Key(k) => json!({
            "flags": k.flags,
            "protocol": k.protocol,
            "algorithm": k.algorithm,
            "public_key": b64(&k.public_key),
        }),
        RData::Rrsig(s) => json!({
            "type_covered": s.type_covered.to_string(),
            "algorithm": s.algorithm,
            "labels": s.labels,
            "original_ttl": s.original_ttl,
            "expiration": s.expiration,
            "inception": s.inception,
            "key_tag": s.key_tag,
            "signer_name": name_with_dot(&s.signer),
            "signature": b64(&s.signature),
        }),
        RData::Nsec(n) => json!({
            "next_domain": name_with_dot(&n.next),
            "type_bitmap": n.types.types().iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        }),
        RData::Nsec3(n) => json!({
            "algorithm": n.algorithm,
            "flags": n.flags,
            "iterations": n.iterations,
            "salt": hex(&n.salt),
            "next_hashed_owner": b64(&n.next_hashed),
            "type_bitmap": n.types.types().iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        }),
        RData::Nsec3Param(n) => json!({
            "algorithm": n.algorithm,
            "flags": n.flags,
            "iterations": n.iterations,
            "salt": hex(&n.salt),
        }),
        RData::Csync(c) => json!({
            "serial": c.serial,
            "flags": c.flags,
            "type_bitmap": c.types.types().iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        }),
        RData::Nxt(n) => json!({
            "next_domain": name_with_dot(&n.next),
            "bitmap": hex(&n.bitmap),
        }),
        RData::Hinfo(h) => json!({
            "cpu": String::from_utf8_lossy(&h.cpu),
            "os": String::from_utf8_lossy(&h.os),
        }),
        RData::Isdn(i) => json!({
            "address": String::from_utf8_lossy(&i.address),
            "subaddress": i.subaddress.as_deref().map(String::from_utf8_lossy),
        }),
        RData::Gpos(g) => json!({
            "longitude": String::from_utf8_lossy(&g.longitude),
            "latitude": String::from_utf8_lossy(&g.latitude),
            "altitude": String::from_utf8_lossy(&g.altitude),
        }),
        RData::Loc(l) => json!({
            "version": l.version,
            "size": l.size,
            "horizontal_precision": l.horiz_pre,
            "vertical_precision": l.vert_pre,
            "latitude": l.latitude,
            "longitude": l.longitude,
            "altitude": l.altitude,
        }),
        RData::Uri(u) => json!({
            "priority": u.priority,
            "weight": u.weight,
            "target": String::from_utf8_lossy(&u.target),
        }),
        RData::Caa(c) => json!({
            "flag": c.flags,
            "tag": String::from_utf8_lossy(&c.tag),
            "value": String::from_utf8_lossy(&c.value),
        }),
        RData::Cert(c) => json!({
            "type": c.cert_type,
            "key_tag": c.key_tag,
            "algorithm": c.algorithm,
            "certificate": b64(&c.certificate),
        }),
        RData::Sshfp(s) => json!({
            "algorithm": s.algorithm,
            "fingerprint_type": s.fp_type,
            "fingerprint": hex(&s.fingerprint),
        }),
        RData::Tlsa(t) | RData::Smimea(t) => json!({
            "cert_usage": t.usage,
            "selector": t.selector,
            "matching_type": t.matching_type,
            "certificate": hex(&t.cert_data),
        }),
        RData::Hip(h) => json!({
            "pk_algorithm": h.pk_algorithm,
            "hit": hex(&h.hit),
            "public_key": b64(&h.public_key),
            "rendezvous_servers": h.rendezvous.iter().map(name_with_dot).collect::<Vec<_>>(),
        }),
        RData::Tkey(t) => json!({
            "algorithm": name_with_dot(&t.algorithm),
            "inception": t.inception,
            "expiration": t.expiration,
            "mode": t.mode,
            "error": t.error,
            "key": b64(&t.key),
        }),
        RData::Svcb(s) | RData::Https(s) => json!({
            "priority": s.priority,
            "target": name_with_dot(&s.target),
            "params": s.params.iter()
                .map(|(k, v)| (k.to_string(), Value::String(b64(v))))
                .collect::<Map<String, Value>>(),
        }),
        RData::L32(l) => json!({
            "preference": l.preference,
            "locator": l.locator.to_string(),
        }),
        RData::L64(l) => json!({
            "preference": l.preference,
            "locator": format!("{:x}", l.locator),
        }),
        RData::Nid(n) => json!({
            "preference": n.preference,
            "node_id": format!("{:x}", n.node_id),
        }),
        RData::Lp(l) => json!({
            "preference": l.preference,
            "fqdn": name_with_dot(&l.fqdn),
        }),
        RData::Eui48(b) => json!(b
            .iter()
            .map(|x| format!("{x:02x}"))
            .collect::<Vec<_>>()
            .join("-")),
        RData::Eui64(b) => json!(b
            .iter()
            .map(|x| format!("{x:02x}"))
            .collect::<Vec<_>>()
            .join("-")),
        RData::Opaque(b) => json!(b64(b)),
    }
}

/// An object of exactly these members. The output queue holds records
/// and flags as they are built here, so their maps are sized once, to
/// fit — `json!` grows one push at a time and keeps the slack.
fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    let mut map = Map::with_capacity(N);
    for (key, value) in members {
        map.insert(key.into(), value);
    }
    Value::Object(map)
}

/// Render one record the way ZDNS prints answers/authorities/additionals.
pub fn record_to_json(rec: &Record) -> Value {
    object([
        ("answer", answer_value(&rec.rdata)),
        ("class", rec.class.as_str().into()),
        ("name", rec.name.to_string().into()),
        ("ttl", rec.ttl.into()),
        ("type", rec.rtype.to_string().into()),
    ])
}

/// Render header flags the way ZDNS reports them.
pub fn flags_to_json(flags: &Flags, rcode: Rcode) -> Value {
    object([
        ("authenticated", flags.authenticated.into()),
        ("authoritative", flags.authoritative.into()),
        ("checking_disabled", flags.checking_disabled.into()),
        ("error_code", rcode.to_u16().into()),
        ("opcode", flags.opcode.0.to_u8().into()),
        ("recursion_available", flags.recursion_available.into()),
        ("recursion_desired", flags.recursion_desired.into()),
        ("response", flags.response.into()),
        ("truncated", flags.truncated.into()),
    ])
}

/// Render a whole response message: the `results` object in a trace step or
/// the `data` object at the top level of a lookup result.
pub fn message_to_json(msg: &Message, protocol: &str, resolver: &str) -> Value {
    let mut obj = Map::new();
    if !msg.answers.is_empty() {
        obj.insert(
            "answers".into(),
            Value::Array(msg.answers.iter().map(record_to_json).collect()),
        );
    }
    if !msg.authorities.is_empty() {
        obj.insert(
            "authorities".into(),
            Value::Array(msg.authorities.iter().map(record_to_json).collect()),
        );
    }
    if !msg.additionals.is_empty() {
        obj.insert(
            "additionals".into(),
            Value::Array(msg.additionals.iter().map(record_to_json).collect()),
        );
    }
    obj.insert("flags".into(), flags_to_json(&msg.flags, msg.rcode()));
    obj.insert("protocol".into(), json!(protocol));
    obj.insert("resolver".into(), json!(resolver));
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::{Mx, TxtData};
    use std::net::Ipv4Addr;

    #[test]
    fn a_record_json_shape() {
        let rec = Record::new(
            "a.gtld-servers.net".parse().unwrap(),
            172800,
            RData::A(Ipv4Addr::new(192, 5, 6, 30)),
        );
        let v = record_to_json(&rec);
        assert_eq!(v["answer"], "192.5.6.30");
        assert_eq!(v["class"], "IN");
        assert_eq!(v["name"], "a.gtld-servers.net");
        assert_eq!(v["ttl"], 172800);
        assert_eq!(v["type"], "A");
    }

    #[test]
    fn ns_answer_has_trailing_dot() {
        let rec = Record::new(
            "com".parse().unwrap(),
            172800,
            RData::Ns("f.gtld-servers.net".parse().unwrap()),
        );
        let v = record_to_json(&rec);
        assert_eq!(v["answer"], "f.gtld-servers.net.");
    }

    #[test]
    fn mx_answer_is_structured() {
        let rec = Record::new(
            "example.com".parse().unwrap(),
            300,
            RData::Mx(Mx {
                preference: 10,
                exchange: "mail.example.com".parse().unwrap(),
            }),
        );
        let v = record_to_json(&rec);
        assert_eq!(v["answer"]["preference"], 10);
        assert_eq!(v["answer"]["name"], "mail.example.com.");
    }

    #[test]
    fn txt_answer_joined() {
        let rec = Record::new(
            "example.com".parse().unwrap(),
            300,
            RData::Txt(TxtData {
                strings: vec![b"v=spf1 ".to_vec(), b"-all".to_vec()],
            }),
        );
        assert_eq!(record_to_json(&rec)["answer"], "v=spf1 -all");
    }

    #[test]
    fn flags_json_shape_matches_appendix_c() {
        let flags = Flags {
            response: true,
            authoritative: true,
            ..Flags::default()
        };
        let v = flags_to_json(&flags, Rcode::NoError);
        for key in [
            "authenticated",
            "authoritative",
            "checking_disabled",
            "error_code",
            "opcode",
            "recursion_available",
            "recursion_desired",
            "response",
            "truncated",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert_eq!(v["error_code"], 0);
        assert_eq!(v["authoritative"], true);
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(b64(b""), "");
        assert_eq!(b64(b"f"), "Zg==");
        assert_eq!(b64(b"fo"), "Zm8=");
        assert_eq!(b64(b"foo"), "Zm9v");
        assert_eq!(b64(b"foob"), "Zm9vYg==");
        assert_eq!(b64(b"fooba"), "Zm9vYmE=");
        assert_eq!(b64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn message_json_sections() {
        let mut m = Message::default();
        m.flags.response = true;
        m.answers.push(Record::new(
            "google.com".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(216, 58, 195, 78)),
        ));
        let v = message_to_json(&m, "udp", "216.239.34.10:53");
        assert_eq!(v["protocol"], "udp");
        assert_eq!(v["resolver"], "216.239.34.10:53");
        assert_eq!(v["answers"][0]["answer"], "216.58.195.78");
        assert!(v.get("authorities").is_none());
    }
}
