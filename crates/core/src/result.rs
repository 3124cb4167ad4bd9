//! Lookup results: what one ZDNS output line carries.

use std::net::Ipv4Addr;

use serde_json::{json, write_escaped, Value};
use zdns_wire::{json as wire_json, Flags, Name, Record, RecordType};

use zdns_netsim::{as_secs_f64, SimTime};

use crate::config::Detail;
use crate::status::Status;
use crate::trace::TraceStep;

/// The final nameserver delegation a lookup ended at (iterative mode) —
/// the raw material for the §5 `--all-nameservers` extension.
#[derive(Debug, Clone)]
pub struct DelegationInfo {
    /// The leaf zone cut.
    pub zone: Name,
    /// Its nameservers and any addresses learned for them.
    pub nameservers: Vec<(Name, Option<Ipv4Addr>)>,
}

/// The complete outcome of one lookup.
#[derive(Debug, Clone)]
pub struct LookupResult {
    /// The name queried.
    pub name: Name,
    /// Query type.
    pub qtype: RecordType,
    /// Final status.
    pub status: Status,
    /// Answer records (CNAME chains flattened in order).
    pub answers: Vec<Record>,
    /// Authority records from the final response.
    pub authorities: Vec<Record>,
    /// Additional records from the final response.
    pub additionals: Vec<Record>,
    /// Header flags of the final response.
    pub flags: Option<Flags>,
    /// The server that produced the final response, which the line prints
    /// as `ip:53`; a probe names the server it asked even when nothing
    /// answered.
    pub resolver: Option<Ipv4Addr>,
    /// `udp` or `tcp`.
    pub protocol: &'static str,
    /// The exposed lookup chain (iterative mode with tracing on).
    pub trace: Vec<TraceStep>,
    /// Final delegation (iterative mode).
    pub delegation: Option<DelegationInfo>,
    /// Queries sent for this lookup.
    pub queries_sent: u32,
    /// Retries consumed by timeouts.
    pub retries_used: u32,
    /// Lookup duration in virtual time.
    pub duration: SimTime,
    /// Completion timestamp in virtual time.
    pub timestamp: SimTime,
}

impl LookupResult {
    /// Write the `data` object of the output line into `out`: the
    /// non-empty record sections, then `flags`/`protocol`/`resolver` when
    /// a response was seen, then `server` when one is given (`PROBE`
    /// names the server its input asked). `flags` and `additionals` are
    /// written only when `detail` is [`Detail::Long`] or more and
    /// `drop_noise` is off, as `short` and `normal` lines never print
    /// them. This is the one writer of that object: the raw modules'
    /// lines are these bytes, and [`Self::to_json`] and a raw output's
    /// `data` tree are parsed from them. Records and flags stream in
    /// ([`wire_json::write_records`]), and addresses print through
    /// [`wire_json::write_ipv4`], so a warm `out` takes no allocation and
    /// no formatter for address and name answers.
    pub fn write_data(
        &self,
        detail: Detail,
        drop_noise: bool,
        server: Option<Ipv4Addr>,
        out: &mut String,
    ) {
        let long = detail >= Detail::Long && !drop_noise;
        out.push('{');
        let mut first = true;
        let mut member = |key: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
        };
        let sections = [
            ("answers", &self.answers, true),
            ("authorities", &self.authorities, true),
            ("additionals", &self.additionals, long),
        ];
        for (key, section, kept) in sections {
            if kept && !section.is_empty() {
                member(key, out);
                wire_json::write_records(section, out);
            }
        }
        if let (Some(flags), Some(resolver)) = (&self.flags, &self.resolver) {
            if long {
                let rcode = match self.status {
                    Status::NxDomain => zdns_wire::Rcode::NxDomain,
                    Status::ServFail => zdns_wire::Rcode::ServFail,
                    Status::Refused => zdns_wire::Rcode::Refused,
                    _ => zdns_wire::Rcode::NoError,
                };
                member("flags", out);
                wire_json::write_flags(flags, rcode, out);
            }
            member("protocol", out);
            let _ = write_escaped(self.protocol, out);
            member("resolver", out);
            out.push('"');
            wire_json::write_ipv4(*resolver, out);
            out.push_str(":53\"");
        }
        if let Some(server) = server {
            member("server", out);
            out.push('"');
            wire_json::write_ipv4(server, out);
            out.push('"');
        }
        out.push('}');
    }

    /// Render the ZDNS JSON output line, everything included; its `data`
    /// is parsed from [`Self::write_data`]'s bytes.
    pub fn to_json(&self) -> Value {
        let mut data = String::new();
        self.write_data(Detail::Trace, false, None, &mut data);
        let mut out = serde_json::Map::new();
        out.insert("name".into(), json!(self.name.to_string()));
        out.insert("class".into(), json!("IN"));
        out.insert("status".into(), json!(self.status.as_str()));
        out.insert(
            "data".into(),
            serde_json::from_str(&data).expect("write_data writes JSON"),
        );
        out.insert("duration".into(), json!(as_secs_f64(self.duration)));
        out.insert("timestamp".into(), json!(as_secs_f64(self.timestamp)));
        if !self.trace.is_empty() {
            out.insert(
                "trace".into(),
                Value::Array(self.trace.iter().map(|s| s.to_json()).collect()),
            );
        }
        Value::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_wire::RData;

    fn sample() -> LookupResult {
        LookupResult {
            name: "google.com".parse().unwrap(),
            qtype: RecordType::A,
            status: Status::NoError,
            answers: vec![Record::new(
                "google.com".parse().unwrap(),
                300,
                RData::A("216.58.195.78".parse().unwrap()),
            )],
            authorities: Vec::new(),
            additionals: Vec::new(),
            flags: Some(Flags {
                response: true,
                authoritative: true,
                ..Flags::default()
            }),
            resolver: Some(Ipv4Addr::new(216, 239, 34, 10)),
            protocol: "udp",
            trace: Vec::new(),
            delegation: None,
            queries_sent: 3,
            retries_used: 0,
            duration: 120_000_000,
            timestamp: 5_000_000_000,
        }
    }

    #[test]
    fn json_line_shape() {
        let v = sample().to_json();
        assert_eq!(v["name"], "google.com");
        assert_eq!(v["status"], "NOERROR");
        assert_eq!(v["class"], "IN");
        assert_eq!(v["data"]["answers"][0]["answer"], "216.58.195.78");
        assert_eq!(v["data"]["resolver"], "216.239.34.10:53");
        assert_eq!(v["data"]["flags"]["authoritative"], true);
        assert!(v.get("trace").is_none(), "no empty trace key");
    }
}
