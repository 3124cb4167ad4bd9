//! Lookup results: what one ZDNS output line carries.

use std::net::Ipv4Addr;

use serde_json::{json, Value};
use zdns_wire::{json as wire_json, Flags, Name, Record, RecordType};

use zdns_netsim::{as_secs_f64, SimTime};

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
    /// The server that produced the final response (`ip:53`).
    pub resolver: Option<String>,
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
    /// Build the `data` object of the output line: the non-empty record
    /// sections, then `flags`/`protocol`/`resolver` when a response was
    /// seen. This is the one builder of that object — [`Self::to_json`]
    /// wraps it, and the raw modules move it into their output as is.
    pub fn data_json(&self) -> Value {
        let sections = [
            ("answers", &self.answers),
            ("authorities", &self.authorities),
            ("additionals", &self.additionals),
        ];
        let footer = self.flags.is_some() && self.resolver.is_some();
        let members = sections.iter().filter(|(_, s)| !s.is_empty()).count();
        // Sized to fit: this object waits in the output queue as built.
        let mut data = serde_json::Map::with_capacity(members + if footer { 3 } else { 0 });
        for (key, section) in sections {
            if !section.is_empty() {
                data.insert(
                    key.into(),
                    Value::Array(section.iter().map(wire_json::record_to_json).collect()),
                );
            }
        }
        if let (Some(flags), Some(resolver)) = (&self.flags, &self.resolver) {
            let rcode = match self.status {
                Status::NxDomain => zdns_wire::Rcode::NxDomain,
                Status::ServFail => zdns_wire::Rcode::ServFail,
                Status::Refused => zdns_wire::Rcode::Refused,
                _ => zdns_wire::Rcode::NoError,
            };
            data.insert("flags".into(), wire_json::flags_to_json(flags, rcode));
            data.insert("protocol".into(), json!(self.protocol));
            data.insert("resolver".into(), json!(resolver));
        }
        Value::Object(data)
    }

    /// Render the ZDNS JSON output line.
    pub fn to_json(&self) -> Value {
        let mut out = serde_json::Map::new();
        out.insert("name".into(), json!(self.name.to_string()));
        out.insert("class".into(), json!("IN"));
        out.insert("status".into(), json!(self.status.as_str()));
        out.insert("data".into(), self.data_json());
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

    /// All A/AAAA addresses in the answers.
    pub fn addresses(&self) -> Vec<std::net::IpAddr> {
        self.answers
            .iter()
            .filter_map(|r| match &r.rdata {
                zdns_wire::RData::A(a) => Some(std::net::IpAddr::V4(*a)),
                zdns_wire::RData::Aaaa(a) => Some(std::net::IpAddr::V6(*a)),
                _ => None,
            })
            .collect()
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
            resolver: Some("216.239.34.10:53".to_string()),
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

    #[test]
    fn addresses_helper() {
        let addrs = sample().addresses();
        assert_eq!(addrs.len(), 1);
        assert_eq!(addrs[0].to_string(), "216.58.195.78");
    }
}
