//! The full DNS message: header + four sections, with EDNS folded in.

use crate::buffer::{ScratchBuf, WireReader};
use crate::edns::{Cookie, Edns};
use crate::error::{WireError, WireResult};
use crate::header::{Flags, Header, Opcode, OpcodeField, Rcode};
use crate::question::Question;
use crate::record::Record;
use crate::rtype::RecordType;

/// A decoded (or to-be-encoded) DNS message.
///
/// The OPT pseudo-record is lifted out of the additional section into
/// [`Message::edns`]; the extended RCODE is combined into [`Message::rcode`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Header flag bits.
    pub flags: Flags,
    /// Full response code (extended bits included when EDNS is present).
    pub rcode: RcodeField,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (OPT removed).
    pub additionals: Vec<Record>,
    /// EDNS(0) data, if an OPT record was present / should be sent.
    pub edns: Option<Edns>,
}

/// Wrapper so `Message` can derive `Default` with `Rcode::NoError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcodeField(pub Rcode);

impl Default for RcodeField {
    fn default() -> Self {
        RcodeField(Rcode::NoError)
    }
}

impl Message {
    /// Build a query for `name`/`qtype` with EDNS attached, recursion
    /// desired off (the iterative resolver's default; external mode flips
    /// it on).
    pub fn query(id: u16, question: Question) -> Message {
        Message {
            id,
            flags: Flags {
                opcode: OpcodeField(Opcode::Query),
                ..Flags::default()
            },
            questions: vec![question],
            edns: Some(Edns::default()),
            ..Message::default()
        }
    }

    /// First question, if any — the common case for responses.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.rcode.0
    }

    /// All answer-section records of the given type.
    pub fn answers_of(&self, rtype: RecordType) -> impl Iterator<Item = &Record> {
        self.answers.iter().filter(move |r| r.rtype == rtype)
    }

    /// Encode with no size limit (TCP) — the message may still not exceed
    /// 64 KiB.
    pub fn encode(&self) -> WireResult<Vec<u8>> {
        let mut scratch = ScratchBuf::new();
        self.encode_into(&mut scratch)?;
        Ok(scratch.take_bytes())
    }

    /// Encode one message (no size limit) into `scratch` as a new message
    /// starting at the current write position. In the steady state the
    /// scratch buffer retains its capacity, so this path performs zero heap
    /// allocations. On error the partial message is rolled back.
    pub fn encode_into(&self, scratch: &mut ScratchBuf) -> WireResult<()> {
        scratch.begin_message();
        self.encode_dropping(scratch, 0, false).inspect_err(|_| {
            scratch.abort_message();
        })
    }

    /// [`Message::encode_into`] with a UDP size limit: if the message
    /// exceeds `limit`, records are dropped from the back until it fits and
    /// the TC bit is set, mirroring what authoritative servers do. Returns
    /// whether truncation happened.
    pub fn encode_udp_into(&self, scratch: &mut ScratchBuf, limit: usize) -> WireResult<bool> {
        scratch.begin_message();
        let total_records = self.answers.len() + self.authorities.len() + self.additionals.len();
        let mut drop_records = 0usize;
        loop {
            match self.encode_dropping(scratch, drop_records, drop_records > 0) {
                Ok(()) => {}
                Err(e) => {
                    scratch.abort_message();
                    return Err(e);
                }
            }
            let encoded = scratch.message_bytes().len();
            if encoded > limit {
                if drop_records >= total_records {
                    // Even the bare header + question exceeds the limit;
                    // return it truncated anyway (matches BIND).
                    return Ok(true);
                }
                drop_records += ((encoded - limit) / 64).max(1);
                drop_records = drop_records.min(total_records);
                // Re-encode the same message from its start.
                scratch.abort_message();
                scratch.begin_message();
            } else {
                return Ok(drop_records > 0);
            }
        }
    }

    /// Encode while dropping the last `drop` records (additionals first,
    /// then authorities, then answers) and optionally forcing TC.
    fn encode_dropping(&self, w: &mut ScratchBuf, drop: usize, truncated: bool) -> WireResult<()> {
        let keep = |section: &[Record], already_dropped: usize, drop: usize| -> usize {
            let to_drop = drop.saturating_sub(already_dropped);
            section.len().saturating_sub(to_drop)
        };
        // Drop order: additionals, then authorities, then answers.
        let keep_add = keep(&self.additionals, 0, drop);
        let dropped_add = self.additionals.len() - keep_add;
        let keep_auth = keep(&self.authorities, dropped_add, drop);
        let dropped_auth = self.authorities.len() - keep_auth;
        let keep_ans = keep(&self.answers, dropped_add + dropped_auth, drop);

        let rcode_val = self.rcode.0.to_u16();
        let mut flags = self.flags;
        flags.truncated = flags.truncated || truncated;
        let header = Header {
            id: self.id,
            flags,
            rcode_low: (rcode_val & 0x0F) as u8,
            qdcount: self.questions.len() as u16,
            ancount: keep_ans as u16,
            nscount: keep_auth as u16,
            arcount: (keep_add + usize::from(self.edns.is_some())) as u16,
        };
        header.encode(w)?;
        for q in &self.questions {
            q.encode(w)?;
        }
        for rec in &self.answers[..keep_ans] {
            rec.encode(w)?;
        }
        for rec in &self.authorities[..keep_auth] {
            rec.encode(w)?;
        }
        for rec in &self.additionals[..keep_add] {
            rec.encode(w)?;
        }
        if let Some(edns) = &self.edns {
            let mut edns = edns.clone();
            edns.extended_rcode = (rcode_val >> 4) as u8;
            edns.encode(w)?;
        }
        Ok(())
    }

    /// Decode a full message. Unknown record types decode as opaque; a
    /// malformed record aborts the whole message (the ZDNS framework maps
    /// that to a parse-error status for the lookup).
    pub fn decode(bytes: &[u8]) -> WireResult<Message> {
        let mut r = WireReader::new(bytes);
        let header = Header::decode(&mut r)?;
        // Each question needs ≥5 bytes, each record ≥11; reject impossible
        // counts before allocating.
        let min_needed = header.qdcount as usize * 5
            + (header.ancount as usize + header.nscount as usize + header.arcount as usize) * 11;
        if min_needed > r.remaining() {
            return Err(WireError::CountMismatch { section: "header" });
        }
        let mut questions = Vec::with_capacity(header.qdcount as usize);
        for _ in 0..header.qdcount {
            questions.push(Question::decode(&mut r)?);
        }
        let mut answers = Vec::with_capacity(header.ancount as usize);
        for _ in 0..header.ancount {
            answers.push(Record::decode(&mut r)?);
        }
        let mut authorities = Vec::with_capacity(header.nscount as usize);
        for _ in 0..header.nscount {
            authorities.push(Record::decode(&mut r)?);
        }
        let mut additionals = Vec::new();
        let mut edns = None;
        for _ in 0..header.arcount {
            // OPT needs special handling because its fixed fields are
            // repurposed; peek at the type before committing.
            let before = r.position();
            let name = r.read_name()?;
            let rtype = RecordType::from_u16(r.read_u16("record type")?);
            if rtype == RecordType::OPT {
                if !name.is_root() {
                    return Err(WireError::InvalidValue {
                        field: "OPT owner name",
                    });
                }
                // Later OPT wins is a protocol violation; first one counts.
                let parsed = Edns::decode_body(&mut r)?;
                if edns.is_none() {
                    edns = Some(parsed);
                }
            } else {
                r.seek(before)?;
                additionals.push(Record::decode(&mut r)?);
            }
        }
        let rcode_val = match &mut edns {
            Some(e) => {
                let combined = (e.extended_rcode as u16) << 4 | header.rcode_low as u16;
                // The extended bits live in Message::rcode from here on;
                // zero them in the lifted OPT so re-encoding is idempotent.
                e.extended_rcode = 0;
                combined
            }
            None => header.rcode_low as u16,
        };
        Ok(Message {
            id: header.id,
            flags: header.flags,
            rcode: RcodeField(Rcode::from_u16(rcode_val)),
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }
}

/// Encode a standard query — header, one question, and a default OPT
/// (optionally carrying a DNS [`Cookie`]) — straight into `scratch`,
/// without constructing a [`Message`]. This is the reactor's send path:
/// in the steady state it performs zero heap allocations.
///
/// The encoded bytes are identical to
/// `Message::query(id, question)` with `recursion_desired` applied and the
/// cookie attached via [`Edns::set_cookie`].
pub fn encode_query_into(
    scratch: &mut ScratchBuf,
    id: u16,
    question: &Question,
    recursion_desired: bool,
    cookie: Option<&Cookie>,
) -> WireResult<()> {
    scratch.begin_message();
    let result = (|| {
        let header = Header {
            id,
            flags: Flags {
                recursion_desired,
                ..Flags::default()
            },
            rcode_low: 0,
            qdcount: 1,
            ancount: 0,
            nscount: 0,
            arcount: 1,
        };
        header.encode(scratch)?;
        question.encode(scratch)?;
        Edns::encode_query_opt(scratch, cookie)
    })();
    result.inspect_err(|_| scratch.abort_message())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::WireWriter;
    use crate::rdata::RData;
    use std::net::Ipv4Addr;

    fn sample_response() -> Message {
        let mut m = Message::query(
            0x1234,
            Question::new("google.com".parse().unwrap(), RecordType::A),
        );
        m.flags.response = true;
        m.flags.authoritative = true;
        m.answers.push(Record::new(
            "google.com".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(216, 58, 195, 78)),
        ));
        m.authorities.push(Record::new(
            "google.com".parse().unwrap(),
            172800,
            RData::Ns("ns1.google.com".parse().unwrap()),
        ));
        m.additionals.push(Record::new(
            "ns1.google.com".parse().unwrap(),
            172800,
            RData::A(Ipv4Addr::new(216, 239, 32, 10)),
        ));
        m
    }

    #[test]
    fn message_roundtrip() {
        let m = sample_response();
        let bytes = m.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn query_has_edns() {
        let q = Message::query(
            1,
            Question::new("example.com".parse().unwrap(), RecordType::MX),
        );
        let bytes = q.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert!(decoded.edns.is_some());
        assert!(!decoded.flags.recursion_desired);
    }

    #[test]
    fn extended_rcode_roundtrip() {
        let mut m = sample_response();
        m.rcode = RcodeField(Rcode::BadVers); // 16: needs the OPT extension
        let bytes = m.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.rcode(), Rcode::BadVers);
    }

    #[test]
    fn udp_truncation_sets_tc_and_fits() {
        let mut m = sample_response();
        // Fill with enough answers that 512 bytes cannot hold them.
        for i in 0..100u32 {
            m.answers.push(Record::new(
                "google.com".parse().unwrap(),
                300,
                RData::A(Ipv4Addr::from(0x0A00_0000 + i)),
            ));
        }
        let mut scratch = ScratchBuf::new();
        let truncated = m.encode_udp_into(&mut scratch, 512).unwrap();
        assert!(truncated);
        assert!(scratch.len() <= 512);
        let decoded = Message::decode(scratch.as_slice()).unwrap();
        assert!(decoded.flags.truncated);
        // TCP encoding holds everything.
        let full = m.encode().unwrap();
        let decoded_full = Message::decode(&full).unwrap();
        assert_eq!(decoded_full.answers.len(), 101);
        assert!(!decoded_full.flags.truncated);
    }

    #[test]
    fn encode_into_appends_independent_messages() {
        let m = sample_response();
        let one_shot = m.encode().unwrap();
        let mut scratch = ScratchBuf::new();
        m.encode_into(&mut scratch).unwrap();
        let first_end = scratch.len();
        m.encode_into(&mut scratch).unwrap();
        // Both copies decode identically: compression never points across
        // the message boundary.
        assert_eq!(&scratch.as_slice()[..first_end], &one_shot[..]);
        assert_eq!(
            Message::decode(&scratch.as_slice()[first_end..]).unwrap(),
            m
        );
    }

    #[test]
    fn encode_query_into_matches_owned_builder() {
        let question = Question::new("www.Example.COM".parse().unwrap(), RecordType::A);
        let cookie = Cookie::client([7, 6, 5, 4, 3, 2, 1, 0]);
        for (rd, cookie) in [(false, None), (true, Some(cookie))] {
            let mut owned = Message::query(0xABCD, question.clone());
            owned.flags.recursion_desired = rd;
            if let (Some(c), Some(e)) = (cookie.as_ref(), owned.edns.as_mut()) {
                e.set_cookie(*c);
            }
            let expected = owned.encode().unwrap();
            let mut scratch = ScratchBuf::new();
            encode_query_into(&mut scratch, 0xABCD, &question, rd, cookie.as_ref()).unwrap();
            assert_eq!(scratch.as_slice(), &expected[..]);
        }
    }

    #[test]
    fn bogus_counts_rejected_without_huge_alloc() {
        // Header claiming 65535 answers in a 12-byte message.
        let mut bytes = vec![0u8; 12];
        bytes[6] = 0xFF;
        bytes[7] = 0xFF;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::CountMismatch { .. })
        ));
    }

    #[test]
    fn opt_with_nonroot_owner_rejected() {
        // Build a message whose OPT record has a non-root owner.
        let mut w = WireWriter::new();
        Header {
            id: 1,
            arcount: 1,
            ..Header::default()
        }
        .encode(&mut w)
        .unwrap();
        w.write_name(&"x.example".parse().unwrap()).unwrap();
        w.write_u16(RecordType::OPT.to_u16()).unwrap();
        w.write_u16(1232).unwrap();
        w.write_u32(0).unwrap();
        w.write_u16(0).unwrap();
        let bytes = w.finish();
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn decode_arbitrary_prefix_never_panics() {
        let m = sample_response();
        let bytes = m.encode().unwrap();
        for cut in 0..bytes.len() {
            let _ = Message::decode(&bytes[..cut]);
        }
    }
}
