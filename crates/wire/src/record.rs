//! A resource record: owner name, type, class, TTL, and typed RDATA.

use crate::buffer::{ScratchBuf, WireReader};
use crate::error::WireResult;
use crate::name::Name;
use crate::rdata::RData;
use crate::rtype::{RecordClass, RecordType};

/// One resource record as it appears in the answer, authority, or
/// additional section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record type. Kept separate from the RData so records decoded as
    /// [`RData::Opaque`] remember what they were.
    pub rtype: RecordType,
    /// Record class.
    pub class: RecordClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// Build a record, deriving the type from the RDATA.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Record {
        Record {
            name,
            rtype: rdata.natural_type(),
            class: RecordClass::IN,
            ttl,
            rdata,
        }
    }

    /// Encode the full record, the owner name compressed against the
    /// message so far.
    pub fn encode(&self, w: &mut ScratchBuf) -> WireResult<()> {
        w.write_name(&self.name)?;
        self.encode_body(w)
    }

    /// Encode everything after the owner name — TYPE, CLASS, TTL and the
    /// RDATA behind its RDLENGTH, patched after the fact. Names inside
    /// RDATA are never compressed, so these octets mean the same at any
    /// offset of any buffer.
    pub fn encode_body(&self, w: &mut ScratchBuf) -> WireResult<()> {
        w.write_u16(self.rtype.to_u16())?;
        w.write_u16(self.class.to_u16())?;
        w.write_u32(self.ttl)?;
        let len_pos = w.len();
        w.write_u16(0)?;
        let rdata_start = w.len();
        self.rdata.encode(w)?;
        let rdlen = w.len() - rdata_start;
        w.patch_u16(len_pos, rdlen as u16);
        Ok(())
    }

    /// Decode one record.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<Record> {
        let name = r.read_name()?;
        let rtype = RecordType::from_u16(r.read_u16("record type")?);
        let class = RecordClass::from_u16(r.read_u16("record class")?);
        let ttl = r.read_u32("record ttl")?;
        let rdlen = r.read_u16("rdlength")? as usize;
        let rdata = RData::decode(rtype, rdlen, r)?;
        Ok(Record {
            name,
            rtype,
            class,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::WireWriter;
    use std::net::Ipv4Addr;

    #[test]
    fn record_roundtrip() {
        let rec = Record::new(
            "google.com".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::new(142, 250, 188, 14)),
        );
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Record::decode(&mut r).unwrap(), rec);
        assert!(r.is_empty());
    }

    #[test]
    fn new_derives_type() {
        let rec = Record::new(
            "example.com".parse().unwrap(),
            60,
            RData::Ns("ns1.example.com".parse().unwrap()),
        );
        assert_eq!(rec.rtype, RecordType::NS);
    }

    #[test]
    fn rdlength_patched_correctly() {
        let rec = Record::new(
            "example.com".parse().unwrap(),
            60,
            RData::Txt(crate::rdata::TxtData::from_text("hello world")),
        );
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let bytes = w.finish();
        // name(13) + type(2) + class(2) + ttl(4) = 21; rdlength at 21..23.
        let rdlen = u16::from_be_bytes([bytes[21], bytes[22]]) as usize;
        assert_eq!(rdlen, 12); // 1 length octet + 11 text octets
        assert_eq!(bytes.len(), 23 + rdlen);
    }
}
