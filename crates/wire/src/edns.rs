//! EDNS(0) support (RFC 6891) and DNS cookies (RFC 7873).
//!
//! The OPT pseudo-record rides in the additional section and repurposes its
//! fixed fields: CLASS carries the sender's UDP payload size and TTL carries
//! the extended RCODE bits, EDNS version, and the DO flag. ZDNS sends OPT on
//! every query so servers will return large responses over UDP instead of
//! truncating.
//!
//! DNS cookies are a lightweight off-path-spoofing defence: the client
//! attaches an 8-octet client cookie to every query; a cookie-aware server
//! echoes it back with its own 8–32-octet server cookie appended, and the
//! client echoes the full cookie on subsequent queries (retries included) to
//! the same server. [`Cookie`] is a fixed-size inline value so the hot send
//! path can carry and encode it without heap allocation.

use crate::buffer::{ScratchBuf, WireReader};
use crate::error::WireResult;
use crate::name::Name;
use crate::rtype::RecordType;

/// Default advertised UDP payload size; 1232 avoids IPv6 fragmentation and
/// is the operational consensus from DNS Flag Day 2020.
pub const DEFAULT_UDP_PAYLOAD: u16 = 1232;

/// EDNS option code for DNS cookies (RFC 7873).
pub const OPTION_COOKIE: u16 = 10;

/// Octets of a client cookie.
pub const CLIENT_COOKIE_LEN: usize = 8;
/// Maximum octets of a full cookie (8 client + up to 32 server).
pub const MAX_COOKIE_LEN: usize = 40;

/// A DNS cookie (RFC 7873): the 8-octet client cookie, optionally followed
/// by the 8–32-octet server cookie learned from a response. Stored inline
/// (fixed array) so queries can carry it allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cookie {
    len: u8,
    data: [u8; MAX_COOKIE_LEN],
}

impl Cookie {
    /// A client-only cookie (what the first query to a server carries).
    pub fn client(client: [u8; CLIENT_COOKIE_LEN]) -> Cookie {
        let mut data = [0u8; MAX_COOKIE_LEN];
        data[..CLIENT_COOKIE_LEN].copy_from_slice(&client);
        Cookie {
            len: CLIENT_COOKIE_LEN as u8,
            data,
        }
    }

    /// Parse a cookie option's payload. Valid lengths are exactly 8
    /// (client only) or 16–40 (client + server).
    pub fn from_wire(bytes: &[u8]) -> Option<Cookie> {
        let valid = bytes.len() == CLIENT_COOKIE_LEN
            || (2 * CLIENT_COOKIE_LEN..=MAX_COOKIE_LEN).contains(&bytes.len());
        if !valid {
            return None;
        }
        let mut data = [0u8; MAX_COOKIE_LEN];
        data[..bytes.len()].copy_from_slice(bytes);
        Some(Cookie {
            len: bytes.len() as u8,
            data,
        })
    }

    /// The full cookie as sent on the wire.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..self.len as usize]
    }

    /// The 8-octet client part.
    pub fn client_part(&self) -> &[u8] {
        &self.data[..CLIENT_COOKIE_LEN]
    }

    /// The server part, empty for a client-only cookie.
    pub fn server_part(&self) -> &[u8] {
        &self.data[CLIENT_COOKIE_LEN.min(self.len as usize)..self.len as usize]
    }

    /// True once a server cookie has been learned.
    pub fn has_server_part(&self) -> bool {
        self.len as usize > CLIENT_COOKIE_LEN
    }

    /// The cookie a server answers this one with (RFC 7873 §5.2): the
    /// client part echoed, followed by the server's own 8 octets.
    pub fn echo(&self, server: [u8; 8]) -> Cookie {
        let mut data = [0u8; MAX_COOKIE_LEN];
        data[..CLIENT_COOKIE_LEN].copy_from_slice(self.client_part());
        data[CLIENT_COOKIE_LEN..2 * CLIENT_COOKIE_LEN].copy_from_slice(&server);
        Cookie {
            len: 2 * CLIENT_COOKIE_LEN as u8,
            data,
        }
    }
}

/// A decoded OPT pseudo-record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edns {
    /// Sender's maximum UDP payload size.
    pub udp_payload_size: u16,
    /// Upper 8 bits of the extended RCODE.
    pub extended_rcode: u8,
    /// EDNS version (0).
    pub version: u8,
    /// DNSSEC OK flag.
    pub dnssec_ok: bool,
    /// Remaining Z flag bits, preserved verbatim.
    pub z: u16,
    /// EDNS options as (code, data) pairs (e.g. cookies, client subnet).
    pub options: Vec<(u16, Vec<u8>)>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload_size: DEFAULT_UDP_PAYLOAD,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            z: 0,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// The DNS cookie riding in this OPT record, if any.
    pub fn cookie(&self) -> Option<Cookie> {
        self.options
            .iter()
            .find(|(code, _)| *code == OPTION_COOKIE)
            .and_then(|(_, data)| Cookie::from_wire(data))
    }

    /// Attach (or replace) the DNS cookie option.
    pub fn set_cookie(&mut self, cookie: Cookie) {
        if let Some(slot) = self
            .options
            .iter_mut()
            .find(|(code, _)| *code == OPTION_COOKIE)
        {
            slot.1 = cookie.as_bytes().to_vec();
        } else {
            self.options
                .push((OPTION_COOKIE, cookie.as_bytes().to_vec()));
        }
    }

    /// Encode as an OPT record in the additional section.
    pub fn encode(&self, w: &mut ScratchBuf) -> WireResult<()> {
        w.write_name(&Name::root())?;
        w.write_u16(RecordType::OPT.to_u16())?;
        w.write_u16(self.udp_payload_size)?;
        let mut ttl: u32 = (self.extended_rcode as u32) << 24 | (self.version as u32) << 16;
        if self.dnssec_ok {
            ttl |= 0x8000;
        }
        ttl |= (self.z & 0x7FFF) as u32;
        w.write_u32(ttl)?;
        let len_pos = w.len();
        w.write_u16(0)?;
        let start = w.len();
        for (code, data) in &self.options {
            w.write_u16(*code)?;
            w.write_u16(data.len() as u16)?;
            w.write_bytes(data)?;
        }
        let rdlen = w.len() - start;
        w.patch_u16(len_pos, rdlen as u16);
        Ok(())
    }

    /// Decode from the fixed fields and RDATA of an OPT record. The reader
    /// sits just past the TYPE field (i.e. at CLASS).
    pub fn decode_body(r: &mut WireReader<'_>) -> WireResult<Edns> {
        let udp_payload_size = r.read_u16("OPT class")?;
        let ttl = r.read_u32("OPT ttl")?;
        let rdlen = r.read_u16("OPT rdlength")? as usize;
        let end = r.position() + rdlen;
        let mut options = Vec::new();
        while r.position() < end {
            let code = r.read_u16("OPT option code")?;
            let len = r.read_u16("OPT option length")? as usize;
            options.push((code, r.read_bytes(len, "OPT option data")?.to_vec()));
        }
        Ok(Edns {
            udp_payload_size,
            extended_rcode: (ttl >> 24) as u8,
            version: (ttl >> 16) as u8,
            dnssec_ok: ttl & 0x8000 != 0,
            z: (ttl & 0x7FFF) as u16,
            options,
        })
    }

    /// Encode a minimal query-side OPT — default flags, optional cookie —
    /// without building an [`Edns`] value. This is the allocation-free path
    /// [`crate::encode_query_into`] uses.
    pub(crate) fn encode_query_opt(w: &mut ScratchBuf, cookie: Option<&Cookie>) -> WireResult<()> {
        w.write_u8(0)?; // root owner name
        w.write_u16(RecordType::OPT.to_u16())?;
        w.write_u16(DEFAULT_UDP_PAYLOAD)?;
        w.write_u32(0)?;
        match cookie {
            Some(c) => {
                let bytes = c.as_bytes();
                w.write_u16(4 + bytes.len() as u16)?;
                w.write_u16(OPTION_COOKIE)?;
                w.write_u16(bytes.len() as u16)?;
                w.write_bytes(bytes)
            }
            None => w.write_u16(0),
        }
    }
}

/// Append one COOKIE option (code, length, cookie octets) to a message
/// whose OPT pseudo-record is the final thing in the buffer. The caller
/// patches the OPT RDLENGTH afterwards — [`cookie_option_len`] is the
/// delta to add. This is the splice the serve-path packet cache uses to
/// graft a per-client cookie onto a pre-encoded, cookie-less response.
pub fn write_cookie_option(w: &mut ScratchBuf, cookie: &Cookie) -> WireResult<()> {
    let bytes = cookie.as_bytes();
    w.write_u16(OPTION_COOKIE)?;
    w.write_u16(bytes.len() as u16)?;
    w.write_bytes(bytes)
}

/// Wire size of the option [`write_cookie_option`] appends: 4 octets of
/// code + length, then the cookie itself.
pub fn cookie_option_len(cookie: &Cookie) -> usize {
    4 + cookie.as_bytes().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::WireWriter;

    fn roundtrip(e: &Edns) -> Edns {
        let mut w = WireWriter::new();
        e.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        // Skip root name + TYPE.
        assert_eq!(r.read_name().unwrap(), Name::root());
        assert_eq!(r.read_u16("type").unwrap(), RecordType::OPT.to_u16());
        Edns::decode_body(&mut r).unwrap()
    }

    #[test]
    fn default_roundtrip() {
        let e = Edns::default();
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn extended_rcode_and_do_flag() {
        let e = Edns {
            udp_payload_size: 4096,
            extended_rcode: 1, // with rcode_low=0 => BADVERS (16)
            version: 0,
            dnssec_ok: true,
            z: 0,
            options: Vec::new(),
        };
        let d = roundtrip(&e);
        assert_eq!(d.extended_rcode, 1);
        assert!(d.dnssec_ok);
        assert_eq!(d.udp_payload_size, 4096);
    }

    #[test]
    fn options_roundtrip() {
        let e = Edns {
            options: vec![(10, vec![1, 2, 3, 4, 5, 6, 7, 8])], // DNS cookie
            ..Edns::default()
        };
        assert_eq!(roundtrip(&e).options, e.options);
    }

    #[test]
    fn cookie_client_only() {
        let c = Cookie::client([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.client_part(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(c.server_part().is_empty());
        assert!(!c.has_server_part());
    }

    #[test]
    fn echo_keeps_the_client_part_and_appends_the_server_part() {
        let learned = Cookie::from_wire(&[7u8; 24]).unwrap();
        let echoed = learned.echo(*b"SERVERCK");
        assert_eq!(echoed.client_part(), &[7u8; 8]);
        assert_eq!(echoed.server_part(), b"SERVERCK");
        assert_eq!(Cookie::from_wire(echoed.as_bytes()), Some(echoed));
    }

    #[test]
    fn cookie_wire_lengths() {
        assert!(Cookie::from_wire(&[0u8; 8]).is_some());
        assert!(Cookie::from_wire(&[0u8; 16]).is_some());
        assert!(Cookie::from_wire(&[0u8; 40]).is_some());
        // Invalid per RFC 7873: too short, between 9 and 15, too long.
        assert!(Cookie::from_wire(&[0u8; 7]).is_none());
        assert!(Cookie::from_wire(&[0u8; 12]).is_none());
        assert!(Cookie::from_wire(&[0u8; 41]).is_none());
    }

    #[test]
    fn cookie_roundtrips_through_edns_option() {
        let mut full = [0u8; 24];
        for (i, b) in full.iter_mut().enumerate() {
            *b = i as u8;
        }
        let cookie = Cookie::from_wire(&full).unwrap();
        assert!(cookie.has_server_part());
        assert_eq!(cookie.server_part().len(), 16);
        let mut e = Edns::default();
        e.set_cookie(cookie);
        let decoded = roundtrip(&e);
        assert_eq!(decoded.cookie(), Some(cookie));
        // Replacing keeps a single option.
        e.set_cookie(Cookie::client([9; 8]));
        assert_eq!(e.options.len(), 1);
        assert_eq!(e.cookie().unwrap().client_part(), &[9u8; 8]);
    }
}
