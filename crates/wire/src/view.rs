//! Borrowed, zero-copy message decoding.
//!
//! [`MessageView`] is the read side of the zero-alloc message lifecycle: it
//! wraps a raw datagram (typically a slice of the receive arena), validates
//! its structure in **one allocation-free sweep**, and then hands out lazy
//! iterators over questions and records. Nothing is materialized until the
//! caller *keeps* something: names compare label-by-label against owned
//! [`Name`]s without being built, and records promote to owned [`Record`]s
//! only via [`RecordView::to_record`].
//!
//! [`MsgRef`] unifies the borrowed view with the owned [`Message`] so lookup
//! machines run identically over both: the reactor's UDP hot path hands them
//! views over arena slices, while the TCP side-pool, the blocking driver,
//! and the discrete-event simulator hand them owned messages.

use std::net::Ipv4Addr;

use crate::buffer::WireReader;
use crate::edns::{Cookie, Edns, OPTION_COOKIE};
use crate::error::{WireError, WireResult};
use crate::header::{Flags, Header, Rcode};
use crate::message::Message;
use crate::name::{Name, NameBuilder};
use crate::question::Question;
use crate::rdata::RData;
use crate::record::Record;
use crate::rtype::{RecordClass, RecordType};

/// Walk one (possibly compressed) encoded name starting at `start`,
/// validating label lengths, total name length, and pointer discipline.
/// Returns the offset just past the name *at this position* (after the
/// first pointer, if any).
fn walk_name(buf: &[u8], start: usize) -> WireResult<usize> {
    let mut pos = start;
    let mut end: Option<usize> = None;
    let mut wire_len = 1usize;
    let mut hops = 0usize;
    loop {
        let len_byte = *buf.get(pos).ok_or(WireError::Truncated {
            context: "name label",
        })?;
        match len_byte & 0b1100_0000 {
            0b0000_0000 => {
                let len = len_byte as usize;
                if len == 0 {
                    return Ok(end.unwrap_or(pos + 1));
                }
                if len > crate::name::MAX_LABEL_LEN {
                    return Err(WireError::LabelTooLong(len));
                }
                if pos + 1 + len > buf.len() {
                    return Err(WireError::Truncated {
                        context: "name label body",
                    });
                }
                wire_len += len + 1;
                if wire_len > crate::name::MAX_NAME_LEN {
                    return Err(WireError::NameTooLong(wire_len));
                }
                pos += 1 + len;
            }
            0b1100_0000 => {
                let second = *buf.get(pos + 1).ok_or(WireError::Truncated {
                    context: "compression pointer",
                })?;
                let target = ((len_byte as usize & 0x3f) << 8) | second as usize;
                if target >= pos {
                    return Err(WireError::BadPointer { target });
                }
                if end.is_none() {
                    end = Some(pos + 2);
                }
                hops += 1;
                if hops > 126 {
                    return Err(WireError::BadPointer { target });
                }
                pos = target;
            }
            other => return Err(WireError::UnsupportedLabelType(other >> 6)),
        }
    }
}

/// Offset just past the name encoded at `start`, found without following
/// a compression pointer: a name ends at its root octet or at its first
/// pointer. Only bounds are checked — for the iterators over a buffer
/// whose names a sweep has validated already ([`MessageView::parse`]), or
/// whose names are read through walks that stop at a malformed one
/// ([`NameRefLabels`], [`WireReader::read_name`]).
fn skip_name(buf: &[u8], start: usize) -> Option<usize> {
    let mut pos = start;
    loop {
        let len = *buf.get(pos)? as usize;
        match len {
            0 => return Some(pos + 1),
            1..=crate::name::MAX_LABEL_LEN => pos += 1 + len,
            0xC0.. => return Some(pos + 2),
            _ => return None,
        }
    }
}

/// A borrowed domain name inside a received message: a message buffer plus
/// the offset where the name starts. Labels are walked on demand (following
/// compression pointers) — comparing, hashing into, or iterating a `NameRef`
/// never allocates.
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> NameRef<'a> {
    /// The name encoded at `off` in `buf` — which need not be a message:
    /// any buffer whose compression pointers are offsets into itself.
    /// Nothing is validated here; walking a malformed name ends early
    /// instead of panicking.
    pub fn at(buf: &'a [u8], off: usize) -> NameRef<'a> {
        NameRef { buf, off }
    }

    /// The name's label storage (its octets minus the root one) and label
    /// count, when it is written out in full right here: `None` when the
    /// encoding runs through a compression pointer, off the end of the
    /// buffer, or past the length a name may have.
    fn plain(&self) -> Option<(&'a [u8], usize)> {
        let mut pos = self.off;
        let mut count = 0;
        loop {
            let len = *self.buf.get(pos)? as usize;
            if len == 0 {
                return Some((&self.buf[self.off..pos], count));
            }
            pos += 1 + len;
            count += 1;
            if len > crate::name::MAX_LABEL_LEN || pos - self.off >= crate::name::MAX_NAME_LEN {
                return None;
            }
        }
    }

    /// The name's octets where they sit, root octet included — `None` when
    /// the encoding runs through a compression pointer. A serve reply
    /// echoes its client's question from these.
    pub fn wire_bytes(&self) -> Option<&'a [u8]> {
        let (labels, _) = self.plain()?;
        Some(&self.buf[self.off..=self.off + labels.len()])
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> NameRefLabels<'a> {
        NameRefLabels {
            buf: self.buf,
            pos: self.off,
            hops: 0,
            done: false,
        }
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels().next().is_none()
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Case-insensitive equality against an owned [`Name`], label by label,
    /// without materializing anything.
    pub fn eq_name(&self, name: &Name) -> bool {
        // Written out in full right here (a question, a cache key): one
        // pass over the octets. Length octets are below 64, so folding
        // case leaves them alone and a pointer can never pass for one.
        let want = name.storage_bytes();
        if let Some(here) = self.buf.get(self.off..self.off + want.len() + 1) {
            if here[want.len()] == 0 && here[..want.len()].eq_ignore_ascii_case(want) {
                return true;
            }
        }
        let mut ours = self.labels();
        let mut theirs = name.labels();
        loop {
            match (ours.next(), theirs.next()) {
                (None, None) => return true,
                (Some(a), Some(b)) => {
                    if !a.eq_ignore_ascii_case(b) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }

    /// Promote to an owned [`Name`] (inline storage: allocation-free for
    /// names up to [`crate::INLINE_NAME_LEN`] octets).
    pub fn to_name(&self) -> Name {
        // Written out in full (a question, anything this crate's encoder
        // put inside RDATA): the octets are the name's storage as they are.
        if let Some((labels, count)) = self.plain() {
            return Name::from_storage(labels, count);
        }
        let mut builder = NameBuilder::new();
        for label in self.labels() {
            if builder.push(label).is_err() {
                break; // cannot happen on a validated message
            }
        }
        builder.finish()
    }
}

/// Iterator over a [`NameRef`]'s labels. Malformed input (impossible on a
/// sweep-validated message) terminates the iteration instead of panicking.
#[derive(Debug, Clone)]
pub struct NameRefLabels<'a> {
    buf: &'a [u8],
    pos: usize,
    hops: usize,
    done: bool,
}

impl<'a> Iterator for NameRefLabels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            if self.done {
                return None;
            }
            let len_byte = match self.buf.get(self.pos) {
                Some(b) => *b,
                None => {
                    self.done = true;
                    return None;
                }
            };
            match len_byte & 0b1100_0000 {
                0b0000_0000 => {
                    let len = len_byte as usize;
                    if len == 0 {
                        self.done = true;
                        return None;
                    }
                    let start = self.pos + 1;
                    let end = start + len;
                    if end > self.buf.len() {
                        self.done = true;
                        return None;
                    }
                    self.pos = end;
                    return Some(&self.buf[start..end]);
                }
                0b1100_0000 => {
                    let second = match self.buf.get(self.pos + 1) {
                        Some(b) => *b,
                        None => {
                            self.done = true;
                            return None;
                        }
                    };
                    let target = ((len_byte as usize & 0x3f) << 8) | second as usize;
                    if target >= self.pos || self.hops > 126 {
                        self.done = true;
                        return None;
                    }
                    self.hops += 1;
                    self.pos = target;
                }
                _ => {
                    self.done = true;
                    return None;
                }
            }
        }
    }
}

/// One question, borrowed from the message buffer.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Name being queried.
    pub name: NameRef<'a>,
    /// Query type.
    pub qtype: RecordType,
    /// Query class.
    pub qclass: RecordClass,
}

impl QuestionView<'_> {
    /// Promote to an owned [`Question`].
    pub fn to_question(&self) -> Question {
        Question {
            name: self.name.to_name(),
            qtype: self.qtype,
            qclass: self.qclass,
        }
    }
}

/// One resource record, borrowed from the message buffer: fixed fields are
/// decoded, the owner name and RDATA stay in place until promoted.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    buf: &'a [u8],
    name_off: usize,
    /// Record type.
    pub rtype: RecordType,
    /// Record class.
    pub class: RecordClass,
    /// Time to live, seconds.
    pub ttl: u32,
    rdata_off: usize,
    rdlen: usize,
}

impl<'a> RecordView<'a> {
    /// The owner name, still borrowed.
    pub fn name(&self) -> NameRef<'a> {
        NameRef {
            buf: self.buf,
            off: self.name_off,
        }
    }

    /// The raw RDATA octets (names inside may be compressed — use
    /// [`RecordView::to_record`] for typed access).
    pub fn rdata_bytes(&self) -> &'a [u8] {
        &self.buf[self.rdata_off..self.rdata_off + self.rdlen]
    }

    /// The whole record as it sits in the buffer, from the first octet of
    /// its owner name (which may be a compression pointer) to the last of
    /// its RDATA.
    pub fn wire_bytes(&self) -> &'a [u8] {
        &self.buf[self.name_off..self.rdata_off + self.rdlen]
    }

    /// Everything after the owner name as it sits in the buffer: TYPE,
    /// CLASS, TTL, RDLENGTH and the RDATA — what [`Record::encode_body`]
    /// wrote, when this crate's encoder (which never compresses names
    /// inside RDATA) produced the buffer.
    pub fn body_bytes(&self) -> &'a [u8] {
        &self.buf[self.rdata_off - 10..self.rdata_off + self.rdlen]
    }

    /// For an A record, the address — without promotion.
    pub fn a_addr(&self) -> Option<Ipv4Addr> {
        if self.rtype == RecordType::A && self.rdlen == 4 {
            let b = self.rdata_bytes();
            Some(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
        } else {
            None
        }
    }

    /// For NS/CNAME/PTR/DNAME records, the target name (promoted — inline,
    /// so allocation-free for typical names).
    pub fn target_name(&self) -> Option<Name> {
        match self.rtype {
            RecordType::NS | RecordType::CNAME | RecordType::PTR | RecordType::DNAME => {
                let target = NameRef {
                    buf: self.buf,
                    off: self.rdata_off,
                };
                // Written out in full, its own walk is all the checking
                // it needs; a pointer chain is validated first.
                if let Some((labels, count)) = target.plain() {
                    return Some(Name::from_storage(labels, count));
                }
                walk_name(self.buf, self.rdata_off).ok()?;
                Some(target.to_name())
            }
            _ => None,
        }
    }

    /// Promote to an owned, typed [`Record`].
    pub fn to_record(&self) -> WireResult<Record> {
        let mut r = WireReader::new(self.buf);
        r.seek(self.rdata_off)?;
        let rdata = RData::decode(self.rtype, self.rdlen, &mut r)?;
        Ok(Record {
            name: self.name().to_name(),
            rtype: self.rtype,
            class: self.class,
            ttl: self.ttl,
            rdata,
        })
    }
}

/// Iterator over one record section of a [`MessageView`].
#[derive(Debug, Clone)]
pub struct RecordViews<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: u16,
    /// The additional-section iterator skips the OPT pseudo-record, for
    /// parity with [`Message::additionals`].
    skip_opt: bool,
}

impl<'a> RecordViews<'a> {
    /// Iterate `count` records encoded back to back from `pos` in `buf`,
    /// which need not be a message (see [`NameRef::at`]). Each record's
    /// extent is bounds-checked as it is reached and the first one that
    /// does not fit ends the iteration; what is inside a record is checked
    /// by whatever reads it ([`RecordView::to_record`] and the name walks
    /// refuse or stop at malformed data).
    pub fn over(buf: &'a [u8], pos: usize, count: u16) -> RecordViews<'a> {
        RecordViews {
            buf,
            pos,
            remaining: count,
            skip_opt: false,
        }
    }
}

impl<'a> Iterator for RecordViews<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        while self.remaining > 0 {
            self.remaining -= 1;
            let name_off = self.pos;
            let after_name = skip_name(self.buf, name_off)?;
            let fixed_end = after_name + 10;
            if fixed_end > self.buf.len() {
                return None;
            }
            let rtype = RecordType::from_u16(u16::from_be_bytes([
                self.buf[after_name],
                self.buf[after_name + 1],
            ]));
            let class = RecordClass::from_u16(u16::from_be_bytes([
                self.buf[after_name + 2],
                self.buf[after_name + 3],
            ]));
            let ttl = u32::from_be_bytes([
                self.buf[after_name + 4],
                self.buf[after_name + 5],
                self.buf[after_name + 6],
                self.buf[after_name + 7],
            ]);
            let rdlen =
                u16::from_be_bytes([self.buf[after_name + 8], self.buf[after_name + 9]]) as usize;
            if fixed_end + rdlen > self.buf.len() {
                return None;
            }
            self.pos = fixed_end + rdlen;
            if self.skip_opt && rtype == RecordType::OPT {
                continue;
            }
            return Some(RecordView {
                buf: self.buf,
                name_off,
                rtype,
                class,
                ttl,
                rdata_off: fixed_end,
                rdlen,
            });
        }
        None
    }
}

/// Iterator over the question section of a [`MessageView`].
#[derive(Debug, Clone)]
pub struct QuestionViews<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: u16,
}

impl<'a> Iterator for QuestionViews<'a> {
    type Item = QuestionView<'a>;

    fn next(&mut self) -> Option<QuestionView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let name_off = self.pos;
        let after_name = skip_name(self.buf, name_off)?;
        if after_name + 4 > self.buf.len() {
            return None;
        }
        let qtype = RecordType::from_u16(u16::from_be_bytes([
            self.buf[after_name],
            self.buf[after_name + 1],
        ]));
        let qclass = RecordClass::from_u16(u16::from_be_bytes([
            self.buf[after_name + 2],
            self.buf[after_name + 3],
        ]));
        self.pos = after_name + 4;
        Some(QuestionView {
            name: NameRef {
                buf: self.buf,
                off: name_off,
            },
            qtype,
            qclass,
        })
    }
}

/// The lifted OPT pseudo-record of a borrowed message.
#[derive(Debug, Clone, Copy)]
struct OptView {
    udp_payload_size: u16,
    ttl: u32,
    rdata_off: usize,
    rdlen: usize,
}

/// A borrowed, lazily-decoded DNS message over a raw datagram.
///
/// [`MessageView::parse`] runs one bounds-checking sweep — names walked,
/// record shapes validated, RDATA checked via [`RData::validate`], OPT
/// located — and allocates nothing for the record types real scans see;
/// section contents are decoded on iteration and promoted to owned values
/// only on demand. `parse` accepts exactly the messages
/// [`Message::decode`] accepts, with one deliberate exception: EDNS
/// options must fit their RDLENGTH exactly (the owned decoder leniently
/// reads an overrunning option past the OPT record's end; the view
/// rejects such datagrams instead of misparsing what follows). The
/// reactor relies on this equivalence so its view path and the owned
/// decode of the TCP side-pool and the simulator drop the same malformed
/// datagrams — a response that parses here always promotes.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    buf: &'a [u8],
    header: Header,
    /// Replaces the wire transaction id (the reactor restores the
    /// machine's own id without touching the buffer).
    id_override: Option<u16>,
    q_off: usize,
    an_off: usize,
    ns_off: usize,
    ar_off: usize,
    opt: Option<OptView>,
}

impl<'a> MessageView<'a> {
    /// Validate `bytes` as a DNS message and build the view. One pass, no
    /// allocations; decoding arbitrary bytes must never panic.
    pub fn parse(bytes: &'a [u8]) -> WireResult<MessageView<'a>> {
        let mut r = WireReader::new(bytes);
        let header = Header::decode(&mut r)?;
        // Same impossible-count precheck as the owned decoder.
        let min_needed = header.qdcount as usize * 5
            + (header.ancount as usize + header.nscount as usize + header.arcount as usize) * 11;
        if min_needed > r.remaining() {
            return Err(WireError::CountMismatch { section: "header" });
        }
        let q_off = r.position();
        let mut pos = q_off;
        for _ in 0..header.qdcount {
            pos = walk_name(bytes, pos)?;
            pos = pos
                .checked_add(4)
                .filter(|&p| p <= bytes.len())
                .ok_or(WireError::Truncated {
                    context: "question fixed fields",
                })?;
        }
        let an_off = pos;
        for _ in 0..header.ancount {
            pos = skip_record(bytes, pos, false)?.1;
        }
        let ns_off = pos;
        for _ in 0..header.nscount {
            pos = skip_record(bytes, pos, false)?.1;
        }
        let ar_off = pos;
        let mut opt = None;
        for _ in 0..header.arcount {
            let (meta, next) = skip_record(bytes, pos, true)?;
            if meta.rtype == RecordType::OPT {
                let owner = NameRef {
                    buf: bytes,
                    off: pos,
                };
                if !owner.is_root() {
                    return Err(WireError::InvalidValue {
                        field: "OPT owner name",
                    });
                }
                // Later OPT wins is a protocol violation; first one counts.
                if opt.is_none() {
                    opt = Some(OptView {
                        udp_payload_size: meta.class_bits,
                        ttl: meta.ttl,
                        rdata_off: meta.rdata_off,
                        rdlen: meta.rdlen,
                    });
                }
            }
            pos = next;
        }
        Ok(MessageView {
            buf: bytes,
            header,
            id_override: None,
            q_off,
            an_off,
            ns_off,
            ar_off,
            opt,
        })
    }

    /// The same view reporting `id` as its transaction id (the underlying
    /// bytes are untouched).
    pub fn with_id(mut self, id: u16) -> MessageView<'a> {
        self.id_override = Some(id);
        self
    }

    /// The raw datagram this view borrows.
    pub fn bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// Transaction id (override applied).
    pub fn id(&self) -> u16 {
        self.id_override.unwrap_or(self.header.id)
    }

    /// Header flag bits.
    pub fn flags(&self) -> Flags {
        self.header.flags
    }

    /// Full response code, extended RCODE bits included when EDNS is
    /// present.
    pub fn rcode(&self) -> Rcode {
        let low = self.header.rcode_low as u16;
        let val = match &self.opt {
            Some(opt) => ((opt.ttl >> 24) as u16) << 4 | low,
            None => low,
        };
        Rcode::from_u16(val)
    }

    /// True if an OPT record was present.
    pub fn has_edns(&self) -> bool {
        self.opt.is_some()
    }

    /// The peer's advertised UDP payload size, if EDNS was present.
    pub fn udp_payload_size(&self) -> Option<u16> {
        self.opt.as_ref().map(|o| o.udp_payload_size)
    }

    /// The DNS cookie riding in the OPT record, if any (RFC 7873).
    pub fn cookie(&self) -> Option<Cookie> {
        let opt = self.opt.as_ref()?;
        let mut pos = opt.rdata_off;
        let end = opt.rdata_off + opt.rdlen;
        while pos + 4 <= end {
            let code = u16::from_be_bytes([self.buf[pos], self.buf[pos + 1]]);
            let len = u16::from_be_bytes([self.buf[pos + 2], self.buf[pos + 3]]) as usize;
            if pos + 4 + len > end {
                return None;
            }
            if code == OPTION_COOKIE {
                return Cookie::from_wire(&self.buf[pos + 4..pos + 4 + len]);
            }
            pos += 4 + len;
        }
        None
    }

    /// Entries in the question section.
    pub fn question_count(&self) -> usize {
        self.header.qdcount as usize
    }

    /// Entries in the answer section.
    pub fn answer_count(&self) -> usize {
        self.header.ancount as usize
    }

    /// Iterate the question section.
    pub fn questions(&self) -> QuestionViews<'a> {
        QuestionViews {
            buf: self.buf,
            pos: self.q_off,
            remaining: self.header.qdcount,
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    /// Iterate the answer section.
    pub fn answers(&self) -> RecordViews<'a> {
        RecordViews::over(self.buf, self.an_off, self.header.ancount)
    }

    /// Iterate the authority section.
    pub fn authorities(&self) -> RecordViews<'a> {
        RecordViews::over(self.buf, self.ns_off, self.header.nscount)
    }

    /// Iterate the additional section (the OPT pseudo-record is skipped,
    /// matching [`Message::additionals`]).
    pub fn additionals(&self) -> RecordViews<'a> {
        RecordViews {
            buf: self.buf,
            pos: self.ar_off,
            remaining: self.header.arcount,
            skip_opt: true,
        }
    }

    /// Promote the whole message to an owned [`Message`] (id override
    /// applied). Equivalent to [`Message::decode`] on the raw bytes.
    pub fn to_message(&self) -> WireResult<Message> {
        let mut m = Message::decode(self.buf)?;
        m.id = self.id();
        Ok(m)
    }
}

/// Fixed record fields collected while skipping one record.
struct RecordMeta {
    rtype: RecordType,
    class_bits: u16,
    ttl: u32,
    rdata_off: usize,
    rdlen: usize,
}

/// Skip one record at `pos`, validating its shape *and* its RDATA (so a
/// record that survives the sweep always promotes). `edns_opt` marks the
/// additional section, where an OPT pseudo-record's RDATA is an EDNS
/// option list rather than typed RDATA.
fn skip_record(buf: &[u8], pos: usize, edns_opt: bool) -> WireResult<(RecordMeta, usize)> {
    let after_name = walk_name(buf, pos)?;
    if after_name + 10 > buf.len() {
        return Err(WireError::Truncated {
            context: "record fixed fields",
        });
    }
    let rtype = RecordType::from_u16(u16::from_be_bytes([buf[after_name], buf[after_name + 1]]));
    let class_bits = u16::from_be_bytes([buf[after_name + 2], buf[after_name + 3]]);
    let ttl = u32::from_be_bytes([
        buf[after_name + 4],
        buf[after_name + 5],
        buf[after_name + 6],
        buf[after_name + 7],
    ]);
    let rdlen = u16::from_be_bytes([buf[after_name + 8], buf[after_name + 9]]) as usize;
    let rdata_off = after_name + 10;
    if rdata_off + rdlen > buf.len() {
        return Err(WireError::Truncated {
            context: "record rdata",
        });
    }
    if edns_opt && rtype == RecordType::OPT {
        validate_opt_options(buf, rdata_off, rdlen)?;
    } else {
        let mut r = WireReader::new(buf);
        r.seek(rdata_off)?;
        RData::validate(rtype, rdlen, &mut r)?;
    }
    Ok((
        RecordMeta {
            rtype,
            class_bits,
            ttl,
            rdata_off,
            rdlen,
        },
        rdata_off + rdlen,
    ))
}

/// Validate an OPT record's option list: every `(code, length, data)`
/// triple must fit entirely within the RDATA. Slightly stricter than
/// [`crate::Edns::decode_body`], which reads an overrunning option past
/// the record boundary — the view refuses to misparse what follows.
fn validate_opt_options(buf: &[u8], rdata_off: usize, rdlen: usize) -> WireResult<()> {
    debug_assert!(rdata_off + rdlen <= buf.len());
    let end = rdata_off + rdlen;
    let mut pos = rdata_off;
    while pos < end {
        if pos + 4 > end {
            return Err(WireError::Truncated {
                context: "OPT option header",
            });
        }
        let len = u16::from_be_bytes([buf[pos + 2], buf[pos + 3]]) as usize;
        if pos + 4 + len > end {
            return Err(WireError::Truncated {
                context: "OPT option data",
            });
        }
        pos += 4 + len;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// MsgRef: one message type for machines, borrowed or owned
// ---------------------------------------------------------------------------

/// A response message as delivered to a lookup machine: either an owned
/// [`Message`] (simulator, TCP side-pool, blocking driver) or a borrowed
/// [`MessageView`] over the receive arena (the reactor's UDP hot path).
///
/// Machines inspect it through the accessors below and *promote* — clone
/// records out — only what they actually keep.
#[derive(Debug)]
pub enum MsgRef<'a> {
    /// An owned, fully-decoded message.
    Owned(Message),
    /// A borrowed view over the raw datagram.
    View(MessageView<'a>),
}

impl From<Message> for MsgRef<'_> {
    fn from(m: Message) -> Self {
        MsgRef::Owned(m)
    }
}

impl<'a> From<MessageView<'a>> for MsgRef<'a> {
    fn from(v: MessageView<'a>) -> Self {
        MsgRef::View(v)
    }
}

impl<'a> MsgRef<'a> {
    /// Transaction id.
    pub fn id(&self) -> u16 {
        match self {
            MsgRef::Owned(m) => m.id,
            MsgRef::View(v) => v.id(),
        }
    }

    /// Header flag bits.
    pub fn flags(&self) -> Flags {
        match self {
            MsgRef::Owned(m) => m.flags,
            MsgRef::View(v) => v.flags(),
        }
    }

    /// Full response code (extended bits included).
    pub fn rcode(&self) -> Rcode {
        match self {
            MsgRef::Owned(m) => m.rcode(),
            MsgRef::View(v) => v.rcode(),
        }
    }

    /// The DNS cookie riding in the response's OPT record, if any.
    pub fn cookie(&self) -> Option<Cookie> {
        match self {
            MsgRef::Owned(m) => m.edns.as_ref().and_then(Edns::cookie),
            MsgRef::View(v) => v.cookie(),
        }
    }

    /// Records in the answer section.
    pub fn answer_count(&self) -> usize {
        match self {
            MsgRef::Owned(m) => m.answers.len(),
            MsgRef::View(v) => v.answer_count(),
        }
    }

    /// Iterate the answer section without promoting.
    pub fn answers(&self) -> RecordCursor<'_> {
        match self {
            MsgRef::Owned(m) => RecordCursor::Owned(m.answers.iter()),
            MsgRef::View(v) => RecordCursor::View(v.answers()),
        }
    }

    /// Iterate the authority section without promoting.
    pub fn authorities(&self) -> RecordCursor<'_> {
        match self {
            MsgRef::Owned(m) => RecordCursor::Owned(m.authorities.iter()),
            MsgRef::View(v) => RecordCursor::View(v.authorities()),
        }
    }

    /// Iterate the additional section without promoting.
    pub fn additionals(&self) -> RecordCursor<'_> {
        match self {
            MsgRef::Owned(m) => RecordCursor::Owned(m.additionals.iter()),
            MsgRef::View(v) => RecordCursor::View(v.additionals()),
        }
    }

    /// Promote the answer section to owned records. Records that fail to
    /// decode on the view path are skipped (the owned path rejected the
    /// whole datagram at decode time instead).
    pub fn answers_vec(&self) -> Vec<Record> {
        collect_records(self.answers())
    }

    /// Promote the authority section to owned records.
    pub fn authorities_vec(&self) -> Vec<Record> {
        collect_records(self.authorities())
    }

    /// Promote the additional section to owned records.
    pub fn additionals_vec(&self) -> Vec<Record> {
        collect_records(self.additionals())
    }

    /// Promote the whole message (used by `--trace` output).
    pub fn to_message(&self) -> WireResult<Message> {
        match self {
            MsgRef::Owned(m) => Ok(m.clone()),
            MsgRef::View(v) => v.to_message(),
        }
    }
}

fn collect_records(cursor: RecordCursor<'_>) -> Vec<Record> {
    cursor.filter_map(|r| r.to_record()).collect()
}

/// Iterator over one section of a [`MsgRef`], yielding [`RecordEntry`]s.
pub enum RecordCursor<'m> {
    /// Borrowing an owned message's section.
    Owned(std::slice::Iter<'m, Record>),
    /// Walking a borrowed view's section.
    View(RecordViews<'m>),
}

impl<'m> Iterator for RecordCursor<'m> {
    type Item = RecordEntry<'m>;

    fn next(&mut self) -> Option<RecordEntry<'m>> {
        match self {
            RecordCursor::Owned(it) => it.next().map(RecordEntry::Owned),
            RecordCursor::View(it) => it.next().map(RecordEntry::View),
        }
    }
}

/// One record of a [`MsgRef`] section — inspectable without promotion.
pub enum RecordEntry<'m> {
    /// A record of an owned message.
    Owned(&'m Record),
    /// A borrowed record view.
    View(RecordView<'m>),
}

impl RecordEntry<'_> {
    /// Record type.
    pub fn rtype(&self) -> RecordType {
        match self {
            RecordEntry::Owned(r) => r.rtype,
            RecordEntry::View(v) => v.rtype,
        }
    }

    /// Time to live.
    pub fn ttl(&self) -> u32 {
        match self {
            RecordEntry::Owned(r) => r.ttl,
            RecordEntry::View(v) => v.ttl,
        }
    }

    /// Case-insensitive owner-name comparison without materializing.
    pub fn name_eq(&self, name: &Name) -> bool {
        match self {
            RecordEntry::Owned(r) => r.name == *name,
            RecordEntry::View(v) => v.name().eq_name(name),
        }
    }

    /// The owner name, promoted (inline storage — usually allocation-free).
    pub fn owner(&self) -> Name {
        match self {
            RecordEntry::Owned(r) => r.name.clone(),
            RecordEntry::View(v) => v.name().to_name(),
        }
    }

    /// For A records, the address.
    pub fn a_addr(&self) -> Option<Ipv4Addr> {
        match self {
            RecordEntry::Owned(r) => match &r.rdata {
                RData::A(a) => Some(*a),
                _ => None,
            },
            RecordEntry::View(v) => v.a_addr(),
        }
    }

    /// For CNAME records, the target.
    pub fn cname_target(&self) -> Option<Name> {
        match self {
            RecordEntry::Owned(r) => match &r.rdata {
                RData::Cname(t) => Some(t.clone()),
                _ => None,
            },
            RecordEntry::View(v) if v.rtype == RecordType::CNAME => v.target_name(),
            RecordEntry::View(_) => None,
        }
    }

    /// For NS records, the nameserver host.
    pub fn ns_target(&self) -> Option<Name> {
        match self {
            RecordEntry::Owned(r) => match &r.rdata {
                RData::Ns(t) => Some(t.clone()),
                _ => None,
            },
            RecordEntry::View(v) if v.rtype == RecordType::NS => v.target_name(),
            RecordEntry::View(_) => None,
        }
    }

    /// Promote to an owned record. `None` if the record's RDATA fails to
    /// decode (view path only; see [`MsgRef::answers_vec`]).
    pub fn to_record(&self) -> Option<Record> {
        match self {
            RecordEntry::Owned(r) => Some((*r).clone()),
            RecordEntry::View(v) => v.to_record().ok(),
        }
    }
}

/// Minimum TTL across the answer section of an already-encoded message,
/// without promoting any record. `None` when the buffer fails to parse or
/// carries no answers. The serve-path packet cache derives an entry's
/// expiry deadline from the encoded response with this.
pub fn min_answer_ttl(msg: &[u8]) -> Option<u32> {
    let view = MessageView::parse(msg).ok()?;
    view.answers().map(|r| r.ttl).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;
    use crate::rtype::RecordType;

    fn referral() -> Message {
        let mut m = Message::query(
            0x1234,
            Question::new("www.Example.COM".parse().unwrap(), RecordType::A),
        );
        m.flags.response = true;
        for i in 0..4u8 {
            let ns: Name = format!("ns{i}.gtld.test").parse().unwrap();
            m.authorities.push(Record::new(
                "com".parse().unwrap(),
                172800,
                RData::Ns(ns.clone()),
            ));
            m.additionals.push(Record::new(
                ns,
                172800,
                RData::A(Ipv4Addr::new(192, 5, 6, 30 + i)),
            ));
        }
        m
    }

    #[test]
    fn view_matches_owned_decode() {
        let m = referral();
        let bytes = m.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.id(), m.id);
        assert_eq!(view.flags(), m.flags);
        assert_eq!(view.rcode(), m.rcode());
        assert_eq!(view.answer_count(), m.answers.len());
        let q = view.question().unwrap();
        assert!(q.name.eq_name(&m.questions[0].name));
        assert_eq!(q.to_question(), m.questions[0]);
        let auth: Vec<Record> = view.authorities().map(|r| r.to_record().unwrap()).collect();
        assert_eq!(auth, m.authorities);
        let add: Vec<Record> = view.additionals().map(|r| r.to_record().unwrap()).collect();
        assert_eq!(add, m.additionals);
        assert_eq!(view.to_message().unwrap(), m);
    }

    #[test]
    fn view_skips_opt_in_additionals_and_reads_extended_rcode() {
        let mut m = referral();
        m.rcode = crate::message::RcodeField(Rcode::BadVers);
        let bytes = m.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.rcode(), Rcode::BadVers);
        assert!(view.has_edns());
        assert_eq!(view.additionals().count(), m.additionals.len());
    }

    #[test]
    fn view_id_override_applies_to_promotion() {
        let m = referral();
        let bytes = m.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap().with_id(0xBEEF);
        assert_eq!(view.id(), 0xBEEF);
        assert_eq!(view.to_message().unwrap().id, 0xBEEF);
    }

    #[test]
    fn view_cookie_roundtrip() {
        let mut m = referral();
        let mut cookie_bytes = [0u8; 16];
        for (i, b) in cookie_bytes.iter_mut().enumerate() {
            *b = 0x40 + i as u8;
        }
        let cookie = Cookie::from_wire(&cookie_bytes).unwrap();
        m.edns.as_mut().unwrap().set_cookie(cookie);
        let bytes = m.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.cookie(), Some(cookie));
        let msg_ref = MsgRef::View(view);
        assert_eq!(msg_ref.cookie(), Some(cookie));
    }

    #[test]
    fn record_entry_accessors_agree_between_paths() {
        let m = referral();
        let bytes = m.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let owned_ref = MsgRef::Owned(m.clone());
        let view_ref = MsgRef::View(view);
        let com: Name = "com".parse().unwrap();
        for msg in [&owned_ref, &view_ref] {
            let mut ns_targets = Vec::new();
            for rec in msg.authorities() {
                assert_eq!(rec.rtype(), RecordType::NS);
                assert!(rec.name_eq(&com));
                assert_eq!(rec.owner(), com);
                ns_targets.push(rec.ns_target().unwrap());
            }
            assert_eq!(ns_targets.len(), 4);
            let addrs: Vec<Ipv4Addr> = msg.additionals().filter_map(|r| r.a_addr()).collect();
            assert_eq!(addrs.len(), 4);
        }
        assert_eq!(owned_ref.authorities_vec(), view_ref.authorities_vec());
        assert_eq!(owned_ref.additionals_vec(), view_ref.additionals_vec());
    }

    #[test]
    fn parse_arbitrary_prefix_never_panics() {
        let m = referral();
        let bytes = m.encode().unwrap();
        for cut in 0..bytes.len() {
            let view = MessageView::parse(&bytes[..cut]);
            let owned = Message::decode(&bytes[..cut]);
            // Structural acceptance matches the owned decoder exactly.
            assert_eq!(view.is_ok(), owned.is_ok(), "cut {cut}");
        }
    }

    #[test]
    fn records_over_an_unvalidated_buffer_never_panic() {
        // `RecordViews::over` and `NameRef::at` take any bytes: every cut
        // and every single-octet corruption of a real message, read from
        // every offset, must end in `None`s and short names, not panics.
        let bytes = referral().encode().unwrap();
        let mut cases: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for at in 0..bytes.len() {
            for poison in [0x00, 0x3F, 0x40, 0xC0, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[at] = poison;
                cases.push(corrupt);
            }
        }
        for buf in &cases {
            for start in [0, 12, 33, buf.len()] {
                for record in RecordViews::over(buf, start, 64) {
                    let owner = record.name();
                    let _ = (owner.to_name(), owner.wire_bytes(), owner.label_count());
                    let _ = (record.target_name(), record.a_addr(), record.to_record());
                    assert!(record.wire_bytes().ends_with(record.body_bytes()));
                }
                let name = NameRef::at(buf, start);
                let _ = (name.to_name(), name.wire_bytes(), name.is_root());
            }
        }
    }

    #[test]
    fn view_rejects_nonroot_opt_like_owned_decode() {
        use crate::buffer::WireWriter;
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
        assert!(MessageView::parse(&bytes).is_err());
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn malformed_rdata_rejected_like_owned_decode() {
        // A CNAME answer whose RDATA is a forward compression pointer:
        // structurally sized correctly (RDLENGTH=2) but undecodable. The
        // owned decoder rejects the datagram; the view sweep must too —
        // otherwise the reactor's view path would complete lookups on
        // responses the owned path retries.
        use crate::buffer::WireWriter;
        let mut w = WireWriter::new();
        Header {
            id: 7,
            flags: Flags {
                response: true,
                ..Flags::default()
            },
            ancount: 1,
            ..Header::default()
        }
        .encode(&mut w)
        .unwrap();
        let owner: Name = "alias.example".parse().unwrap();
        w.write_name(&owner).unwrap();
        w.write_u16(RecordType::CNAME.to_u16()).unwrap();
        w.write_u16(1).unwrap(); // class IN
        w.write_u32(300).unwrap();
        w.write_u16(2).unwrap(); // RDLENGTH
        w.write_u8(0xC0).unwrap(); // pointer to offset 0x3FFF: forward/garbage
        w.write_u8(0xFF).unwrap();
        let bytes = w.finish();
        assert!(Message::decode(&bytes).is_err());
        assert!(MessageView::parse(&bytes).is_err());

        // Same shape with a bad A record length: RDLENGTH=2 for an A.
        let mut w = WireWriter::new();
        Header {
            id: 8,
            ancount: 1,
            ..Header::default()
        }
        .encode(&mut w)
        .unwrap();
        w.write_name(&owner).unwrap();
        w.write_u16(RecordType::A.to_u16()).unwrap();
        w.write_u16(1).unwrap();
        w.write_u32(300).unwrap();
        w.write_u16(2).unwrap();
        w.write_u16(0xDEAD).unwrap();
        let bytes = w.finish();
        assert!(Message::decode(&bytes).is_err());
        assert!(MessageView::parse(&bytes).is_err());
    }

    #[test]
    fn cname_target_follows_compression() {
        let mut m = Message::query(
            9,
            Question::new("alias.example.com".parse().unwrap(), RecordType::A),
        );
        m.flags.response = true;
        m.answers.push(Record::new(
            "alias.example.com".parse().unwrap(),
            300,
            RData::Cname("real.example.com".parse().unwrap()),
        ));
        let bytes = m.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let entry = view.answers().next().unwrap();
        assert_eq!(
            entry.target_name().unwrap(),
            "real.example.com".parse::<Name>().unwrap()
        );
    }
}
