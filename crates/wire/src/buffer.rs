//! Low-level wire reader/writer.
//!
//! `WireReader` walks a received datagram. [`ScratchBuf`] builds one (or
//! several, back to back): it is the reusable, allocation-free-in-steady-state
//! encode buffer the whole message lifecycle writes through, and it owns the
//! name-compression table (RFC 1035 §4.1.4) because compression offsets are a
//! property of the message being assembled, not of any one name. `WireWriter`
//! is a thin convenience wrapper for one-shot encodes that returns an owned
//! `Vec<u8>`.

use crate::error::{WireError, WireResult};
use crate::name::{Name, NameBuilder};

/// Maximum size of a DNS message we will encode (TCP limit; UDP is smaller).
pub const MAX_MESSAGE_SIZE: usize = u16::MAX as usize;

/// Cursor over a received message.
///
/// All reads are bounds-checked; decoding arbitrary bytes must never panic.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a datagram for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current read offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Total message length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reposition the cursor (used when following compression pointers).
    pub fn seek(&mut self, pos: usize) -> WireResult<()> {
        if pos > self.buf.len() {
            return Err(WireError::BadPointer { target: pos });
        }
        self.pos = pos;
        Ok(())
    }

    /// Read a single octet.
    pub fn read_u8(&mut self, context: &'static str) -> WireResult<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::Truncated { context })?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn read_u16(&mut self, context: &'static str) -> WireResult<u16> {
        let bytes = self.read_bytes(2, context)?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Read a big-endian u32.
    pub fn read_u32(&mut self, context: &'static str) -> WireResult<u32> {
        let bytes = self.read_bytes(4, context)?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Read a big-endian u48 (used by TSIG timestamps).
    pub fn read_u48(&mut self, context: &'static str) -> WireResult<u64> {
        let b = self.read_bytes(6, context)?;
        Ok(u64::from(b[0]) << 40
            | u64::from(b[1]) << 32
            | u64::from(b[2]) << 24
            | u64::from(b[3]) << 16
            | u64::from(b[4]) << 8
            | u64::from(b[5]))
    }

    /// Read a big-endian u64.
    pub fn read_u64(&mut self, context: &'static str) -> WireResult<u64> {
        let b = self.read_bytes(8, context)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an exact number of raw octets.
    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Truncated { context })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated { context });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a `<character-string>`: one length octet then that many octets.
    pub fn read_char_string(&mut self, context: &'static str) -> WireResult<Vec<u8>> {
        let len = self.read_u8(context)? as usize;
        Ok(self.read_bytes(len, context)?.to_vec())
    }

    /// Read a (possibly compressed) domain name starting at the cursor.
    ///
    /// The cursor ends just past the name as it appears *at this position*
    /// (i.e. after the pointer, if one was used). Pointer chains are limited
    /// and must strictly move backwards, which makes loops impossible.
    /// Labels are assembled on the stack — one short name costs zero heap
    /// allocations.
    pub fn read_name(&mut self) -> WireResult<Name> {
        let mut builder = NameBuilder::new();
        let mut pos = self.pos;
        // Position to restore after the name read at the original location.
        let mut resume: Option<usize> = None;
        // A name can contain at most 127 labels; allow some pointer hops too.
        let mut hops = 0usize;
        loop {
            let len_byte = *self.buf.get(pos).ok_or(WireError::Truncated {
                context: "name label",
            })?;
            match len_byte & 0b1100_0000 {
                0b0000_0000 => {
                    let len = len_byte as usize;
                    if len == 0 {
                        pos += 1;
                        if resume.is_none() {
                            self.pos = pos;
                        }
                        break;
                    }
                    if len > crate::name::MAX_LABEL_LEN {
                        return Err(WireError::LabelTooLong(len));
                    }
                    let start = pos + 1;
                    let end = start + len;
                    if end > self.buf.len() {
                        return Err(WireError::Truncated {
                            context: "name label body",
                        });
                    }
                    if builder.wire_len() + len + 1 > crate::name::MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(builder.wire_len() + len + 1));
                    }
                    builder.push(&self.buf[start..end])?;
                    pos = end;
                }
                0b1100_0000 => {
                    let second = *self.buf.get(pos + 1).ok_or(WireError::Truncated {
                        context: "compression pointer",
                    })?;
                    let target = ((len_byte as usize & 0x3f) << 8) | second as usize;
                    // Pointers must reference earlier data; equal-or-later
                    // targets would allow loops.
                    if target >= pos {
                        return Err(WireError::BadPointer { target });
                    }
                    if resume.is_none() {
                        resume = Some(pos + 2);
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
        if let Some(r) = resume {
            self.pos = r;
        }
        Ok(builder.finish())
    }
}

/// One entry of the reusable compression table: the FNV hash of the
/// lowercased label-suffix, and the suffix's offset relative to the start
/// of the message being assembled.
#[derive(Debug, Clone, Copy)]
struct CompressEntry {
    hash: u32,
    offset: u16,
}

/// A reusable, growable encode buffer with a name-compression table.
///
/// In the steady state — after it has grown to the size of the largest
/// message it has carried — encoding through a `ScratchBuf` performs **zero
/// heap allocations**: the byte buffer and the compression table both retain
/// their capacity across [`ScratchBuf::reset`] / [`ScratchBuf::begin_message`].
///
/// Several messages can be encoded back to back into one buffer (the
/// reactor's per-flush send arena does exactly this): [`ScratchBuf::begin_message`]
/// marks a new message start, and compression offsets are always relative to
/// that start, so pointers stay valid when the message is sent on its own.
#[derive(Debug, Default)]
pub struct ScratchBuf {
    buf: Vec<u8>,
    /// Start of the message currently being assembled.
    base: usize,
    /// Compression entries for the current message only.
    compress: Vec<CompressEntry>,
}

impl ScratchBuf {
    /// New empty scratch buffer.
    pub fn new() -> ScratchBuf {
        ScratchBuf {
            buf: Vec::with_capacity(512),
            base: 0,
            compress: Vec::new(),
        }
    }

    /// Drop all content (capacity is retained) and start over at offset 0.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.compress.clear();
        self.base = 0;
    }

    /// Mark the start of a new message at the current write position and
    /// return its offset. Compression state from the previous message is
    /// discarded — pointers never cross message boundaries.
    pub fn begin_message(&mut self) -> usize {
        self.base = self.buf.len();
        self.compress.clear();
        self.base
    }

    /// Offset where the current message starts.
    pub fn message_start(&self) -> usize {
        self.base
    }

    /// The bytes of the message currently being assembled.
    pub fn message_bytes(&self) -> &[u8] {
        &self.buf[self.base..]
    }

    /// Roll the current message back entirely (after a failed encode).
    pub fn abort_message(&mut self) {
        self.buf.truncate(self.base);
        self.compress.clear();
    }

    /// Total bytes written (across all messages in the buffer).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// View of all bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the buffer's contents, leaving it empty (capacity is *not*
    /// retained — this is the one-shot [`WireWriter::finish`] path).
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.base = 0;
        self.compress.clear();
        std::mem::take(&mut self.buf)
    }

    fn ensure_capacity(&mut self, extra: usize) -> WireResult<()> {
        let total = self.buf.len() - self.base + extra;
        if total > MAX_MESSAGE_SIZE {
            return Err(WireError::MessageTooLong(total));
        }
        Ok(())
    }

    /// Append a single octet.
    pub fn write_u8(&mut self, v: u8) -> WireResult<()> {
        self.ensure_capacity(1)?;
        self.buf.push(v);
        Ok(())
    }

    /// Append a big-endian u16.
    pub fn write_u16(&mut self, v: u16) -> WireResult<()> {
        self.ensure_capacity(2)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Append a big-endian u32.
    pub fn write_u32(&mut self, v: u32) -> WireResult<()> {
        self.ensure_capacity(4)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Append a big-endian u48.
    pub fn write_u48(&mut self, v: u64) -> WireResult<()> {
        self.ensure_capacity(6)?;
        self.buf.extend_from_slice(&v.to_be_bytes()[2..8]);
        Ok(())
    }

    /// Append a big-endian u64.
    pub fn write_u64(&mut self, v: u64) -> WireResult<()> {
        self.ensure_capacity(8)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Append raw octets.
    pub fn write_bytes(&mut self, v: &[u8]) -> WireResult<()> {
        self.ensure_capacity(v.len())?;
        self.buf.extend_from_slice(v);
        Ok(())
    }

    /// Append a `<character-string>` (length octet + data, max 255).
    pub fn write_char_string(&mut self, v: &[u8]) -> WireResult<()> {
        if v.len() > 255 {
            return Err(WireError::CharStringTooLong(v.len()));
        }
        self.write_u8(v.len() as u8)?;
        self.write_bytes(v)
    }

    /// Overwrite two bytes at absolute position `pos` with a big-endian u16
    /// (used to patch RDLENGTH after the RDATA is known).
    pub fn patch_u16(&mut self, pos: usize, v: u16) {
        debug_assert!(pos + 2 <= self.buf.len());
        self.buf[pos..pos + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Overwrite `v.len()` bytes at absolute position `pos` (the serve
    /// path lays a client's own question spelling over a memoized reply).
    pub fn patch_bytes(&mut self, pos: usize, v: &[u8]) {
        debug_assert!(pos + v.len() <= self.buf.len());
        self.buf[pos..pos + v.len()].copy_from_slice(v);
    }

    /// Write a name, compressing against previously written names of the
    /// current message.
    pub fn write_name(&mut self, name: &Name) -> WireResult<()> {
        let storage = name.storage_bytes();
        let mut pos = 0usize;
        while pos < storage.len() {
            let suffix = &storage[pos..];
            let hash = fnv_lower(suffix);
            if let Some(off) = self.find_suffix(hash, suffix) {
                return self.write_u16(0xC000 | off);
            }
            let here = self.buf.len() - self.base;
            // Offsets beyond 0x3FFF cannot be pointer targets.
            if here <= 0x3FFF {
                self.compress.push(CompressEntry {
                    hash,
                    offset: here as u16,
                });
            }
            let label_end = pos + 1 + storage[pos] as usize;
            self.write_bytes(&storage[pos..label_end])?;
            pos = label_end;
        }
        self.write_u8(0)
    }

    /// Write a name without compression (required inside RDATA of types
    /// unknown to compressing resolvers, per RFC 3597): its labels as
    /// stored, then the root octet. Such a name is no compression target
    /// for later ones either.
    pub fn write_name_uncompressed(&mut self, name: &Name) -> WireResult<()> {
        self.write_bytes(name.storage_bytes())?;
        self.write_u8(0)
    }

    /// Look for an already-written name suffix equal (case-insensitively)
    /// to `suffix` (length-prefixed label storage). The hash prefilter makes
    /// the scan cheap; a hit is confirmed by walking the encoded labels.
    fn find_suffix(&self, hash: u32, suffix: &[u8]) -> Option<u16> {
        for entry in &self.compress {
            if entry.hash == hash && self.encoded_matches(entry.offset as usize, suffix) {
                return Some(entry.offset);
            }
        }
        None
    }

    /// Compare the encoded (possibly pointer-continued) name at
    /// message-relative `off` against `suffix` storage.
    fn encoded_matches(&self, off: usize, suffix: &[u8]) -> bool {
        let msg = &self.buf[self.base..];
        let mut pos = off;
        let mut s = 0usize;
        let mut hops = 0usize;
        loop {
            let Some(&len_byte) = msg.get(pos) else {
                return false;
            };
            match len_byte & 0b1100_0000 {
                0b0000_0000 => {
                    let len = len_byte as usize;
                    if len == 0 {
                        return s == suffix.len();
                    }
                    if s >= suffix.len() || suffix[s] as usize != len {
                        return false;
                    }
                    let Some(enc) = msg.get(pos + 1..pos + 1 + len) else {
                        return false;
                    };
                    let want = &suffix[s + 1..s + 1 + len];
                    if !enc.eq_ignore_ascii_case(want) {
                        return false;
                    }
                    pos += 1 + len;
                    s += 1 + len;
                }
                0b1100_0000 => {
                    let Some(&second) = msg.get(pos + 1) else {
                        return false;
                    };
                    let target = ((len_byte as usize & 0x3f) << 8) | second as usize;
                    if target >= pos {
                        return false;
                    }
                    hops += 1;
                    if hops > 126 {
                        return false;
                    }
                    pos = target;
                }
                _ => return false,
            }
        }
    }
}

/// FNV-1a over ASCII-lowercased bytes — the compression table's prefilter.
fn fnv_lower(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= b.to_ascii_lowercase() as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Growable output buffer for one-shot encodes: a [`ScratchBuf`] that hands
/// its bytes back as an owned `Vec<u8>`. Prefer borrowing a long-lived
/// `ScratchBuf` on hot paths.
#[derive(Debug, Default)]
pub struct WireWriter {
    inner: ScratchBuf,
}

impl WireWriter {
    /// New writer with compression enabled.
    pub fn new() -> Self {
        WireWriter {
            inner: ScratchBuf::new(),
        }
    }

    /// Consume the writer, returning the encoded message.
    pub fn finish(mut self) -> Vec<u8> {
        self.inner.take_bytes()
    }
}

impl std::ops::Deref for WireWriter {
    type Target = ScratchBuf;

    fn deref(&self) -> &ScratchBuf {
        &self.inner
    }
}

impl std::ops::DerefMut for WireWriter {
    fn deref_mut(&mut self) -> &mut ScratchBuf {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_bounds_checked() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.read_u16("t").unwrap(), 0x0102);
        assert!(matches!(r.read_u8("t"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn u48_roundtrip() {
        let mut w = WireWriter::new();
        w.write_u48(0x0000_1234_5678_9ABC).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u48("t").unwrap(), 0x0000_1234_5678_9ABC);
    }

    #[test]
    fn char_string_roundtrip() {
        let mut w = WireWriter::new();
        w.write_char_string(b"v=spf1 -all").unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_char_string("t").unwrap(), b"v=spf1 -all");
    }

    #[test]
    fn char_string_too_long_rejected() {
        let mut w = WireWriter::new();
        let big = vec![b'a'; 256];
        assert!(matches!(
            w.write_char_string(&big),
            Err(WireError::CharStringTooLong(256))
        ));
    }

    #[test]
    fn name_compression_produces_pointer() {
        let mut w = WireWriter::new();
        let a: Name = "mail.example.com".parse().unwrap();
        let b: Name = "example.com".parse().unwrap();
        w.write_name(&a).unwrap();
        let before = w.len();
        w.write_name(&b).unwrap();
        // Second name is a bare 2-byte pointer to the suffix of the first.
        assert_eq!(w.len() - before, 2);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), b);
    }

    #[test]
    fn name_compression_is_case_insensitive() {
        let mut w = WireWriter::new();
        let a: Name = "mail.EXAMPLE.com".parse().unwrap();
        let b: Name = "example.COM".parse().unwrap();
        w.write_name(&a).unwrap();
        let before = w.len();
        w.write_name(&b).unwrap();
        assert_eq!(w.len() - before, 2);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), b);
    }

    #[test]
    fn compression_never_crosses_message_boundaries() {
        let mut s = ScratchBuf::new();
        let a: Name = "mail.example.com".parse().unwrap();
        s.begin_message();
        s.write_name(&a).unwrap();
        let first_len = s.len();
        let second = s.begin_message();
        s.write_name(&a).unwrap();
        // The second message must re-emit the full name, not point into
        // the first message.
        assert_eq!(s.len() - second, first_len);
        let mut r = WireReader::new(&s.as_slice()[second..]);
        assert_eq!(r.read_name().unwrap(), a);
    }

    #[test]
    fn scratch_reuse_keeps_capacity_and_resets_content() {
        let mut s = ScratchBuf::new();
        let a: Name = "a.example.com".parse().unwrap();
        s.begin_message();
        s.write_name(&a).unwrap();
        let len = s.len();
        s.reset();
        assert!(s.is_empty());
        s.begin_message();
        s.write_name(&a).unwrap();
        assert_eq!(s.len(), len);
    }

    #[test]
    fn abort_message_rolls_back() {
        let mut s = ScratchBuf::new();
        s.write_u16(0xAAAA).unwrap();
        let base = s.begin_message();
        s.write_u32(0xDEAD_BEEF).unwrap();
        s.abort_message();
        assert_eq!(s.len(), base);
        assert_eq!(s.as_slice(), &[0xAA, 0xAA]);
    }

    #[test]
    fn forward_pointer_rejected() {
        // A pointer to its own offset would loop forever.
        let buf = [0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.read_name(), Err(WireError::BadPointer { .. })));
    }

    #[test]
    fn unsupported_label_type_rejected() {
        let buf = [0b1000_0001, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            r.read_name(),
            Err(WireError::UnsupportedLabelType(_))
        ));
    }
}
