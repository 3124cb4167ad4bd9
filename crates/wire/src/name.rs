//! Domain names.
//!
//! `Name` stores the label sequence exactly as received (case preserved for
//! display) but compares, hashes, and compresses case-insensitively, as DNS
//! requires (RFC 1035 §2.3.3, RFC 4343).
//!
//! Storage is a single contiguous run of length-prefixed labels (the wire
//! form minus the trailing root octet), kept inline for names up to
//! [`INLINE_NAME_LEN`] octets and spilled to one heap allocation only for
//! longer names. Cloning, hashing, comparing, and slicing (`parent`,
//! `suffix`) are therefore allocation-free for virtually every real-world
//! name — the property the resolver's cache keys and per-query encode path
//! rely on.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use crate::error::{WireError, WireResult};

/// Maximum octets in a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum octets of a name on the wire (labels + length octets + root).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum octets of label storage (wire form minus the root octet).
const MAX_STORAGE: usize = MAX_NAME_LEN - 1;
/// Names whose label storage fits in this many octets stay inline (no heap
/// allocation at all). 54 octets covers e.g. a 52-character hostname.
pub const INLINE_NAME_LEN: usize = 54;
/// A name has at most 127 labels (each label costs ≥ 2 wire octets).
const MAX_LABELS: usize = 127;
/// Longest text form of a name: a storage octet prints as at most four
/// characters (`\DDD`).
pub const MAX_TEXT_LEN: usize = 4 * MAX_STORAGE;

#[derive(Clone)]
enum Storage {
    Inline {
        len: u8,
        data: [u8; INLINE_NAME_LEN],
    },
    Heap(Box<[u8]>),
}

/// A fully-qualified domain name as an ordered sequence of labels
/// (most-specific first; the root is the empty sequence).
#[derive(Clone)]
pub struct Name {
    /// Number of labels (0 for the root).
    count: u8,
    storage: Storage,
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

impl Name {
    /// The DNS root (`.`).
    pub fn root() -> Self {
        Name {
            count: 0,
            storage: Storage::Inline {
                len: 0,
                data: [0u8; INLINE_NAME_LEN],
            },
        }
    }

    /// Build from validated, length-prefixed label storage.
    pub(crate) fn from_storage(bytes: &[u8], count: usize) -> Name {
        debug_assert!(bytes.len() <= MAX_STORAGE && count <= MAX_LABELS);
        if bytes.len() <= INLINE_NAME_LEN {
            let mut data = [0u8; INLINE_NAME_LEN];
            data[..bytes.len()].copy_from_slice(bytes);
            Name {
                count: count as u8,
                storage: Storage::Inline {
                    len: bytes.len() as u8,
                    data,
                },
            }
        } else {
            Name {
                count: count as u8,
                storage: Storage::Heap(bytes.into()),
            }
        }
    }

    /// The raw length-prefixed label storage (wire form minus the root).
    #[inline]
    pub(crate) fn storage_bytes(&self) -> &[u8] {
        match &self.storage {
            Storage::Inline { len, data } => &data[..*len as usize],
            Storage::Heap(b) => b,
        }
    }

    /// Build from raw labels, validating length limits.
    pub fn from_labels<I, L>(labels: I) -> WireResult<Self>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut buf = [0u8; MAX_STORAGE];
        let mut len = 0usize;
        let mut count = 0usize;
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() || l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(l.len()));
            }
            if len + 1 + l.len() > MAX_STORAGE || count >= MAX_LABELS {
                return Err(WireError::NameTooLong(len + 1 + l.len() + 1));
            }
            buf[len] = l.len() as u8;
            buf[len + 1..len + 1 + l.len()].copy_from_slice(l);
            len += 1 + l.len();
            count += 1;
        }
        Ok(Name::from_storage(&buf[..len], count))
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> LabelIter<'_> {
        LabelIter {
            rest: self.storage_bytes(),
            remaining: self.count as usize,
        }
    }

    /// The `i`-th label (0 = most specific), if present.
    pub fn label(&self, i: usize) -> Option<&[u8]> {
        self.labels().nth(i)
    }

    /// Byte offset of each label's length octet within the storage.
    /// Returns the number of labels written into `out`.
    fn label_offsets(&self, out: &mut [u8; MAX_LABELS]) -> usize {
        let bytes = self.storage_bytes();
        let mut pos = 0usize;
        let mut n = 0usize;
        while pos < bytes.len() && n < MAX_LABELS {
            out[n] = pos as u8;
            n += 1;
            pos += 1 + bytes[pos] as usize;
        }
        n
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.count as usize
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.count == 0
    }

    /// Octets this name occupies on the wire, uncompressed.
    pub fn wire_len(&self) -> usize {
        self.storage_bytes().len() + 1
    }

    /// Byte-exact comparison, unlike `Eq`/`Hash` which are
    /// case-insensitive per RFC 1035. `Name` preserves the spelling it was
    /// built with, and spelling is data (a DNS response must echo the
    /// client's question exactly: 0x20 mixed-case is a real-world spoofing
    /// defence) — the record cache stores an owner as a pointer to its
    /// key only when this holds, so every name reads back as it went in.
    #[inline]
    pub fn eq_exact_case(&self, other: &Name) -> bool {
        self.storage_bytes() == other.storage_bytes()
    }

    /// The name with the most-specific label removed (`www.example.com` →
    /// `example.com`); the root's parent is the root.
    pub fn parent(&self) -> Name {
        let bytes = self.storage_bytes();
        if bytes.is_empty() {
            return Name::root();
        }
        let first = 1 + bytes[0] as usize;
        Name::from_storage(&bytes[first..], self.count as usize - 1)
    }

    /// Prepend a label (`example.com`.child("www") → `www.example.com`).
    pub fn child(&self, label: &str) -> WireResult<Name> {
        let l = label.as_bytes();
        if l.is_empty() || l.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(l.len()));
        }
        let bytes = self.storage_bytes();
        let total = 1 + l.len() + bytes.len();
        if total > MAX_STORAGE || self.count as usize >= MAX_LABELS {
            return Err(WireError::NameTooLong(total + 1));
        }
        let mut buf = [0u8; MAX_STORAGE];
        buf[0] = l.len() as u8;
        buf[1..1 + l.len()].copy_from_slice(l);
        buf[1 + l.len()..total].copy_from_slice(bytes);
        Ok(Name::from_storage(&buf[..total], self.count as usize + 1))
    }

    /// True if `self` equals `other` or is beneath it
    /// (`www.example.com`.is_subdomain_of(`example.com`) == true).
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.count > self.count {
            return false;
        }
        let skip = (self.count - other.count) as usize;
        let mut offs = [0u8; MAX_LABELS];
        let n = self.label_offsets(&mut offs);
        let start = if skip == 0 {
            0
        } else if skip >= n {
            self.storage_bytes().len()
        } else {
            offs[skip] as usize
        };
        self.storage_bytes()[start..].eq_ignore_ascii_case(other.storage_bytes())
    }

    /// Keep only the last `n` labels (`a.b.example.com`.suffix(2) →
    /// `example.com`).
    pub fn suffix(&self, n: usize) -> Name {
        let n = n.min(self.count as usize);
        let skip = self.count as usize - n;
        if skip == 0 {
            return self.clone();
        }
        let mut offs = [0u8; MAX_LABELS];
        let total = self.label_offsets(&mut offs);
        let start = if skip >= total {
            self.storage_bytes().len()
        } else {
            offs[skip] as usize
        };
        Name::from_storage(&self.storage_bytes()[start..], n)
    }

    /// Lowercased dotted string without the trailing dot (root → `"."`).
    pub fn to_ascii_lower(&self) -> String {
        self.lower_text(&mut [0; MAX_TEXT_LEN]).to_string()
    }

    /// The text [`Name::to_ascii_lower`] returns, written into `buf`
    /// instead of a new `String`.
    pub fn lower_text<'b>(&self, buf: &'b mut [u8; MAX_TEXT_LEN]) -> &'b str {
        if self.is_root() {
            buf[0] = b'.';
            return std::str::from_utf8(&buf[..1]).expect("ASCII");
        }
        self.text(true, buf)
    }

    /// The dotted text of a non-root name, written into `buf` in one pass
    /// over the storage: each length octet but the first becomes a `.`,
    /// `.` and `\` inside a label are escaped, and octets outside printable
    /// ASCII take the RFC 4343 `\DDD` form, so malformed labels survive a
    /// round trip through text.
    fn text<'b>(&self, lowercase: bool, buf: &'b mut [u8; MAX_TEXT_LEN]) -> &'b str {
        let bytes = self.storage_bytes();
        let (mut pos, mut len) = (0, 0);
        while pos < bytes.len() {
            let end = pos + 1 + bytes[pos] as usize;
            if pos > 0 {
                buf[len] = b'.';
                len += 1;
            }
            for &b in &bytes[pos + 1..end] {
                let b = if lowercase { b.to_ascii_lowercase() } else { b };
                match b {
                    b'.' | b'\\' => {
                        buf[len..len + 2].copy_from_slice(&[b'\\', b]);
                        len += 2;
                    }
                    0x21..=0x7E => {
                        buf[len] = b;
                        len += 1;
                    }
                    _ => {
                        let digits = [b / 100, b / 10 % 10, b % 10].map(|d| b'0' + d);
                        buf[len] = b'\\';
                        buf[len + 1..len + 4].copy_from_slice(&digits);
                        len += 4;
                    }
                }
            }
            pos = end;
        }
        std::str::from_utf8(&buf[..len]).expect("name text is ASCII")
    }

    /// Append the name's `Display` text (`.` for the root) to `out` as the
    /// contents of a JSON string, in the same one pass over the storage,
    /// with no text buffer between: each `\` the text prints is doubled
    /// and a `"` escaped. Every other octet of that text is printable
    /// ASCII, which JSON takes as it is.
    pub fn write_json_text(&self, out: &mut String) {
        if self.is_root() {
            out.push('.');
            return;
        }
        let bytes = self.storage_bytes();
        out.reserve(bytes.len());
        let mut pos = 0;
        while pos < bytes.len() {
            let label = &bytes[pos + 1..pos + 1 + bytes[pos] as usize];
            if pos > 0 {
                out.push('.');
            }
            let mut run = 0;
            for (at, &b) in label.iter().enumerate() {
                if matches!(b, 0x21..=0x7E) && !matches!(b, b'.' | b'\\' | b'"') {
                    continue;
                }
                out.push_str(std::str::from_utf8(&label[run..at]).expect("printable ASCII"));
                run = at + 1;
                match b {
                    b'.' => out.push_str("\\\\."),
                    b'\\' => out.push_str("\\\\\\\\"),
                    b'"' => out.push_str("\\\""),
                    _ => {
                        out.push_str("\\\\");
                        for digit in [b / 100, b / 10 % 10, b % 10] {
                            out.push(char::from(b'0' + digit));
                        }
                    }
                }
            }
            out.push_str(std::str::from_utf8(&label[run..]).expect("printable ASCII"));
            pos += 1 + label.len();
        }
    }

    /// The reverse-DNS name for an IPv4 address
    /// (`192.0.2.1` → `1.2.0.192.in-addr.arpa`).
    pub fn reverse_ipv4(addr: Ipv4Addr) -> Name {
        let o = addr.octets();
        let text = format!("{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0]);
        text.parse().expect("reverse name is always valid")
    }

    /// The reverse-DNS name for an IPv6 address (nibble format under
    /// `ip6.arpa`).
    pub fn reverse_ipv6(addr: Ipv6Addr) -> Name {
        let mut parts: Vec<String> = Vec::with_capacity(34);
        for byte in addr.octets().iter().rev() {
            parts.push(format!("{:x}", byte & 0x0f));
            parts.push(format!("{:x}", byte >> 4));
        }
        parts.push("ip6".into());
        parts.push("arpa".into());
        parts
            .join(".")
            .parse()
            .expect("reverse name is always valid")
    }
}

/// A builder that assembles a `Name` label by label on the stack — the
/// allocation-free path wire decoding ([`crate::WireReader::read_name`])
/// and the borrowed view decoder use.
#[derive(Debug)]
pub(crate) struct NameBuilder {
    buf: [u8; MAX_STORAGE],
    len: usize,
    count: usize,
}

impl NameBuilder {
    pub(crate) fn new() -> NameBuilder {
        NameBuilder {
            buf: [0u8; MAX_STORAGE],
            len: 0,
            count: 0,
        }
    }

    /// Append one label, enforcing the label and name limits.
    pub(crate) fn push(&mut self, label: &[u8]) -> WireResult<()> {
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        if self.len + 1 + label.len() > MAX_STORAGE || self.count >= MAX_LABELS {
            return Err(WireError::NameTooLong(self.len + label.len() + 2));
        }
        self.buf[self.len] = label.len() as u8;
        self.buf[self.len + 1..self.len + 1 + label.len()].copy_from_slice(label);
        self.len += 1 + label.len();
        self.count += 1;
        Ok(())
    }

    /// Wire octets consumed so far (including the pending root octet).
    pub(crate) fn wire_len(&self) -> usize {
        self.len + 1
    }

    pub(crate) fn finish(&self) -> Name {
        Name::from_storage(&self.buf[..self.len], self.count)
    }
}

#[inline]
fn label_at(bytes: &[u8], off: usize) -> &[u8] {
    let len = bytes[off] as usize;
    &bytes[off + 1..off + 1 + len]
}

/// Iterator over a name's labels, most-specific first.
#[derive(Debug, Clone)]
pub struct LabelIter<'a> {
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        let len = self.rest[0] as usize;
        let label = &self.rest[1..1 + len];
        self.rest = &self.rest[1 + len..];
        self.remaining = self.remaining.saturating_sub(1);
        Some(label)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for LabelIter<'_> {}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Length octets are < 64, so ASCII lowercasing never touches them
        // and the whole storage can be compared in one pass.
        self.count == other.count
            && self
                .storage_bytes()
                .eq_ignore_ascii_case(other.storage_bytes())
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Same one-pass trick as `eq`: lowercasing leaves length octets
        // (< 64) unchanged, so hashing the lowercased storage hashes
        // `len, label-bytes` pairs exactly as the old per-label loop did.
        for &b in self.storage_bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences from
    /// the root down, case-insensitively.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let mut a_offs = [0u8; MAX_LABELS];
        let mut b_offs = [0u8; MAX_LABELS];
        let an = self.label_offsets(&mut a_offs);
        let bn = other.label_offsets(&mut b_offs);
        let a = self.storage_bytes();
        let b = other.storage_bytes();
        for i in 0..an.min(bn) {
            let la = label_at(a, a_offs[an - 1 - i] as usize);
            let lb = label_at(b, b_offs[bn - 1 - i] as usize);
            for j in 0..la.len().min(lb.len()) {
                match la[j].to_ascii_lowercase().cmp(&lb[j].to_ascii_lowercase()) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            match la.len().cmp(&lb.len()) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        an.cmp(&bn)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        f.write_str(self.text(false, &mut [0; MAX_TEXT_LEN]))
    }
}

impl FromStr for Name {
    type Err = WireError;

    /// Parse a dotted name. Accepts an optional trailing dot; `.` and the
    /// empty string are the root. Supports `\.`, `\\`, and `\DDD` escapes.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        // Strip one trailing root dot, but only if it is not escaped
        // (an odd number of preceding backslashes means `\.` is data).
        let s = match s.strip_suffix('.') {
            Some(head) => {
                let trailing_backslashes = head.bytes().rev().take_while(|&b| b == b'\\').count();
                if trailing_backslashes % 2 == 0 {
                    head
                } else {
                    s
                }
            }
            None => s,
        };
        let mut builder = NameBuilder::new();
        let mut current = [0u8; MAX_LABEL_LEN + 1];
        let mut cur_len = 0usize;
        let push_byte = |current: &mut [u8], cur_len: &mut usize, b: u8| {
            // One slot of slack: the overflow is caught by `push` below.
            if *cur_len < current.len() {
                current[*cur_len] = b;
            }
            *cur_len += 1;
        };
        let mut chars = s.bytes().peekable();
        while let Some(b) = chars.next() {
            match b {
                b'.' => {
                    if cur_len == 0 {
                        return Err(WireError::BadNameText(s.to_string()));
                    }
                    if cur_len > MAX_LABEL_LEN {
                        return Err(WireError::LabelTooLong(cur_len));
                    }
                    builder.push(&current[..cur_len])?;
                    cur_len = 0;
                }
                b'\\' => {
                    let next = chars
                        .next()
                        .ok_or_else(|| WireError::BadNameText(s.to_string()))?;
                    if next.is_ascii_digit() {
                        let d2 = chars
                            .next()
                            .ok_or_else(|| WireError::BadNameText(s.to_string()))?;
                        let d3 = chars
                            .next()
                            .ok_or_else(|| WireError::BadNameText(s.to_string()))?;
                        if !d2.is_ascii_digit() || !d3.is_ascii_digit() {
                            return Err(WireError::BadNameText(s.to_string()));
                        }
                        let val = (next - b'0') as u32 * 100
                            + (d2 - b'0') as u32 * 10
                            + (d3 - b'0') as u32;
                        if val > 255 {
                            return Err(WireError::BadNameText(s.to_string()));
                        }
                        push_byte(&mut current, &mut cur_len, val as u8);
                    } else {
                        push_byte(&mut current, &mut cur_len, next);
                    }
                }
                other => push_byte(&mut current, &mut cur_len, other),
            }
        }
        if cur_len == 0 {
            return Err(WireError::BadNameText(s.to_string()));
        }
        if cur_len > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(cur_len));
        }
        builder.push(&current[..cur_len])?;
        Ok(builder.finish())
    }
}

impl serde::Serialize for Name {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> serde::Deserialize<'de> for Name {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: Name = "WWW.Example.COM".parse().unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), "WWW.Example.COM");
        assert_eq!(n.to_ascii_lower(), "www.example.com");
    }

    #[test]
    fn trailing_dot_accepted() {
        let a: Name = "example.com.".parse().unwrap();
        let b: Name = "example.com".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn root_forms() {
        assert!(Name::root().is_root());
        assert_eq!(".".parse::<Name>().unwrap(), Name::root());
        assert_eq!("".parse::<Name>().unwrap(), Name::root());
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn empty_label_rejected() {
        assert!("a..b".parse::<Name>().is_err());
        assert!(".a".parse::<Name>().is_err());
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let a: Name = "ExAmPlE.CoM".parse().unwrap();
        let b: Name = "example.com".parse().unwrap();
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn parent_and_child() {
        let n: Name = "www.example.com".parse().unwrap();
        assert_eq!(n.parent().to_string(), "example.com");
        assert_eq!(
            n.parent().child("mail").unwrap().to_string(),
            "mail.example.com"
        );
        assert_eq!(Name::root().parent(), Name::root());
    }

    #[test]
    fn subdomain_checks() {
        let sub: Name = "a.b.example.com".parse().unwrap();
        let apex: Name = "example.com".parse().unwrap();
        let other: Name = "example.org".parse().unwrap();
        assert!(sub.is_subdomain_of(&apex));
        assert!(sub.is_subdomain_of(&Name::root()));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!sub.is_subdomain_of(&other));
        assert!(!apex.is_subdomain_of(&sub));
    }

    #[test]
    fn subdomain_is_case_insensitive() {
        let sub: Name = "A.B.ExAmPle.COM".parse().unwrap();
        let apex: Name = "example.com".parse().unwrap();
        assert!(sub.is_subdomain_of(&apex));
    }

    #[test]
    fn label_length_limits() {
        let long = "a".repeat(64);
        assert!(long.parse::<Name>().is_err());
        let ok = "a".repeat(63);
        assert!(ok.parse::<Name>().is_ok());
    }

    #[test]
    fn name_length_limit() {
        // Four 63-octet labels = 4*64+1 = 257 > 255.
        let l = "a".repeat(63);
        let too_long = format!("{l}.{l}.{l}.{l}");
        assert!(too_long.parse::<Name>().is_err());
    }

    #[test]
    fn long_names_spill_to_heap_and_still_compare() {
        let l = "a".repeat(63);
        let long: Name = format!("{l}.{l}.{l}").parse().unwrap();
        assert_eq!(long.label_count(), 3);
        assert!(long.wire_len() > INLINE_NAME_LEN);
        let upper: Name = format!("{}.{l}.{l}", l.to_uppercase()).parse().unwrap();
        assert_eq!(long, upper);
        assert_eq!(long.parent().label_count(), 2);
        assert_eq!(long.suffix(1).to_string(), l);
    }

    #[test]
    fn reverse_ipv4_name() {
        let n = Name::reverse_ipv4(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(n.to_string(), "1.2.0.192.in-addr.arpa");
    }

    #[test]
    fn reverse_ipv6_name() {
        let n = Name::reverse_ipv6("2001:db8::1".parse().unwrap());
        assert!(n.to_string().ends_with("ip6.arpa"));
        assert_eq!(n.label_count(), 34);
    }

    #[test]
    fn escaped_dot_roundtrip() {
        let n: Name = r"a\.b.example.com".parse().unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), r"a\.b.example.com");
        let reparsed: Name = n.to_string().parse().unwrap();
        assert_eq!(n, reparsed);
    }

    #[test]
    fn decimal_escape_roundtrip() {
        let n: Name = r"a\000b.example".parse().unwrap();
        assert_eq!(n.label(0).unwrap(), b"a\x00b");
        let reparsed: Name = n.to_string().parse().unwrap();
        assert_eq!(n, reparsed);
    }

    #[test]
    fn canonical_ordering() {
        let a: Name = "a.example".parse().unwrap();
        let b: Name = "z.a.example".parse().unwrap();
        let c: Name = "b.example".parse().unwrap();
        // RFC 4034 §6.1 canonical order: a.example < z.a.example < b.example
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn label_accessors() {
        let n: Name = "www.example.com".parse().unwrap();
        let labels: Vec<&[u8]> = n.labels().collect();
        assert_eq!(labels, vec![&b"www"[..], &b"example"[..], &b"com"[..]]);
        assert_eq!(n.label(1).unwrap(), b"example");
        assert_eq!(n.label(3), None);
        assert_eq!(n.labels().len(), 3);
    }
}
