//! Record types and classes.
//!
//! Covers every type the paper's footnote lists as supported by ZDNS, plus
//! the pseudo-types needed on the wire (OPT) and in queries (ANY, AXFR).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

macro_rules! record_types {
    ($(($variant:ident, $num:expr, $name:expr),)*) => {
        /// A DNS RR TYPE (or QTYPE).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum RecordType {
            $(#[doc = $name] $variant,)*
            /// Any type observed on the wire that we do not model.
            Unknown(u16),
        }

        impl RecordType {
            /// The 16-bit wire value.
            pub fn to_u16(self) -> u16 {
                match self {
                    $(RecordType::$variant => $num,)*
                    RecordType::Unknown(v) => v,
                }
            }

            /// Decode from the 16-bit wire value.
            pub fn from_u16(v: u16) -> RecordType {
                match v {
                    $($num => RecordType::$variant,)*
                    other => RecordType::Unknown(other),
                }
            }

            /// The presentation name (`"A"`, `"AAAA"`, ...).
            pub fn as_str(self) -> &'static str {
                match self {
                    $(RecordType::$variant => $name,)*
                    RecordType::Unknown(_) => "TYPE",
                }
            }

            /// Every concretely named type (used to enumerate raw modules).
            pub fn all() -> &'static [RecordType] {
                &[$(RecordType::$variant,)*]
            }
        }

        impl FromStr for RecordType {
            type Err = ();

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let upper = s.to_ascii_uppercase();
                match upper.as_str() {
                    $($name => Ok(RecordType::$variant),)*
                    _ => {
                        // RFC 3597 presentation: TYPE1234
                        if let Some(num) = upper.strip_prefix("TYPE") {
                            num.parse::<u16>().map(RecordType::from_u16).map_err(|_| ())
                        } else {
                            Err(())
                        }
                    }
                }
            }
        }
    };
}

record_types! {
    (A, 1, "A"),
    (NS, 2, "NS"),
    (MD, 3, "MD"),
    (MF, 4, "MF"),
    (CNAME, 5, "CNAME"),
    (SOA, 6, "SOA"),
    (MB, 7, "MB"),
    (MG, 8, "MG"),
    (MR, 9, "MR"),
    (NULL, 10, "NULL"),
    (PTR, 12, "PTR"),
    (HINFO, 13, "HINFO"),
    (MX, 15, "MX"),
    (TXT, 16, "TXT"),
    (RP, 17, "RP"),
    (AFSDB, 18, "AFSDB"),
    (ISDN, 20, "ISDN"),
    (RT, 21, "RT"),
    (NSAPPTR, 23, "NSAPPTR"),
    (KEY, 25, "KEY"),
    (PX, 26, "PX"),
    (GPOS, 27, "GPOS"),
    (AAAA, 28, "AAAA"),
    (LOC, 29, "LOC"),
    (NXT, 30, "NXT"),
    (EID, 31, "EID"),
    (SRV, 33, "SRV"),
    (ATMA, 34, "ATMA"),
    (NAPTR, 35, "NAPTR"),
    (KX, 36, "KX"),
    (CERT, 37, "CERT"),
    (DNAME, 39, "DNAME"),
    (OPT, 41, "OPT"),
    (DS, 43, "DS"),
    (SSHFP, 44, "SSHFP"),
    (RRSIG, 46, "RRSIG"),
    (NSEC, 47, "NSEC"),
    (DNSKEY, 48, "DNSKEY"),
    (DHCID, 49, "DHCID"),
    (NSEC3, 50, "NSEC3"),
    (NSEC3PARAM, 51, "NSEC3PARAM"),
    (TLSA, 52, "TLSA"),
    (SMIMEA, 53, "SMIMEA"),
    (HIP, 55, "HIP"),
    (NINFO, 56, "NINFO"),
    (TALINK, 58, "TALINK"),
    (CDS, 59, "CDS"),
    (CDNSKEY, 60, "CDNSKEY"),
    (OPENPGPKEY, 61, "OPENPGPKEY"),
    (CSYNC, 62, "CSYNC"),
    (SVCB, 64, "SVCB"),
    (HTTPS, 65, "HTTPS"),
    (SPF, 99, "SPF"),
    (UINFO, 100, "UINFO"),
    (UID, 101, "UID"),
    (GID, 102, "GID"),
    (UNSPEC, 103, "UNSPEC"),
    (NID, 104, "NID"),
    (L32, 105, "L32"),
    (L64, 106, "L64"),
    (LP, 107, "LP"),
    (EUI48, 108, "EUI48"),
    (EUI64, 109, "EUI64"),
    (TKEY, 249, "TKEY"),
    (TSIG, 250, "TSIG"),
    (AXFR, 252, "AXFR"),
    (ANY, 255, "ANY"),
    (URI, 256, "URI"),
    (CAA, 257, "CAA"),
    (AVC, 258, "AVC"),
}

impl RecordType {
    /// True for the infrastructure types the ZDNS selective cache stores
    /// (NS plus the glue address types; see §3.4 "Selective Caching").
    pub fn is_infrastructure(self) -> bool {
        matches!(self, RecordType::NS | RecordType::A | RecordType::AAAA)
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // RFC 3597 presentation for unknown types.
            RecordType::Unknown(v) => write!(f, "TYPE{v}"),
            other => f.write_str(other.as_str()),
        }
    }
}

impl Serialize for RecordType {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for RecordType {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse()
            .map_err(|_| serde::de::Error::custom(format!("unknown record type {s:?}")))
    }
}

/// A DNS CLASS (or QCLASS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecordClass {
    /// The Internet.
    #[default]
    IN,
    /// Chaos — used by `version.bind` queries.
    CH,
    /// Hesiod.
    HS,
    /// QCLASS NONE (RFC 2136).
    None,
    /// QCLASS ANY.
    Any,
    /// Unmodelled class.
    Unknown(u16),
}

impl RecordClass {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::IN => 1,
            RecordClass::CH => 3,
            RecordClass::HS => 4,
            RecordClass::None => 254,
            RecordClass::Any => 255,
            RecordClass::Unknown(v) => v,
        }
    }

    /// Decode from the 16-bit wire value.
    pub fn from_u16(v: u16) -> RecordClass {
        match v {
            1 => RecordClass::IN,
            3 => RecordClass::CH,
            4 => RecordClass::HS,
            254 => RecordClass::None,
            255 => RecordClass::Any,
            other => RecordClass::Unknown(other),
        }
    }

    /// Presentation name.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordClass::IN => "IN",
            RecordClass::CH => "CH",
            RecordClass::HS => "HS",
            RecordClass::None => "NONE",
            RecordClass::Any => "ANY",
            RecordClass::Unknown(_) => "CLASS",
        }
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordClass::Unknown(v) => write!(f, "CLASS{v}"),
            other => f.write_str(other.as_str()),
        }
    }
}

impl FromStr for RecordClass {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "IN" => Ok(RecordClass::IN),
            "CH" | "CHAOS" => Ok(RecordClass::CH),
            "HS" | "HESIOD" => Ok(RecordClass::HS),
            "NONE" => Ok(RecordClass::None),
            "ANY" => Ok(RecordClass::Any),
            other => {
                if let Some(num) = other.strip_prefix("CLASS") {
                    num.parse::<u16>()
                        .map(RecordClass::from_u16)
                        .map_err(|_| ())
                } else {
                    Err(())
                }
            }
        }
    }
}

impl Serialize for RecordClass {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for RecordClass {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse()
            .map_err(|_| serde::de::Error::custom(format!("unknown record class {s:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_type_roundtrips_numerically() {
        for &t in RecordType::all() {
            assert_eq!(RecordType::from_u16(t.to_u16()), t, "{t:?}");
        }
    }

    #[test]
    fn every_named_type_roundtrips_textually() {
        for &t in RecordType::all() {
            let s = t.to_string();
            assert_eq!(s.parse::<RecordType>().unwrap(), t, "{s}");
        }
    }

    #[test]
    fn paper_footnote_types_present() {
        // The paper's footnote 1 lists the record types ZDNS can query and
        // parse. Every one of them must resolve to a concrete type here
        // (DMARC is a TXT-convention handled at the module layer).
        let listed = [
            "A",
            "AAAA",
            "AFSDB",
            "ANY",
            "ATMA",
            "AVC",
            "AXFR",
            "CAA",
            "CDNSKEY",
            "CDS",
            "CERT",
            "CNAME",
            "CSYNC",
            "DHCID",
            "DNSKEY",
            "DS",
            "EID",
            "EUI48",
            "EUI64",
            "GID",
            "GPOS",
            "HINFO",
            "HIP",
            "ISDN",
            "KEY",
            "KX",
            "L32",
            "L64",
            "LOC",
            "LP",
            "MB",
            "MD",
            "MF",
            "MG",
            "MR",
            "MX",
            "NAPTR",
            "NID",
            "NINFO",
            "NS",
            "NSAPPTR",
            "NSEC",
            "NSEC3",
            "NSEC3PARAM",
            "NXT",
            "OPENPGPKEY",
            "PTR",
            "PX",
            "RP",
            "RRSIG",
            "RT",
            "SMIMEA",
            "SOA",
            "SPF",
            "SRV",
            "SSHFP",
            "TALINK",
            "TKEY",
            "TLSA",
            "TXT",
            "UID",
            "UINFO",
            "UNSPEC",
            "URI",
        ];
        for name in listed {
            let t: RecordType = name.parse().unwrap_or_else(|_| panic!("missing {name}"));
            assert!(!matches!(t, RecordType::Unknown(_)), "{name}");
        }
        assert_eq!(listed.len(), 64);
    }

    #[test]
    fn unknown_type_presentation() {
        let t = RecordType::from_u16(4711);
        assert_eq!(t.to_string(), "TYPE4711");
        assert_eq!("TYPE4711".parse::<RecordType>().unwrap(), t);
    }

    #[test]
    fn class_roundtrip() {
        for v in [1u16, 3, 4, 254, 255, 42] {
            assert_eq!(RecordClass::from_u16(v).to_u16(), v);
        }
        assert_eq!("ch".parse::<RecordClass>().unwrap(), RecordClass::CH);
    }

    #[test]
    fn infrastructure_classification() {
        assert!(RecordType::NS.is_infrastructure());
        assert!(RecordType::A.is_infrastructure());
        assert!(RecordType::AAAA.is_infrastructure());
        assert!(!RecordType::PTR.is_infrastructure());
        assert!(!RecordType::TXT.is_infrastructure());
    }
}
