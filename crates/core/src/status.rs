//! Lookup status codes — the `status` field of every ZDNS output line.

use serde::{Deserialize, Serialize};
use zdns_wire::Rcode;

/// Outcome classification for one lookup, matching ZDNS's status strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Status {
    /// Got an answer (or an authoritative empty answer).
    NoError,
    /// Authoritative denial — still a *successful* measurement.
    NxDomain,
    /// Upstream resolution failed.
    ServFail,
    /// Server refused (policy / lame delegation).
    Refused,
    /// All retries timed out.
    Timeout,
    /// The iterative walk exceeded its query or time budget.
    IterativeTimeout,
    /// Response was truncated and TCP fallback was disabled or failed.
    Truncated,
    /// Response arrived but could not be parsed.
    ParseError,
    /// The input name was not a valid DNS name.
    IllegalInput,
    /// Some other error.
    Error,
}

impl Status {
    /// Every variant, in declaration order.
    pub const ALL: [Status; 10] = [
        Status::NoError,
        Status::NxDomain,
        Status::ServFail,
        Status::Refused,
        Status::Timeout,
        Status::IterativeTimeout,
        Status::Truncated,
        Status::ParseError,
        Status::IllegalInput,
        Status::Error,
    ];

    /// The paper's success criterion (§4): NOERROR or NXDOMAIN.
    pub fn is_success(self) -> bool {
        matches!(self, Status::NoError | Status::NxDomain)
    }

    /// The ZDNS status string.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::NoError => "NOERROR",
            Status::NxDomain => "NXDOMAIN",
            Status::ServFail => "SERVFAIL",
            Status::Refused => "REFUSED",
            Status::Timeout => "TIMEOUT",
            Status::IterativeTimeout => "ITERATIVE_TIMEOUT",
            Status::Truncated => "TRUNCATED",
            Status::ParseError => "PARSE_ERROR",
            Status::IllegalInput => "ILLEGAL_INPUT",
            Status::Error => "ERROR",
        }
    }

    /// Map a final response code to a status.
    pub fn from_rcode(rcode: Rcode) -> Status {
        match rcode {
            Rcode::NoError => Status::NoError,
            Rcode::NxDomain => Status::NxDomain,
            Rcode::ServFail => Status::ServFail,
            Rcode::Refused => Status::Refused,
            _ => Status::Error,
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_criterion_matches_paper() {
        assert!(Status::NoError.is_success());
        assert!(Status::NxDomain.is_success());
        assert!(!Status::ServFail.is_success());
        assert!(!Status::Timeout.is_success());
        assert!(!Status::IterativeTimeout.is_success());
        assert!(!Status::Refused.is_success());
    }

    #[test]
    fn rcode_mapping() {
        assert_eq!(Status::from_rcode(Rcode::NoError), Status::NoError);
        assert_eq!(Status::from_rcode(Rcode::NxDomain), Status::NxDomain);
        assert_eq!(Status::from_rcode(Rcode::ServFail), Status::ServFail);
        assert_eq!(Status::from_rcode(Rcode::Refused), Status::Refused);
        assert_eq!(Status::from_rcode(Rcode::NotImp), Status::Error);
    }

    #[test]
    fn strings_match_zdns() {
        assert_eq!(Status::NoError.as_str(), "NOERROR");
        assert_eq!(Status::IterativeTimeout.as_str(), "ITERATIVE_TIMEOUT");
    }
}
