//! # zdns-wire
//!
//! DNS wire-format codec for the ZDNS reproduction: domain names with
//! RFC 1035 compression, the full message model, EDNS(0), and typed RDATA
//! for every record type the ZDNS paper lists as supported (footnote 1).
//!
//! Design rules:
//!
//! * **Never panic on network input.** Every decode path is bounds-checked
//!   and returns [`WireError`]; property tests drive arbitrary bytes through
//!   [`Message::decode`].
//! * **Lenient reads, strict writes.** Unknown types decode as opaque RDATA
//!   (RFC 3597); compressed names are accepted anywhere but only emitted
//!   where RFC 1035 allows.
//! * **JSON is a first-class output.** [`json`] renders records and messages
//!   in the shape ZDNS prints (paper Appendix C).
//!
//! # Example
//!
//! [`Name`] is the codec's central type: labels in one inline buffer,
//! compared and hashed case-insensitively as RFC 1035 requires:
//!
//! ```
//! use zdns_wire::Name;
//!
//! let a: Name = "Example.COM".parse().unwrap();
//! let b: Name = "example.com.".parse().unwrap();
//! assert_eq!(a, b);
//! ```

#![warn(missing_docs)]

mod buffer;
mod edns;
mod error;
mod header;
pub mod json;
mod message;
mod name;
mod question;
pub mod rdata;
mod record;
mod rtype;
mod view;

pub use buffer::{ScratchBuf, WireReader, WireWriter, MAX_MESSAGE_SIZE};
pub use edns::{
    cookie_option_len, write_cookie_option, Cookie, Edns, CLIENT_COOKIE_LEN, DEFAULT_UDP_PAYLOAD,
    MAX_COOKIE_LEN, OPTION_COOKIE,
};
pub use error::{WireError, WireResult};
pub use header::{Flags, Header, Opcode, OpcodeField, Rcode};
pub use message::{encode_query_into, Message, RcodeField};
pub use name::{LabelIter, Name, INLINE_NAME_LEN, MAX_LABEL_LEN, MAX_NAME_LEN, MAX_TEXT_LEN};
pub use question::Question;
pub use rdata::RData;
pub use record::Record;
pub use rtype::{RecordClass, RecordType};
pub use view::{
    min_answer_ttl, MessageView, MsgRef, NameRef, NameRefLabels, QuestionView, QuestionViews,
    RecordCursor, RecordEntry, RecordView, RecordViews,
};
