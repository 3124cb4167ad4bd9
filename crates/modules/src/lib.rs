//! # zdns-modules
//!
//! ZDNS's composable module layer (§3.2–3.3): raw modules for every record
//! type, friendlier lookup modules (`alookup`, `mxlookup`, `nslookup`,
//! `caalookup`), TXT-policy modules (SPF, DMARC), misc modules
//! (`version.bind`), and the §5 `--all-nameservers` extension. Each module
//! is a first lookup plus an [`api::Plan`] that turns every finished
//! `zdns-core` lookup into the next one or into the output line; one
//! machine, [`api::machine`], runs them all, unchanged under the simulator
//! and over real sockets.

#![warn(missing_docs)]

pub mod all_nameservers;
pub mod alookup;
pub mod api;
pub mod caalookup;
pub mod misc;
pub mod mxlookup;
pub mod raw;
pub mod registry;
pub mod txtfilter;

pub use all_nameservers::AllNameserversModule;
pub use alookup::ALookupModule;
pub use api::{input_to_name, Data, LookupModule, ModuleOutput, ModuleSink};
pub use caalookup::CaaLookupModule;
pub use misc::{BindVersionModule, NsLookupModule, ProbeModule};
pub use mxlookup::MxLookupModule;
pub use raw::RawModule;
pub use registry::ModuleRegistry;
