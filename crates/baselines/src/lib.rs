//! # zdns-baselines
//!
//! Behavioural models of the tools Table 2 of the ZDNS evaluation (§4.2)
//! compares against: Unbound as a co-located recursive resolver, and
//! MassDNS's blast-and-retry stub resolution. Each model reproduces the
//! *strategy* of the tool against the same simulated Internet, so Table 2
//! compares strategies rather than testbeds. dig is not modelled: no
//! binary reproduces §4.2's dig rates (~0.5 traces/s in batch mode, ~120
//! lookups/s forked).

#![warn(missing_docs)]

pub mod massdns;
pub mod unbound;

pub use massdns::{massdns_engine_config, MassDnsMachine, MASSDNS_RETRIES};
pub use unbound::{
    unbound_engine_config, unbound_resolver, UNBOUND_THREAD_CAP_A, UNBOUND_THREAD_CAP_PTR,
};
