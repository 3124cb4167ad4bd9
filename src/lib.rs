//! # zdns (Rust reproduction)
//!
//! An open-source reproduction of *ZDNS: A Fast DNS Toolkit for Internet
//! Measurement* (IMC '22) as a Rust workspace. This meta-crate re-exports
//! the public API of every component:
//!
//! * [`wire`] — DNS wire-format codec (66 record types, compression, EDNS).
//! * [`zones`] — authoritative zone semantics + the procedural simulated
//!   Internet the evaluation scans.
//! * [`netsim`] — the deterministic discrete-event network simulator and
//!   real loopback wire servers.
//! * [`core`] — the ZDNS resolver library: selective caching, iterative
//!   resolution with exposed lookup chains, external mode, transports.
//! * [`modules`] — composable lookup modules (raw types, alookup, mxlookup,
//!   caalookup, SPF/DMARC, `--all-nameservers`).
//! * [`framework`] — scan orchestration, configuration, JSON-lines output.
//! * [`baselines`] — behavioural models of Unbound and MassDNS.
//! * [`workloads`] — the CT-log-like corpus (Table 3) and IPv4 workloads.
//!
//! See `examples/quickstart.rs` for a five-minute tour, DESIGN.md for the
//! architecture, and EXPERIMENTS.md for paper-vs-measured results.

pub use zdns_baselines as baselines;
pub use zdns_core as core;
pub use zdns_framework as framework;
pub use zdns_modules as modules;
pub use zdns_netsim as netsim;
pub use zdns_wire as wire;
pub use zdns_workloads as workloads;
pub use zdns_zones as zones;
