//! # zdns-framework
//!
//! The ZDNS scan framework (§3.2): command-line configuration, input
//! decoding, spawning lookup routines, routing results, output encoding,
//! and run-time statistics. The framework is deliberately free of
//! DNS-specific logic — that lives in `zdns-core` and `zdns-modules`.
//!
//! # Example
//!
//! [`Conf::parse`] consumes an argv-style vector, exactly as the `zdns`
//! binary does:
//!
//! ```
//! use zdns_framework::Conf;
//!
//! let conf = Conf::parse([
//!     "A", "--real", "--name-servers", "192.0.2.53:5353",
//!     "--shard", "0/4", "--rate-pps", "5000",
//! ])
//! .unwrap();
//! assert_eq!(conf.module, "A");
//! assert_eq!(conf.shard, Some((0, 4)));
//! assert_eq!(conf.rate_pps, 5000.0);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod conf;
mod done_set;
pub mod output;
pub mod pipeline;
pub mod runner;
pub mod serve;

pub use checkpoint::{
    merge_shards, prepare_resume, scan_id, Checkpoint, CheckpointKeeper, DedupSource, DoneSet,
    MergeReport, ResumePlan, ScanManifest,
};
pub use conf::{Conf, ConfError, OutputGroup, ServeConf, Workload};
pub use output::{CallbackSink, JsonlSink, OutputSink};
pub use pipeline::run_scan_pipeline;
pub use runner::{
    resolver_for, run_real_scan, run_sim_scan, run_sim_scan_with, RealScanReport, CLOUDFLARE_DNS,
    GOOGLE_DNS,
};
pub use serve::{ServeHandle, ServeOptions};
