//! # zdns-netsim
//!
//! A deterministic discrete-event simulator of the network substrate the
//! ZDNS paper measures against: virtual time, per-server latency classes,
//! silent drops, rate-limited public resolvers, a client host with finite
//! cores/ports/GC, plus real loopback UDP/TCP servers for socket-level
//! integration tests.
//!
//! # Example
//!
//! Any string iterator is an [`InputSource`]; [`ShardedSource`] keeps one
//! deterministic hash partition of it (how `--shard i/n` spreads a scan
//! across processes):
//!
//! ```
//! use zdns_netsim::{shard_of, InputSource, ShardedSource};
//!
//! // Stable across runs, machines, and case:
//! assert_eq!(shard_of("Example.com", 4), shard_of("example.COM", 4));
//!
//! let names = (0..100).map(|i| format!("host{i}.test"));
//! let mut shard = ShardedSource::new(names, 0, 4);
//! while let Some(name) = shard.next_name() {
//!     assert_eq!(shard_of(&name, 4), 0);
//! }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod framed;
pub mod input;
pub mod latency;
#[cfg(any(target_os = "linux", target_os = "android"))]
pub mod mmsg;
pub mod oracle;
pub mod resolvers;
pub mod time;
pub mod wire_server;

pub use engine::{
    estimate_size, ClientEvent, Engine, EngineConfig, GcModel, JobOutcome, OutQuery, Protocol,
    RunReport, SimClient, StepStatus,
};
pub use framed::FramedConn;
pub use input::{shard_of, InputSource, ShardedSource};
#[cfg(any(target_os = "linux", target_os = "android"))]
pub use mmsg::MmsgScratch;
pub use resolvers::{PublicResolverConfig, PublicResolverSim, ResolverOutcome};
pub use time::{as_secs_f64, from_secs_f64, SimTime, MICROS, MILLIS, SECONDS};
pub use wire_server::{
    bind_reuse_port, bind_tcp_reuse_port, bind_udp_tcp_pair, connect_nonblocking, set_recv_buffer,
    QueryLog, RecvArena, WireServer, RECV_SLOT, SERVER_COOKIE,
};
pub use zdns_pacing::{PaceDecision, SendGate};
