//! # zdns-core
//!
//! The ZDNS resolver library — the paper's primary contribution,
//! reimplemented in Rust: a caching iterative resolver that exposes full
//! lookup chains, a selective NS/glue cache (§3.4), external-recursive and
//! direct-probe modes, retry/TCP-fallback logic, and an event-driven
//! reactor over one long-lived UDP socket.
//!
//! Lookup logic is written as transport-agnostic state machines so the same
//! code runs under `zdns-netsim`'s discrete-event engine (for the paper's
//! scale experiments) and over real OS sockets.
//!
//! # Example
//!
//! Point a [`ResolverConfig`] at external recursive resolvers — the same
//! configuration drives the simulator and the reactor:
//!
//! ```
//! use zdns_core::{ResolutionMode, ResolverConfig};
//!
//! let mut config = ResolverConfig::default();
//! config.mode = ResolutionMode::External {
//!     servers: vec!["192.0.2.53".parse().unwrap()],
//! };
//! assert!(config.retries >= 1);
//! ```

#![warn(missing_docs)]

pub mod alloc_count;
pub mod cache;
pub mod clock;
pub mod config;
mod cut_memo;
mod doorbell;
pub mod driver;
pub mod machine;
pub mod pacer;
pub mod packet_cache;
pub mod reactor;
pub mod resolver;
pub mod result;
pub mod serve;
pub mod status;
mod tcp;
mod timer_wheel;
pub mod trace;
pub mod transport;

pub use alloc_count::CountingAllocator;
pub use cache::{Cache, CacheKey, CacheStats, CachedRecords, MAX_CACHE_CAPACITY};
pub use clock::Clock;
pub use config::{Detail, ResolutionMode, ResolverConfig};
pub use driver::{Admission, Driver, DriverReport};
pub use machine::{IterativeMachine, Lookup, ResolverCore, ResultSink, StubMachine};
pub use pacer::{ConcurrentGate, ConcurrentPacer, PacerConfig, TokenBlock, TOKEN_BLOCK};
pub use packet_cache::{PacketCache, PacketEntry, PacketLookup};
pub use reactor::{
    DemuxKey, Doorbell, Reactor, ReactorConfig, TimerHandle, TimerWheel, DEFAULT_BATCH_SIZE,
};
pub use resolver::{collecting_sink, AddrMap, Resolver};
pub use result::{DelegationInfo, LookupResult};
pub use serve::{ServeConfig, ServeStats, ServerRole, DEFAULT_PACKET_CACHE_CAPACITY};
pub use status::Status;
pub use trace::TraceStep;
pub use transport::{
    BatchIo, BatchSendStatus, IoBackend, RecvArena, RecvBatch, SendBatchStats, SendSlot,
    VectoredSend, MAX_BATCH, RECV_SLOT,
};
// The admission credit pool lives next to the other budgeting primitives
// in `zdns-pacing`; re-exported so scan orchestration above this crate
// sees one driver surface.
pub use zdns_pacing::CreditPool;
