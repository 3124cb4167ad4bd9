//! Serve-mode orchestration: `zdns serve`'s worker fleet.
//!
//! This module is the framework-side half of serve mode — it turns the
//! engine pieces ([`Reactor`] + [`ServerRole`]) into a running listener
//! fleet the CLI, tests, and benches all share.
//!
//! Every worker, one or many, has the same shape: its role owns a UDP and
//! a TCP listener on the serve port, and its reactor owns a private
//! ephemeral-port socket for upstream traffic (client-side sockets must
//! not share a port — responses would flow-hash away from the worker
//! holding the demux state). With more than one shard the listeners are
//! one `SO_REUSEPORT` group, so the kernel spreads inbound clients across
//! workers with no shared accept lock.
//!
//! Every worker clones one [`Resolver`], so the selective cache behind
//! the fleet is shared: any worker's forwarded answer warms every
//! worker's hit path.

use std::net::{Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zdns_core::{
    Clock, Detail, Doorbell, DriverReport, IoBackend, Reactor, ReactorConfig, Resolver,
    ResolverConfig, ServeConfig, ServeStats, ServerRole,
};
use zdns_netsim::bind_udp_tcp_pair;

/// Options for starting a serve fleet (the parsed form of the
/// `zdns serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to listen on (UDP + TCP; port 0 = ephemeral).
    pub listen: SocketAddr,
    /// Upstream recursive resolvers queries are forwarded to (IPv4).
    pub upstreams: Vec<SocketAddr>,
    /// Record-cache capacity in entries; every forwarded answer is kept.
    pub cache_capacity: usize,
    /// Per-client UDP budget in queries/second (0 = no gate).
    pub client_pps: f64,
    /// Reactor syscall strategy for the forwarding side.
    pub io_backend: IoBackend,
    /// Worker count (>1 = `SO_REUSEPORT` sharding of the listen port).
    pub shards: usize,
    /// Slots in the fleet-shared pre-encoded packet cache (0 disables,
    /// keeping scratch-encode as the A/B lever).
    pub packet_cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: SocketAddr::new(Ipv4Addr::LOCALHOST.into(), 5353),
            upstreams: Vec::new(),
            cache_capacity: 600_000,
            client_pps: 0.0,
            io_backend: IoBackend::default(),
            shards: 1,
            packet_cache_capacity: zdns_core::DEFAULT_PACKET_CACHE_CAPACITY,
        }
    }
}

/// Concurrent forwarded lookups per worker.
const MAX_IN_FLIGHT: usize = 1_024;

/// A running serve fleet: stop flag, per-worker counters, and the worker
/// threads themselves. Dropping the handle stops and joins the fleet.
pub struct ServeHandle {
    stop: Arc<AtomicBool>,
    /// Rung after `stop` is raised, so idle workers see it at once.
    bells: Vec<Arc<Doorbell>>,
    stats: Vec<Arc<ServeStats>>,
    workers: Vec<JoinHandle<DriverReport>>,
    local_addr: SocketAddr,
    resolver: Resolver,
}

impl ServeHandle {
    /// The address the fleet actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Per-worker serve counters, in worker order.
    pub fn stats(&self) -> &[Arc<ServeStats>] {
        &self.stats
    }

    /// The shared resolver behind the fleet (one cache for all workers).
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Fleet-wide queries received.
    pub fn queries(&self) -> u64 {
        self.stats.iter().map(|s| s.queries()).sum()
    }

    /// Fleet-wide cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.stats.iter().map(|s| s.cache_hits()).sum()
    }

    /// Fleet-wide forwarded lookups.
    pub fn forwarded(&self) -> u64 {
        self.stats.iter().map(|s| s.forwarded()).sum()
    }

    /// Fleet-wide responses sent.
    pub fn responses(&self) -> u64 {
        self.stats.iter().map(|s| s.responses()).sum()
    }

    /// Fleet-wide truncated UDP responses (TC set).
    pub fn truncated(&self) -> u64 {
        self.stats.iter().map(|s| s.truncated()).sum()
    }

    /// Fleet-wide queries dropped by the per-client gate.
    pub fn rate_limited(&self) -> u64 {
        self.stats.iter().map(|s| s.rate_limited()).sum()
    }

    /// Fleet-wide hits served from a pre-encoded packet (a subset of
    /// `cache_hits`).
    pub fn packet_hits(&self) -> u64 {
        self.stats.iter().map(|s| s.packet_hits()).sum()
    }

    /// Fleet-wide canonical responses memoized into the packet cache.
    pub fn packet_fills(&self) -> u64 {
        self.stats.iter().map(|s| s.packet_fills()).sum()
    }

    /// Packet entries dropped by record-cache promotions. The packet
    /// cache is one fleet-shared table, so this reads the shared counter
    /// from any worker rather than summing (a sum would multiply it by
    /// the worker count).
    pub fn packet_invalidations(&self) -> u64 {
        self.stats.first().map_or(0, |s| s.packet_invalidations())
    }

    /// One status line for stderr/telemetry.
    pub fn summary_line(&self) -> String {
        format!(
            "serve: {} queries, {} cache hits ({} packet), {} forwarded, \
             {} responses, {} truncated, {} rate-limited",
            self.queries(),
            self.cache_hits(),
            self.packet_hits(),
            self.forwarded(),
            self.responses(),
            self.truncated(),
            self.rate_limited(),
        )
    }

    /// Raise the stop flag and join every worker, returning their
    /// reactor reports.
    pub fn stop(mut self) -> Vec<DriverReport> {
        raise_stop(&self.stop, &self.bells);
        self.workers
            .drain(..)
            .map(|w| w.join().unwrap_or_default())
            .collect()
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        raise_stop(&self.stop, &self.bells);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Raise the fleet's stop flag and ring every worker out of its wait.
fn raise_stop(stop: &AtomicBool, bells: &[Arc<Doorbell>]) {
    stop.store(true, Ordering::Relaxed);
    for bell in bells {
        bell.ring();
    }
}

/// What one worker gets to listen on, decided (and bound) up front so
/// bind failures surface before any thread spawns.
struct WorkerSockets {
    /// The reactor's ephemeral socket for upstream traffic.
    upstream: UdpSocket,
    /// The UDP listener on the serve port.
    listener: UdpSocket,
    /// The TCP listener on the serve port.
    tcp: TcpListener,
}

/// Start a serve fleet. Binds all sockets up front (errors surface here,
/// not in a worker thread), spawns one reactor worker per shard, and
/// returns once every worker's server role is installed and listening.
pub fn start(opts: &ServeOptions) -> std::io::Result<ServeHandle> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if opts.upstreams.is_empty() {
        return Err(bad("serve needs at least one upstream".into()));
    }
    let mut upstream_ips = Vec::new();
    for upstream in &opts.upstreams {
        let SocketAddr::V4(v4) = upstream else {
            return Err(bad(format!("upstream {upstream} is not IPv4")));
        };
        upstream_ips.push(*v4.ip());
    }
    let listen_ip = match opts.listen {
        SocketAddr::V4(v4) => *v4.ip(),
        other => return Err(bad(format!("listen address {other} is not IPv4"))),
    };

    // One resolver for the whole fleet: workers clone it, so they share
    // the cache — any worker's fill warms every worker's hit path.
    let resolver = Resolver::new(ResolverConfig {
        cache_size: opts.cache_capacity,
        // Serving wants throughput, not forensics: skip building lookup
        // chains for forwarded queries.
        detail: Detail::Normal,
        ..ResolverConfig::external(upstream_ips)
    });
    let addr_map = crate::runner::addr_map(&opts.upstreams);

    // Bind everything up front: the first listener pair picks the port
    // (when asked for port 0) and its siblings join it.
    let shards = opts.shards.max(1);
    let mut sockets = Vec::with_capacity(shards);
    let mut local_addr = opts.listen;
    for _ in 0..shards {
        let (listener, tcp) = match bind_udp_tcp_pair(listen_ip, local_addr.port(), shards > 1) {
            Ok(pair) => pair,
            // A kernel refusing a sibling's shared bind just serves with
            // fewer shards; correctness is unaffected.
            Err(_) if !sockets.is_empty() => break,
            Err(e) => return Err(e),
        };
        local_addr = listener.local_addr()?;
        sockets.push(WorkerSockets {
            upstream: UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0))?,
            listener,
            tcp,
        });
    }

    // One epoch for the fleet: reactor timers, cache expiries, and
    // client-bucket refills all live on the same timeline.
    let epoch = Instant::now();
    let clock = Clock::from_epoch(epoch);
    let stop = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = mpsc::channel::<Result<Arc<ServeStats>, String>>();

    // Made before any worker starts, so a failure leaves none running.
    let bells = (0..sockets.len())
        .map(|_| Doorbell::new().map(Arc::new))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut workers = Vec::with_capacity(sockets.len());
    let worker_count = sockets.len();
    for ((idx, worker), bell) in sockets.into_iter().enumerate().zip(bells.clone()) {
        let resolver = resolver.clone();
        let addr_map = Arc::clone(&addr_map);
        let stop = Arc::clone(&stop);
        let ready_tx = ready_tx.clone();
        let config = ReactorConfig {
            max_in_flight: MAX_IN_FLIGHT,
            io_backend: opts.io_backend,
            epoch: Some(epoch),
            ..ReactorConfig::default()
        };
        let serve_config = ServeConfig {
            client_pps: opts.client_pps,
            packet_cache_capacity: opts.packet_cache_capacity,
        };
        let WorkerSockets {
            upstream,
            listener,
            tcp,
        } = worker;
        workers.push(std::thread::spawn(move || {
            // Reactor and role are built on the worker thread — neither
            // is Send (they own lookup machines).
            let built = Reactor::from_socket(upstream, config, addr_map).and_then(|mut reactor| {
                let role = ServerRole::new(resolver, clock, serve_config)
                    .with_udp_listener(listener)?
                    .with_tcp_listener(tcp)?;
                let stats = role.stats();
                reactor.set_server_role(role);
                reactor.set_doorbell(bell);
                Ok((reactor, stats))
            });
            match built {
                Ok((mut reactor, stats)) => {
                    let _ = ready_tx.send(Ok(stats));
                    reactor.run_serve(&stop)
                }
                Err(e) => {
                    let _ = ready_tx.send(Err(format!("worker {idx}: {e}")));
                    DriverReport::default()
                }
            }
        }));
    }
    drop(ready_tx);

    // Collect every worker's stats handle (or its startup error).
    let mut stats = Vec::with_capacity(worker_count);
    let mut failure = None;
    for _ in 0..worker_count {
        match ready_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(s)) => stats.push(s),
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some("worker startup timed out".into()),
        }
        if failure.is_some() {
            break;
        }
    }
    if let Some(e) = failure {
        raise_stop(&stop, &bells);
        for w in workers {
            let _ = w.join();
        }
        return Err(std::io::Error::other(e));
    }

    Ok(ServeHandle {
        stop,
        bells,
        stats,
        workers,
        local_addr,
        resolver,
    })
}
