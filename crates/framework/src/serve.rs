//! Serve-mode orchestration: `zdns serve`'s worker fleet.
//!
//! This module is the framework-side half of serve mode — it turns the
//! engine pieces ([`Reactor`] + [`ServerRole`]) into a running listener
//! fleet the CLI, tests, and benches all share:
//!
//! * **Single worker** (`shards == 1`, the default): one *dual-role*
//!   socket. The listen socket IS the reactor socket — client queries
//!   arrive on it as QR=0 demux misses, and forwarded upstream queries
//!   leave from it. One socket, both directions, no handoff.
//! * **Sharded** (`shards > 1`): each worker keeps the reactor's usual
//!   ephemeral-port socket for upstream traffic (client-side sockets must
//!   not share a port — responses would flow-hash away from the worker
//!   holding the demux state) and additionally owns a `SO_REUSEPORT`
//!   listener socket (UDP and TCP) on the serve port, so the kernel
//!   spreads inbound clients across workers with no shared accept lock.
//!
//! Every worker clones one [`Resolver`], so the selective cache behind
//! the fleet is shared: any worker's forwarded answer warms every
//! worker's hit path.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zdns_core::{
    AddrMap, Clock, DriverReport, IoBackend, Reactor, ReactorConfig, Resolver, ResolverConfig,
    ServeConfig, ServeStats, ServerRole,
};
use zdns_netsim::{bind_reuse_port, bind_tcp_reuse_port, bind_udp_tcp_pair};

/// Options for starting a serve fleet (the parsed form of the
/// `zdns serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to listen on (UDP + TCP; port 0 = ephemeral).
    pub listen: SocketAddr,
    /// Upstream recursive resolvers queries are forwarded to (IPv4).
    pub upstreams: Vec<SocketAddr>,
    /// Selective-cache capacity in entries.
    pub cache_capacity: usize,
    /// Per-client UDP budget in queries/second (0 = no gate).
    pub client_pps: f64,
    /// Reactor syscall strategy for the forwarding side.
    pub io_backend: IoBackend,
    /// Worker count (1 = dual-role socket; >1 = `SO_REUSEPORT` sharding).
    pub shards: usize,
    /// Datagrams per syscall on the forwarding hot path (0 = default).
    pub batch_size: usize,
    /// Concurrent forwarded lookups per worker.
    pub max_in_flight: usize,
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
            batch_size: 0,
            max_in_flight: 1_024,
            packet_cache_capacity: zdns_core::DEFAULT_PACKET_CACHE_CAPACITY,
        }
    }
}

/// A running serve fleet: stop flag, per-worker counters, and the worker
/// threads themselves. Dropping the handle stops and joins the fleet.
pub struct ServeHandle {
    stop: Arc<AtomicBool>,
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

    /// Fleet-wide packet lookups that found an entry past its TTL.
    pub fn packet_expired(&self) -> u64 {
        self.stats.iter().map(|s| s.packet_expired()).sum()
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
        self.stop.store(true, Ordering::Relaxed);
        self.workers
            .drain(..)
            .map(|w| w.join().unwrap_or_default())
            .collect()
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// What one worker gets to listen on, decided (and bound) up front so
/// bind failures surface before any thread spawns.
struct WorkerSockets {
    /// The reactor's socket: the dual-role listen socket for a single
    /// worker, an ephemeral upstream-only socket when sharded.
    reactor: UdpSocket,
    /// A dedicated `SO_REUSEPORT` UDP listener (sharded mode only).
    listener: Option<UdpSocket>,
    /// This worker's TCP listener (all workers on Linux via
    /// `SO_REUSEPORT`; only worker 0 where the platform lacks it).
    tcp: Option<TcpListener>,
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
    let mut port_map: HashMap<Ipv4Addr, SocketAddr> = HashMap::new();
    for upstream in &opts.upstreams {
        let SocketAddr::V4(v4) = upstream else {
            return Err(bad(format!("upstream {upstream} is not IPv4")));
        };
        upstream_ips.push(*v4.ip());
        port_map.insert(*v4.ip(), *upstream);
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
        trace: false,
        ..ResolverConfig::external(upstream_ips)
    });
    let addr_map: Arc<AddrMap> = Arc::new(move |ip: Ipv4Addr| {
        port_map
            .get(&ip)
            .copied()
            .unwrap_or_else(|| SocketAddr::new(ip.into(), 53))
    });

    // Bind everything up front.
    let shards = opts.shards.max(1);
    let mut sockets = Vec::with_capacity(shards);
    let local_addr;
    if shards == 1 {
        // Dual-role: the listen socket hosts both directions.
        let (udp, tcp) = bind_udp_tcp_pair(listen_ip, opts.listen.port(), false)?;
        local_addr = udp.local_addr()?;
        sockets.push(WorkerSockets {
            reactor: udp,
            listener: None,
            tcp: Some(tcp),
        });
    } else {
        // Sharded: reuse-port listener group + private upstream sockets.
        // Worker 0's TCP listener must exist (truncation fallback needs
        // somewhere to land), so its bind error is fatal.
        let (first, first_tcp) = bind_udp_tcp_pair(listen_ip, opts.listen.port(), true)?;
        local_addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..shards {
            // A kernel refusing the shared bind just serves with fewer
            // shards; correctness is unaffected.
            match bind_reuse_port(listen_ip, local_addr.port()) {
                Ok(s) => listeners.push(s),
                Err(_) => break,
            }
        }
        let mut first_tcp = Some(first_tcp);
        for (i, listener) in listeners.into_iter().enumerate() {
            let tcp = if i == 0 {
                first_tcp.take()
            } else {
                // Siblings are best-effort: platforms without TCP
                // `SO_REUSEPORT` leave all TCP on worker 0.
                bind_tcp_reuse_port(listen_ip, local_addr.port()).ok()
            };
            sockets.push(WorkerSockets {
                reactor: UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0))?,
                listener: Some(listener),
                tcp,
            });
        }
    }

    // One epoch for the fleet: reactor timers, cache expiries, and
    // client-bucket refills all live on the same timeline.
    let epoch = Instant::now();
    let clock = Clock::from_epoch(epoch);
    let stop = Arc::new(AtomicBool::new(false));
    let batch_size = if opts.batch_size > 0 {
        opts.batch_size
    } else {
        ReactorConfig::default().batch_size
    };
    let (ready_tx, ready_rx) = mpsc::channel::<Result<Arc<ServeStats>, String>>();

    let mut workers = Vec::with_capacity(sockets.len());
    let worker_count = sockets.len();
    for (idx, worker_sockets) in sockets.into_iter().enumerate() {
        let resolver = resolver.clone();
        let addr_map = Arc::clone(&addr_map);
        let stop = Arc::clone(&stop);
        let ready_tx = ready_tx.clone();
        let config = ReactorConfig {
            max_in_flight: opts.max_in_flight.max(1),
            batch_size,
            io_backend: opts.io_backend,
            epoch: Some(epoch),
            ..ReactorConfig::default()
        };
        let serve_config = ServeConfig {
            client_pps: opts.client_pps,
            packet_cache_capacity: opts.packet_cache_capacity,
            ..ServeConfig::default()
        };
        workers.push(std::thread::spawn(move || {
            // Reactor and role are built on the worker thread — neither
            // is Send (they own lookup machines).
            let mut reactor = match Reactor::from_socket(worker_sockets.reactor, config, addr_map) {
                Ok(reactor) => reactor,
                Err(e) => {
                    let _ = ready_tx.send(Err(format!("worker {idx}: reactor: {e}")));
                    return DriverReport::default();
                }
            };
            let mut role = ServerRole::new(resolver, clock, serve_config);
            if let Some(listener) = worker_sockets.listener {
                role = match role.with_udp_listener(listener) {
                    Ok(role) => role,
                    Err(e) => {
                        let _ = ready_tx.send(Err(format!("worker {idx}: udp listener: {e}")));
                        return DriverReport::default();
                    }
                };
            }
            if let Some(tcp) = worker_sockets.tcp {
                role = match role.with_tcp_listener(tcp) {
                    Ok(role) => role,
                    Err(e) => {
                        let _ = ready_tx.send(Err(format!("worker {idx}: tcp listener: {e}")));
                        return DriverReport::default();
                    }
                };
            }
            let stats = role.stats();
            reactor.set_server_role(role);
            let _ = ready_tx.send(Ok(stats));
            reactor.run_serve(&stop)
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
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let _ = w.join();
        }
        return Err(std::io::Error::other(e));
    }

    Ok(ServeHandle {
        stop,
        stats,
        workers,
        local_addr,
        resolver,
    })
}
