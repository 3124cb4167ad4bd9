//! Real-socket DNS servers for integration testing.
//!
//! `WireServer` binds an OS UDP socket (and a TCP listener for truncation
//! fallback) on 127.0.0.1 and serves a [`Universe`], so `zdns-core`'s
//! reactor can be exercised end-to-end without leaving the machine. Its
//! TCP half pumps each connection through a [`FramedConn`], the framing
//! the reactor and the serve role use too. The socket helpers every
//! real-socket path shares (reuse-port binds, the UDP + TCP pair bind, the
//! non-blocking connect) live here as well, and so does the encode step
//! (`encode_response`) the simulator's engine answers through too, so a
//! simulated answer is the bytes a loopback server sends, its cookie echo
//! aside.

use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use zdns_wire::{Message, MessageView, ScratchBuf, WireResult};
use zdns_zones::Universe;

use crate::engine::Protocol;
use crate::framed::FramedConn;
use crate::mmsg::RecvArena;

/// A running loopback DNS server.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Every question name a logging wire server was asked, in arrival
/// order (see [`WireServer::start_logged`]). Names are recorded as the
/// query spelled them, one entry per query datagram/frame — retries of
/// the same name appear once per retry.
pub type QueryLog = Arc<std::sync::Mutex<Vec<String>>>;

/// Ask the kernel for a large receive buffer on `socket`. Event-driven
/// clients put hundreds-to-thousands of datagrams in flight at once; the
/// default buffer (a few hundred KB) silently drops the burst, which
/// surfaces as timeouts. Best-effort: unsupported platforms are a no-op.
pub fn set_recv_buffer(socket: &UdpSocket, bytes: usize) {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    {
        use std::os::fd::AsRawFd;
        let value = bytes as i32;
        // SAFETY: fd is a live socket; value points at a properly sized int.
        unsafe {
            libc::setsockopt(
                socket.as_raw_fd(),
                libc::SOL_SOCKET,
                libc::SO_RCVBUF,
                &value as *const i32 as *const libc::c_void,
                std::mem::size_of::<i32>() as u32,
            );
        }
    }
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    {
        let _ = (socket, bytes);
    }
}

/// A fresh IPv4 socket of type `ty` with `SO_REUSEPORT` set, bound to
/// `ip:port` and, for a stream socket, listening — the option must go on
/// between `socket` and `bind`, which `std::net` cannot express.
#[cfg(any(target_os = "linux", target_os = "android"))]
fn reuse_port_socket(
    ip: Ipv4Addr,
    port: u16,
    ty: libc::c_int,
) -> std::io::Result<std::os::fd::OwnedFd> {
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    // SAFETY: plain socket(2); the fd is checked before use.
    let fd = unsafe { libc::socket(libc::AF_INET as i32, ty | libc::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: the fd is live and nothing else owns it; from here it is
    // closed on every path, including errors.
    let socket = unsafe { OwnedFd::from_raw_fd(fd) };
    let one: i32 = 1;
    // SAFETY: fd is live; value points at a properly sized int.
    let r = unsafe {
        libc::setsockopt(
            socket.as_raw_fd(),
            libc::SOL_SOCKET,
            libc::SO_REUSEPORT,
            &one as *const i32 as *const libc::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if r != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let addr = libc::sockaddr_in::from_parts(ip, port);
    // SAFETY: addr is a live, correctly sized sockaddr_in.
    let r = unsafe {
        libc::bind(
            socket.as_raw_fd(),
            &addr as *const libc::sockaddr_in,
            std::mem::size_of::<libc::sockaddr_in>() as u32,
        )
    };
    if r != 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: fd is a bound socket.
    if ty == libc::SOCK_STREAM && unsafe { libc::listen(socket.as_raw_fd(), 128) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(socket)
}

/// Bind a UDP socket on `ip:port` and a TCP listener on the port it got —
/// a DNS server answers on one port over both transports. `reuse_port`
/// sets `SO_REUSEPORT` on both halves (Linux; elsewhere a second pair on
/// one port fails to bind), so several pairs share one port and the
/// kernel spreads datagrams and connections across them by flow hash —
/// how a DNS *server* front end shards one well-known port over its
/// workers. (Client-side scanning sockets must NOT share a port:
/// responses would hash to an arbitrary group member, away from the
/// worker holding the query's demux state.) With `port == 0` the kernel
/// picks the UDP port without knowing its TCP twin is wanted too, so an
/// `AddrInUse` on the TCP half only means an unrelated listener owns that
/// number: try another. With an explicit port the collision is the
/// caller's error.
pub fn bind_udp_tcp_pair(
    ip: Ipv4Addr,
    port: u16,
    reuse_port: bool,
) -> std::io::Result<(UdpSocket, TcpListener)> {
    loop {
        let udp = bind_udp(ip, port, reuse_port)?;
        match bind_tcp(ip, udp.local_addr()?.port(), reuse_port) {
            Ok(tcp) => return Ok((udp, tcp)),
            Err(e) if port == 0 && e.kind() == std::io::ErrorKind::AddrInUse => continue,
            Err(e) => return Err(e),
        }
    }
}

/// [`bind_udp_tcp_pair`]'s UDP half.
fn bind_udp(ip: Ipv4Addr, port: u16, reuse_port: bool) -> std::io::Result<UdpSocket> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    if reuse_port {
        return reuse_port_socket(ip, port, libc::SOCK_DGRAM).map(UdpSocket::from);
    }
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    let _ = reuse_port;
    UdpSocket::bind((ip, port))
}

/// [`bind_udp_tcp_pair`]'s TCP half.
fn bind_tcp(ip: Ipv4Addr, port: u16, reuse_port: bool) -> std::io::Result<TcpListener> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    if reuse_port {
        return reuse_port_socket(ip, port, libc::SOCK_STREAM).map(TcpListener::from);
    }
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    let _ = reuse_port;
    TcpListener::bind((ip, port))
}

/// Open a TCP connection to `to` without waiting for the handshake: the
/// returned stream is non-blocking and may still be connecting, in which
/// case its reads and writes report `WouldBlock` until it is, and the
/// connect error (refused, unreachable) afterwards if it failed. Linux
/// and IPv4 only; elsewhere — `std` has no such connect — this blocks in
/// `connect_timeout(to, timeout)` and switches the stream over after.
pub fn connect_nonblocking(to: SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    if let SocketAddr::V4(v4) = to {
        use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
        let ty = libc::SOCK_STREAM | libc::SOCK_CLOEXEC | libc::SOCK_NONBLOCK;
        // SAFETY: plain socket(2); the fd is checked before use.
        let fd = unsafe { libc::socket(libc::AF_INET as i32, ty, 0) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: the fd is live and nothing else owns it; from here it
        // is closed on every path, including errors.
        let socket = unsafe { OwnedFd::from_raw_fd(fd) };
        let addr = libc::sockaddr_in::from_parts(*v4.ip(), v4.port());
        // SAFETY: addr is a live, correctly sized sockaddr_in.
        let r = unsafe {
            libc::connect(
                socket.as_raw_fd(),
                &addr as *const libc::sockaddr_in,
                std::mem::size_of::<libc::sockaddr_in>() as u32,
            )
        };
        if r != 0 {
            let e = std::io::Error::last_os_error();
            if e.raw_os_error() != Some(libc::EINPROGRESS) {
                return Err(e);
            }
        }
        return Ok(TcpStream::from(socket));
    }
    let stream = TcpStream::connect_timeout(&to, timeout)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

impl WireServer {
    /// Address the server listens on (UDP and TCP share the port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start serving `universe` on an ephemeral 127.0.0.1 port. Queries are
    /// answered as if this socket were the server at `impersonate` inside
    /// the universe.
    pub fn start(
        universe: Arc<dyn Universe>,
        impersonate: Ipv4Addr,
    ) -> std::io::Result<WireServer> {
        WireServer::start_inner(universe, impersonate, Duration::ZERO, None)
    }

    /// Like [`WireServer::start`] but every UDP response is delayed by
    /// `latency` (*without* serializing queries behind each other), and
    /// every question name is recorded into the returned [`QueryLog`] — how crash-recovery tests assert
    /// that a resumed scan re-probes *zero* completed names: kill the
    /// scan, snapshot the log, resume, and check the intersection.
    pub fn start_logged(
        universe: Arc<dyn Universe>,
        impersonate: Ipv4Addr,
        latency: Duration,
    ) -> std::io::Result<(WireServer, QueryLog)> {
        let log: QueryLog = Arc::new(std::sync::Mutex::new(Vec::new()));
        let server =
            WireServer::start_inner(universe, impersonate, latency, Some(Arc::clone(&log)))?;
        Ok((server, log))
    }

    fn start_inner(
        universe: Arc<dyn Universe>,
        impersonate: Ipv4Addr,
        latency: Duration,
        log: Option<QueryLog>,
    ) -> std::io::Result<WireServer> {
        let (udp, tcp) = bind_udp_tcp_pair(Ipv4Addr::LOCALHOST, 0, false)?;
        let addr = udp.local_addr()?;
        set_recv_buffer(&udp, 8 << 20);
        tcp.set_nonblocking(true)?;
        udp.set_read_timeout(Some(Duration::from_millis(25)))?;
        let stop = Arc::new(AtomicBool::new(false));

        let udp_stop = Arc::clone(&stop);
        let udp_universe = Arc::clone(&universe);
        let mut threads = Vec::new();

        // Delayed responses queue in arrival order (due times are
        // monotonic), drained by a dedicated sender thread.
        type Delayed = (std::time::Instant, std::net::SocketAddr, Vec<u8>);
        let delayed: Arc<std::sync::Mutex<std::collections::VecDeque<Delayed>>> =
            Arc::new(std::sync::Mutex::new(std::collections::VecDeque::new()));
        if latency > Duration::ZERO {
            let delayed = Arc::clone(&delayed);
            let sender = udp.try_clone()?;
            let sender_stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                while !sender_stop.load(Ordering::Relaxed) {
                    let next = delayed.lock().unwrap().pop_front();
                    match next {
                        Some((due, peer, bytes)) => {
                            let now = std::time::Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            let _ = sender.send_to(&bytes, peer);
                        }
                        None => std::thread::sleep(Duration::from_micros(200)),
                    }
                }
            }));
        }

        let udp_delayed = Arc::clone(&delayed);
        let udp_log = log.clone();
        let udp_thread = std::thread::spawn(move || {
            // Batch-drain the socket: a batched reactor client can land
            // dozens of queries in one sendmmsg, and picking them all up
            // in one recvmmsg keeps this single server thread from
            // becoming the syscall bottleneck of loopback tests/benches.
            let mut arena = RecvArena::new(32);
            // The server answers through the same borrowed-view decode and
            // scratch-buffer encode the client hot path uses, so loopback
            // tests exercise both sides of the zero-alloc lifecycle.
            let mut scratch = ScratchBuf::new();
            while !udp_stop.load(Ordering::Relaxed) {
                let batch = arena.recv_batch(&udp);
                for i in 0..batch.count {
                    let (raw, peer) = arena.datagram(i);
                    scratch.reset();
                    if answer_into(
                        &udp_universe,
                        impersonate,
                        raw,
                        Protocol::Udp,
                        &mut scratch,
                        udp_log.as_ref(),
                    ) {
                        if latency > Duration::ZERO {
                            udp_delayed.lock().unwrap().push_back((
                                std::time::Instant::now() + latency,
                                peer,
                                scratch.as_slice().to_vec(),
                            ));
                        } else {
                            let _ = udp.send_to(scratch.as_slice(), peer);
                        }
                    }
                }
            }
        });

        let tcp_stop = Arc::clone(&stop);
        let tcp_universe = Arc::clone(&universe);
        let tcp_log = log;
        let tcp_thread = std::thread::spawn(move || {
            // A non-blocking connection table: each pass accepts
            // everything pending and does only the work each connection
            // has ready, so a slow client never holds up the others.
            struct Conn {
                framed: FramedConn<TcpStream>,
                last_active: std::time::Instant,
            }
            const IDLE: Duration = Duration::from_millis(500);
            let mut scratch = ScratchBuf::new();
            let mut conns: Vec<Conn> = Vec::new();
            while !tcp_stop.load(Ordering::Relaxed) {
                loop {
                    match tcp.accept() {
                        Ok((stream, _)) if stream.set_nonblocking(true).is_ok() => {
                            conns.push(Conn {
                                framed: FramedConn::new(stream),
                                last_active: std::time::Instant::now(),
                            });
                        }
                        Ok(_) => {}
                        Err(_) => break, // WouldBlock or fatal: stop accepting
                    }
                }
                let mut progressed = false;
                conns.retain_mut(|conn| {
                    let framed = &mut conn.framed;
                    // Answers queued by the last pass leave first.
                    let (Ok(wrote), Ok(read)) = (framed.flush(), framed.fill(usize::MAX)) else {
                        return false;
                    };
                    if wrote + read > 0 {
                        conn.last_active = std::time::Instant::now();
                        progressed = true;
                    }
                    while let Some(frame) = framed.frame() {
                        scratch.reset();
                        let answered = answer_into(
                            &tcp_universe,
                            impersonate,
                            frame,
                            Protocol::Tcp,
                            &mut scratch,
                            tcp_log.as_ref(),
                        );
                        framed.consume();
                        if answered {
                            framed.queue_frame(scratch.as_slice());
                        }
                    }
                    !framed.peer_closed() && conn.last_active.elapsed() <= IDLE
                });
                if !progressed {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        });

        threads.push(udp_thread);
        threads.push(tcp_thread);
        Ok(WireServer {
            addr,
            stop,
            threads,
        })
    }
}

/// The 8-octet server cookie this loopback server appends when a query
/// carries a client cookie (RFC 7873). Deterministic so tests can assert
/// the echo.
pub const SERVER_COOKIE: [u8; 8] = *b"ZDNSSRVR";

/// Decode `raw` as a borrowed [`MessageView`], answer it from the
/// universe, and encode the response into `scratch` (one message, starting
/// at the scratch's current position). Returns false for undecodable or
/// unanswerable queries.
fn answer_into(
    universe: &Arc<dyn Universe>,
    impersonate: Ipv4Addr,
    raw: &[u8],
    protocol: Protocol,
    scratch: &mut ScratchBuf,
    log: Option<&QueryLog>,
) -> bool {
    let Ok(query) = MessageView::parse(raw) else {
        return false;
    };
    let Some(question_view) = query.question() else {
        return false;
    };
    let question = question_view.to_question();
    if let Some(log) = log {
        log.lock().unwrap().push(question.name.to_string());
    }
    let Some(auth) = universe.respond(impersonate, &question) else {
        return false;
    };
    let mut response = auth.into_message_for(&query);
    // RFC 7873: echo the client cookie back with our server cookie
    // appended, so cookie-aware clients can pin retries to us.
    if let (Some(cookie), Some(edns)) = (query.cookie(), response.edns.as_mut()) {
        edns.set_cookie(cookie.echo(SERVER_COOKIE));
    }
    encode_response(&response, &query, protocol, scratch).is_ok()
}

/// Encode `response`, the answer to `query`, into `scratch`: over UDP cut
/// to the payload size the query advertises (512 octets without EDNS) by
/// the encoder, which sets TC when it cuts; over TCP whole. The one
/// truncation rule of the loopback servers and the simulator alike.
pub(crate) fn encode_response(
    response: &Message,
    query: &MessageView<'_>,
    protocol: Protocol,
    scratch: &mut ScratchBuf,
) -> WireResult<()> {
    match protocol {
        Protocol::Udp => {
            let limit = query.udp_payload_size().unwrap_or(512) as usize;
            response.encode_udp_into(scratch, limit).map(drop)
        }
        Protocol::Tcp => response.encode_into(scratch),
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use zdns_wire::{Message, Question, RData, Rcode, Record, RecordType};
    use zdns_zones::{ExplicitUniverse, Zone};

    fn test_universe() -> (Arc<dyn Universe>, Ipv4Addr) {
        let server_ip = Ipv4Addr::new(127, 0, 0, 1);
        let mut zone = Zone::new(
            "example.test".parse().unwrap(),
            "ns1.example.test".parse().unwrap(),
            300,
        );
        zone.add(Record::new(
            "example.test".parse().unwrap(),
            300,
            RData::A("192.0.2.5".parse().unwrap()),
        ));
        let mut u = ExplicitUniverse::new();
        u.host(server_ip, zone);
        (Arc::new(u), server_ip)
    }

    #[test]
    fn serves_udp_queries_over_real_sockets() {
        let (universe, ip) = test_universe();
        let server = WireServer::start(universe, ip).unwrap();
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let query = Message::query(
            0x4242,
            Question::new("example.test".parse().unwrap(), RecordType::A),
        );
        client
            .send_to(&query.encode().unwrap(), server.addr())
            .unwrap();
        let mut buf = [0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).unwrap();
        let response = Message::decode(&buf[..len]).unwrap();
        assert_eq!(response.id, 0x4242);
        assert_eq!(response.rcode(), Rcode::NoError);
        assert_eq!(
            response.answers[0].rdata,
            RData::A("192.0.2.5".parse().unwrap())
        );
    }

    #[test]
    fn serves_tcp_queries() {
        let (universe, ip) = test_universe();
        let server = WireServer::start(universe, ip).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let query = Message::query(
            7,
            Question::new("example.test".parse().unwrap(), RecordType::A),
        );
        let bytes = query.encode().unwrap();
        stream
            .write_all(&(bytes.len() as u16).to_be_bytes())
            .unwrap();
        stream.write_all(&bytes).unwrap();
        let mut len_buf = [0u8; 2];
        stream.read_exact(&mut len_buf).unwrap();
        let mut msg = vec![0u8; u16::from_be_bytes(len_buf) as usize];
        stream.read_exact(&mut msg).unwrap();
        let response = Message::decode(&msg).unwrap();
        assert_eq!(response.rcode(), Rcode::NoError);
    }

    #[test]
    fn garbage_input_is_ignored() {
        let (universe, ip) = test_universe();
        let server = WireServer::start(universe, ip).unwrap();
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        client.send_to(&[0xFF; 7], server.addr()).unwrap();
        let mut buf = [0u8; 64];
        assert!(client.recv_from(&mut buf).is_err(), "no reply to garbage");
    }
}
