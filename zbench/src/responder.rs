//! The upstream every workload talks to: one thread answering any
//! `*.zbench.test` A query over UDP (batched) and TCP (length-framed) on
//! one loopback port, with the address [`names::answer_for`] derives from
//! the name. It holds no table of names; the only state is the set of
//! fault-selected names (1 in 200) whose first UDP attempt it has already
//! swallowed, so each loses exactly one attempt however often it is retried.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::names::{self, ANSWER_TTL, SUFFIX_WIRE};
use crate::sys::{self, Batch, PollFd, DGRAM};

/// What the responder saw. Statistics only, hence `Relaxed` throughout.
#[derive(Default)]
pub struct ResponderStats {
    /// UDP datagrams received (answered, truncated or swallowed).
    pub datagrams: AtomicU64,
    /// TCP query/response exchanges completed.
    pub tcp_exchanges: AtomicU64,
    /// First attempts swallowed by the loss fault.
    pub swallowed: AtomicU64,
    /// UDP answers sent with TC=1 by the truncation fault.
    pub truncated: AtomicU64,
    /// Queries for `d…` names — names a resumed scan must not re-probe.
    pub done_names: AtomicU64,
    /// Messages that were not a well-formed `zbench.test` query.
    pub malformed: AtomicU64,
}

impl ResponderStats {
    /// Datagrams plus TCP exchanges: the wire queries of a workload.
    pub fn wire_queries(&self) -> u64 {
        self.datagrams.load(Ordering::Relaxed) + self.tcp_exchanges.load(Ordering::Relaxed)
    }
}

pub struct Responder {
    addr: SocketAddrV4,
    stats: Arc<ResponderStats>,
    stop: Arc<AtomicBool>,
    cpu: sys::ThreadCpuClock,
    thread: Option<JoinHandle<()>>,
}

impl Responder {
    /// Bind UDP and TCP on one ephemeral loopback port and start the
    /// thread. With `faults`, names selected by hash lose their first UDP
    /// attempt or are answered TC=1 (see [`names`]).
    pub fn start(faults: bool) -> std::io::Result<Responder> {
        let (udp, tcp) = loop {
            let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
            match TcpListener::bind(udp.local_addr()?) {
                Ok(tcp) => break (udp, tcp),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => continue,
                Err(e) => return Err(e),
            }
        };
        sys::set_recv_buffer(udp.as_raw_fd(), 8 << 20);
        tcp.set_nonblocking(true)?;
        let addr = SocketAddrV4::new(Ipv4Addr::LOCALHOST, udp.local_addr()?.port());
        let stats = Arc::new(ResponderStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (clock_tx, clock_rx) = mpsc::channel();
        let thread = {
            let (stats, stop) = (Arc::clone(&stats), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("zbench-responder".into())
                .spawn(move || {
                    sys::pin_current_thread(sys::Place::Harness);
                    let _ = clock_tx.send(sys::ThreadCpuClock::current());
                    serve(&udp, &tcp, faults, &stats, &stop);
                })?
        };
        let cpu = clock_rx
            .recv()
            .map_err(|_| std::io::Error::other("responder thread died at start"))?;
        Ok(Responder {
            addr,
            stats,
            stop,
            cpu,
            thread: Some(thread),
        })
    }

    pub fn addr(&self) -> SocketAddrV4 {
        self.addr
    }

    pub fn stats(&self) -> &ResponderStats {
        &self.stats
    }

    /// The responder thread's CPU clock (harness CPU, subtracted from the
    /// program's).
    pub fn cpu_clock(&self) -> sys::ThreadCpuClock {
        self.cpu
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What the responder needs from a query.
#[derive(Clone, Copy)]
pub struct ParsedQuery {
    /// Offset just past the question (QCLASS included).
    question_end: usize,
    /// [`names::hash_wire`] of the question name.
    pub hash: u64,
    is_a: bool,
    has_opt: bool,
    /// First octet of the first label (the name family).
    family: u8,
}

/// Validate the query in `buf[..len]`: one question, QR=0, an uncompressed
/// name under `zbench.test`. `None` for anything else.
pub fn parse_query(buf: &[u8; DGRAM], len: usize) -> Option<ParsedQuery> {
    if len < 17 || buf[2] & 0x80 != 0 || buf[4..6] != [0, 1] {
        return None;
    }
    let mut at = 12;
    while buf[at] != 0 {
        // A label: no compression pointers in a question, and room for
        // the root octet, type and class after it.
        if buf[at] > 63 {
            return None;
        }
        at += 1 + buf[at] as usize;
        if at + 5 > len {
            return None;
        }
    }
    let labels = &buf[12..at];
    if labels.len() <= SUFFIX_WIRE.len()
        || !labels[labels.len() - SUFFIX_WIRE.len()..].eq_ignore_ascii_case(SUFFIX_WIRE)
    {
        return None;
    }
    Some(ParsedQuery {
        question_end: at + 5,
        hash: names::hash_wire(labels),
        is_a: buf[at + 1..at + 5] == [0, 1, 0, 1],
        has_opt: buf[10..12] != [0, 0],
        family: buf[13],
    })
}

/// Rewrite the parsed query in `buf` into its answer, in place; returns the
/// answer's length. `truncate` sends TC=1 with no answer instead.
pub fn write_answer(buf: &mut [u8; DGRAM], query: ParsedQuery, truncate: bool) -> usize {
    let answers = u8::from(query.is_a && !truncate);
    buf[2] = 0x80 | (buf[2] & 0x01) | if truncate { 0x02 } else { 0 };
    buf[3] = 0x80;
    buf[6..12].copy_from_slice(&[0, answers, 0, 0, 0, u8::from(query.has_opt)]);
    let mut end = query.question_end;
    if answers == 1 {
        // Owner = pointer to the question name; A, IN, TTL, 4 octets.
        buf[end..end + 6].copy_from_slice(&[0xc0, 0x0c, 0, 1, 0, 1]);
        buf[end + 6..end + 10].copy_from_slice(&ANSWER_TTL.to_be_bytes());
        buf[end + 10..end + 12].copy_from_slice(&[0, 4]);
        buf[end + 12..end + 16].copy_from_slice(&names::answer_for(query.hash).octets());
        end += 16;
    }
    if query.has_opt {
        buf[end..end + 11].copy_from_slice(&[0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 0]);
        end += 11;
    }
    end
}

/// How long the responder lets queries queue before it looks again, when it
/// has a CPU to itself: it then never sleeps (a sleeping peer has to be
/// woken across CPUs by whoever sends to it, which charges the program's
/// send path for the harness's naps, or not, depending on timing), and
/// answers arrive in bursts a tick apart, like a network with that RTT.
/// While a serve client shares its CPU it blocks in `poll` instead: the
/// client is the thread that must not be kept off the CPU then, and the few
/// queries a serve fleet forwards always find the responder asleep.
const TICK: Duration = Duration::from_micros(200);

struct TcpConn {
    stream: TcpStream,
    read: Vec<u8>,
}

fn serve(
    udp: &UdpSocket,
    tcp: &TcpListener,
    faults: bool,
    stats: &ResponderStats,
    stop: &AtomicBool,
) {
    let fd = udp.as_raw_fd();
    let mut batch = Batch::new(64);
    // Lossy names that have lost their one attempt.
    let mut swallowed: HashSet<u64> = HashSet::new();
    let mut conns: Vec<TcpConn> = Vec::new();
    let own_cpu = sys::harness_has_own_cpu();
    while !stop.load(Ordering::Relaxed) {
        let received = batch.recv(fd, sys::MSG_DONTWAIT);
        let mut keep = received;
        let mut i = 0;
        while i < keep {
            let len = batch.lens[i];
            let answered = match parse_query(batch.buf(i), len) {
                None => {
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Some(query) => match udp_fault(query, faults, &mut swallowed, stats) {
                    Fault::Swallow => None,
                    Fault::Truncate => Some(write_answer(batch.buf(i), query, true)),
                    Fault::None => Some(write_answer(batch.buf(i), query, false)),
                },
            };
            match answered {
                Some(n) => {
                    batch.lens[i] = n;
                    i += 1;
                }
                None => {
                    // Nothing goes back for this one: move the last
                    // datagram of the batch into its place.
                    keep -= 1;
                    if i < keep {
                        let (moved, dest) = (*batch.buf(keep), batch.peer(keep));
                        *batch.buf(i) = moved;
                        batch.lens[i] = batch.lens[keep];
                        batch.set_dest(i, dest);
                    }
                }
            }
        }
        if received > 0 {
            stats
                .datagrams
                .fetch_add(received as u64, Ordering::Relaxed);
            batch.send(fd, keep);
        }

        let tcp_progress = serve_tcp(tcp, &mut conns, stats);
        if received > 0 || tcp_progress {
            continue;
        }
        if own_cpu && !sys::harness_cpu_shared() {
            // Drained: hold the next look until the tick is over.
            let until = Instant::now() + TICK;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        } else {
            let mut fds: Vec<PollFd> = [fd, tcp.as_raw_fd()]
                .into_iter()
                .chain(conns.iter().map(|c| c.stream.as_raw_fd()))
                .map(|fd| PollFd {
                    fd,
                    events: sys::POLLIN,
                    revents: 0,
                })
                .collect();
            sys::poll_readable(&mut fds, 20);
        }
    }
}

enum Fault {
    None,
    Swallow,
    Truncate,
}

/// Count done-set names and decide the UDP fault for one query.
fn udp_fault(
    query: ParsedQuery,
    faults: bool,
    swallowed: &mut HashSet<u64>,
    stats: &ResponderStats,
) -> Fault {
    if query.family == names::DONE as u8 {
        stats.done_names.fetch_add(1, Ordering::Relaxed);
    }
    if !faults {
        return Fault::None;
    }
    if names::loses_first_attempt(query.hash) && swallowed.insert(query.hash) {
        stats.swallowed.fetch_add(1, Ordering::Relaxed);
        return Fault::Swallow;
    }
    if names::truncates(query.hash) {
        stats.truncated.fetch_add(1, Ordering::Relaxed);
        return Fault::Truncate;
    }
    Fault::None
}

/// Accept what is pending and answer every connection that has a whole
/// frame; returns whether anything moved. One exchange per connection (the
/// scanner's TCP fallback connects per query).
fn serve_tcp(listener: &TcpListener, conns: &mut Vec<TcpConn>, stats: &ResponderStats) -> bool {
    let mut progress = false;
    while let Ok((stream, _)) = listener.accept() {
        if stream.set_nonblocking(true).is_ok() {
            conns.push(TcpConn {
                stream,
                read: Vec::with_capacity(128),
            });
            progress = true;
        }
    }
    conns.retain_mut(|conn| {
        let mut chunk = [0u8; DGRAM];
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => conn.read.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
        progress = true;
        if conn.read.len() < 2 {
            return true;
        }
        let frame = u16::from_be_bytes([conn.read[0], conn.read[1]]) as usize;
        if frame > DGRAM - 32 {
            return false;
        }
        if conn.read.len() < 2 + frame {
            return true;
        }
        let mut buf = [0u8; DGRAM];
        buf[..frame].copy_from_slice(&conn.read[2..2 + frame]);
        if let Some(query) = parse_query(&buf, frame) {
            let n = write_answer(&mut buf, query, false);
            let mut out = Vec::with_capacity(n + 2);
            out.extend_from_slice(&(n as u16).to_be_bytes());
            out.extend_from_slice(&buf[..n]);
            // A sub-MTU frame into a fresh socket buffer cannot block.
            if conn.stream.write_all(&out).is_ok() {
                stats.tcp_exchanges.fetch_add(1, Ordering::Relaxed);
            }
        }
        false
    });
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_wire::{Message, Question, RecordType};

    fn query_bytes(name: &str, qtype: RecordType) -> Vec<u8> {
        Message::query(0x4242, Question::new(name.parse().unwrap(), qtype))
            .encode()
            .unwrap()
    }

    fn first_with(pred: fn(u64) -> bool) -> String {
        (0..)
            .map(|i| names::scan_name(names::LIVE, 1, i))
            .find(|n| pred(names::hash_dotted(n)))
            .unwrap()
    }

    #[test]
    fn udp_answer_decodes_with_the_hash_address() {
        let responder = Responder::start(false).unwrap();
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        socket
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let name = "MiXed.zbench.test";
        socket
            .send_to(&query_bytes(name, RecordType::A), responder.addr())
            .unwrap();
        let mut buf = [0u8; DGRAM];
        let (n, _) = socket.recv_from(&mut buf).unwrap();
        let msg = Message::decode(&buf[..n]).unwrap();
        assert_eq!(msg.id, 0x4242);
        assert!(msg.flags.response && !msg.flags.truncated);
        assert_eq!(msg.questions[0].name.to_string(), "MiXed.zbench.test");
        assert_eq!(msg.answers.len(), 1);
        assert_eq!(msg.answers[0].ttl, ANSWER_TTL);
        assert_eq!(
            msg.answers[0].rdata,
            zdns_wire::RData::A(names::answer_for(names::hash_dotted(name)))
        );
        assert!(msg.edns.is_some(), "OPT is echoed for EDNS queries");
        assert_eq!(responder.stats().wire_queries(), 1);
    }

    #[test]
    fn faults_swallow_once_and_truncate_over_udp_only() {
        let responder = Responder::start(true).unwrap();
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        socket
            .set_read_timeout(Some(std::time::Duration::from_millis(300)))
            .unwrap();
        let mut buf = [0u8; DGRAM];

        let lossy = first_with(|h| names::loses_first_attempt(h) && !names::truncates(h));
        let q = query_bytes(&lossy, RecordType::A);
        socket.send_to(&q, responder.addr()).unwrap();
        assert!(socket.recv_from(&mut buf).is_err(), "first attempt is lost");
        socket.send_to(&q, responder.addr()).unwrap();
        let (n, _) = socket.recv_from(&mut buf).unwrap();
        assert_eq!(Message::decode(&buf[..n]).unwrap().answers.len(), 1);

        let tc = first_with(|h| names::truncates(h) && !names::loses_first_attempt(h));
        let q = query_bytes(&tc, RecordType::A);
        socket.send_to(&q, responder.addr()).unwrap();
        let (n, _) = socket.recv_from(&mut buf).unwrap();
        let msg = Message::decode(&buf[..n]).unwrap();
        assert!(msg.flags.truncated && msg.answers.is_empty());

        // The same name over TCP, length-framed: the full answer.
        let mut stream = TcpStream::connect(responder.addr()).unwrap();
        stream.write_all(&(q.len() as u16).to_be_bytes()).unwrap();
        stream.write_all(&q).unwrap();
        let mut frame = [0u8; 2];
        stream.read_exact(&mut frame).unwrap();
        let mut body = vec![0u8; u16::from_be_bytes(frame) as usize];
        stream.read_exact(&mut body).unwrap();
        let msg = Message::decode(&body).unwrap();
        assert!(!msg.flags.truncated);
        assert_eq!(
            msg.answers[0].rdata,
            zdns_wire::RData::A(names::answer_for(names::hash_dotted(&tc)))
        );
        let stats = responder.stats();
        assert_eq!(stats.swallowed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.truncated.load(Ordering::Relaxed), 1);
        assert_eq!(stats.tcp_exchanges.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn foreign_and_malformed_messages_get_no_answer() {
        let mut buf = [0u8; DGRAM];
        let q = query_bytes("www.example.com", RecordType::A);
        buf[..q.len()].copy_from_slice(&q);
        assert!(parse_query(&buf, q.len()).is_none());
        assert!(parse_query(&[0xff; DGRAM], 40).is_none());
        // Non-A types get an empty NOERROR answer.
        let q = query_bytes("x.zbench.test", RecordType::TXT);
        buf[..q.len()].copy_from_slice(&q);
        let query = parse_query(&buf, q.len()).unwrap();
        let n = write_answer(&mut buf, query, false);
        assert!(Message::decode(&buf[..n]).unwrap().answers.is_empty());
    }
}
