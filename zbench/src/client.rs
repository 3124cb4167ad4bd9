//! The serve workload's load generator: one thread, batched
//! (`sendmmsg`/`recvmmsg`) I/O, queries patched from pre-encoded
//! templates, closed loop with a fixed number outstanding — plus the
//! open-loop variant and the trivial echo peer the traced pass uses to
//! show the generator is not the bottleneck.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zdns_wire::{Edns, Flags, Message, Question, RData, RcodeField, Record, RecordType};

use crate::names::{self, MixGen, MixOp, HOT_NAMES};
use crate::stats::SliceClock;
use crate::sys::{self, Batch, DGRAM};

/// Queries the closed loop keeps outstanding.
pub const OUTSTANDING: usize = 64;

/// Room for any query the client sends: header, a first label of up to 31
/// octets (a hot label with a 64-bit seed), the suffix, question tail, OPT.
const QUERY_MAX: usize = 96;

/// Slot index bits in a query id; the rest is a generation counter, so a
/// late answer to a slot's previous query is recognised and ignored.
const SLOT_BITS: u32 = 10;
const MAX_WINDOW: usize = 1 << SLOT_BITS;

/// The client's polling interval when the harness has a CPU of its own: it
/// then never sleeps, so the server never pays to wake it, and sends what is
/// due and looks for answers once a tick. 64 outstanding per 50 µs allow
/// 1.28 M queries/s, far above the server.
const CLIENT_TICK: Duration = Duration::from_micros(50);

/// A query unanswered for this long counts as failed and its slot is reused.
const ANSWER_DEADLINE: Duration = Duration::from_secs(1);

fn v4(addr: SocketAddr) -> Result<SocketAddrV4, String> {
    match addr {
        SocketAddr::V4(v4) => Ok(v4),
        other => Err(format!("{other} is not IPv4")),
    }
}

/// Run `f` on a thread of its own in the harness's place (see
/// [`sys::Place`]) and hand back its result: where every client runs, so
/// that load generation never shares a CPU with the program when a second
/// one exists.
pub fn on_harness_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let _guest = sys::HarnessGuest::enter();
            f()
        });
        match client.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

#[derive(Clone, Copy)]
struct Slot {
    id: u16,
    generation: u16,
    /// Hash of the queried name: fixes the expected answer.
    hash: u64,
    /// When the query was staged; the answer deadline counts from here.
    sent: Instant,
    /// When an open-loop query was due (equals `sent` in the closed loop).
    due: Instant,
    busy: bool,
    /// The query as sent, for the sampled byte comparison.
    query: [u8; QUERY_MAX],
    query_len: u8,
}

/// Which classes of the serve mix a client sends (the others are skipped,
/// not replaced, so the kept classes stay in their seeded order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixFilter {
    /// The full 85/10/5 mix.
    All,
    /// Exact repeats and case variants: everything a cache can answer.
    NoFresh,
    /// Exact repeats only: the cheapest query to generate.
    ExactOnly,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct ClientOutcome {
    pub completed: u64,
    pub failed: u64,
    /// Fresh names sent (each must be forwarded exactly once).
    pub fresh_sent: u32,
}

pub struct ServeClient {
    socket: UdpSocket,
    server: SocketAddrV4,
    seed: u64,
    mix: MixGen,
    /// Check each answer (header on all, full decode and byte comparison on
    /// 1 in 64). Off against the echo peer, which answers nothing.
    pub verify: bool,
    /// Which classes of the mix to send.
    pub filter: MixFilter,
    /// Polling interval: set when harness threads have a CPU of their own
    /// (the client then never sleeps, see [`CLIENT_TICK`]); `None` blocks in
    /// `recvmmsg` (closed loop) or polls without pause (open loop) instead.
    pub tick: Option<Duration>,
    window: usize,
    hot_queries: Vec<([u8; QUERY_MAX], u8, u64)>,
    slots: Vec<Slot>,
    send: Batch,
    staged: usize,
    recv: Batch,
}

impl ServeClient {
    pub fn new(server: SocketAddr, seed: u64) -> Result<ServeClient, String> {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
        sys::set_recv_buffer(socket.as_raw_fd(), 4 << 20);
        let hot_queries = (0..HOT_NAMES as u32)
            .map(|hot| {
                let label = names::hot_label(seed, hot);
                let mut buf = [0u8; QUERY_MAX];
                let n = names::write_query(&mut buf, 0, label.as_bytes());
                let hash = names::hash_dotted(&format!("{label}.zbench.test"));
                (buf, n as u8, hash)
            })
            .collect();
        let now = Instant::now();
        let idle = Slot {
            id: 0,
            generation: 0,
            hash: 0,
            sent: now,
            due: now,
            busy: false,
            query: [0; QUERY_MAX],
            query_len: 0,
        };
        Ok(ServeClient {
            socket,
            server: v4(server)?,
            seed,
            mix: MixGen::new(seed),
            verify: true,
            filter: MixFilter::All,
            tick: sys::harness_has_own_cpu().then_some(CLIENT_TICK),
            window: OUTSTANDING,
            hot_queries,
            slots: vec![idle; MAX_WINDOW],
            send: Batch::new(MAX_WINDOW),
            staged: 0,
            recv: Batch::new(MAX_WINDOW),
        })
    }

    pub fn set_window(&mut self, window: usize) {
        self.window = window.clamp(1, MAX_WINDOW);
    }

    /// Query every hot name twice, in order, waiting for each pass: the
    /// first pass forwards and fills the record cache, the second is a
    /// record hit that fills the packet cache. After this an exact repeat is
    /// a packet hit. Returns how many of the queries went unanswered or
    /// were answered wrong.
    pub fn warm_up(&mut self) -> u64 {
        let mut failed = 0;
        for _ in 0..2 {
            let mut hot = 0u32;
            let mut next = || {
                let op = MixOp::Exact { hot };
                hot += 1;
                op
            };
            failed += self.drive(HOT_NAMES, &mut next, None, None).failed;
        }
        failed
    }

    /// Send `total` queries of the mix, `window` outstanding, ticking
    /// `clock` once per answered query.
    pub fn run_closed_loop(&mut self, total: u64, clock: &mut SliceClock) -> ClientOutcome {
        let fresh_before = self.mix.fresh_drawn();
        let mut mix = std::mem::replace(&mut self.mix, MixGen::new(0));
        let filter = self.filter;
        let mut next = || loop {
            let op = mix.next_op();
            let wanted = matches!(
                (filter, op),
                (MixFilter::All, _)
                    | (_, MixOp::Exact { .. })
                    | (MixFilter::NoFresh, MixOp::Variant { .. })
            );
            if wanted {
                return op;
            }
        };
        clock.restart();
        let mut outcome = self.drive(total, &mut next, Some(clock), None);
        self.mix = mix;
        outcome.fresh_sent = self.mix.fresh_drawn() - fresh_before;
        outcome
    }

    /// Send the mix at a fixed `rate` for `total` queries whatever the
    /// server does, timing each answer from when its query was due.
    /// Returns (latency µs per answer, lateness µs per send).
    pub fn run_open_loop(&mut self, total: u64, rate: f64) -> (ClientOutcome, Vec<f64>, Vec<f64>) {
        let mut mix = std::mem::replace(&mut self.mix, MixGen::new(0));
        let mut next = || mix.next_op();
        let mut samples = OpenLoop {
            interval: Duration::from_secs_f64(1.0 / rate),
            latency_us: Vec::with_capacity(total as usize),
            late_us: Vec::with_capacity(total as usize),
        };
        let saved = self.window;
        self.window = MAX_WINDOW;
        let outcome = self.drive(total, &mut next, None, Some(&mut samples));
        self.window = saved;
        self.mix = mix;
        (outcome, samples.latency_us, samples.late_us)
    }

    fn stage(&mut self, slot_idx: usize, op: MixOp, due: Instant, now: Instant) {
        let slot = &mut self.slots[slot_idx];
        slot.generation = slot.generation.wrapping_add(1);
        slot.id = (slot.generation << SLOT_BITS) | slot_idx as u16;
        let buf = self.send.buf(self.staged);
        let (len, hash) = match op {
            MixOp::Exact { hot } | MixOp::Variant { hot, .. } => {
                let (query, len, hash) = &self.hot_queries[hot as usize];
                buf[..QUERY_MAX].copy_from_slice(query);
                if let MixOp::Variant { mask, .. } = op {
                    let label_len = buf[12] as usize;
                    names::apply_case_mask(&mut buf[13..13 + label_len], mask);
                }
                (*len as usize, *hash)
            }
            MixOp::Fresh { index } => {
                let label = names::fresh_label(self.seed, index);
                let len = names::write_query(&mut buf[..], 0, label.as_bytes());
                let name_end = 12 + 1 + label.len() + names::SUFFIX_WIRE.len();
                (len, names::hash_wire(&buf[12..name_end]))
            }
        };
        buf[0..2].copy_from_slice(&slot.id.to_be_bytes());
        slot.hash = hash;
        slot.busy = true;
        slot.sent = now;
        slot.due = due;
        slot.query[..len].copy_from_slice(&buf[..len]);
        slot.query_len = len as u8;
        self.send.lens[self.staged] = len;
        self.send.set_dest(self.staged, self.server);
        self.staged += 1;
    }

    fn flush(&mut self) {
        if self.staged == 0 {
            return;
        }
        let sent = self.send.send(self.socket.as_raw_fd(), self.staged);
        debug_assert_eq!(
            sent, self.staged,
            "loopback send buffer never fills at this depth"
        );
        self.staged = 0;
    }

    /// The engine under both loops: keep queries flowing until `total` have
    /// been answered or given up on.
    fn drive(
        &mut self,
        total: u64,
        next: &mut dyn FnMut() -> MixOp,
        mut clock: Option<&mut SliceClock>,
        mut open: Option<&mut OpenLoop>,
    ) -> ClientOutcome {
        let fd = self.socket.as_raw_fd();
        let mut outcome = ClientOutcome::default();
        let mut issued = 0u64;
        let mut free: Vec<usize> = (0..self.window).rev().collect();
        let started = Instant::now();
        let mut sampled = 0u64;
        let mut idle_since: Option<Instant> = None;
        let tick = self.tick;
        while outcome.completed + outcome.failed < total {
            // Issue: as many as the window allows (closed loop) or as are
            // due by now (open loop).
            let now = Instant::now();
            while issued < total {
                let due = match &open {
                    Some(o) => started + o.interval.mul_f64(issued as f64),
                    None => now,
                };
                if due > now {
                    break;
                }
                let Some(slot) = free.pop() else { break };
                self.stage(slot, next(), due, now);
                if let Some(o) = open.as_deref_mut() {
                    o.late_us.push((now - due).as_secs_f64() * 1e6);
                }
                issued += 1;
            }
            self.flush();

            let flags = if open.is_some() || tick.is_some() {
                sys::MSG_DONTWAIT
            } else {
                sys::MSG_WAITFORONE
            };
            if let Some(tick) = tick {
                // On a CPU of its own: never sleep, send what is due and
                // look for answers once a tick (see `responder::TICK`).
                let until = now + tick;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            let n = self.recv.recv(fd, flags);
            let now = Instant::now();
            for i in 0..n {
                let bytes = self.recv.bytes(i);
                if bytes.len() < 12 {
                    continue;
                }
                let id = u16::from_be_bytes([bytes[0], bytes[1]]);
                let slot_idx = id as usize & (MAX_WINDOW - 1);
                let slot = &mut self.slots[slot_idx];
                if !slot.busy || slot.id != id {
                    continue; // late answer to a query already given up on
                }
                let mut ok = true;
                if self.verify {
                    ok = header_ok(bytes, slot);
                    if ok && sampled.is_multiple_of(64) {
                        ok = full_check(bytes, slot);
                    }
                    sampled += 1;
                }
                slot.busy = false;
                let due = slot.due;
                free.push(slot_idx);
                if ok {
                    outcome.completed += 1;
                    if let Some(clock) = clock.as_deref_mut() {
                        clock.tick();
                    }
                    if let Some(o) = open.as_deref_mut() {
                        o.latency_us.push((now - due).as_secs_f64() * 1e6);
                    }
                } else {
                    outcome.failed += 1;
                }
            }
            if n > 0 {
                idle_since = None;
            } else if flags == sys::MSG_DONTWAIT
                && now - *idle_since.get_or_insert(now) < Duration::from_millis(100)
            {
                // Polling: nothing yet, look again.
                std::hint::spin_loop();
            } else {
                // Idle for 100 ms: give up on anything past its deadline.
                idle_since = None;
                for idx in 0..self.window {
                    let slot = &mut self.slots[idx];
                    if slot.busy && now - slot.sent > ANSWER_DEADLINE {
                        slot.busy = false;
                        free.push(idx);
                        outcome.failed += 1;
                    }
                }
            }
        }
        outcome
    }
}

struct OpenLoop {
    interval: Duration,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// Cheap check on every answer: a NOERROR response carrying one answer to
/// exactly the question sent (same octets, so the same 0x20 case).
fn header_ok(bytes: &[u8], slot: &Slot) -> bool {
    // Question section: everything in the query between the header and
    // the 11-octet OPT.
    let question_end = slot.query_len as usize - 11;
    bytes.len() > question_end
        && bytes[2] & 0x80 != 0
        && bytes[3] & 0x0f == 0
        && bytes[6..8] == [0, 1]
        && bytes[12..question_end] == slot.query[12..question_end]
}

/// The sampled check: the answer decodes through `zdns_wire`, carries the
/// hash-derived address, and is byte-for-byte what a fresh encode of that
/// response produces.
fn full_check(bytes: &[u8], slot: &Slot) -> bool {
    let Ok(msg) = Message::decode(bytes) else {
        return false;
    };
    let expected_addr = names::answer_for(slot.hash);
    if msg.answers.len() != 1 || msg.answers[0].rdata != RData::A(expected_addr) {
        return false;
    }
    let Ok(query) = Message::decode(&slot.query[..slot.query_len as usize]) else {
        return false;
    };
    let question: Question = query.questions[0].clone();
    let owner = msg.answers[0].name.clone();
    let fresh = Message {
        id: slot.id,
        flags: Flags {
            response: true,
            recursion_desired: true,
            recursion_available: true,
            ..Flags::default()
        },
        rcode: RcodeField(zdns_wire::Rcode::NoError),
        questions: vec![question],
        answers: vec![Record::new(
            owner,
            names::ANSWER_TTL,
            RData::A(expected_addr),
        )],
        authorities: Vec::new(),
        additionals: Vec::new(),
        edns: Some(Edns::default()),
    };
    fresh.encode().is_ok_and(|expected| expected == bytes)
}

/// One query for `label.zbench.test` at `server`; returns when its correct
/// answer arrived, `None` if none did within 2 s.
pub fn one_query(server: SocketAddr, label: &[u8]) -> Result<Option<Instant>, String> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
    socket
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    let mut buf = [0u8; DGRAM];
    let n = names::write_query(&mut buf, 0x7a62, label);
    let name_end = 12 + 1 + label.len() + names::SUFFIX_WIRE.len();
    let expected = names::answer_for(names::hash_wire(&buf[12..name_end]));
    socket
        .send_to(&buf[..n], server)
        .map_err(|e| e.to_string())?;
    let Ok((n, _)) = socket.recv_from(&mut buf) else {
        return Ok(None);
    };
    let answered = Instant::now();
    let right = Message::decode(&buf[..n]).is_ok_and(|msg| {
        msg.id == 0x7a62
            && msg.answers_of(RecordType::A).next().map(|r| &r.rdata) == Some(&RData::A(expected))
    });
    Ok(right.then_some(answered))
}

/// The cheapest possible peer: sets QR on whatever arrives and sends it
/// back, batched. Measuring the client against it gives the client's own
/// ceiling. It stands in for the program, so it runs in the program's place.
pub struct EchoPeer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl EchoPeer {
    pub fn start() -> Result<EchoPeer, String> {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
        socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        sys::set_recv_buffer(socket.as_raw_fd(), 4 << 20);
        let addr = socket.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("zbench-echo".into())
            .spawn(move || {
                sys::pin_current_thread(sys::Place::Program);
                let mut batch = Batch::new(64);
                let fd = socket.as_raw_fd();
                // Polls rather than sleeps when the client is on another
                // CPU, so the ceiling is the client's, not a wake-up's.
                let flags = if sys::harness_has_own_cpu() {
                    sys::MSG_DONTWAIT
                } else {
                    sys::MSG_WAITFORONE
                };
                while !stop2.load(Ordering::Relaxed) {
                    let n = batch.recv(fd, flags);
                    for i in 0..n {
                        batch.buf(i)[2] |= 0x80;
                    }
                    batch.send(fd, n);
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(EchoPeer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for EchoPeer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
