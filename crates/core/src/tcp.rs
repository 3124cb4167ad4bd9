//! The reactor's client-side TCP: truncation-fallback exchanges as a table
//! of non-blocking connections the event loop pumps between its UDP work.
//!
//! One exchange is one connection (what a per-query fallback has always
//! been, and what single-shot responders assume): connect, write the
//! length-framed query, read the length-framed answer, close. At most
//! [`MAX_OPEN`] connections are open at once; the rest wait in a FIFO.
//! Nothing here blocks and nothing here keeps time — the reactor arms each
//! exchange's timeout on its timer wheel when the exchange is submitted,
//! waiting or not, and [`TcpTable::take`]s the exchange back if it fires.
//! So an exchange costs its destination's slowness to itself alone: a
//! destination that accepts and never answers holds one of the table's
//! places for one timeout, and every other exchange proceeds around it.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::time::Duration;

use zdns_netsim::{connect_nonblocking, FramedConn};

use crate::timer_wheel::{TimerHandle, TimerWheel};

/// Connections open at once per reactor. Exchanges beyond it queue; the
/// figure is what a serve worker accepts (`serve::MAX_TCP_CONNS`), so one
/// scanning worker cannot exhaust one such server by itself.
const MAX_OPEN: usize = 64;

/// Most octets read from one connection per pump — one answer of the
/// largest size a length prefix can say.
const READ_BUDGET: usize = 2 + u16::MAX as usize;

/// One TCP exchange a lookup machine is waiting on.
pub(crate) struct Exchange {
    /// The wheel token of this exchange's timeout; names it in the table.
    pub token: u64,
    /// The reactor slot of the machine that asked.
    pub slot: usize,
    /// The machine's correlation tag for the query.
    pub tag: u64,
    /// The destination as the machine knows it.
    pub sim_ip: Ipv4Addr,
    /// The destination as the socket knows it.
    pub to: SocketAddr,
    /// The machine's timeout, armed on the wheel as `timer` (and, off
    /// Linux, the bound on the blocking connect).
    pub timeout: Duration,
    /// The armed timeout.
    pub timer: TimerHandle,
    /// The encoded query.
    pub query: Vec<u8>,
}

/// The open connections and the exchanges waiting for one.
#[derive(Default)]
pub(crate) struct TcpTable {
    open: Vec<(Exchange, FramedConn<TcpStream>)>,
    waiting: VecDeque<Exchange>,
}

impl TcpTable {
    /// Take an exchange on. It connects at the next [`TcpTable::pump`]
    /// with a place free.
    pub fn submit(&mut self, exchange: Exchange) {
        self.waiting.push_back(exchange);
    }

    /// Whether no exchange is open or waiting.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty() && self.waiting.is_empty()
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.open.len()
    }

    /// Remove the exchange whose timeout is `token` (it fired), closing
    /// its connection if it had one.
    pub fn take(&mut self, token: u64) -> Option<Exchange> {
        if let Some(i) = self.open.iter().position(|(e, _)| e.token == token) {
            return Some(self.open.remove(i).0);
        }
        let i = self.waiting.iter().position(|e| e.token == token)?;
        self.waiting.remove(i)
    }

    /// Drop every exchange of a retiring `slot`: close its connections and
    /// cancel its timeouts.
    pub fn close_slot(&mut self, slot: usize, wheel: &mut TimerWheel) {
        let mut keep = |e: &Exchange| {
            if e.slot == slot {
                wheel.cancel(e.timer);
            }
            e.slot != slot
        };
        self.open.retain(|(e, _)| keep(e));
        self.waiting.retain(|e| keep(e));
    }

    /// Move every exchange as far as its socket allows: give waiting
    /// exchanges the free places (oldest first), flush queries, read
    /// answers. An exchange that ended — its answer frame arrived whole
    /// (`Some`, the frame's octets), or the connection failed or closed
    /// early (`None`) — leaves the table through `finished`, its
    /// connection closed and its timeout still armed (the caller cancels
    /// it).
    pub fn pump(&mut self, finished: &mut Vec<(Exchange, Option<Vec<u8>>)>) {
        while self.open.len() < MAX_OPEN {
            let Some(exchange) = self.waiting.pop_front() else {
                break;
            };
            match connect_nonblocking(exchange.to, exchange.timeout) {
                Ok(stream) => {
                    let mut conn = FramedConn::new(stream);
                    conn.queue_frame(&exchange.query);
                    self.open.push((exchange, conn));
                }
                Err(_) => finished.push((exchange, None)),
            }
        }
        let mut i = 0;
        while i < self.open.len() {
            match step(&mut self.open[i].1) {
                Some(answer) => finished.push((self.open.remove(i).0, answer)),
                None => i += 1,
            }
        }
    }
}

/// Advance one connection. `None` while the exchange is still under way
/// (a connect in progress reads and writes as `WouldBlock`).
fn step(conn: &mut FramedConn<TcpStream>) -> Option<Option<Vec<u8>>> {
    if conn.flush().is_err() || conn.fill(READ_BUDGET).is_err() {
        return Some(None);
    }
    match conn.frame() {
        Some(frame) => Some(Some(frame.to_vec())),
        None if conn.peer_closed() => Some(None),
        None => None,
    }
}
