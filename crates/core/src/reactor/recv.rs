//! The receive path: datagrams, TCP completions and expired timers go to
//! the machines they belong to.

use zdns_netsim::{ClientEvent, JobOutcome, Protocol};
use zdns_wire::{MessageView, MsgRef};

use super::Reactor;

/// Ceiling on consecutive receive errors absorbed in one drain pass, so
/// a repeating error cannot spin the loop while still letting queued
/// datagrams behind an error be drained (not stranded until next poll).
const MAX_DRAIN_ERRORS: u32 = 64;

impl Reactor {
    /// Feed one event to the machine in `idx`.
    pub(super) fn deliver(
        &mut self,
        idx: usize,
        event: ClientEvent<'_>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        let Some(machine) = self.slots[idx].as_mut().and_then(|s| s.machine.take()) else {
            return; // machine already retired
        };
        if !matches!(event, ClientEvent::Response { .. }) {
            // A timeout or a transport failure: the machine retries or
            // gives up, and either way the attempt is spent.
            self.report.retries += 1;
        }
        self.step(idx, machine, Some(event), on_done);
    }

    /// Drain every datagram currently queued on the socket, one arena
    /// batch at a time.
    ///
    /// Hard socket errors (e.g. ICMP unreachable surfaced as
    /// ECONNREFUSED) are skipped — the per-query timer still guards the
    /// lookup — and draining continues so one error doesn't strand
    /// already-queued datagrams until the next poll round; the
    /// [`MAX_DRAIN_ERRORS`] cap stops a repeating error from spinning the
    /// loop. A *short batch* (fewer datagrams than the arena holds) is a
    /// normal drain — the queue was empty when it was read — never an
    /// error, and it ends the drain: asking again would cost an empty
    /// `recvmmsg` per drain, and a datagram that lands meanwhile is read
    /// on the next tick.
    pub(super) fn drain_datagrams(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        // Move the arena out so machines (stepped via `&mut self`) can be
        // handed borrowed views straight over its buffers — the zero-copy
        // receive path: no `to_vec`, no owned decode per datagram.
        let mut io = self.batch.take().expect("batch io present");
        let mut errors = 0u32;
        'drain: loop {
            let batch = io.recv_into_arena(&self.socket);
            self.report.recv_batches += 1;
            self.report.datagrams_received += batch.count as u64;
            for i in 0..batch.count {
                let peer = io.arena_peer(i);
                let bytes = io.arena_bytes(i);
                // Parse up front, but touch the demux table only after
                // the datagram proves to be a well-formed response.
                let view = match MessageView::parse(bytes) {
                    Ok(view) if view.flags().response => view,
                    Ok(_) => {
                        // A query (QR=0), say one a middlebox reflected
                        // back, never completes a lookup.
                        self.report.stale_datagrams += 1;
                        continue;
                    }
                    Err(_) => {
                        self.report.decode_errors += 1;
                        continue;
                    }
                };
                let key = (peer, view.id());
                let Some(pending) = self.demux.remove(&key) else {
                    // Late, stale, or unsolicited: exactly the datagrams
                    // the demux table exists to reject.
                    self.report.stale_datagrams += 1;
                    continue;
                };
                self.wheel.cancel(pending.timer);
                if let Some(slot) = self.slots[pending.slot].as_mut() {
                    if let Some(pos) = slot.keys.iter().position(|k| *k == key) {
                        slot.keys.swap_remove(pos);
                    }
                }
                // The machine sees its own transaction id: the view
                // overrides it without touching the arena.
                let message = MsgRef::View(view.with_id(pending.orig_id));
                self.pace_feedback(pending.sim_ip, true);
                let event = ClientEvent::Response {
                    tag: pending.tag,
                    from: pending.sim_ip,
                    message,
                    protocol: Protocol::Udp,
                };
                self.deliver(pending.slot, event, on_done);
            }
            match batch.err {
                None if batch.count < io.batch_size() => break 'drain, // socket drained
                None => {} // a full batch: keep draining
                Some(_) => {
                    errors += 1;
                    if errors >= MAX_DRAIN_ERRORS {
                        break 'drain;
                    }
                }
            }
        }
        self.batch = Some(io);
    }

    /// Pump the TCP table and hand every exchange that ended to its
    /// machine.
    pub(super) fn pump_tcp(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        if self.tcp.is_empty() {
            return;
        }
        let mut finished = Vec::new();
        self.tcp.pump(&mut finished);
        for (exchange, frame) in finished {
            self.wheel.cancel(exchange.timer);
            // An answer that does not parse fails the exchange as a
            // broken connection does.
            let answer = frame.as_deref().and_then(|f| MessageView::parse(f).ok());
            self.pace_feedback(exchange.sim_ip, answer.is_some());
            let event = match answer {
                Some(view) => ClientEvent::Response {
                    tag: exchange.tag,
                    from: exchange.sim_ip,
                    message: MsgRef::View(view),
                    protocol: Protocol::Tcp,
                },
                None => ClientEvent::TransportFailed { tag: exchange.tag },
            };
            self.deliver_tcp(exchange.slot, event, on_done);
        }
    }

    /// Deliver the end of one of `idx`'s TCP exchanges.
    fn deliver_tcp(
        &mut self,
        idx: usize,
        event: ClientEvent<'_>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.tcp_pending -= 1;
        }
        self.deliver(idx, event, on_done);
    }

    /// Drop every held send together with its release timer (end of run).
    pub(super) fn drop_deferred(&mut self) {
        for (_, sent) in self.deferred.drain() {
            self.wheel.cancel(sent.timer);
        }
    }

    /// Fire every expired timer: deferred-send releases go to the wire,
    /// per-query timeouts go to their machines (and feed backoff).
    pub(super) fn fire_timers(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.expire(self.now(), &mut fired);
        for (token, key) in fired.drain(..) {
            if let Some(sent) = self.deferred.remove(&token) {
                // Staged, not sent: every deferred release maturing on
                // this tick lands in the same upcoming batch flush.
                self.release_deferred(sent);
                continue;
            }
            if let Some(exchange) = self.tcp.take(token) {
                // Dropping the exchange closes its connection, if it
                // ever got one.
                self.report.timeouts_fired += 1;
                self.pace_feedback(exchange.sim_ip, false);
                let event = ClientEvent::Timeout { tag: exchange.tag };
                self.deliver_tcp(exchange.slot, event, on_done);
                continue;
            }
            let stale = match self.demux.get(&key) {
                Some(pending) => pending.timer.token != token,
                None => true,
            };
            if stale {
                continue;
            }
            let pending = self.demux.remove(&key).expect("checked above");
            if let Some(slot) = self.slots[pending.slot].as_mut() {
                if let Some(pos) = slot.keys.iter().position(|k| *k == key) {
                    slot.keys.swap_remove(pos);
                }
            }
            self.report.timeouts_fired += 1;
            self.pace_feedback(pending.sim_ip, false);
            self.deliver(
                pending.slot,
                ClientEvent::Timeout { tag: pending.tag },
                on_done,
            );
        }
        self.fired = fired;
    }
}

#[cfg(test)]
mod tests {
    use std::net::{Ipv4Addr, UdpSocket};
    use std::sync::Arc;

    use crate::reactor::{Reactor, ReactorConfig};

    #[test]
    fn a_tick_that_reads_three_datagrams_makes_one_receive_call() {
        let mut reactor = Reactor::new(
            ReactorConfig {
                source: Ipv4Addr::LOCALHOST,
                ..ReactorConfig::default()
            },
            Arc::new(|_| (Ipv4Addr::LOCALHOST, 9).into()),
        )
        .unwrap();
        let to = reactor.local_addr().unwrap();
        let peer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        for _ in 0..3 {
            peer.send_to(b"not a response", to).unwrap();
        }
        // Loopback delivers as it sends; the pause only keeps a busy box
        // from splitting the three across two ticks.
        std::thread::sleep(std::time::Duration::from_millis(20));
        reactor.serve_tick();
        let report = &reactor.report;
        assert_eq!(report.datagrams_received, 3);
        assert_eq!(report.recv_batches, 1, "a short batch ends the drain");
        // A full batch is followed by one more read, which finds the rest.
        let depth = reactor.batch.as_ref().unwrap().batch_size();
        for _ in 0..depth + 1 {
            peer.send_to(b"not a response", to).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        reactor.serve_tick();
        let report = &reactor.report;
        assert_eq!(report.datagrams_received, 3 + depth as u64 + 1);
        assert_eq!(report.recv_batches, 3);
    }
}
