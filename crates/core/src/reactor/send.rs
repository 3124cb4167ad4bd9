//! The send path: a machine's queries go through the pacer to the TCP
//! table, the deferred queue or the stage, and each tick's staged sends
//! leave in one batched syscall.

use std::net::{Ipv4Addr, SocketAddr};
use std::time::Duration;

use zdns_netsim::{ClientEvent, JobOutcome, OutQuery, Protocol, SimTime, MILLIS};
use zdns_pacing::PaceDecision;

use super::{DeferredSend, Pending, Reactor};
use crate::tcp::Exchange;
use crate::timer_wheel::DemuxKey;
use crate::transport::BatchSendStatus;

/// Wheel key for deferred-send releases. Never collides with demux
/// lookups: releases are resolved by token (globally unique) before the
/// demux path is consulted.
fn pace_key() -> DemuxKey {
    (
        SocketAddr::new(std::net::IpAddr::V4(Ipv4Addr::UNSPECIFIED), 0),
        0,
    )
}

/// A UDP send admitted by the pacer and waiting for the next batch
/// flush. Staging is what lets every send emitted in one event-loop tick
/// share a single `sendmmsg`.
pub(super) struct StagedSend {
    slot: usize,
    generation: u64,
    /// Backpressure requeues this send has already been through.
    attempts: u32,
    oq: OutQuery,
}

/// A staged send that has its wire id, demux entry, and timeout armed,
/// and is about to go through the batched syscall. Registration happens
/// at prep time (before the syscall) so two same-tick sends to one peer
/// can never pick the same wire id; non-`Sent` outcomes roll it back.
/// The encoded bytes live in the flush's shared scratch arena (the slot
/// range rides in the parallel [`SendSlot`] vector), so preparing a send
/// touches the allocator zero times in the steady state.
pub(super) struct PreparedSend {
    slot: usize,
    attempts: u32,
    key: DemuxKey,
    oq: OutQuery,
}

/// Delay before re-checking the credit pool when a matured deferred send
/// finds it empty (its owner was parked and the window is fully used).
const CREDIT_RETRY_DELAY: SimTime = 2 * MILLIS;

/// Delay before retrying a send that hit send-buffer backpressure.
const BACKPRESSURE_DELAY: SimTime = 2 * MILLIS;

/// Backpressure requeues one send may consume before it fails the
/// lookup. A bounded retry keeps WouldBlock from looping a query on the
/// deferred queue forever with no timeout armed (the per-query timer
/// only starts at an actual send).
const MAX_BACKPRESSURE_RETRIES: u32 = 8;

impl Reactor {
    /// Allocate a wire transaction id that is unique for `peer`,
    /// preferring the machine's own deterministic id.
    fn allocate_txid(&mut self, peer: SocketAddr, preferred: u16) -> Option<u16> {
        if !self.demux.contains_key(&(peer, preferred)) {
            return Some(preferred);
        }
        for _ in 0..=u16::MAX {
            let candidate = self.txid_cursor;
            self.txid_cursor = self.txid_cursor.wrapping_add(1);
            if !self.demux.contains_key(&(peer, candidate)) {
                return Some(candidate);
            }
        }
        None
    }

    /// Route a machine's emitted queries: UDP through the pacer (then
    /// the shared socket + demux table + timer wheel), TCP into the TCP
    /// table. No machine is stepped here.
    pub(super) fn register_out(&mut self, idx: usize, out: &mut Vec<OutQuery>) {
        for oq in out.drain(..) {
            self.report.queries_sent += 1;
            match oq.protocol {
                Protocol::Tcp => {
                    // The bytes a UDP send carries, under the machine's id.
                    let scratch = &mut self.send_scratch;
                    scratch.reset();
                    if oq.encode_into(scratch, oq.id).is_err() {
                        self.fail_send(idx, oq.tag);
                        continue;
                    }
                    let query = scratch.as_slice().to_vec();
                    // The timeout runs from here, waiting for a
                    // connection included, on the wheel the UDP queries
                    // and the deferred sends use (and, like a deferred
                    // send, found again by its token).
                    let token = self.next_token;
                    self.next_token += 1;
                    let timer = self.wheel.arm(self.now() + oq.timeout, token, pace_key());
                    self.tcp.submit(Exchange {
                        token,
                        slot: idx,
                        tag: oq.tag,
                        sim_ip: oq.to,
                        to: (self.addr_map)(oq.to),
                        timeout: Duration::from_nanos(oq.timeout),
                        timer,
                        query,
                    });
                    if let Some(slot) = self.slots[idx].as_mut() {
                        slot.tcp_pending += 1;
                    }
                    self.report.tcp_fallbacks += 1;
                }
                Protocol::Udp => match self.pace_admit(oq.to) {
                    PaceDecision::Ready => self.stage_send(idx, oq, 0),
                    PaceDecision::Defer {
                        until,
                        host_limited,
                    } => {
                        if host_limited {
                            self.report.per_host_throttles += 1;
                        }
                        self.report.queries_deferred += 1;
                        self.defer_send(idx, oq, 0, until);
                    }
                },
            }
        }
    }

    /// Park a UDP send on the deferred queue, armed on the timer wheel
    /// for its pacer-assigned release time.
    fn defer_send(&mut self, idx: usize, oq: OutQuery, attempts: u32, release: SimTime) {
        let token = self.next_token;
        self.next_token += 1;
        let timer = self.wheel.arm(release, token, pace_key());
        self.deferred.insert(
            token,
            DeferredSend {
                slot: idx,
                generation: self.generations[idx],
                attempts,
                oq,
                timer,
            },
        );
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.deferred += 1;
        }
        // The owner may now be fully in backoff; check at the next safe
        // point (never mid-step).
        self.park_checks.push(idx);
        self.report.max_deferred_depth = self.report.max_deferred_depth.max(self.deferred.len());
    }

    /// A deferred send's release time arrived: its budget is already
    /// reserved, so it goes into the next batch flush (unless its owner
    /// retired while it was held). Releases that mature on the same wheel
    /// tick therefore coalesce into one `sendmmsg`.
    ///
    /// A *parked* owner gave its admission credit back when it went into
    /// backoff, so its send must re-lease one before touching the wire.
    /// If the pool is momentarily empty (the window is fully active
    /// elsewhere), the send is re-parked for [`CREDIT_RETRY_DELAY`] — a
    /// bounded-rate retry, counted as a credit stall.
    pub(super) fn release_deferred(&mut self, mut sent: DeferredSend) {
        if self.generations[sent.slot] != sent.generation {
            return; // owner finished while the send was held
        }
        let parked = self.slots[sent.slot]
            .as_ref()
            .map(|slot| slot.parked)
            .unwrap_or(false);
        if parked {
            if self.credits.lease(&mut self.report) {
                self.parked_count -= 1;
                if let Some(slot) = self.slots[sent.slot].as_mut() {
                    slot.parked = false;
                }
            } else {
                self.report.credit_stalls += 1;
                let token = self.next_token;
                self.next_token += 1;
                sent.timer = self
                    .wheel
                    .arm(self.now() + CREDIT_RETRY_DELAY, token, pace_key());
                self.deferred.insert(token, sent);
                return;
            }
        }
        if let Some(slot) = self.slots[sent.slot].as_mut() {
            slot.deferred -= 1;
        }
        self.stage_send(sent.slot, sent.oq, sent.attempts);
    }

    /// Fail one of `idx`'s sends: the next flush delivers its
    /// `TransportFailed`, which the slot counts as staged until then.
    fn fail_send(&mut self, idx: usize, tag: u64) {
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.staged += 1;
        }
        self.failed.push((idx, self.generations[idx], tag));
    }

    /// Queue one pacer-admitted UDP send for the next batch flush.
    fn stage_send(&mut self, idx: usize, oq: OutQuery, attempts: u32) {
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.staged += 1;
        }
        self.staged.push(StagedSend {
            slot: idx,
            generation: self.generations[idx],
            attempts,
            oq,
        });
    }

    /// Flush every staged send through the batched syscall layer and
    /// deliver every failed send's `TransportFailed`, looping until both
    /// are empty (a machine told of a failure can emit a retry, which
    /// stages again).
    ///
    /// Each flush is three phases so no machine code runs while the batch
    /// is being assembled:
    /// 1. **prep** — per send: allocate a wire id, encode, arm the
    ///    timeout, and register the demux entry (registering *before* the
    ///    syscall is what keeps two same-tick sends to one peer from
    ///    colliding on a wire id);
    /// 2. **syscall** — one `sendmmsg` per
    ///    [`DEFAULT_BATCH_SIZE`](super::DEFAULT_BATCH_SIZE) datagrams
    ///    (or per-datagram sends on the fallback path);
    /// 3. **settle** — non-`Sent` datagrams roll their registration back:
    ///    backpressure requeues on the deferred queue, errors fail the
    ///    send.
    pub(super) fn flush_staged(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        while !self.staged.is_empty() || !self.failed.is_empty() {
            // Working storage is owned by the reactor and recycled every
            // flush: the encode arena, the slot list, the prepared list,
            // and the status list all keep their capacity, so a
            // steady-state flush performs zero heap allocations.
            let mut staged = std::mem::take(&mut self.staged);
            let mut prepared = std::mem::take(&mut self.prepared);
            let mut send_slots = std::mem::take(&mut self.send_slots);
            let mut statuses = std::mem::take(&mut self.statuses);
            let mut scratch = std::mem::take(&mut self.send_scratch);
            prepared.clear();
            send_slots.clear();
            statuses.clear();
            scratch.reset();
            for send in staged.drain(..) {
                if self.generations[send.slot] != send.generation {
                    continue; // owner retired while the send was staged
                }
                if let Some(slot) = self.slots[send.slot].as_mut() {
                    slot.staged -= 1;
                }
                let oq = send.oq;
                let dest = (self.addr_map)(oq.to);
                // The machine's own id is never mutated: the wire carries
                // `txid`, the demux entry remembers the original.
                let Some(txid) = self.allocate_txid(dest, oq.id) else {
                    self.fail_send(send.slot, oq.tag);
                    continue;
                };
                let start = scratch.len();
                if oq.encode_into(&mut scratch, txid).is_err() {
                    self.fail_send(send.slot, oq.tag);
                    continue;
                }
                let len = scratch.len() - start;
                let token = self.next_token;
                self.next_token += 1;
                let key = (dest, txid);
                let timer = self.wheel.arm(self.now() + oq.timeout, token, key);
                self.demux.insert(
                    key,
                    Pending {
                        slot: send.slot,
                        tag: oq.tag,
                        sim_ip: oq.to,
                        orig_id: oq.id,
                        timer,
                    },
                );
                if let Some(slot) = self.slots[send.slot].as_mut() {
                    slot.keys.push(key);
                }
                send_slots.push((start as u32, len as u32, dest));
                prepared.push(PreparedSend {
                    slot: send.slot,
                    attempts: send.attempts,
                    key,
                    oq,
                });
            }

            if !prepared.is_empty() {
                let stats = self.batch.as_mut().expect("batch io present").send_slots(
                    &self.socket,
                    scratch.as_slice(),
                    &send_slots,
                    &mut statuses,
                    &mut |_| {},
                );
                self.report.send_syscalls += stats.syscalls;
                self.report.datagrams_sent += stats.sent;

                for (p, status) in prepared.drain(..).zip(statuses.iter()) {
                    if matches!(status, BatchSendStatus::Sent) {
                        continue; // registration done at prep time
                    }
                    // Roll the registration back: the datagram never made
                    // it onto the wire.
                    if let Some(pending) = self.demux.remove(&p.key) {
                        self.wheel.cancel(pending.timer);
                    }
                    if let Some(slot) = self.slots[p.slot].as_mut() {
                        if let Some(pos) = slot.keys.iter().position(|k| *k == p.key) {
                            slot.keys.swap_remove(pos);
                        }
                    }
                    match status {
                        BatchSendStatus::Backpressure if p.attempts < MAX_BACKPRESSURE_RETRIES => {
                            // Retry shortly; a bounded retry keeps
                            // WouldBlock from cycling a query on the
                            // deferred queue forever with no timeout
                            // armed.
                            self.report.backpressure_requeues += 1;
                            self.defer_send(
                                p.slot,
                                p.oq,
                                p.attempts + 1,
                                self.now() + BACKPRESSURE_DELAY,
                            );
                        }
                        _ => {
                            // Sustained backpressure or a hard socket
                            // error: fail the send.
                            self.fail_send(p.slot, p.oq.tag);
                        }
                    }
                }
            }

            // Restore the recycled storage *before* delivering failure
            // events: a machine reacting to one may stage a retry, which
            // must land in the capacity-retaining `staged` vector.
            self.staged = staged;
            self.prepared = prepared;
            self.send_slots = send_slots;
            self.statuses = statuses;
            self.send_scratch = scratch;
            for (idx, generation, tag) in std::mem::take(&mut self.failed) {
                if self.generations[idx] != generation {
                    continue; // owner retired before hearing of it
                }
                self.slots[idx].as_mut().expect("hosted").staged -= 1;
                self.deliver(idx, ClientEvent::TransportFailed { tag }, on_done);
            }
        }
        self.process_park_checks();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::reactor::ReactorConfig;
    use crate::resolver::AddrMap;

    #[test]
    fn txid_allocation_avoids_collisions() {
        let addr_map: Arc<AddrMap> = Arc::new(|ip| SocketAddr::new(std::net::IpAddr::V4(ip), 53));
        let mut reactor = Reactor::new(
            ReactorConfig {
                source: Ipv4Addr::LOCALHOST,
                ..ReactorConfig::default()
            },
            addr_map,
        )
        .unwrap();
        let peer: SocketAddr = "127.0.0.1:5300".parse().unwrap();
        assert_eq!(reactor.allocate_txid(peer, 42), Some(42));
        reactor.demux.insert(
            (peer, 42),
            Pending {
                slot: 0,
                tag: 1,
                sim_ip: Ipv4Addr::LOCALHOST,
                orig_id: 42,
                timer: reactor.wheel.arm(MILLIS, 0, (peer, 42)),
            },
        );
        let other = reactor.allocate_txid(peer, 42).unwrap();
        assert_ne!(other, 42);
        // A different peer can reuse the same wire id freely.
        let peer2: SocketAddr = "127.0.0.1:5301".parse().unwrap();
        assert_eq!(reactor.allocate_txid(peer2, 42), Some(42));
    }
}
