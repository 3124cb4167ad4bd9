//! The reactor's hashed timer wheel: arm and cancel in O(1), one slab
//! node per armed timer.

use std::net::SocketAddr;

use zdns_netsim::SimTime;

/// What a timer is armed for: the demux entry of the query it guards
/// (deferred-send releases all share one placeholder key and are told
/// apart by token).
pub type DemuxKey = (SocketAddr, u16);

/// Slab sentinel: end of a chain / no entry / (in `TimerEntry::slot`) a
/// free slab node.
const NIL: u32 = u32::MAX;

struct TimerEntry {
    deadline: SimTime,
    token: u64,
    key: DemuxKey,
    /// Wheel slot whose chain holds this entry; `NIL` while the slab node
    /// is free.
    slot: u32,
    /// Neighbours in the slot's chain (slab indices). A free node keeps
    /// the free list in `next`.
    prev: u32,
    next: u32,
}

/// Names one armed timer: the slab node [`TimerWheel::arm`] put it in,
/// plus the token it was armed with — the token is what makes a handle
/// kept past its timer's end harmless (the node may since hold a newer
/// timer; [`TimerWheel::cancel`] compares before it touches anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    idx: u32,
    pub(crate) token: u64,
}

/// A hashed timer wheel whose cancellations are real: [`arm`] returns a
/// [`TimerHandle`], and [`cancel`] unlinks that entry from its slot's
/// doubly linked chain and frees its slab node on the spot, in O(1) and
/// without hashing. Nothing cancelled is ever stored, so the slab holds
/// exactly the armed timers — for the reactor, one per in-flight query or
/// deferred send, however fast lookups complete and however long their
/// timeouts are. (Cancelling lazily, at the deadline, kept rate × timeout
/// dead entries alive: 270 K of them, 20 MB, at 90 K lookups/s under the
/// default 3 s timeout.)
///
/// Entries live in one slab with intrusive per-slot chains (a `u32` head
/// per slot) instead of a `Vec` per slot: wall-clock keeps marching the
/// cursor into fresh slot indices, and per-slot buffers would regrow from
/// zero every lap. The slab grows to the peak concurrent entry count once
/// and is recycled through an intrusive free list from then on — arming
/// and cancelling in the steady state perform zero heap allocations,
/// which the `zero_alloc` integration test enforces.
///
/// [`arm`]: TimerWheel::arm
/// [`cancel`]: TimerWheel::cancel
pub struct TimerWheel {
    entries: Vec<TimerEntry>,
    /// Head of the free list threaded through `TimerEntry::next`.
    free: u32,
    heads: Vec<u32>,
    granularity: SimTime,
    cursor: usize,
    cursor_time: SimTime,
    live: usize,
}

impl TimerWheel {
    /// A wheel of `slots` slots (rounded up to a power of two), each
    /// `granularity` nanoseconds wide, with its cursor at time zero.
    pub fn new(slots: usize, granularity: SimTime) -> TimerWheel {
        let n = slots.next_power_of_two().max(2);
        TimerWheel {
            entries: Vec::new(),
            free: NIL,
            heads: vec![NIL; n],
            granularity: granularity.max(1),
            cursor: 0,
            cursor_time: 0,
            live: 0,
        }
    }

    /// The slot a deadline routes to from the current cursor position.
    fn slot_for(&self, deadline: SimTime) -> usize {
        let horizon = self.granularity * self.heads.len() as SimTime;
        let offset = deadline.saturating_sub(self.cursor_time).min(horizon - 1);
        let ticks = offset / self.granularity;
        (self.cursor + ticks as usize) % self.heads.len()
    }

    /// Put slab node `i` at the head of the chain its deadline routes to.
    fn link(&mut self, i: u32) {
        let slot = self.slot_for(self.entries[i as usize].deadline);
        let head = std::mem::replace(&mut self.heads[slot], i);
        let e = &mut self.entries[i as usize];
        (e.slot, e.prev, e.next) = (slot as u32, NIL, head);
        if head != NIL {
            self.entries[head as usize].prev = i;
        }
    }

    /// Put slab node `i`, already out of every chain, on the free list.
    fn free_node(&mut self, i: u32) {
        let e = &mut self.entries[i as usize];
        (e.slot, e.next) = (NIL, self.free);
        self.free = i;
        self.live -= 1;
    }

    /// Arm a timer. Deadlines beyond the wheel horizon are parked in the
    /// furthest slot and moved on as the wheel turns (same slab node, so
    /// the handle stays good).
    pub fn arm(&mut self, deadline: SimTime, token: u64, key: DemuxKey) -> TimerHandle {
        let entry = TimerEntry {
            deadline,
            token,
            key,
            slot: NIL,
            prev: NIL,
            next: NIL,
        };
        let idx = self.free;
        let idx = if idx == NIL {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        } else {
            self.free = std::mem::replace(&mut self.entries[idx as usize], entry).next;
            idx
        };
        self.link(idx);
        self.live += 1;
        TimerHandle { idx, token }
    }

    /// Cancel the timer `handle` names, if it is still armed: unlink it
    /// and free its node. A handle whose timer already fired or was
    /// already cancelled — even if the node has since been reused by a
    /// newer timer — cancels nothing. Returns whether a timer was removed.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let (slot, prev, next) = match self.entries.get(handle.idx as usize) {
            Some(e) if e.slot != NIL && e.token == handle.token => (e.slot, e.prev, e.next),
            _ => return false,
        };
        if prev == NIL {
            self.heads[slot as usize] = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next != NIL {
            self.entries[next as usize].prev = prev;
        }
        self.free_node(handle.idx);
        true
    }

    /// Advance to `now`, collecting every fired `(token, key)`.
    pub fn expire(&mut self, now: SimTime, fired: &mut Vec<(u64, DemuxKey)>) {
        while self.cursor_time + self.granularity <= now {
            let slot_end = self.cursor_time + self.granularity;
            // Detach the whole chain, then walk it: every node either
            // fires or moves to another slot, so no neighbour needs fixing.
            let mut i = std::mem::replace(&mut self.heads[self.cursor], NIL);
            while i != NIL {
                let e = &self.entries[i as usize];
                let next = e.next;
                if e.deadline >= slot_end {
                    // Parked from beyond the horizon: move it on relative
                    // to the cursor. It is at least one tick away, so it
                    // joins another slot's chain, never the one being
                    // walked — and keeps its node, so its handle holds.
                    self.link(i);
                } else {
                    fired.push((e.token, e.key));
                    self.free_node(i);
                }
                i = next;
            }
            self.cursor = (self.cursor + 1) % self.heads.len();
            self.cursor_time = slot_end;
        }
    }

    /// Nanoseconds until the next tick that could fire something, if any
    /// timer is armed.
    pub fn ns_until_next_tick(&self, now: SimTime) -> Option<SimTime> {
        (self.live > 0).then(|| (self.cursor_time + self.granularity).saturating_sub(now))
    }

    /// Armed timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slab nodes holding a timer, counted by looking at every node — an
    /// independent (O(slab), for tests and asserts) count that always
    /// equals [`TimerWheel::live`]: nothing but armed timers is stored.
    pub fn stored(&self) -> usize {
        self.entries.iter().filter(|e| e.slot != NIL).count()
    }

    /// Slab nodes ever allocated: the most timers that were armed at once.
    pub fn slab_len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_netsim::MILLIS;

    fn key(n: u16) -> DemuxKey {
        ("127.0.0.1:53".parse().unwrap(), n)
    }

    #[test]
    fn wheel_fires_in_deadline_order_windows() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        wheel.arm(2 * MILLIS, 1, key(1));
        wheel.arm(5 * MILLIS, 2, key(2));
        let mut fired = Vec::new();
        wheel.expire(3 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1]);
        wheel.expire(6 * MILLIS, &mut fired);
        assert_eq!(
            fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(wheel.live(), 0);
    }

    #[test]
    fn wheel_cancellation_unlinks_at_once() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        let first = wheel.arm(2 * MILLIS, 1, key(1));
        wheel.arm(2 * MILLIS, 2, key(2));
        assert!(wheel.cancel(first));
        assert_eq!((wheel.live(), wheel.stored()), (1, 1));
        let mut fired = Vec::new();
        wheel.expire(4 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![2]);
        assert_eq!((wheel.live(), wheel.stored()), (0, 0));
    }

    #[test]
    fn wheel_parks_beyond_horizon_and_still_fires() {
        let mut wheel = TimerWheel::new(4, MILLIS); // horizon = 4ms
        wheel.arm(11 * MILLIS, 7, key(7));
        let mut fired = Vec::new();
        wheel.expire(10 * MILLIS, &mut fired);
        assert!(fired.is_empty(), "{fired:?}");
        assert_eq!(wheel.live(), 1);
        wheel.expire(12 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![7]);
        assert_eq!(wheel.live(), 0);
    }

    #[test]
    fn wheel_cancel_after_fire_is_a_noop() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        let first = wheel.arm(2 * MILLIS, 1, key(1));
        let second = wheel.arm(2 * MILLIS, 2, key(2));
        let mut fired = Vec::new();
        wheel.expire(4 * MILLIS, &mut fired);
        assert_eq!(fired.len(), 2);
        assert_eq!(wheel.live(), 0);
        // A machine retiring right after its timers fired in the same batch
        // cancels handles that are no longer armed — and whose node the
        // next timer has taken: must cancel nothing.
        wheel.arm(6 * MILLIS, 3, key(3));
        assert!(!wheel.cancel(first));
        assert!(!wheel.cancel(second));
        assert_eq!((wheel.live(), wheel.stored()), (1, 1));
        fired.clear();
        wheel.expire(8 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![3]);
        assert_eq!((wheel.stored(), wheel.slab_len()), (0, 2));
    }
}
