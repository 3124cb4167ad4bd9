//! The reactor's timer wheel against a naive reference model.
//!
//! The wheel's slab, its doubly linked slot chains and its handles are an
//! implementation of three plain rules: `arm` stores a timer; `cancel`
//! removes exactly the timer its handle was issued for, if that timer is
//! still armed, and nothing otherwise; `expire(now)` turns the wheel to
//! the last whole tick at or before `now` and, if that moved it, fires
//! every timer whose deadline lies before that tick — however far beyond
//! the horizon it was armed, however many laps `now` jumps, and at the
//! next tick if it was armed already overdue. The model states them over a
//! `BTreeMap<(deadline, token)>`; a seeded random stream of operations must
//! leave both holding the same timers after every step, with nothing
//! stored that is not armed and no slab node that was never needed.

use std::collections::BTreeMap;

use proptest::TestRng;
use zdns_core::{DemuxKey, TimerHandle, TimerWheel};
use zdns_netsim::{SimTime, MILLIS};

const SLOTS: usize = 16;
const TICK: SimTime = MILLIS;
const HORIZON: SimTime = SLOTS as SimTime * TICK;

fn key(token: u64) -> DemuxKey {
    ("127.0.0.1:53".parse().unwrap(), token as u16)
}

#[test]
fn wheel_agrees_with_a_btreemap_under_a_random_operation_stream() {
    const STEPS: usize = 12_000;
    let mut rng = TestRng::deterministic();
    let mut wheel = TimerWheel::new(SLOTS, TICK);
    // (deadline, token) → the key the timer must fire with.
    let mut model: BTreeMap<(SimTime, u64), DemuxKey> = BTreeMap::new();
    // Every handle ever issued, with its model key: cancels draw from all
    // of them, so most are of timers long fired, cancelled or displaced.
    let mut handles: Vec<(TimerHandle, (SimTime, u64))> = Vec::new();
    let mut now: SimTime = 0;
    // The tick the wheel's cursor stands at.
    let mut turned_to: SimTime = 0;
    let mut next_token = 0u64;
    let mut peak = 0usize;
    let (mut armed, mut parked, mut fired_total) = (0u64, 0u64, 0u64);
    let (mut cancelled, mut stale_cancels, mut laps) = (0u64, 0u64, 0u64);
    let mut fired = Vec::new();

    for step in 0..STEPS {
        match rng.below(100) {
            0..=44 => {
                // Deadlines already past, inside the horizon, and up to
                // four horizons out (parked, moved on lap after lap).
                let deadline = match rng.below(10) {
                    0 => now.saturating_sub(rng.below(3 * TICK)),
                    1..=6 => now + rng.below(HORIZON),
                    _ => now + HORIZON + rng.below(4 * HORIZON),
                };
                parked += u64::from(deadline >= now + HORIZON);
                let token = next_token;
                next_token += 1;
                let handle = wheel.arm(deadline, token, key(token));
                model.insert((deadline, token), key(token));
                handles.push((handle, (deadline, token)));
                armed += 1;
            }
            45..=79 if !handles.is_empty() => {
                // Mostly recent handles (likely still armed), sometimes
                // any handle ever issued.
                let i = if rng.below(4) > 0 {
                    handles.len() - 1 - rng.below(handles.len().min(24) as u64) as usize
                } else {
                    rng.below(handles.len() as u64) as usize
                };
                let (handle, model_key) = handles[i];
                // A stale handle's node has usually been taken by a newer
                // timer by now (freed nodes are reused first): were it
                // cancelled instead, the model would still hold it.
                let was_armed = model.remove(&model_key).is_some();
                cancelled += u64::from(was_armed);
                stale_cancels += u64::from(!was_armed);
                assert_eq!(
                    wheel.cancel(handle),
                    was_armed,
                    "step {step}: cancel {model_key:?}"
                );
            }
            _ => {
                // Usually a tick or two; sometimes several laps at once.
                now += match rng.below(12) {
                    0 => {
                        laps += 1;
                        HORIZON * (1 + rng.below(3)) + rng.below(HORIZON)
                    }
                    1..=3 => rng.below(TICK),
                    _ => rng.below(3 * TICK),
                };
                fired.clear();
                wheel.expire(now, &mut fired);
                let mut want = Vec::new();
                if now / TICK * TICK > turned_to {
                    turned_to = now / TICK * TICK;
                    while let Some(entry) = model.first_entry() {
                        if entry.key().0 >= turned_to {
                            break;
                        }
                        let ((_, token), key) = entry.remove_entry();
                        want.push((token, key));
                    }
                }
                fired.sort_unstable();
                want.sort_unstable();
                assert_eq!(fired, want, "step {step}: expire({now})");
                fired_total += fired.len() as u64;
            }
        }
        peak = peak.max(model.len());
        assert_eq!(wheel.live(), model.len(), "step {step}: live");
        assert_eq!(wheel.stored(), model.len(), "step {step}: stored");
        assert!(
            wheel.slab_len() <= peak,
            "step {step}: {} slab nodes for at most {peak} timers at once",
            wheel.slab_len()
        );
    }

    println!(
        "wheel model: {STEPS} steps, {armed} armed ({parked} beyond the horizon), {fired_total} fired, \
         {cancelled} cancelled, {stale_cancels} stale cancels, {laps} multi-lap jumps, peak {peak} at once, {} left",
        model.len()
    );
    // The stream must have exercised what it claims to.
    assert!(armed > 4_000 && parked > 500 && fired_total > 1_000 && cancelled > 1_000);
    assert!(stale_cancels > 500 && laps > 50);

    // Everything left fires, and then nothing is stored.
    fired.clear();
    wheel.expire(now + 6 * HORIZON, &mut fired);
    assert_eq!(fired.len(), model.len());
    assert_eq!((wheel.live(), wheel.stored()), (0, 0));
}

#[test]
fn a_stale_handle_cancels_nothing_once_its_node_holds_a_newer_timer() {
    let mut wheel = TimerWheel::new(SLOTS, TICK);
    let old = wheel.arm(3 * TICK, 1, key(1));
    assert!(wheel.cancel(old));
    // The freed node is the next one handed out.
    let new = wheel.arm(5 * TICK, 2, key(2));
    assert_eq!(wheel.slab_len(), 1);
    assert!(!wheel.cancel(old), "the node belongs to token 2 now");
    assert_eq!((wheel.live(), wheel.stored()), (1, 1));
    let mut fired = Vec::new();
    wheel.expire(6 * TICK, &mut fired);
    assert_eq!(fired, vec![(2, key(2))]);
    assert!(!wheel.cancel(new), "fired timers are gone too");
}
