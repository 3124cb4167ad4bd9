//! The scan loop: admit from a machine source, flush, sleep, then drain
//! the socket, the TCP table and the timers, and hand completions off.

use zdns_netsim::{JobOutcome, MILLIS};

use super::{Reactor, SOCKET};
use crate::driver::{Admission, Driver, DriverReport};

impl Driver for Reactor {
    fn run_scan(
        &mut self,
        source: &mut dyn FnMut() -> Admission,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) -> DriverReport {
        self.run_scan_with(source, on_done, &mut || {})
    }
}

impl Reactor {
    /// The scan loop — [`Driver::run_scan`] plus a third callback,
    /// `hand_off`, for callers that collect what completions produce
    /// (through `on_done`, or through the machines' own sinks) into a
    /// block and pass it on a block at a time. The loop calls it wherever
    /// a collected block would otherwise sit and wait: before every sleep,
    /// at the end of every pass over the socket, the TCP table and the
    /// timers, and once more when the scan is over. The caller may also
    /// pass a block on from its admission source once it is full; a
    /// `hand_off` that blocks (writing into a slow sink) stalls this
    /// reactor, which is how a slow consumer throttles admission.
    pub fn run_scan_with(
        &mut self,
        source: &mut dyn FnMut() -> Admission,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
        hand_off: &mut dyn FnMut(),
    ) -> DriverReport {
        // A reactor is reusable; each scan reports its own counts.
        self.report = DriverReport::default();
        let mut exhausted = false;
        loop {
            // Admission: top the window up from the source, one leased
            // credit per machine. Parked machines cost slots but no
            // window, so the hosting cap is `max_in_flight` *active*
            // machines plus up to `max_parked` parked ones.
            let mut starved = false;
            while !exhausted && self.admittable() && self.lease_admission() {
                match source() {
                    Admission::Admit(machine) => self.admit(machine, on_done),
                    Admission::Later => {
                        // With nothing in flight, nothing but the bell can
                        // wake this reactor before its poll times out: mark
                        // it, then look once more (see `Doorbell`). With
                        // lookups in flight, their answers wake it to the
                        // names queued meanwhile, a batch at a time.
                        let bell = self.bell.as_ref().filter(|_| self.in_flight == 0);
                        starved = bell.is_some();
                        if bell.is_some_and(|bell| !bell.mark_starved()) {
                            continue;
                        }
                        break;
                    }
                    Admission::Exhausted => exhausted = true,
                }
            }
            if exhausted {
                // No more inputs will ever need the pre-leased spare.
                if std::mem::take(&mut self.credits.spare) {
                    self.credits.release();
                }
                // Nor will fresh admissions need the token block: the
                // drain phase re-leases on demand if retries crop up.
                self.return_pacer_tokens();
            }
            if self.in_flight == 0 && exhausted {
                break;
            }

            // Flush the admission burst in one batch before sleeping —
            // nothing would ever answer an unsent query.
            self.flush_staged(on_done);
            if self.in_flight == 0 && exhausted {
                break;
            }

            // Sleep until the next timer tick could fire, capped so the
            // TCP table (whose sockets this wait does not watch) and a
            // refilling source are looked at promptly.
            let now = self.now();
            let mut wait_ns = self.wheel.ns_until_next_tick(now).unwrap_or(5 * MILLIS);
            if !self.tcp.is_empty() || !exhausted {
                wait_ns = wait_ns.min(2 * MILLIS);
            }
            let wait_ms = wait_ns.div_ceil(MILLIS).clamp(0, 50) as i32;
            if self.in_flight > 0 || !exhausted {
                // Admission and the flush above can complete lookups
                // (bad input, a send that fails outright).
                hand_off();
                self.idle_wait(wait_ms, starved);
            }

            if self.take_ready().has(SOCKET) {
                self.drain_datagrams(on_done);
            }
            self.pump_tcp(on_done);
            self.fire_timers(on_done);
            // Same-tick coalescing: retries emitted by responses and
            // timeouts above, plus deferred releases that just matured,
            // all go out in one sendmmsg.
            self.flush_staged(on_done);
            hand_off();
            debug_assert_eq!(
                self.wheel.stored(),
                self.wheel.live(),
                "the wheel stores only armed timers"
            );
        }
        // The last pass can end in admission (every remaining input was
        // bad) with completions still in the caller's hands.
        hand_off();
        debug_assert!(self.staged.is_empty(), "staged sends leaked past the scan");
        debug_assert!(self.tcp.is_empty(), "TCP exchanges leaked past the scan");
        debug_assert!(
            self.credits.held == 0 && self.parked_count == 0,
            "credits leaked past the scan"
        );

        // End-of-run hygiene: every slot is free, the demux table is empty,
        // and deferred sends whose owners retired are dropped with their
        // release timers, so nothing leaks into the next scan on this
        // reactor.
        self.drop_deferred();
        debug_assert_eq!(self.wheel.live(), 0, "timers leaked past the scan");
        self.return_pacer_tokens();

        self.report.io_backend = self.io_backend();
        self.report.clone()
    }
}
