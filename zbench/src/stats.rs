//! Slice arithmetic and span bookkeeping: medians and percentiles over
//! fixed-work slices, the slice recorder the workloads share, and the
//! in-memory span log of the traced pass with its self-time computation.

use std::time::Instant;

use crate::sys;

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule. Empty
/// input yields 0.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile range over the median — the spread every report prints
/// next to a median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(values, 0.75) - percentile(values, 0.25)) / m
}

/// The quantile a timing metric reports: the 5th percentile over slices.
///
/// The box this runs on is a small VM on a shared host, and what the host
/// does to it is one-sided: for spells of a second or so at a time the same
/// work takes 1.3× (one thread) to 2× (two vCPUs talking over loopback) as
/// long, and how much of a run such spells cover changes from run to run.
/// The median over slices therefore moves with the neighbours; the fast end
/// of the distribution — the machine left alone — is what the program sets.
/// Measured over ten-run sets, the 5th percentile of 400 slices of 50 ms
/// spread (IQR/median) 0.11 on average, their median 0.17. With 400 slices,
/// 20 lie below it.
pub const UNDISTURBED: f64 = 0.05;

/// Slices per CPU window. The kernel here accounts a running thread's CPU
/// time in 4 ms ticks, so CPU time is differenced over windows of four
/// slices (about 0.2 s, a 2 % step) rather than over single slices.
pub const CPU_WINDOW_SLICES: u64 = 4;

/// Wall and program-CPU cost of each fixed-work slice of a workload.
///
/// `tick` is called once per completed operation, from whichever thread
/// completes them (the pipeline's writer thread, the simulator's thread,
/// the serve client); every `ops_per_slice`-th call closes a slice, every
/// [`CPU_WINDOW_SLICES`]-th slice a CPU window. The program is never
/// restarted between slices. Program CPU is the process's CPU minus that
/// of the registered harness threads.
pub struct SliceClock {
    ops_per_slice: u64,
    harness: Vec<sys::ThreadCpuClock>,
    ops: u64,
    wall_mark: Instant,
    window_slices: u64,
    cpu_mark: u64,
    /// Seconds of wall time per closed slice.
    pub wall_s: Vec<f64>,
    /// Microseconds of program CPU per operation, per closed CPU window.
    pub cpu_us_per_op: Vec<f64>,
}

impl SliceClock {
    pub fn new(ops_per_slice: u64, harness: Vec<sys::ThreadCpuClock>) -> SliceClock {
        let mut clock = SliceClock {
            ops_per_slice,
            harness,
            ops: 0,
            wall_mark: Instant::now(),
            window_slices: 0,
            cpu_mark: 0,
            wall_s: Vec::new(),
            cpu_us_per_op: Vec::new(),
        };
        clock.restart();
        clock
    }

    fn program_cpu_ns(&self) -> u64 {
        let harness: u64 = self.harness.iter().map(|c| c.ns()).sum();
        sys::process_cpu_ns().saturating_sub(harness)
    }

    /// Start the first slice now (set-up is over, the timed section begins).
    pub fn restart(&mut self) {
        self.ops = 0;
        self.window_slices = 0;
        self.wall_mark = Instant::now();
        self.cpu_mark = self.program_cpu_ns();
    }

    pub fn tick(&mut self) {
        self.ops += 1;
        if !self.ops.is_multiple_of(self.ops_per_slice) {
            return;
        }
        let now = Instant::now();
        self.wall_s.push((now - self.wall_mark).as_secs_f64());
        self.wall_mark = now;
        self.window_slices += 1;
        if self.window_slices == CPU_WINDOW_SLICES {
            let cpu = self.program_cpu_ns();
            let window_ops = self.ops_per_slice * CPU_WINDOW_SLICES;
            self.cpu_us_per_op
                .push((cpu - self.cpu_mark) as f64 / 1e3 / window_ops as f64);
            self.window_slices = 0;
            self.cpu_mark = cpu;
        }
    }

    /// Operations per second in an undisturbed slice.
    pub fn ops_per_s(&self) -> f64 {
        let wall = percentile(&self.wall_s, UNDISTURBED);
        if wall == 0.0 {
            return 0.0;
        }
        self.ops_per_slice as f64 / wall
    }

    /// Microseconds of program CPU per operation in an undisturbed window.
    pub fn cpu_us_per_op(&self) -> f64 {
        percentile(&self.cpu_us_per_op, UNDISTURBED)
    }
}

/// One recorded call: which layer, when, caused by which span, for which
/// operation.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    pub op: u32,
}

/// The traced pass's span log. Spans nest strictly (enter/exit are
/// bracketed), are kept in memory, and are written out when the pass ends.
/// A disabled log records nothing, so the same replica code measures the
/// untraced path time.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    current: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

impl SpanLog {
    pub fn new(enabled: bool, capacity: usize) -> SpanLog {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            current: NO_PARENT,
        }
    }

    /// Time `f` as a span named `name` for operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.current;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
        self.current = idx;
        let result = f(self);
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.current = parent;
        result
    }
}

/// Self time per span name: each span's duration minus the part its
/// direct children cover. Returned in first-appearance order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(*children);
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals
}

/// The span log as a JSON array (name, start, end, parent, op id).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.25), 3.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // IQR 8-3 over median 5.5.
        assert!((spread(&v) - 5.0 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn slice_clock_closes_a_slice_every_nth_op() {
        let mut clock = SliceClock::new(10, Vec::new());
        for _ in 0..95 {
            clock.tick();
        }
        assert_eq!(clock.wall_s.len(), 9);
        assert_eq!(
            clock.cpu_us_per_op.len(),
            2,
            "one CPU window per four slices"
        );
        assert!(clock.ops_per_s() > 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 50, 0),
            span("b", 20, 30, 1),
            span("a", 60, 80, 0),
        ];
        let totals = self_times(&spans);
        // root: 100 - (40 + 20); a: (40 - 10) + 20; b: 10.
        assert_eq!(totals, vec![("root", 40), ("a", 50), ("b", 10)]);
        let sum: u64 = totals.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, 100, "self times partition the root's duration");
    }

    #[test]
    fn span_log_nests_and_disables() {
        let mut log = SpanLog::new(true, 8);
        log.span("outer", 7, |log| {
            log.span("inner", 7, |_| {});
        });
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].parent, NO_PARENT);
        assert_eq!(log.spans[1].parent, 0);
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        assert!(spans_json(&log.spans).contains("\"name\":\"inner\""));

        let mut off = SpanLog::new(false, 8);
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
