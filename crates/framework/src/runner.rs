//! Scan orchestration.
//!
//! Two drivers around the same module machines, fed through the same
//! streaming input layer ([`zdns_netsim::InputSource`]):
//!
//! * [`run_sim_scan`] — hands machines to the discrete-event engine, one
//!   per lookup routine, against a simulated Internet. This is how the
//!   paper-scale experiments run.
//! * [`run_real_scan`] — the callback-shaped wrapper over
//!   [`crate::pipeline::run_scan_pipeline`]: a small pool of reactor
//!   workers, each owning one long-lived non-blocking UDP socket and
//!   multiplexing hundreds of in-flight lookup machines over it (the
//!   paper's event-driven architecture: concurrency comes from in-flight
//!   lookups, not OS threads). The `--max-in-flight` admission window is
//!   a scan-wide credit pool the workers lease from (see the pipeline
//!   module docs).

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::Mutex;
use zdns_core::{AddrMap, ConcurrentGate, ConcurrentPacer, DriverReport, Resolver, ResolverConfig};
use zdns_modules::{LookupModule, ModuleOutput, ModuleSink};
use zdns_netsim::{Engine, EngineConfig, PublicResolverConfig, PublicResolverSim, RunReport};
use zdns_zones::Universe;

use crate::conf::Conf;
use crate::output::CallbackSink;
use crate::pipeline::run_scan_pipeline;

/// Well-known simulated public resolver addresses.
pub const GOOGLE_DNS: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
/// Cloudflare's simulated resolver address.
pub const CLOUDFLARE_DNS: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

/// Build the resolver a scan will use, filling root hints from the
/// universe when iterative.
pub fn resolver_for(conf: &Conf, universe: &dyn Universe) -> Resolver {
    let mut rc: ResolverConfig = conf.resolver.clone();
    if matches!(rc.mode, zdns_core::ResolutionMode::Iterative) {
        rc.root_hints = universe.root_hints();
    }
    Resolver::new(rc)
}

/// Run a scan inside the simulator. Outputs stream into `on_output`;
/// returns the engine's run report (virtual-time makespan, rates, drops).
pub fn run_sim_scan<I>(
    conf: &Conf,
    universe: Arc<dyn Universe>,
    module: Arc<dyn LookupModule>,
    inputs: I,
    on_output: impl FnMut(ModuleOutput) + Send + 'static,
) -> RunReport
where
    I: Iterator<Item = String>,
{
    let resolver = resolver_for(conf, universe.as_ref());
    run_sim_scan_with(conf, universe, module, &resolver, inputs, on_output)
}

/// Like [`run_sim_scan`] but with a caller-provided resolver (so repeated
/// runs can share a warm cache, as in Figure 2).
pub fn run_sim_scan_with<I>(
    conf: &Conf,
    universe: Arc<dyn Universe>,
    module: Arc<dyn LookupModule>,
    resolver: &Resolver,
    inputs: I,
    on_output: impl FnMut(ModuleOutput) + Send + 'static,
) -> RunReport
where
    I: Iterator<Item = String>,
{
    let mut engine = Engine::new(
        EngineConfig {
            threads: conf.threads,
            client_ips: conf.client_ips(),
            seed: conf.seed,
            ..EngineConfig::default()
        },
        universe,
    );
    engine.add_resolver(PublicResolverSim::new(PublicResolverConfig::google(
        GOOGLE_DNS,
    )));
    engine.add_resolver(PublicResolverSim::new(PublicResolverConfig::cloudflare(
        CLOUDFLARE_DNS,
    )));
    // Polite-scanning budgets apply under virtual time too: the engine
    // admits every simulated send through the same pacer the real-socket
    // drivers use.
    let pacer_config = conf.pacer_config();
    if pacer_config.enabled() {
        engine.set_send_gate(Box::new(ConcurrentGate::new(Arc::new(
            ConcurrentPacer::new(pacer_config),
        ))));
    }
    let callback = Arc::new(Mutex::new(on_output));
    let sink: ModuleSink = Arc::new(move |o| (callback.lock())(o));
    let resolver = resolver.clone();
    let mut inputs = inputs;
    // The sim drains the same streaming input layer as the real-socket
    // pipeline: one InputSource, pulled a name at a time.
    engine.run_names(&mut inputs, move |input| {
        module.make_machine(input, &resolver, sink.clone())
    })
}

/// Report from a real-socket scan — parity with the simulator's
/// [`RunReport`]: per-status counts, query/retry totals, and rates.
#[derive(Debug, Default)]
pub struct RealScanReport {
    /// Lookups completed.
    pub lookups: u64,
    /// Lookups with NOERROR/NXDOMAIN status.
    pub successes: u64,
    /// Outcome counts by status string.
    pub status_counts: HashMap<String, u64>,
    /// Queries sent on the wire during this scan.
    pub queries_sent: u64,
    /// Retries consumed by timeouts/transport failures.
    pub retries: u64,
    /// Reactor workers that drove the scan.
    pub workers: usize,
    /// Aggregated driver telemetry (demux stats, timer fires, peak
    /// in-flight per worker).
    pub driver: DriverReport,
    /// Worker startup failures (socket bind errors). A scan that could not
    /// start any worker reports every input as failed here.
    pub worker_errors: Vec<String>,
    /// The deepest the writer ever found the output queue (it takes
    /// everything queued at once — at most the bounded queue's capacity,
    /// in outputs): the backpressure headroom a slow sink consumed.
    pub peak_output_queue: usize,
    /// Outputs the sink failed to write (the scan still drains them so
    /// workers never block on a dead sink).
    pub sink_errors: u64,
    /// Wall-clock duration.
    pub elapsed: std::time::Duration,
}

impl RealScanReport {
    /// Overall success fraction.
    pub fn success_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.successes as f64 / self.lookups as f64
    }

    /// Completed lookups per wall-clock second.
    pub fn lookups_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.lookups as f64 / secs
    }

    /// The stderr summary line for this scan.
    pub fn summary_line(&self) -> String {
        let mut counts: Vec<(&String, &u64)> = self.status_counts.iter().collect();
        counts.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let statuses = counts
            .iter()
            .map(|(s, n)| format!("{s}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let pacing = if self.driver.queries_deferred > 0
            || self.driver.per_host_throttles > 0
            || self.driver.backpressure_requeues > 0
        {
            format!(
                ", {} deferred (max queue {}, {} per-host throttles, {} backpressure)",
                self.driver.queries_deferred,
                self.driver.max_deferred_depth,
                self.driver.per_host_throttles,
                self.driver.backpressure_requeues,
            )
        } else {
            String::new()
        };
        let batching = if self.driver.send_syscalls > 0 {
            format!(
                ", {:.1} dg/send-syscall ({} sent / {} syscalls)",
                self.driver.datagrams_sent as f64 / self.driver.send_syscalls as f64,
                self.driver.datagrams_sent,
                self.driver.send_syscalls,
            )
        } else {
            String::new()
        };
        let backend = if self.driver.io_backend.is_empty() {
            String::new()
        } else {
            format!(", io={}", self.driver.io_backend)
        };
        let credits = if self.driver.credit_leases > 0 {
            format!(
                ", {} credit leases ({} idle returns, {} stalls), {} inputs stolen",
                self.driver.credit_leases,
                self.driver.idle_credit_returns,
                self.driver.credit_stalls,
                self.driver.inputs_stolen,
            )
        } else {
            String::new()
        };
        format!(
            "zdns: {} lookups, {:.1}% success, {} queries, {} retries, {:.2}s, {:.0} lookups/s, {} workers (peak {} in flight){}{}{}{} [{}]",
            self.lookups,
            self.success_rate() * 100.0,
            self.queries_sent,
            self.retries,
            self.elapsed.as_secs_f64(),
            self.lookups_per_sec(),
            self.workers,
            self.driver.peak_in_flight,
            backend,
            pacing,
            batching,
            credits,
            statuses,
        )
    }
}

/// How many reactor workers a real scan uses: enough to spread the demux
/// load over cores, never more than 8 — concurrency comes from the
/// per-worker admission window, not from thread count.
pub fn real_worker_count(conf: &Conf) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    conf.threads.clamp(1, cores.min(8))
}

/// Run a scan over real sockets through the shared-queue pipeline
/// ([`crate::pipeline::run_scan_pipeline`]), collecting outputs with a
/// callback. Socket bind failures are reported in
/// [`RealScanReport::worker_errors`]; if no worker can start, the scan
/// fails fast instead of deadlocking on the input channel.
pub fn run_real_scan<I>(
    conf: &Conf,
    resolver: &Resolver,
    module: Arc<dyn LookupModule>,
    addr_map: Arc<AddrMap>,
    inputs: I,
    on_output: impl FnMut(ModuleOutput) + Send + 'static,
) -> RealScanReport
where
    I: Iterator<Item = String>,
{
    let mut inputs = inputs;
    let mut sink = CallbackSink::new(on_output);
    run_scan_pipeline(conf, resolver, module, addr_map, &mut inputs, &mut sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use zdns_modules::ModuleRegistry;
    use zdns_zones::{SynthConfig, SyntheticUniverse};

    #[test]
    fn sim_scan_produces_one_output_per_input() {
        let conf = Conf::parse(["A", "--iterative", "--threads", "16"]).unwrap();
        let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
        let module = ModuleRegistry::standard().get("A").unwrap();
        let outputs = Arc::new(Mutex::new(Vec::new()));
        let sink_outputs = Arc::clone(&outputs);
        let inputs: Vec<String> = (0..50).map(|i| format!("runner{i}.com")).collect();
        let report = run_sim_scan(&conf, universe, module, inputs.into_iter(), move |o| {
            sink_outputs.lock().push(o)
        });
        assert_eq!(report.jobs, 50);
        assert_eq!(outputs.lock().len(), 50);
        // ~70% exist; NXDOMAIN also counts as success.
        assert!(report.success_rate() > 0.9, "{:?}", report.status_counts);
    }

    #[test]
    fn sim_scan_external_mode_uses_public_resolver() {
        let conf = Conf::parse(["A", "--name-servers", "8.8.8.8", "--threads", "8"]).unwrap();
        let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
        let module = ModuleRegistry::standard().get("A").unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        let inputs: Vec<String> = (0..30).map(|i| format!("ext{i}.net")).collect();
        let report = run_sim_scan(&conf, universe, module, inputs.into_iter(), move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 30);
        // External mode sends ~1 query per lookup (plus retries).
        let qpl = report.queries_sent as f64 / report.jobs as f64;
        assert!(qpl < 2.0, "queries per lookup {qpl}");
    }
}
