//! The shared-queue scan pipeline.
//!
//! One orchestration layer drives every real-socket scan:
//!
//! ```text
//!   InputSource ──► shared input queue ──► reactor workers ──► output queue ──► OutputSink
//!   (file/stdin/       (bounded; every      │  lease admission     (bounded:       (JSONL with a
//!    ct-corpus          worker steals       │  credits + pacing    a slow sink      reusable buffer,
//!    generator,         the next names)     │  budget from the     throttles        or a callback)
//!    streaming)                             ▼  scan-wide pools     admission)
//!                                    CreditPool + ConcurrentPacer
//! ```
//!
//! Splitting the admission window and the pacing budgets *statically*
//! across workers (`total / workers` each) would let a worker whose
//! destinations were all serving backoff penalties strand its slice of
//! the window while its siblings queued. Instead the window is a
//! scan-wide [`CreditPool`]: workers lease one credit per active
//! lookup, park lookups whose every send is waiting out a backoff
//! penalty (returning the credits), and pull — steal — the next pending
//! input from the shared queue whenever they hold capacity. The pacing
//! budgets are likewise one scan-wide lock-free [`ConcurrentPacer`]
//! (workers lease token blocks from an atomic global bucket and share a
//! striped backoff table). `tests/scan_pipeline.rs` asserts the
//! stranded-window recovery.
//!
//! Both ends stream: an [`InputSource`] is pulled one name at a time
//! (a 234M-name corpus is a generator, never a `Vec`), and outputs
//! cross a *bounded* queue to a single writer thread that serializes
//! through one reusable buffer — a sink that cannot keep up blocks the
//! queue, which blocks the workers' completion path, which throttles
//! admission: memory stays flat and the input is simply consumed more
//! slowly.
//!
//! Between the ends, hand-offs cross in **blocks**, so the pipeline costs
//! one lock and at most one wake-up per block where it used to cost a
//! system call per push and per pop (`notify_one` on an idle condition
//! variable is one):
//!
//! * the feeder pushes names **one at a time** — it must never hold a
//!   name across a blocking `source.next_name()`, or a producer that
//!   waits for an answer before writing its next line would wait for
//!   ever — but wakes a worker only when one is actually asleep on the
//!   queue;
//! * a worker pulls up to one I/O batch (`--batch-size`) of names under
//!   one lock, never blocking for them, and admits from that buffer;
//! * a worker collects finished [`ModuleOutput`]s in its own block, which
//!   crosses to the writer when it reaches `--batch-size`, before the
//!   reactor loop sleeps, or at the end of a loop pass — whichever comes
//!   first ([`Reactor::run_scan_with`]'s hand-off callback), so a block
//!   never waits to fill and a slow scan prints each line within the
//!   tick its lookup completed in;
//! * the writer takes everything queued under one lock, records the
//!   block's completions under one [`CheckpointKeeper`] lock, writes each
//!   output to the sink, and flushes the sink whenever it finds the
//!   queue empty.
//!
//! Outputs alive at once are therefore bounded by the output queue's
//! capacity (in items) + `workers × batch size` + the writer's block (at
//! most the capacity again); `tests/scan_pipeline.rs` holds a slow sink
//! to that bound, a producer that waits for its answers to completion,
//! and a 20 pps scan to 50 ms from completion to sink.

use std::collections::{HashMap, VecDeque};
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::Arc;

use crossbeam::channel;
use parking_lot::Mutex;
use zdns_core::{
    AddrMap, Admission, ConcurrentPacer, CreditPool, DriverReport, Reactor, ReactorConfig, Resolver,
};
use zdns_modules::{LookupModule, ModuleOutput, ModuleSink};
use zdns_netsim::InputSource;

use crate::checkpoint::{scan_id, Checkpoint, CheckpointKeeper, ScanManifest};
use crate::conf::Conf;
use crate::output::OutputSink;
use crate::runner::{real_worker_count, RealScanReport};

/// Run a real-socket scan: names stream from `source` through the shared
/// input queue into a pool of reactor workers, and every output crosses
/// the bounded output queue into `sink` on one writer thread. See the
/// module docs for the full picture; [`crate::runner::run_real_scan`] is
/// the callback-shaped convenience wrapper.
pub fn run_scan_pipeline(
    conf: &Conf,
    resolver: &Resolver,
    module: Arc<dyn LookupModule>,
    addr_map: Arc<AddrMap>,
    source: &mut dyn InputSource,
    sink: &mut dyn OutputSink,
) -> RealScanReport {
    let total_window = if conf.max_in_flight > 0 {
        conf.max_in_flight
    } else {
        conf.threads.max(1)
    };
    // Never spawn more workers than the window allows: the aggregate
    // active cap must not exceed what the user asked for (a polite
    // scanner's rate contract).
    let workers = real_worker_count(conf).min(total_window);
    let started = std::time::Instant::now();
    let mut report = RealScanReport {
        workers,
        ..RealScanReport::default()
    };

    // Bind every worker socket up front so startup failures surface
    // immediately (a worker that dies silently can deadlock a bounded
    // input channel).
    let mut sockets = Vec::new();
    for i in 0..workers {
        match UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0)) {
            Ok(socket) => sockets.push(socket),
            Err(e) => report
                .worker_errors
                .push(format!("worker {i}: socket bind failed: {e}")),
        }
    }
    if sockets.is_empty() {
        report.elapsed = started.elapsed();
        return report;
    }
    let workers = sockets.len();
    report.workers = workers;

    // The scan-wide pools every worker leases from: the admission
    // window as credits, the pacing budgets as one pacer.
    let pacer_config = conf.pacer_config();
    let credit_pool = Arc::new(CreditPool::new(total_window));
    let shared_pacer: Option<Arc<ConcurrentPacer>> = pacer_config
        .enabled()
        .then(|| Arc::new(ConcurrentPacer::new(pacer_config)));

    // Durable scans keep a checkpoint bookkeeper shared between the
    // feeder (dispatch records) and the writer thread (completion
    // records + periodic snapshots). The insert-before-send /
    // remove-after-receive ordering through one mutex means a
    // completion can never be observed for a name that is not in the
    // outstanding set.
    let keeper: Option<Arc<Mutex<CheckpointKeeper>>> = if conf.checkpoint_path.is_empty() {
        None
    } else {
        let manifest_path = std::path::Path::new(&conf.checkpoint_path);
        let id = scan_id(conf);
        let mut keeper = CheckpointKeeper::new(id.clone(), manifest_path, conf.checkpoint_every);
        if conf.resume {
            // Re-arm the scan-wide pacer with the spilled backoff state
            // (streaks + remaining penalties) so a resumed scan keeps
            // honouring penalties incurred before the crash; the
            // output-file done-set (applied by the caller's
            // `DedupSource`) is what keeps resume *correct*.
            if let Some(ckpt) =
                Checkpoint::load_latest(&ScanManifest::checkpoint_file(manifest_path))
                    .filter(|c| c.scan_id == id)
            {
                if let Some(pacer) = &shared_pacer {
                    pacer.restore_backoff(&ckpt.backoff, 0);
                }
                keeper.resume_from(&ckpt);
            }
        } else if let Err(e) = ScanManifest::from_conf(conf).write(manifest_path) {
            report.worker_errors.push(format!(
                "cannot write scan manifest {}: {e}",
                conf.checkpoint_path
            ));
            report.elapsed = started.elapsed();
            return report;
        }
        Some(Arc::new(Mutex::new(keeper)))
    };

    // The shared input queue (every worker steals from the same bounded
    // channel) and the bounded output queue (backpressure).
    let (input_tx, input_rx) = channel::bounded::<String>(total_window.max(workers * 4));
    let output_cap = (total_window * 2).max(64);
    let (output_tx, output_rx) = channel::bounded::<ModuleOutput>(output_cap);

    // One clock epoch for every worker: the shared pacer stores absolute
    // release/penalty times, so workers reading each other's backoff
    // state must agree on what "now" means regardless of spawn skew.
    let epoch = std::time::Instant::now();
    let stats_before = resolver.core().stats.snapshot();
    let merged: Arc<Mutex<(HashMap<String, u64>, DriverReport)>> =
        Arc::new(Mutex::new((HashMap::new(), DriverReport::default())));
    let startup_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut writer_stats = (0usize, 0u64);

    std::thread::scope(|scope| {
        let base_share = total_window / workers;
        let extra = total_window % workers;
        for (worker_idx, socket) in sockets.into_iter().enumerate() {
            // What a static split would have given this worker; only the
            // steal telemetry uses it.
            let fair_share = (base_share + usize::from(worker_idx < extra)).max(1);
            let input_rx = input_rx.clone();
            let output_tx = output_tx.clone();
            let module = Arc::clone(&module);
            let resolver = resolver.clone();
            let addr_map = Arc::clone(&addr_map);
            let merged = Arc::clone(&merged);
            let startup_errors = Arc::clone(&startup_errors);
            let credit_pool = Arc::clone(&credit_pool);
            let shared_pacer = shared_pacer.clone();
            let batch_size = if conf.batch_size > 0 {
                conf.batch_size
            } else {
                ReactorConfig::default().batch_size
            };
            let io_backend = conf.io_backend;
            let pin_cores = conf.pin_cores;
            scope.spawn(move || {
                // Opt-in core pinning: one core per worker, best-effort
                // (a restricted sandbox or a worker count above the core
                // count just runs unpinned).
                if pin_cores {
                    let _ = zdns_core::pin_to_core(worker_idx);
                }
                let config = ReactorConfig {
                    // Any single worker may absorb the whole window when
                    // its siblings' destinations are stranded in backoff.
                    max_in_flight: total_window,
                    batch_size,
                    io_backend,
                    // Parked (fully backed-off) lookups cost slots but no
                    // window; allow a few windows' worth per worker so
                    // backoff cannot choke admission, while still
                    // bounding what a dead-Internet scan can pin.
                    max_parked: total_window.saturating_mul(4),
                    epoch: Some(epoch),
                    ..ReactorConfig::default()
                };
                // One long-lived socket per worker (§3.4), shared by every
                // lookup the worker has in flight.
                let mut reactor = match Reactor::from_socket(socket, config, addr_map) {
                    Ok(reactor) => reactor,
                    Err(e) => {
                        // Record the death; dropping this worker's input_rx
                        // clone is what lets the feeding loop fail fast when
                        // every worker dies.
                        startup_errors
                            .lock()
                            .push(format!("worker {worker_idx}: reactor start failed: {e}"));
                        return;
                    }
                };
                reactor.set_credit_pool(credit_pool, fair_share);
                if let Some(pacer) = shared_pacer {
                    reactor.set_pacer(pacer);
                }
                // This worker's block of finished outputs. Only this
                // thread ever locks it (the mutex is what lets a `Sync`
                // module sink push into it); both buffers below are
                // reused for the whole scan, never reallocated.
                let block = Arc::new(Mutex::new(Vec::with_capacity(batch_size)));
                let send_block = move |block: &mut Vec<ModuleOutput>| {
                    // A full output queue blocks here — inside lookup
                    // completion or before the loop's sleep — which stalls
                    // this worker's admission: the slow-sink backpressure
                    // path. With the writer gone there is nobody to keep
                    // the outputs for.
                    if !block.is_empty() && output_tx.send_many(block).is_err() {
                        block.clear();
                    }
                };
                let sink: ModuleSink = {
                    let (block, send_block) = (Arc::clone(&block), send_block.clone());
                    Arc::new(move |o| {
                        let mut block = block.lock();
                        block.push(o);
                        if block.len() >= batch_size {
                            send_block(&mut block);
                        }
                    })
                };
                let mut hand_off = || send_block(&mut block.lock());
                let mut pulled: VecDeque<String> = VecDeque::with_capacity(batch_size);
                let mut statuses: HashMap<&'static str, u64> = HashMap::new();
                let mut feed = || {
                    if pulled.is_empty() {
                        // Up to one I/O batch of names under one lock.
                        match input_rx.try_recv_many(&mut pulled, batch_size) {
                            Ok(_) => {}
                            Err(channel::TryRecvError::Empty) => return Admission::Later,
                            Err(channel::TryRecvError::Disconnected) => {
                                return Admission::Exhausted
                            }
                        }
                    }
                    let input = pulled.pop_front().expect("a successful pull moves a name");
                    Admission::Admit(module.make_machine(&input, &resolver, sink.clone()))
                };
                let mut on_done = |outcome: Option<zdns_netsim::JobOutcome>| {
                    let status = outcome.map(|o| o.status).unwrap_or("ERROR");
                    *statuses.entry(status).or_insert(0) += 1;
                };
                let driver_report = reactor.run_scan_with(&mut feed, &mut on_done, &mut hand_off);
                let mut merged = merged.lock();
                for (status, n) in statuses {
                    *merged.0.entry(status.to_string()).or_insert(0) += n;
                }
                merged.1.merge(&driver_report);
            });
        }
        drop(output_tx);
        // The parent must not hold a receiver: once every worker is gone,
        // sends below error out instead of deadlocking on a full channel.
        drop(input_rx);
        // One writer thread owns the sink: outputs drain while inputs
        // feed in, and the queue's depth is observable as backpressure
        // telemetry. On durable scans it doubles as the checkpoint
        // clock: completions are recorded per block and a snapshot is
        // serialized once `checkpoint_every` of them have gone by, off
        // the workers' hot path.
        let writer_keeper = keeper.clone();
        let writer_pacer = shared_pacer.clone();
        let writer = scope.spawn(move || {
            let mut peak_queue = 0usize;
            let mut errors = 0u64;
            let mut block: Vec<ModuleOutput> = Vec::new();
            // Everything queued, under one lock.
            while output_rx.recv_many(&mut block, usize::MAX).is_ok() {
                peak_queue = peak_queue.max(block.len());
                // Record the completions *before* the sink writes: if the
                // process dies between the two, the checkpoint's counts
                // run ahead of the output file — harmless, because the
                // output file (not the checkpoint) is the authoritative
                // done-record on resume.
                let snapshot_due = writer_keeper.as_ref().filter(|keeper| {
                    let mut keeper = keeper.lock();
                    block
                        .iter()
                        .fold(false, |due, output| keeper.completed(&output.name) | due)
                });
                for output in block.drain(..) {
                    // Keep draining past a failed write so workers never
                    // block on a dead sink; the error count surfaces in
                    // the report.
                    errors += u64::from(sink.write_output(output).is_err());
                }
                if let Some(keeper) = snapshot_due {
                    let backoff = writer_pacer
                        .as_ref()
                        .map(|p| p.backoff_snapshot(epoch.elapsed().as_nanos() as u64))
                        .unwrap_or_default();
                    // A failed snapshot write is retried at the next
                    // cadence tick; the scan itself never stops.
                    let _ = keeper.lock().write_snapshot(backoff);
                }
                // Nothing more queued: the writer is about to sleep, so
                // what the sink buffered goes out first — a slow scan's
                // lines reach a pipe as they complete, not a buffer-full
                // at a time.
                if output_rx.is_empty() {
                    errors += u64::from(sink.flush().is_err());
                }
            }
            errors += u64::from(sink.flush().is_err());
            (peak_queue, errors)
        });
        while let Some(name) = source.next_name() {
            if let Some(keeper) = &keeper {
                // Insert into the outstanding set before the send so the
                // name is tracked by the time any worker can complete it.
                keeper.lock().dispatched(&name);
            }
            if input_tx.send(name).is_err() {
                break;
            }
        }
        if let Some(keeper) = &keeper {
            keeper.lock().input_exhausted();
        }
        drop(input_tx);
        writer_stats = writer.join().unwrap_or((0, 0));
    });

    // The closing snapshot: input exhausted and every lookup drained
    // marks the shard complete, which is what `zdns merge` verifies.
    if let Some(keeper) = &keeper {
        let backoff = shared_pacer
            .as_ref()
            .map(|p| p.backoff_snapshot(epoch.elapsed().as_nanos() as u64))
            .unwrap_or_default();
        if let Err(e) = keeper.lock().write_snapshot(backoff) {
            report
                .worker_errors
                .push(format!("final checkpoint write failed: {e}"));
        }
    }

    let stats_after = resolver.core().stats.snapshot();
    let merged = Arc::try_unwrap(merged)
        .map(Mutex::into_inner)
        .unwrap_or_else(|arc| arc.lock().clone());
    report.worker_errors.extend(startup_errors.lock().drain(..));
    report.status_counts = merged.0;
    report.driver = merged.1;
    // Pacer contention telemetry is scan-wide (the counters live on the
    // one shared pacer), so it lands on the merged report here rather
    // than being summed per worker.
    if let Some(pacer) = &shared_pacer {
        report.driver.pacer_cas_retries = pacer.cas_retries();
        report.driver.pacer_stripe_waits = pacer.stripe_waits();
        report.driver.token_blocks_leased = pacer.blocks_leased();
    }
    report.lookups = report.driver.completed;
    report.successes = report.driver.successes;
    report.queries_sent = stats_after.queries_sent - stats_before.queries_sent;
    report.retries = stats_after.retries - stats_before.retries;
    report.peak_output_queue = writer_stats.0;
    report.sink_errors = writer_stats.1;
    report.elapsed = started.elapsed();
    report
}
