//! The shared-queue scan pipeline.
//!
//! One orchestration layer drives every real-socket scan:
//!
//! ```text
//!   InputSource ──► shared input queue ──► reactor workers ──► one lock ──► OutputSink
//!   (file/stdin/       (bounded; every      │  lease admission     (each worker     (JSONL with a
//!    ct-corpus          worker steals       │  credits + pacing    writes its own   reusable buffer,
//!    generator,         the next names)     │  budget from the     outputs; a slow  or a callback)
//!    streaming)                             ▼  scan-wide pools     sink stalls it)
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
//! (a 234M-name corpus is a generator, never a `Vec`), and each worker
//! writes its own finished outputs into the sink under one lock, through
//! the sink's one reusable buffer.
//!
//! Hand-offs cross in **blocks**, so the pipeline costs one lock and at
//! most one wake-up per block where it used to cost a system call per
//! push and per pop (`notify_one` on an idle condition variable is one):
//!
//! * the feeder pushes names **one at a time** — it must never hold a
//!   name across a blocking `source.next_name()`, or a producer that
//!   waits for an answer before writing its next line would wait for
//!   ever — and rings the [`Doorbell`] of a worker that found the queue
//!   empty with nothing in flight: that worker wakes on its next name
//!   instead of at its next poll, and a worker with lookups in flight is
//!   never rung (their answers wake it to a batch of queued names);
//! * a worker pulls up to one I/O batch ([`DEFAULT_BATCH_SIZE`]) of names
//!   under one lock, never blocking for them, and admits from that buffer;
//! * a worker collects finished [`ModuleOutput`]s in its own block and
//!   writes it before the reactor loop sleeps and at the end of every
//!   loop pass ([`Reactor::run_scan_with`]'s hand-off callback), and from
//!   admission once it is one I/O batch long — so a block never waits to
//!   fill and a slow scan prints each line within the tick its lookup
//!   completed in;
//! * writing a block records its completions under the
//!   [`CheckpointKeeper`] lock, then writes every output and flushes the
//!   sink once under the sink lock, then writes a checkpoint snapshot if
//!   one is due. No thread holds both locks at once.
//!
//! There is no output queue: a sink that cannot keep up stalls the worker
//! writing to it, and so its admission. Outputs alive at once are bounded
//! by one loop pass's completions per worker — at most `workers ×
//! --max-in-flight` while no lookup is parked; `tests/scan_pipeline.rs`
//! holds a slow sink to that bound, a producer that waits for its answers
//! to completion, and a 20 pps scan to 50 ms from completion to sink.

use std::collections::{HashMap, VecDeque};
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;
use parking_lot::Mutex;
use zdns_core::{
    AddrMap, Admission, ConcurrentPacer, CreditPool, Doorbell, Reactor, ReactorConfig, Resolver,
    DEFAULT_BATCH_SIZE,
};
use zdns_modules::{LookupModule, ModuleOutput, ModuleSink};
use zdns_netsim::InputSource;

use crate::checkpoint::{scan_id, Checkpoint, CheckpointKeeper, ScanManifest};
use crate::conf::Conf;
use crate::output::OutputSink;
use crate::runner::{real_worker_count, RealScanReport};

/// Run a real-socket scan: names stream from `source` through the shared
/// input queue into a pool of reactor workers, and each worker writes its
/// own outputs into `sink` under one lock (an in-process consumer passes
/// a [`crate::output::CallbackSink`]). See the module docs for the full
/// picture.
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
    let started = Instant::now();
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
    let credit_pool = Arc::new(CreditPool::new(total_window));
    let shared_pacer: Option<Arc<ConcurrentPacer>> = conf
        .pacer
        .enabled()
        .then(|| Arc::new(ConcurrentPacer::new(conf.pacer.clone())));

    // Durable scans keep a checkpoint bookkeeper shared between the feeder
    // (dispatch records) and the workers (completion records + periodic
    // snapshots). The insert-before-send / remove-after-receive ordering
    // through one mutex means a completion can never be observed for a
    // name that is not in the outstanding set.
    let keeper: Option<Mutex<CheckpointKeeper>> = if conf.checkpoint_path.is_empty() {
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
        Some(Mutex::new(keeper))
    };

    // The shared input queue: every worker steals from it.
    let (input_tx, input_rx) = channel::bounded::<String>(total_window.max(workers * 4));

    // One clock epoch for every worker: the shared pacer stores absolute
    // release/penalty times, so workers reading each other's backoff
    // state must agree on what "now" means regardless of spawn skew.
    let output = Output {
        sink: Mutex::new((sink, 0)),
        keeper,
        pacer: shared_pacer,
        epoch: Instant::now(),
    };

    // One bell per worker, rung by the feeder when it queues a name for a
    // worker that found the queue empty. A worker without one (no
    // descriptor left for it) still finds its names, at its next poll.
    let bells: Vec<Option<Arc<Doorbell>>> = (0..workers)
        .map(|_| Doorbell::new().ok().map(Arc::new))
        .collect();

    let module = &*module;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for ((worker_idx, socket), bell) in sockets.into_iter().enumerate().zip(bells.clone()) {
            let input_rx = input_rx.clone();
            let addr_map = Arc::clone(&addr_map);
            let credit_pool = Arc::clone(&credit_pool);
            let output = &output;
            handles.push(scope.spawn(move || -> Result<_, String> {
                let config = ReactorConfig {
                    // Any single worker may absorb the whole window when
                    // its siblings' destinations are stranded in backoff.
                    max_in_flight: total_window,
                    io_backend: conf.io_backend,
                    // Parked (fully backed-off) lookups cost slots but no
                    // window; allow a few windows' worth per worker so
                    // backoff cannot choke admission, while still
                    // bounding what a dead-Internet scan can pin.
                    max_parked: total_window.saturating_mul(4),
                    epoch: Some(output.epoch),
                    ..ReactorConfig::default()
                };
                // One long-lived socket per worker (§3.4), shared by every
                // lookup it has in flight. A worker that cannot start drops
                // its input_rx clone, which lets the feeding loop fail fast
                // when every worker dies.
                let mut reactor = Reactor::from_socket(socket, config, addr_map)
                    .map_err(|e| format!("worker {worker_idx}: reactor start failed: {e}"))?;
                reactor.set_credit_pool(credit_pool);
                if let Some(bell) = bell {
                    reactor.set_doorbell(bell);
                }
                if let Some(pacer) = &output.pacer {
                    reactor.set_pacer(Arc::clone(pacer));
                }
                // This worker's block of finished outputs. Only this
                // thread ever locks it (the mutex is what lets a `Sync`
                // module sink push into it); both buffers below are
                // reused for the whole scan, never reallocated.
                let block = Arc::new(Mutex::new(Vec::with_capacity(DEFAULT_BATCH_SIZE)));
                let sink: ModuleSink = {
                    let block = Arc::clone(&block);
                    Arc::new(move |o| block.lock().push(o))
                };
                let mut hand_off = || output.write(&mut block.lock(), 1);
                let mut pulled: VecDeque<String> = VecDeque::with_capacity(DEFAULT_BATCH_SIZE);
                let mut statuses: HashMap<&'static str, u64> = HashMap::new();
                let mut feed = || {
                    // Lookups that end as they start (bad input) would
                    // otherwise pile up until admission stops.
                    output.write(&mut block.lock(), DEFAULT_BATCH_SIZE);
                    if pulled.is_empty() {
                        // Up to one I/O batch of names under one lock.
                        match input_rx.try_recv_many(&mut pulled, DEFAULT_BATCH_SIZE) {
                            Ok(_) => {}
                            Err(channel::TryRecvError::Empty) => return Admission::Later,
                            Err(channel::TryRecvError::Disconnected) => {
                                return Admission::Exhausted
                            }
                        }
                    }
                    let input = pulled.pop_front().expect("a successful pull moves a name");
                    Admission::Admit(module.make_machine(&input, resolver, sink.clone()))
                };
                let mut on_done = |outcome: Option<zdns_netsim::JobOutcome>| {
                    let status = outcome.map(|o| o.status).unwrap_or("ERROR");
                    *statuses.entry(status).or_insert(0) += 1;
                };
                let driver_report = reactor.run_scan_with(&mut feed, &mut on_done, &mut hand_off);
                Ok((statuses, driver_report))
            }));
        }
        // The parent must not hold a receiver: once every worker is gone,
        // sends below error out instead of deadlocking on a full channel.
        drop(input_rx);
        while let Some(name) = source.next_name() {
            if let Some(keeper) = &output.keeper {
                // Insert into the outstanding set before the send so the
                // name is tracked by the time any worker can complete it.
                keeper.lock().dispatched(&name);
            }
            if input_tx.send(name).is_err() {
                break;
            }
            // One name wakes one starved worker.
            bells.iter().flatten().any(|bell| bell.ring());
        }
        if let Some(keeper) = &output.keeper {
            keeper.lock().input_exhausted();
        }
        drop(input_tx);
        // Every starved worker learns the input is over now, not at its
        // next poll.
        for bell in bells.iter().flatten() {
            bell.ring();
        }
        for handle in handles {
            match handle
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e))
            {
                Ok((statuses, driver)) => {
                    for (status, n) in statuses {
                        *report.status_counts.entry(status.to_string()).or_insert(0) += n;
                    }
                    report.driver.merge(&driver);
                }
                Err(e) => report.worker_errors.push(e),
            }
        }
    });
    // The closing snapshot: input exhausted and every lookup drained
    // marks the shard complete, which is what `zdns merge` verifies.
    if let Some(keeper) = &output.keeper {
        if let Err(e) = keeper.lock().write_snapshot(output.backoff()) {
            report
                .worker_errors
                .push(format!("final checkpoint write failed: {e}"));
        }
    }
    // Pacer contention is scan-wide (the counter lives on the one shared
    // pacer), so it lands on the merged report here rather than being
    // summed per worker.
    if let Some(pacer) = &output.pacer {
        report.driver.pacer_cas_retries = pacer.cas_retries();
    }
    report.sink_errors = output.sink.into_inner().1;
    report.elapsed = started.elapsed();
    report
}

/// Where every worker writes: the caller's sink with its error count
/// under one lock, a durable scan's checkpoint keeper, and the pacer and
/// clock epoch a snapshot reads the backoff table with.
struct Output<'a> {
    sink: Mutex<(&'a mut dyn OutputSink, u64)>,
    keeper: Option<Mutex<CheckpointKeeper>>,
    pacer: Option<Arc<ConcurrentPacer>>,
    epoch: Instant,
}

impl Output<'_> {
    /// Write one worker's block of finished outputs, leaving it empty —
    /// once it holds at least `min` (≥ 1) of them.
    fn write(&self, block: &mut Vec<ModuleOutput>, min: usize) {
        if block.len() < min {
            return;
        }
        // Record the completions *before* the sink writes: if the process
        // dies between the two, the checkpoint's counts run ahead of the
        // output file — harmless, because the output file (not the
        // checkpoint) is the authoritative done-record on resume.
        let snapshot_due = self.keeper.as_ref().filter(|keeper| {
            let mut keeper = keeper.lock();
            block
                .iter()
                .fold(false, |due, output| keeper.completed(&output.name) | due)
        });
        {
            let mut guard = self.sink.lock();
            let (sink, errors) = &mut *guard;
            for output in block.drain(..) {
                // Keep writing past a failed write so no worker stalls on
                // a dead sink; the error count surfaces in the report.
                *errors += u64::from(sink.write_output(output).is_err());
            }
            // The worker may sleep next: a slow scan's lines reach a pipe
            // as they complete, not a buffer-full at a time.
            *errors += u64::from(sink.flush().is_err());
        }
        if let Some(keeper) = snapshot_due {
            let backoff = self.backoff();
            // A failed snapshot write is retried at the next cadence
            // tick; the scan itself never stops.
            let _ = keeper.lock().write_snapshot(backoff);
        }
    }

    /// The pacer's backoff table as of now, for a snapshot.
    fn backoff(&self) -> Vec<(Ipv4Addr, u32, u64)> {
        self.pacer
            .as_ref()
            .map(|p| p.backoff_snapshot(self.epoch.elapsed().as_nanos() as u64))
            .unwrap_or_default()
    }
}
