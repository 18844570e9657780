//! Crash-only worker supervision: panics are quarantined, workers are
//! respawned, and the pool never wedges.
//!
//! The old server trusted `catch_unwind` inside [`process_batch`] to
//! contain prediction panics — but a panic *outside* that inner guard
//! (batch bookkeeping, an armed `serve.worker` fault, a future bug)
//! silently killed the worker thread and shrank the pool until nothing
//! drained the queue. The supervisor makes worker death a handled
//! event instead of an invisible one:
//!
//! * every worker runs under its own `catch_unwind`; before a batch is
//!   processed the worker snapshots each request's reply channel and
//!   trace id, so when the batch panics every caught request gets a
//!   typed `500` (**quarantined** — logged with its trace id, counted
//!   in `serve.quarantined`) instead of a hung connection;
//! * the supervisor thread watches an exit channel, joins dead
//!   workers, and respawns panicked ones with exponential backoff
//!   (rapid repeat deaths back off harder);
//! * a **restart-storm breaker** rate-limits respawns: more than
//!   [`SuperviseSettings::storm_limit`] restarts inside
//!   [`SuperviseSettings::storm_window`] delays further respawns until
//!   the window drains, so a poisoned model cannot melt the host with
//!   a spawn loop;
//! * clean exits (closed queue) are never respawned — that is the
//!   drain path.
//!
//! The supervisor loop doubles as the lifecycle's probation watchdog:
//! every wakeup calls [`Lifecycle::tick`], which auto-rolls-back a
//! freshly swapped model that starts failing.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rpm_ts::Parallelism;

use crate::batch::{process_batch, BatchQueue, Reply};
use crate::lifecycle::Lifecycle;

/// Worker-pool supervision knobs.
#[derive(Clone, Copy, Debug)]
pub struct SuperviseSettings {
    /// Backoff before respawning a panicked worker; doubles per
    /// consecutive rapid death.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Restarts allowed inside `storm_window` before the breaker
    /// delays further respawns.
    pub storm_limit: usize,
    /// Sliding window for the restart-storm breaker.
    pub storm_window: Duration,
}

impl Default for SuperviseSettings {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(2),
            storm_limit: 8,
            storm_window: Duration::from_secs(10),
        }
    }
}

/// A worker lifetime shorter than this marks its panic as part of a
/// *consecutive* failure run and doubles the backoff.
const RAPID_DEATH: Duration = Duration::from_secs(1);

/// Supervisor wakeup cadence: bounds respawn-schedule latency and the
/// probation-tick interval.
const WAKEUP: Duration = Duration::from_millis(100);

struct WorkerExit {
    id: u64,
    panicked: bool,
}

/// Everything a worker thread needs; cloned per spawn.
struct WorkerContext {
    queue: Arc<BatchQueue>,
    lifecycle: Arc<Lifecycle>,
    max_batch: usize,
    parallelism: Parallelism,
    exits: Sender<WorkerExit>,
}

impl WorkerContext {
    fn clone_for(&self) -> Self {
        Self {
            queue: Arc::clone(&self.queue),
            lifecycle: Arc::clone(&self.lifecycle),
            max_batch: self.max_batch,
            parallelism: self.parallelism,
            exits: self.exits.clone(),
        }
    }
}

/// The supervised worker pool. Owns the supervisor thread; workers are
/// owned (and joined) by the supervisor.
pub(crate) struct Supervisor {
    thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Supervisor {
    /// Spawns `workers` supervised batch workers plus the supervisor
    /// thread itself.
    pub fn start(
        queue: Arc<BatchQueue>,
        lifecycle: Arc<Lifecycle>,
        workers: usize,
        max_batch: usize,
        parallelism: Parallelism,
        settings: SuperviseSettings,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rpm-supervisor".to_string())
            .spawn(move || {
                supervise(
                    queue,
                    lifecycle,
                    workers.max(1),
                    max_batch,
                    parallelism,
                    settings,
                    stop2,
                )
            })
            .expect("spawn supervisor thread");
        Self {
            thread: Some(thread),
            stop,
        }
    }

    /// Drain-and-join: callers close the queue first so workers exit
    /// cleanly; the stop flag tells the supervisor those exits are the
    /// drain, not crashes.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn supervise(
    queue: Arc<BatchQueue>,
    lifecycle: Arc<Lifecycle>,
    workers: usize,
    max_batch: usize,
    parallelism: Parallelism,
    settings: SuperviseSettings,
    stop: Arc<AtomicBool>,
) {
    let (exit_tx, exit_rx): (Sender<WorkerExit>, Receiver<WorkerExit>) = channel();
    let ctx = WorkerContext {
        queue,
        lifecycle: Arc::clone(&lifecycle),
        max_batch,
        parallelism,
        exits: exit_tx,
    };

    let mut next_id: u64 = 0;
    let mut pool: HashMap<u64, (JoinHandle<()>, Instant)> = HashMap::new();
    for _ in 0..workers {
        let id = next_id;
        next_id += 1;
        pool.insert(id, (spawn_worker(id, ctx.clone_for()), Instant::now()));
    }

    // Respawns are *scheduled*, never slept on: the supervisor must
    // keep draining exits (and ticking probation) while a backoff or
    // the storm breaker holds a slot back.
    let mut pending: VecDeque<Instant> = VecDeque::new();
    let mut consecutive: u32 = 0;
    let mut restarts: VecDeque<Instant> = VecDeque::new();

    loop {
        let stopping = stop.load(Ordering::Acquire);
        if stopping && pool.is_empty() {
            break;
        }

        match exit_rx.recv_timeout(WAKEUP) {
            Ok(WorkerExit { id, panicked }) => {
                let spawned = pool.remove(&id).map(|(handle, spawned)| {
                    let _ = handle.join();
                    spawned
                });
                if panicked && !stopping {
                    let lived = spawned.map_or(Duration::ZERO, |s| s.elapsed());
                    consecutive = if lived < RAPID_DEATH {
                        consecutive.saturating_add(1)
                    } else {
                        1
                    };
                    let backoff = settings
                        .backoff_base
                        .saturating_mul(1u32 << (consecutive - 1).min(16))
                        .min(settings.backoff_max);
                    rpm_obs::logger::log(
                        "error",
                        "serve.worker",
                        format!(
                            "worker {id} panicked after {lived:?}; respawning in {backoff:?} \
                             (consecutive rapid deaths: {consecutive})"
                        ),
                    );
                    pending.push_back(Instant::now() + backoff);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Due respawns, rate-limited by the storm breaker.
        let now = Instant::now();
        while restarts
            .front()
            .is_some_and(|&t| now - t > settings.storm_window)
        {
            restarts.pop_front();
        }
        while pending.front().is_some_and(|&due| due <= now) {
            if stop.load(Ordering::Acquire) {
                pending.clear();
                break;
            }
            if restarts.len() >= settings.storm_limit {
                // Breaker open: hold every pending respawn until the
                // oldest restart ages out of the window.
                let resume = *restarts.front().expect("non-empty") + settings.storm_window;
                rpm_obs::logger::log(
                    "error",
                    "serve.worker",
                    format!(
                        "restart storm: {} respawns in {:?}; holding further respawns",
                        restarts.len(),
                        settings.storm_window
                    ),
                );
                let head = pending.front_mut().expect("non-empty");
                *head = (*head).max(resume);
                break;
            }
            pending.pop_front();
            restarts.push_back(now);
            let id = next_id;
            next_id += 1;
            lifecycle.metrics().worker_restarts.inc();
            rpm_obs::logger::log("info", "serve.worker", format!("worker {id} respawned"));
            pool.insert(id, (spawn_worker(id, ctx.clone_for()), Instant::now()));
        }

        // Probation watchdog rides the supervisor's wakeup cadence.
        lifecycle.tick();
    }

    for (_, (handle, _)) in pool {
        let _ = handle.join();
    }
}

fn spawn_worker(id: u64, ctx: WorkerContext) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("rpm-worker-{id}"))
        .spawn(move || {
            let exits = ctx.exits.clone();
            // The outer guard makes *any* worker panic a reported exit;
            // a panicking hook path can never silently shrink the pool.
            let panicked = catch_unwind(AssertUnwindSafe(|| worker_loop(&ctx))).unwrap_or(true);
            let _ = exits.send(WorkerExit { id, panicked });
        })
        .expect("spawn worker thread")
}

/// The worker body: pop a batch, pin the current model
/// generation, process, repeat. Returns `true` when a batch panicked —
/// the caught requests were already quarantined; the worker exits and
/// the supervisor respawns a clean replacement (crash-only: no attempt
/// to keep running on a stack that just unwound).
fn worker_loop(ctx: &WorkerContext) -> bool {
    while let Some(batch) = ctx.queue.pop_batch(ctx.max_batch) {
        // Pin the generation for the whole batch: a swap mid-predict
        // does not retarget in-flight work, and the reply carries the
        // generation that actually served it.
        let generation = ctx.lifecycle.current();
        ctx.lifecycle.offer_canary(&batch);

        // Quarantine stubs, snapshotted *before* the batch can panic:
        // enough to answer and attribute every caught request.
        let stubs: Vec<(String, std::sync::mpsc::Sender<Reply>)> = batch
            .iter()
            .map(|p| (p.trace.trace_id().to_hex(), p.reply.clone()))
            .collect();

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The chaos hook: an armed serve.worker fault kills the
            // worker mid-batch, *outside* process_batch's inner guard —
            // exactly the class of panic the supervisor exists for.
            rpm_obs::fault::fire("serve.worker");
            process_batch(&generation, ctx.parallelism, batch);
        }));

        if outcome.is_err() {
            for (trace, reply) in stubs {
                ctx.lifecycle.metrics().quarantined.inc();
                rpm_obs::logger::log_traced(
                    "error",
                    "serve.worker",
                    Some(trace),
                    "worker panicked; request quarantined".to_string(),
                );
                let _ = reply.send(Reply::Failed(
                    "worker panicked; request quarantined".to_string(),
                ));
            }
            return true;
        }
    }
    false
}
