//! The bounded request queue and the adaptive micro-batching workers.
//!
//! Connection handlers push parsed requests into one [`BatchQueue`];
//! worker threads pull them back out in *micro-batches*: a worker
//! blocks for the first request, then keeps draining until either the
//! batch holds [`max_batch`](crate::ServeConfig::max_batch) series or
//! [`batch_window`](crate::ServeConfig::batch_window) has elapsed since
//! the batch opened — whichever comes first. Under light traffic the
//! window keeps added latency to a couple of milliseconds; under heavy
//! traffic batches fill instantly and the per-series cost amortizes the
//! way offline `predict_batch` calls do.
//!
//! The queue is bounded in **series** (not requests, so one fat request
//! cannot sneak past the limit): when full, [`BatchQueue::try_push`]
//! refuses and the handler sheds the request with `429` instead of
//! letting latency collapse into an unbounded backlog.
//!
//! Deadlines are enforced the way [`rpm_core::TrainBudget`] enforces
//! training budgets: checked before the expensive unit of work starts
//! (here, before a request's series enter a dispatched batch), sticky
//! once exceeded, and answered with a typed verdict instead of a
//! panic. The connection handler's reply-timeout is the backstop for
//! deadlines that expire *mid*-predict.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rpm_core::PredictOptions;
use rpm_obs::TraceCtx;
use rpm_ts::ScanCounters;

/// What a worker sends back to the waiting connection handler.
#[derive(Clone, Debug)]
pub(crate) enum Reply {
    /// One label per series in the request, request order, plus the
    /// model generation that produced them (surfaced to clients as the
    /// `X-Model-Generation` header so reload tests can pin responses
    /// to the model that served them).
    Labels { labels: Vec<usize>, generation: u64 },
    /// The request's deadline passed before its batch dispatched.
    DeadlineExceeded,
    /// Prediction failed (engine error or injected fault).
    Failed(String),
}

/// One queued classify request.
pub(crate) struct Pending {
    /// Parsed series buffers; workers borrow these (never copy them)
    /// into the batched `predict_batch` call.
    pub series: Vec<Vec<f64>>,
    /// When the request entered the queue.
    pub enqueued: Instant,
    /// Queue-entry time on the observability clock (span timestamps).
    pub enqueued_ns: u64,
    /// When the request stops being worth answering.
    pub deadline: Instant,
    /// The request's trace: workers push `queue_wait` / `batch` /
    /// `predict` spans into it **before** replying, so the handler's
    /// `finish` sees them. The handler holds the other `Arc`.
    pub trace: Arc<TraceCtx>,
    /// Reply channel back to the connection handler.
    pub reply: Sender<Reply>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// Total series across `queue` (the bound is in series).
    series: usize,
    open: bool,
}

/// Bounded MPMC queue feeding the micro-batching workers.
pub(crate) struct BatchQueue {
    state: Mutex<QueueState>,
    arrived: Condvar,
    capacity: usize,
}

impl BatchQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                series: 0,
                open: true,
            }),
            arrived: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless the series bound would be exceeded (or the queue
    /// is closed); the rejected request comes back to the caller so the
    /// handler can shed it.
    pub fn try_push(&self, pending: Pending) -> Result<(), Pending> {
        let mut state = self.state.lock().expect("queue lock");
        if !state.open || state.series + pending.series.len() > self.capacity {
            return Err(pending);
        }
        state.series += pending.series.len();
        state.queue.push_back(pending);
        drop(state);
        self.arrived.notify_one();
        Ok(())
    }

    /// Blocks for the next micro-batch: waits for a first request, then
    /// drains arrivals until the batch reaches `max_batch` series or
    /// `window` has elapsed since the batch opened. Returns `None` only
    /// when the queue is closed and drained — the workers' exit signal.
    pub fn pop_batch(&self, max_batch: usize, window: Duration) -> Option<Vec<Pending>> {
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock().expect("queue lock");
        // Phase 1: block for the first request.
        loop {
            if let Some(first) = state.queue.pop_front() {
                state.series -= first.series.len();
                let mut batch_series = first.series.len();
                let mut batch = vec![first];
                // Phase 2: adaptive fill until size or time threshold.
                let opened = Instant::now();
                while batch_series < max_batch {
                    match state.queue.pop_front() {
                        Some(p) => {
                            state.series -= p.series.len();
                            batch_series += p.series.len();
                            batch.push(p);
                        }
                        None => {
                            if !state.open {
                                break;
                            }
                            let elapsed = opened.elapsed();
                            if elapsed >= window {
                                break;
                            }
                            let (next, timeout) = self
                                .arrived
                                .wait_timeout(state, window - elapsed)
                                .expect("queue lock");
                            state = next;
                            if timeout.timed_out() && state.queue.is_empty() {
                                break;
                            }
                        }
                    }
                }
                return Some(batch);
            }
            if !state.open {
                return None;
            }
            state = self.arrived.wait(state).expect("queue lock");
        }
    }

    /// Series queued right now (what `/healthz` reports as
    /// `queue_depth`).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").series
    }

    /// Closes the queue: pushes start failing, and workers drain what
    /// is left, then observe `None` and exit.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").open = false;
        self.arrived.notify_all();
    }
}

/// One worker iteration: predicts a popped batch against the pinned
/// model generation and distributes replies. Returns the number of
/// series predicted (tests use it; the worker loop ignores it).
pub(crate) fn process_batch(
    generation: &crate::lifecycle::ModelGeneration,
    parallelism: rpm_ts::Parallelism,
    batch: Vec<Pending>,
) -> usize {
    let model = &generation.model;
    /// Process-wide batch sequence number: the `batch` attribute that
    /// ties the N request traces a shared batch served to one another.
    static BATCH_SEQ: AtomicU64 = AtomicU64::new(0);

    let now = Instant::now();
    let batch_start_ns = rpm_obs::now_ns();
    let m = rpm_obs::metrics();
    // Deadline gate, TrainBudget-style: refuse the unit of work before
    // it starts rather than interrupting it midway. The expired entry
    // still gets its `queue_wait` span — that span (queue entry to the
    // gate) is exactly *why* the request died, and it must land in the
    // trace before the reply releases the waiting handler.
    let (live, expired): (Vec<Pending>, Vec<Pending>) =
        batch.into_iter().partition(|p| p.deadline > now);
    for p in expired {
        p.trace.add_span(
            "queue_wait",
            p.enqueued_ns,
            batch_start_ns.saturating_sub(p.enqueued_ns),
        );
        let _ = p.reply.send(Reply::DeadlineExceeded);
    }
    if live.is_empty() {
        return 0;
    }
    for p in &live {
        m.serve_queue_wait
            .observe(p.enqueued.elapsed().as_nanos() as u64);
        p.trace.add_span(
            "queue_wait",
            p.enqueued_ns,
            batch_start_ns.saturating_sub(p.enqueued_ns),
        );
    }

    // The zero-copy heart of the serve path: slices borrowed straight
    // out of every queued request's parsed buffers, one flat batch.
    let refs: Vec<&[f64]> = live
        .iter()
        .flat_map(|p| p.series.iter().map(Vec::as_slice))
        .collect();
    m.serve_batches.inc();
    m.serve_batch_fill.observe(refs.len() as u64);

    let batch_seq = BATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let counters = ScanCounters::new();
    let predict_start_ns = rpm_obs::now_ns();
    let verdict = if let Err(e) = rpm_obs::fault::point("serve.batch") {
        Err(format!("injected fault: {e}"))
    } else {
        // A panic inside predict (e.g. an armed engine fault) must kill
        // neither the worker nor the server.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // With drift armed, one sketch sample per series goes to the
            // generation's monitor, derived from the same feature rows the
            // SVM reads.
            let options = PredictOptions {
                parallelism,
                counters: Some(&counters),
                drift: generation.drift.as_ref(),
            };
            model.predict_batch_with(&refs, options)
        }))
        .map_err(|_| "prediction panicked".to_string())
        .and_then(|r| r.map_err(|e| e.to_string()))
    };
    let predict_end_ns = rpm_obs::now_ns();

    // Span the shared work into every request it served: a `batch` span
    // (same `batch` attribute everywhere, links = the *other* traces in
    // the batch) with the `predict` span and its kernel counters
    // underneath. The counters describe the whole batch — the batch is
    // the execution unit — which the sibling links make explicit.
    let stats = counters.snapshot();
    let trace_ids: Vec<rpm_obs::TraceId> = live.iter().map(|p| p.trace.trace_id()).collect();
    for p in &live {
        let own = p.trace.trace_id();
        let links: Vec<rpm_obs::TraceId> =
            trace_ids.iter().copied().filter(|&t| t != own).collect();
        let batch_span = p.trace.add_span_with(
            "batch",
            Some(p.trace.root_span()),
            batch_start_ns,
            predict_end_ns.saturating_sub(batch_start_ns),
            vec![
                ("batch", batch_seq.to_string()),
                ("series", refs.len().to_string()),
                ("requests", live.len().to_string()),
            ],
            links,
        );
        p.trace.add_span_with(
            "predict",
            Some(batch_span),
            predict_start_ns,
            predict_end_ns.saturating_sub(predict_start_ns),
            vec![
                ("searches", stats.searches.to_string()),
                ("windows", stats.windows.to_string()),
                ("abandoned", stats.abandoned.to_string()),
                ("abandon_rate", format!("{:.4}", stats.abandon_rate())),
                ("pruned_envelope", stats.pruned_envelope.to_string()),
                ("prune_rate", format!("{:.4}", stats.prune_rate())),
                ("stats_builds", stats.stats_builds.to_string()),
                ("match_ns", stats.match_ns.to_string()),
                (
                    "ns_per_search",
                    (stats.match_ns / stats.searches.max(1)).to_string(),
                ),
            ],
            Vec::new(),
        );
    }

    let n = refs.len();
    match verdict {
        Ok(labels) => {
            let mut cursor = labels.into_iter();
            for p in live {
                let answer: Vec<usize> = cursor.by_ref().take(p.series.len()).collect();
                let _ = p.reply.send(Reply::Labels {
                    labels: answer,
                    generation: generation.generation,
                });
            }
            n
        }
        Err(msg) => {
            for p in live {
                let _ = p.reply.send(Reply::Failed(msg.clone()));
            }
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn pending(n_series: usize, len: usize) -> (Pending, std::sync::mpsc::Receiver<Reply>) {
        let (tx, rx) = channel();
        let now = Instant::now();
        (
            Pending {
                series: vec![vec![0.0; len]; n_series],
                enqueued: now,
                enqueued_ns: rpm_obs::now_ns(),
                deadline: now + Duration::from_secs(5),
                trace: TraceCtx::begin(None),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn queue_bounds_by_series_not_requests() {
        let q = BatchQueue::new(4);
        let (a, _ra) = pending(3, 8);
        assert!(q.try_push(a).is_ok());
        // 3 + 2 > 4: shed.
        let (b, _rb) = pending(2, 8);
        assert!(q.try_push(b).is_err());
        // 3 + 1 = 4: fits.
        let (c, _rc) = pending(1, 8);
        assert!(q.try_push(c).is_ok());
    }

    #[test]
    fn pop_batch_flushes_on_size() {
        let q = BatchQueue::new(64);
        for _ in 0..5 {
            let (p, rx) = pending(2, 4);
            std::mem::forget(rx);
            assert!(q.try_push(p).is_ok());
        }
        // 4-series flush takes the first two requests only.
        let batch = q.pop_batch(4, Duration::from_secs(10)).unwrap();
        assert_eq!(batch.len(), 2);
        let batch = q.pop_batch(100, Duration::from_millis(1)).unwrap();
        assert_eq!(batch.len(), 3, "window flush drains the rest");
    }

    #[test]
    fn pop_batch_flushes_on_window_under_light_traffic() {
        let q = BatchQueue::new(64);
        let (p, rx) = pending(1, 4);
        std::mem::forget(rx);
        assert!(q.try_push(p).is_ok());
        let started = Instant::now();
        let batch = q.pop_batch(1000, Duration::from_millis(20)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "window flush must not wait for the size threshold"
        );
    }

    #[test]
    fn closed_queue_drains_then_signals_exit() {
        let q = Arc::new(BatchQueue::new(16));
        let (p, rx) = pending(1, 4);
        std::mem::forget(rx);
        assert!(q.try_push(p).is_ok());
        q.close();
        let (p2, _r2) = pending(1, 4);
        assert!(q.try_push(p2).is_err(), "closed queues shed");
        assert!(q.pop_batch(8, Duration::from_millis(1)).is_some());
        assert!(q.pop_batch(8, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = Arc::new(BatchQueue::new(16));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop_batch(8, Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(waiter.join().unwrap().is_none());
    }
}
