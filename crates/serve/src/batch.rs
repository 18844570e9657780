//! The bounded request queue and the batch workers that drain it.
//!
//! Connection handlers push parsed requests into one [`BatchQueue`];
//! worker threads pull them back out in batches, dispatched on arrival:
//! a free worker blocks for the first request, takes every request
//! already queued behind it while the batch stays within
//! [`max_batch`](crate::ServeConfig::max_batch) series, and predicts at
//! once — it never holds a batch open to wait for more. Under light
//! traffic a request therefore waits only for a free worker; under
//! load, requests queue while every worker is busy, and the next free
//! worker takes up to `max_batch` series into one `predict_batch_with`
//! call, so the per-series cost amortizes the way offline
//! `predict_batch` calls do.
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
use std::time::Instant;

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
    /// Queue-entry time on the observability clock: the start of both
    /// the `queue_wait` span and the `serve.queue_wait_ns` observation.
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

/// Bounded MPMC queue feeding the batch workers.
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

    /// Blocks for the next batch: waits for a first request, then takes
    /// every request already queued behind it, in order, while the
    /// batch stays within `max_batch` series, and returns without
    /// waiting for more. A first request larger than `max_batch` goes
    /// out alone. Returns `None` only when the queue is closed and
    /// drained — the workers' exit signal.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<Pending>> {
        let mut state = self.state.lock().expect("queue lock");
        let first = loop {
            if let Some(first) = state.queue.pop_front() {
                break first;
            }
            if !state.open {
                return None;
            }
            state = self.arrived.wait(state).expect("queue lock");
        };
        let mut series = first.series.len();
        let mut batch = vec![first];
        while let Some(next) = state.queue.front().map(|p| p.series.len()) {
            if series + next > max_batch {
                break;
            }
            series += next;
            batch.extend(state.queue.pop_front());
        }
        state.series -= series;
        Some(batch)
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
    let queue_wait = |p: &Pending| batch_start_ns.saturating_sub(p.enqueued_ns);
    for p in expired {
        p.trace
            .add_span("queue_wait", p.enqueued_ns, queue_wait(&p));
        let _ = p.reply.send(Reply::DeadlineExceeded);
    }
    if live.is_empty() {
        return 0;
    }
    // The histogram observes the very interval the span records, so a
    // `serve.queue_wait_ns` exemplar carries its own observation.
    for p in &live {
        m.serve_queue_wait.observe(queue_wait(p));
        p.trace.add_span("queue_wait", p.enqueued_ns, queue_wait(p));
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
    use proptest::prelude::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Duration;

    fn pending(n_series: usize, len: usize) -> (Pending, std::sync::mpsc::Receiver<Reply>) {
        let (tx, rx) = channel();
        let now = Instant::now();
        (
            Pending {
                series: vec![vec![0.0; len]; n_series],
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
        let batch = q.pop_batch(4).unwrap();
        assert_eq!(batch.len(), 2);
        let batch = q.pop_batch(100).unwrap();
        assert_eq!(batch.len(), 3, "the next pop drains the rest");
    }

    #[test]
    fn pop_batch_returns_what_is_queued_without_waiting() {
        let q = BatchQueue::new(64);
        for _ in 0..3 {
            let (p, rx) = pending(1, 4);
            std::mem::forget(rx);
            assert!(q.try_push(p).is_ok());
        }
        // Three series against a 1000-series batch: nothing more will
        // arrive, and the pop must not wait for it.
        let started = Instant::now();
        let batch = q.pop_batch(1000).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.depth(), 0);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a pop on a non-empty queue returns at once"
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
        assert!(q.pop_batch(8).is_some());
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = Arc::new(BatchQueue::new(16));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop_batch(8));
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(waiter.join().unwrap().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Single-threaded runs of pushes, pops and a close against a
        /// model of the queue as a FIFO of (tag, series) pairs; a
        /// request's series are `tag + 1` long, so a popped request can
        /// be told from the others. Op codes 0–5 push a request of
        /// `op + 1` series, 6–9 pop (skipped on an empty open queue,
        /// where a pop would block), 10 closes.
        #[test]
        fn queue_accounting_matches_a_fifo_model(
            capacity in 1usize..12,
            max_batch in 1usize..8,
            ops in proptest::collection::vec(0usize..11, 1..64),
        ) {
            let q = BatchQueue::new(capacity);
            let mut model: VecDeque<(usize, usize)> = VecDeque::new();
            let mut open = true;
            for (tag, &op) in ops.iter().enumerate() {
                let queued: usize = model.iter().map(|&(_, n)| n).sum();
                match op {
                    0..=5 => {
                        let n = op + 1;
                        let (p, _rx) = pending(n, tag + 1);
                        let fits = open && queued + n <= capacity;
                        prop_assert_eq!(q.try_push(p).is_ok(), fits);
                        if fits {
                            model.push_back((tag, n));
                        }
                    }
                    6..=9 if model.is_empty() && open => continue,
                    6..=9 => {
                        let started = Instant::now();
                        let popped = q.pop_batch(max_batch);
                        prop_assert!(started.elapsed() < Duration::from_secs(1));
                        let Some(batch) = popped else {
                            prop_assert!(model.is_empty() && !open);
                            continue;
                        };
                        // Whole requests, in FIFO order: the model's head.
                        let mut series = 0;
                        for p in &batch {
                            let (tag, n) = model.pop_front().expect("model has the request");
                            prop_assert_eq!(p.series.len(), n);
                            prop_assert!(p.series.iter().all(|s| s.len() == tag + 1));
                            series += n;
                        }
                        // Past `max_batch` only when the first request is.
                        prop_assert!(series <= max_batch || batch.len() == 1);
                        // Nothing left behind that would have fitted.
                        if let Some(&(_, next)) = model.front() {
                            prop_assert!(series + next > max_batch);
                        }
                    }
                    _ => {
                        q.close();
                        open = false;
                    }
                }
                let queued: usize = model.iter().map(|&(_, n)| n).sum();
                prop_assert_eq!(q.depth(), queued);
            }
        }
    }
}
