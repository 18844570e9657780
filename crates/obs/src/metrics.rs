//! The metrics registry: atomic counters, gauges, and histograms.
//!
//! Every metric is a static inside the global [`Metrics`] struct, so an
//! increment is one predictable branch (the enabled check) plus one
//! relaxed `fetch_add` — no registry lookup on the hot path. Disabled
//! (the default), increments compile down to a relaxed load and a
//! not-taken branch. Low-frequency per-label counts (e.g. CFS survivors
//! per class) go through the dynamic [`labeled_add`] map instead.
//!
//! Metrics observe; they never influence scheduling or results, so
//! counter totals are reproducible wherever the underlying quantity is
//! deterministic (jobs executed, lookups issued, rectangles split). Only
//! the hit/miss *split* of a racing cache double-compute can vary — the
//! lookup total never does.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` (no-op while observability is off).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-write-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the gauge (no-op while observability is off).
    #[inline]
    pub fn set(&self, v: u64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if crate::enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets every histogram (and drift sketch) carries.
pub const HIST_BUCKETS: usize = 40;

/// The bucket index an observation falls into: bucket 0 holds exactly 0,
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, everything ≥ 2^38 lands in the
/// last bucket. Shared by [`Histogram`] and the drift sketches in
/// [`crate::drift`] so reference and live distributions bucket
/// identically.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// The exclusive upper bound of bucket `i` (0 for bucket 0, else `2^i`),
/// matching [`Histogram::snapshot`]'s `(upper, count)` pairs.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// A log₂-bucket histogram: bucket `i` counts observations in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds zero). Tracks count and
/// sum exactly, distribution to a factor of two — enough to separate a
/// microsecond drain from a millisecond one without a lock.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Records one observation (no-op while observability is off).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_upper(i), n))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time copy of one [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Non-empty buckets as `(exclusive upper bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 < q ≤ 1`) by linear interpolation
    /// inside the log₂ bucket holding the target rank.
    ///
    /// **Error bound.** The exact quantile and this estimate always fall
    /// in the same bucket `[2^(i-1), 2^i)`, so the estimate is within a
    /// factor of two of the exact value (absolute error < the bucket
    /// width `2^(i-1)`); under the in-bucket uniformity assumption the
    /// expected error is far smaller. Bucket 0 holds only the value 0,
    /// where the estimate is exact. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank in 1..=count, then mid-rank interpolation within
        // the bucket (a 1-observation bucket estimates its midpoint).
        let rank = (q * self.count as f64)
            .ceil()
            .max(1.0)
            .min(self.count as f64);
        let mut below = 0u64;
        for &(upper, n) in &self.buckets {
            if rank <= (below + n) as f64 {
                if upper == 0 {
                    return 0.0;
                }
                let lower = (upper / 2) as f64;
                let fraction = (rank - below as f64 - 0.5) / n as f64;
                return lower + fraction * (upper as f64 - lower);
            }
            below += n;
        }
        // Unreachable when count == Σ bucket counts; degrade gracefully.
        self.buckets.last().map_or(0.0, |&(upper, _)| upper as f64)
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Hit/miss/eviction counters of one cache family.
#[derive(Debug)]
pub struct CacheFamilyMetrics {
    /// Lookups answered from memory.
    pub hits: Counter,
    /// Lookups that had to compute.
    pub misses: Counter,
    /// Entries dropped to reclaim capacity (the training caches are
    /// currently unbounded per run, so this stays 0 until a capacity
    /// policy lands — the field keeps the report schema stable).
    pub evictions: Counter,
}

impl CacheFamilyMetrics {
    const fn new() -> Self {
        Self {
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    fn reset(&self) {
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
    }
}

/// Every static metric the pipeline feeds. Names in reports are the
/// dotted forms listed per field.
#[derive(Debug)]
pub struct Metrics {
    /// `engine.runs` — engine fan-out calls executed.
    pub engine_runs: Counter,
    /// `engine.jobs` — jobs executed across all engine runs.
    pub engine_jobs: Counter,
    /// `engine.busy_ns` — summed per-worker time spent inside jobs.
    pub engine_busy_ns: Counter,
    /// `engine.span_ns` — summed `workers × wall` of parallel engine
    /// runs; `busy_ns / span_ns` is the worker utilization.
    pub engine_span_ns: Counter,
    /// `engine.workers.max` — widest parallel fan-out seen.
    pub engine_workers_max: Gauge,
    /// `engine.drain_ns` — queue drain (fan-out wall) time distribution.
    pub engine_drain: Histogram,
    /// `params.evals` — distinct SAX combinations scored.
    pub params_evals: Counter,
    /// `params.folds` — validation folds evaluated (Algorithm 3's inner
    /// loop, fed from the fold runner in `rpm-core::params`).
    pub params_folds: Counter,
    /// `params.eval_ns` — per-combination scoring time distribution.
    pub params_eval: Histogram,
    /// `mine.rules` — grammar rules inspected by Algorithm 1.
    pub mine_rules: Counter,
    /// `mine.candidates` — candidates surviving the γ filter.
    pub mine_candidates: Counter,
    /// `prune.pool_in` — candidates entering Algorithm 2.
    pub prune_pool_in: Counter,
    /// `prune.kept` — candidates surviving τ dedup + the pool cap.
    pub prune_kept: Counter,
    /// `cfs.features_in` — features offered to CFS selection.
    pub cfs_features_in: Counter,
    /// `cfs.survivors` — features CFS kept (per-class counts go to the
    /// labeled map as `cfs.survivors.class=<label>`).
    pub cfs_survivors: Counter,
    /// `transform.columns` — pattern-distance columns computed or fetched.
    pub transform_columns: Counter,
    /// `transform.series_ns` — per-series feature-transform latency of a
    /// trained model's `transform`/predict calls (the classification
    /// bottleneck: K closest-match scans).
    pub transform_series: Histogram,
    /// `predict.series` — series classified through the trained model.
    pub predict_series: Counter,
    /// `predict.batches` — predict-batch calls (serial or parallel).
    pub predict_batches: Counter,
    /// `predict.latency_ns` — end-to-end per-series prediction latency
    /// (transform + SVM argmax), fed by every `RpmClassifier` predict
    /// path.
    pub predict_latency: Histogram,
    /// `predict.match_distance` — winning (argmin) closest-match distance
    /// per prediction, in millionths (distance × 10⁶ rounded down) so the
    /// unitless z-normalized distance fits the integer histogram.
    pub predict_match_distance: Histogram,
    /// `match.searches` — closest-match scans executed (`best_match`).
    pub match_searches: Counter,
    /// `match.windows` — candidate windows considered across all
    /// closest-match scans (before early abandoning).
    pub match_windows: Counter,
    /// `match.abandoned` — candidate windows cut short by early
    /// abandoning; `abandoned / windows` is the kernel's cumulative
    /// early-abandon rate.
    pub match_abandoned: Counter,
    /// `match.pruned_envelope` — windows the batched kernel's
    /// sliding-dot-product lower bound pruned before the exact loop (the
    /// name predates the bound; it was a PAA envelope).
    pub match_pruned_envelope: Counter,
    /// `match.stats_builds` — `RollingStats` constructions; the batched
    /// kernel's sharing shows up as `stats_builds ≪ searches`.
    pub match_stats_builds: Counter,
    /// `cache.frames.*` — PAA-frame cache family.
    pub cache_frames: CacheFamilyMetrics,
    /// `cache.evals.*` — combination-score cache family.
    pub cache_evals: CacheFamilyMetrics,
    /// `cache.columns.*` — transform-column cache family.
    pub cache_columns: CacheFamilyMetrics,
    /// `ml.svm_trains` — linear SVM trainings.
    pub ml_svm_trains: Counter,
    /// `ml.cv_splits` — stratified folds/splits drawn.
    pub ml_cv_splits: Counter,
    /// `ml.cfs_runs` — CFS best-first searches executed.
    pub ml_cfs_runs: Counter,
    /// `opt.direct.splits` — DIRECT rectangle divisions.
    pub opt_direct_splits: Counter,
    /// `opt.direct.evals` — DIRECT objective evaluations.
    pub opt_direct_evals: Counter,
    /// `fault.injected` — faults fired by the [`crate::fault`] layer.
    pub faults_injected: Counter,
    /// `train.degraded` — searches stopped early by an exhausted
    /// `TrainBudget` (best-so-far parameters returned, model flagged).
    pub train_degraded: Counter,
    /// `data.quarantined` — input rows skipped by the lenient loaders
    /// (NaN/Inf values, ragged lengths, unparseable fields).
    pub data_quarantined: Counter,
    /// `http.rejected` — metrics-endpoint connections refused or cut
    /// short by the serving limits (concurrency bound, oversized or
    /// timed-out requests).
    pub http_rejected: Counter,
    /// `serve.requests` — classify requests received by `rpm-serve`.
    /// Counted on entry, before the fault point, the parse and the shed
    /// check, so it includes every outcome: `200`, `400` parse
    /// rejections, `429` sheds, `500` errors and `504` deadline drops.
    pub serve_requests: Counter,
    /// `serve.shed` — classify requests refused with `429` because the
    /// bounded queue was full (load shedding, not failure).
    pub serve_shed: Counter,
    /// `serve.deadline_exceeded` — classify requests dropped because
    /// their per-request deadline passed before prediction finished.
    pub serve_deadline_exceeded: Counter,
    /// `serve.batches` — micro-batches dispatched to `predict_batch`.
    pub serve_batches: Counter,
    /// `serve.errors` — classify requests answered with `5xx` (injected
    /// faults, engine failures), excluding sheds and deadline drops.
    pub serve_errors: Counter,
    /// `serve.reloads` — model reloads accepted through the canary gate
    /// and swapped into the serving slot.
    pub serve_reloads: Counter,
    /// `serve.reload_rejected` — reload attempts refused by the canary
    /// gate (CRC, schema, drift, or replay failure); the serving
    /// generation is untouched.
    pub serve_reload_rejected: Counter,
    /// `serve.rollbacks` — swaps back to the previous warm generation
    /// (manual `/admin/rollback` or probation auto-rollback).
    pub serve_rollbacks: Counter,
    /// `serve.worker_restarts` — batch workers respawned by the
    /// supervisor after a panic.
    pub serve_worker_restarts: Counter,
    /// `serve.quarantined` — classify requests answered `500` because
    /// their batch was poisoned by a worker panic.
    pub serve_quarantined: Counter,
    /// `serve.generation` — the model generation currently serving
    /// (1-based, bumped by every swap including rollbacks).
    pub serve_generation: Gauge,
    /// `serve.queue_depth` — series currently queued for batching.
    pub serve_queue_depth: Gauge,
    /// `serve.batch_fill` — series per dispatched micro-batch.
    pub serve_batch_fill: Histogram,
    /// `serve.queue_wait_ns` — time requests spent queued before their
    /// batch was formed.
    pub serve_queue_wait: Histogram,
    /// `serve.latency_ns` — end-to-end request latency as measured by
    /// the server (parse + queue + batch + predict + reply).
    pub serve_latency: Histogram,
    /// `trace.recorded` — finished request traces retained by the
    /// flight recorder (forensic, slow-decile, or sampled).
    pub trace_recorded: Counter,
    /// `trace.dropped` — finished request traces the retention policy
    /// discarded (healthy, fast, and not sampled).
    pub trace_dropped: Counter,
}

impl Metrics {
    const fn new() -> Self {
        Self {
            engine_runs: Counter::new(),
            engine_jobs: Counter::new(),
            engine_busy_ns: Counter::new(),
            engine_span_ns: Counter::new(),
            engine_workers_max: Gauge::new(),
            engine_drain: Histogram::new(),
            params_evals: Counter::new(),
            params_folds: Counter::new(),
            params_eval: Histogram::new(),
            mine_rules: Counter::new(),
            mine_candidates: Counter::new(),
            prune_pool_in: Counter::new(),
            prune_kept: Counter::new(),
            cfs_features_in: Counter::new(),
            cfs_survivors: Counter::new(),
            transform_columns: Counter::new(),
            transform_series: Histogram::new(),
            predict_series: Counter::new(),
            predict_batches: Counter::new(),
            predict_latency: Histogram::new(),
            predict_match_distance: Histogram::new(),
            match_searches: Counter::new(),
            match_windows: Counter::new(),
            match_abandoned: Counter::new(),
            match_pruned_envelope: Counter::new(),
            match_stats_builds: Counter::new(),
            cache_frames: CacheFamilyMetrics::new(),
            cache_evals: CacheFamilyMetrics::new(),
            cache_columns: CacheFamilyMetrics::new(),
            ml_svm_trains: Counter::new(),
            ml_cv_splits: Counter::new(),
            ml_cfs_runs: Counter::new(),
            opt_direct_splits: Counter::new(),
            opt_direct_evals: Counter::new(),
            faults_injected: Counter::new(),
            train_degraded: Counter::new(),
            data_quarantined: Counter::new(),
            http_rejected: Counter::new(),
            serve_requests: Counter::new(),
            serve_shed: Counter::new(),
            serve_deadline_exceeded: Counter::new(),
            serve_batches: Counter::new(),
            serve_errors: Counter::new(),
            serve_reloads: Counter::new(),
            serve_reload_rejected: Counter::new(),
            serve_rollbacks: Counter::new(),
            serve_worker_restarts: Counter::new(),
            serve_quarantined: Counter::new(),
            serve_generation: Gauge::new(),
            serve_queue_depth: Gauge::new(),
            serve_batch_fill: Histogram::new(),
            serve_queue_wait: Histogram::new(),
            serve_latency: Histogram::new(),
            trace_recorded: Counter::new(),
            trace_dropped: Counter::new(),
        }
    }

    fn counter_entries(&self) -> [(&'static str, &Counter); 39] {
        [
            ("engine.runs", &self.engine_runs),
            ("engine.jobs", &self.engine_jobs),
            ("engine.busy_ns", &self.engine_busy_ns),
            ("engine.span_ns", &self.engine_span_ns),
            ("params.evals", &self.params_evals),
            ("params.folds", &self.params_folds),
            ("mine.rules", &self.mine_rules),
            ("mine.candidates", &self.mine_candidates),
            ("prune.pool_in", &self.prune_pool_in),
            ("prune.kept", &self.prune_kept),
            ("cfs.features_in", &self.cfs_features_in),
            ("cfs.survivors", &self.cfs_survivors),
            ("transform.columns", &self.transform_columns),
            ("predict.series", &self.predict_series),
            ("predict.batches", &self.predict_batches),
            ("match.searches", &self.match_searches),
            ("match.windows", &self.match_windows),
            ("match.abandoned", &self.match_abandoned),
            ("match.pruned_envelope", &self.match_pruned_envelope),
            ("match.stats_builds", &self.match_stats_builds),
            ("ml.svm_trains", &self.ml_svm_trains),
            ("ml.cv_splits", &self.ml_cv_splits),
            ("ml.cfs_runs", &self.ml_cfs_runs),
            ("fault.injected", &self.faults_injected),
            ("train.degraded", &self.train_degraded),
            ("data.quarantined", &self.data_quarantined),
            ("http.rejected", &self.http_rejected),
            ("serve.requests", &self.serve_requests),
            ("serve.shed", &self.serve_shed),
            ("serve.deadline_exceeded", &self.serve_deadline_exceeded),
            ("serve.batches", &self.serve_batches),
            ("serve.errors", &self.serve_errors),
            ("serve.reloads", &self.serve_reloads),
            ("serve.reload_rejected", &self.serve_reload_rejected),
            ("serve.rollbacks", &self.serve_rollbacks),
            ("serve.worker_restarts", &self.serve_worker_restarts),
            ("serve.quarantined", &self.serve_quarantined),
            ("trace.recorded", &self.trace_recorded),
            ("trace.dropped", &self.trace_dropped),
        ]
    }

    fn opt_entries(&self) -> [(&'static str, &Counter); 2] {
        [
            ("opt.direct.splits", &self.opt_direct_splits),
            ("opt.direct.evals", &self.opt_direct_evals),
        ]
    }

    fn cache_entries(&self) -> [(&'static str, &CacheFamilyMetrics); 3] {
        [
            ("frames", &self.cache_frames),
            ("evals", &self.cache_evals),
            ("columns", &self.cache_columns),
        ]
    }

    fn histogram_entries(&self) -> [(&'static str, &Histogram); 8] {
        [
            ("engine.drain_ns", &self.engine_drain),
            ("params.eval_ns", &self.params_eval),
            ("transform.series_ns", &self.transform_series),
            ("predict.latency_ns", &self.predict_latency),
            ("predict.match_distance", &self.predict_match_distance),
            ("serve.batch_fill", &self.serve_batch_fill),
            ("serve.queue_wait_ns", &self.serve_queue_wait),
            ("serve.latency_ns", &self.serve_latency),
        ]
    }
}

static METRICS: Metrics = Metrics::new();

/// The global metrics registry.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

fn labeled() -> &'static Mutex<BTreeMap<String, u64>> {
    static LABELED: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    LABELED.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Adds `n` to the dynamic counter `name` (e.g.
/// `cfs.survivors.class=3`). Takes a lock — keep off hot paths.
pub fn labeled_add(name: &str, n: u64) {
    if !crate::enabled() {
        return;
    }
    if let Ok(mut map) = labeled().lock() {
        *map.entry(name.to_string()).or_insert(0) += n;
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Static counters as `(name, value)`, report order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges as `(name, value)`.
    pub gauges: Vec<(&'static str, u64)>,
    /// Cache families as `(family, hits, misses, evictions)`.
    pub cache: Vec<(&'static str, u64, u64, u64)>,
    /// Histograms as `(name, snapshot)`.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Dynamic labeled counters.
    pub labeled: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Looks up a static counter by report name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Summed cache lookups/hits across all families.
    pub fn cache_totals(&self) -> (u64, u64) {
        let hits: u64 = self.cache.iter().map(|(_, h, _, _)| h).sum();
        let lookups: u64 = self.cache.iter().map(|(_, h, m, _)| h + m).sum();
        (lookups, hits)
    }

    /// Worker utilization of the parallel engine runs (`busy / span`),
    /// or `None` when no parallel run happened.
    pub fn engine_utilization(&self) -> Option<f64> {
        let busy = self.counter("engine.busy_ns")?;
        let span = self.counter("engine.span_ns")?;
        (span > 0).then(|| busy as f64 / span as f64)
    }
}

/// Snapshots every metric.
pub fn snapshot() -> MetricsSnapshot {
    let m = metrics();
    MetricsSnapshot {
        counters: m
            .counter_entries()
            .iter()
            .chain(m.opt_entries().iter())
            .map(|(n, c)| (*n, c.get()))
            .collect(),
        gauges: vec![
            ("engine.workers.max", m.engine_workers_max.get()),
            ("serve.generation", m.serve_generation.get()),
            ("serve.queue_depth", m.serve_queue_depth.get()),
        ],
        cache: m
            .cache_entries()
            .iter()
            .map(|(n, f)| (*n, f.hits.get(), f.misses.get(), f.evictions.get()))
            .collect(),
        histograms: m
            .histogram_entries()
            .iter()
            .map(|(n, h)| (*n, h.snapshot()))
            .collect(),
        labeled: labeled()
            .lock()
            .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default(),
    }
}

/// Zeroes every metric (start of a fresh run / after a report).
pub fn reset() {
    let m = metrics();
    for (_, c) in m.counter_entries().iter().chain(m.opt_entries().iter()) {
        c.reset();
    }
    m.engine_workers_max.reset();
    m.serve_generation.reset();
    m.serve_queue_depth.reset();
    for (_, f) in m.cache_entries() {
        f.reset();
    }
    for (_, h) in m.histogram_entries() {
        h.reset();
    }
    if let Ok(mut map) = labeled().lock() {
        map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, ObsLevel};

    #[test]
    fn counters_gate_on_level_and_accumulate_concurrently() {
        let _g = crate::test_lock();
        ObsConfig::default().install();
        reset();
        metrics().engine_jobs.add(5);
        assert_eq!(metrics().engine_jobs.get(), 0, "off = no-op");

        ObsConfig {
            level: ObsLevel::Summary,
            json_path: None,
            http_addr: None,
        }
        .install();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        metrics().engine_jobs.inc();
                    }
                });
            }
        });
        assert_eq!(metrics().engine_jobs.get(), 8000);
        ObsConfig::default().install();
        reset();
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let _g = crate::test_lock();
        ObsConfig {
            level: ObsLevel::Summary,
            json_path: None,
            http_addr: None,
        }
        .install();
        let h = Histogram::new();
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 6 + (1 << 20));
        assert_eq!(s.buckets, vec![(0, 1), (4, 2), (1 << 21, 1)]);
        assert!(s.mean() > 0.0);
        ObsConfig::default().install();
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let _g = crate::test_lock();
        ObsConfig {
            level: ObsLevel::Summary,
            json_path: None,
            http_addr: None,
        }
        .install();
        let h = Histogram::new();
        // 90 fast observations around 1µs, 10 slow around 1ms.
        for _ in 0..90 {
            h.observe(1_000);
        }
        for _ in 0..10 {
            h.observe(1 << 20);
        }
        let s = h.snapshot();
        // p50 must land in the [512, 1024) bucket holding the 1µs mass.
        let p50 = s.p50();
        assert!((512.0..1024.0).contains(&p50), "p50 = {p50}");
        // p99 must land in the [2^20, 2^21) bucket holding the slow tail.
        let p99 = s.p99();
        assert!(
            ((1u64 << 20) as f64..(1u64 << 21) as f64).contains(&p99),
            "p99 = {p99}"
        );
        // Quantiles are monotone in q.
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        ObsConfig::default().install();
    }

    #[test]
    fn quantiles_on_empty_and_single_observation() {
        let _g = crate::test_lock();
        ObsConfig {
            level: ObsLevel::Summary,
            json_path: None,
            http_addr: None,
        }
        .install();
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.p50(), 0.0);
        assert_eq!(empty.p99(), 0.0);

        let h = Histogram::new();
        h.observe(700);
        let s = h.snapshot();
        // One observation: every quantile is the same in-bucket estimate,
        // within a factor of two of the true value.
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!((512.0..1024.0).contains(&est), "q={q}: {est}");
        }
        // A single zero observation is estimated exactly.
        let z = Histogram::new();
        z.observe(0);
        assert_eq!(z.snapshot().p50(), 0.0);
        ObsConfig::default().install();
    }

    #[test]
    fn snapshot_and_labeled_round_trip() {
        let _g = crate::test_lock();
        ObsConfig {
            level: ObsLevel::Summary,
            json_path: None,
            http_addr: None,
        }
        .install();
        reset();
        metrics().cache_frames.hits.add(3);
        metrics().cache_frames.misses.add(1);
        labeled_add("cfs.survivors.class=2", 4);
        let s = snapshot();
        assert_eq!(
            s.cache.iter().find(|(n, ..)| *n == "frames"),
            Some(&("frames", 3, 1, 0))
        );
        assert_eq!(s.cache_totals(), (4, 3));
        assert_eq!(s.labeled, vec![("cfs.survivors.class=2".to_string(), 4)]);
        reset();
        let s = snapshot();
        assert_eq!(s.cache_totals(), (0, 0));
        assert!(s.labeled.is_empty());
        ObsConfig::default().install();
    }
}
