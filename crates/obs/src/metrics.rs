//! The metrics registry: atomic counters, gauges, and histograms.
//!
//! Every metric is a field of the global [`Metrics`] registry, or of the
//! [`ServeMetrics`] each classify server owns, so an increment is one
//! predictable branch (the enabled check) plus one relaxed `fetch_add`
//! — no registry lookup on the hot path. Disabled (the default),
//! increments compile down to a relaxed load and a not-taken branch.
//! Low-frequency per-label counts (e.g. CFS survivors per class) go
//! through the dynamic [`labeled_add`] map instead.
//!
//! Each metric is declared once, as one row of a `metric_table!` below:
//! doc comment, field, kind, report name. The macro generates the
//! struct field, its const initializer, and the entry that [`snapshot`]
//! and [`reset`] walk.
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

/// An atomic high-water-mark gauge.
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

    /// Raises the gauge to `v` if larger (no-op while observability is
    /// off).
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

/// One registry entry, borrowed so [`snapshot`] and [`reset`] can walk
/// the table without naming a field.
#[derive(Clone, Copy)]
enum Metric<'a> {
    Counter(&'a Counter),
    Gauge(&'a Gauge),
    Histogram(&'a Histogram),
    CacheFamilyMetrics(&'a CacheFamilyMetrics),
}

/// Turns a metric table into its struct (one public field per row,
/// documented with its report name), its `const fn new`, and
/// `entries()`, the `(report name, metric)` list in table order.
macro_rules! metric_table {
    (
        $(#[$table_doc:meta])*
        struct $table:ident {
            $($(#[$doc:meta])* $field:ident: $kind:ident = $name:literal,)*
        }
    ) => {
        $(#[$table_doc])*
        #[derive(Debug)]
        pub struct $table {
            $(
                $(#[$doc])*
                #[doc = ""]
                #[doc = concat!("Report name: `", $name, "`.")]
                pub $field: $kind,
            )*
        }

        impl $table {
            const fn new() -> Self {
                Self { $($field: $kind::new(),)* }
            }

            fn entries(&self) -> impl Iterator<Item = (&'static str, Metric<'_>)> {
                [$(($name, Metric::$kind(&self.$field)),)*].into_iter()
            }
        }
    };
}

metric_table! {
    /// Every static metric the pipeline feeds, declared once in the
    /// table below. Report lines follow table order within each kind.
    struct Metrics {
        /// Engine fan-out calls executed.
        engine_runs: Counter = "engine.runs",
        /// Jobs executed across all engine runs.
        engine_jobs: Counter = "engine.jobs",
        /// Summed per-worker time spent inside jobs.
        engine_busy_ns: Counter = "engine.busy_ns",
        /// Summed `workers × wall` of parallel engine runs; `busy_ns / span_ns`
        /// is the worker utilization.
        engine_span_ns: Counter = "engine.span_ns",
        /// Widest parallel fan-out seen.
        engine_workers_max: Gauge = "engine.workers.max",
        /// Queue drain (fan-out wall) time distribution.
        engine_drain: Histogram = "engine.drain_ns",
        /// Distinct SAX combinations scored.
        params_evals: Counter = "params.evals",
        /// Validation folds evaluated (Algorithm 3's inner loop, fed from the
        /// fold runner in `rpm-core::params`).
        params_folds: Counter = "params.folds",
        /// Per-combination scoring time distribution.
        params_eval: Histogram = "params.eval_ns",
        /// Grammar rules inspected by Algorithm 1.
        mine_rules: Counter = "mine.rules",
        /// Grammar rules that reach clustering: their occurrences cover at
        /// least γ of the class. `mine.rules − mine.rules_clustered` rules
        /// were skipped, since no cluster of theirs could pass γ.
        mine_rules_clustered: Counter = "mine.rules_clustered",
        /// Candidates surviving the γ filter.
        mine_candidates: Counter = "mine.candidates",
        /// Candidates entering Algorithm 2.
        prune_pool_in: Counter = "prune.pool_in",
        /// Candidates surviving τ dedup + the pool cap.
        prune_kept: Counter = "prune.kept",
        /// Features offered to CFS selection.
        cfs_features_in: Counter = "cfs.features_in",
        /// Features CFS kept (per-class counts go to the labeled map as
        /// `cfs.survivors.class=<label>`).
        cfs_survivors: Counter = "cfs.survivors",
        /// Pattern-distance columns computed or fetched.
        transform_columns: Counter = "transform.columns",
        /// Per-series feature-transform latency of a trained model's
        /// `transform`/predict calls (the classification bottleneck: K
        /// closest-match scans).
        transform_series: Histogram = "transform.series_ns",
        /// Series classified through the trained model.
        predict_series: Counter = "predict.series",
        /// Predict-batch calls (serial or parallel).
        predict_batches: Counter = "predict.batches",
        /// End-to-end per-series prediction latency (transform + SVM argmax),
        /// fed by every `RpmClassifier` predict path.
        predict_latency: Histogram = "predict.latency_ns",
        /// Winning (argmin) closest-match distance per prediction, in
        /// millionths (distance × 10⁶ rounded down) so the unitless
        /// z-normalized distance fits the integer histogram.
        predict_match_distance: Histogram = "predict.match_distance",
        /// Closest-match scans executed (`best_match`).
        match_searches: Counter = "match.searches",
        /// Candidate windows considered across all closest-match scans (before
        /// early abandoning).
        match_windows: Counter = "match.windows",
        /// Candidate windows cut short by early abandoning; `abandoned /
        /// windows` is the kernel's cumulative early-abandon rate.
        match_abandoned: Counter = "match.abandoned",
        /// Windows the batched kernel's sliding-dot-product lower bound pruned
        /// before the exact loop (the name predates the bound; it was a PAA
        /// envelope).
        match_pruned_envelope: Counter = "match.pruned_envelope",
        /// `RollingStats` constructions; the batched kernel's sharing shows up
        /// as `stats_builds ≪ searches`.
        match_stats_builds: Counter = "match.stats_builds",
        /// PAA-frame cache family.
        cache_frames: CacheFamilyMetrics = "frames",
        /// Combination-score cache family.
        cache_evals: CacheFamilyMetrics = "evals",
        /// Transform-column cache family.
        cache_columns: CacheFamilyMetrics = "columns",
        /// Linear SVM trainings.
        ml_svm_trains: Counter = "ml.svm_trains",
        /// Stratified folds/splits drawn.
        ml_cv_splits: Counter = "ml.cv_splits",
        /// CFS best-first searches executed.
        ml_cfs_runs: Counter = "ml.cfs_runs",
        /// Faults fired by the [`crate::fault`] layer.
        faults_injected: Counter = "fault.injected",
        /// Searches stopped early by an exhausted `TrainBudget` (best-so-far
        /// parameters returned, model flagged).
        train_degraded: Counter = "train.degraded",
        /// Input rows skipped by the lenient loaders (NaN/Inf values, ragged
        /// lengths, unparseable fields).
        data_quarantined: Counter = "data.quarantined",
        /// Metrics-endpoint connections refused or cut short by the serving
        /// limits (concurrency bound, oversized or timed-out requests).
        http_rejected: Counter = "http.rejected",
        /// Micro-batches dispatched to `predict_batch` by any server in the
        /// process. This and the three histograms below are profiling
        /// series, like `predict.latency_ns`, so they stay process-wide
        /// with the flight recorder that two of them take exemplars from.
        serve_batches: Counter = "serve.batches",
        /// Series per dispatched micro-batch.
        serve_batch_fill: Histogram = "serve.batch_fill",
        /// Time requests spent queued before their batch was formed.
        serve_queue_wait: Histogram = "serve.queue_wait_ns",
        /// End-to-end request latency as measured by the server (parse +
        /// queue + batch + predict + reply).
        serve_latency: Histogram = "serve.latency_ns",
        /// Finished request traces retained by the flight recorder (forensic,
        /// slow-decile, or sampled).
        trace_recorded: Counter = "trace.recorded",
        /// Finished request traces the retention policy discarded (healthy,
        /// fast, and not sampled).
        trace_dropped: Counter = "trace.dropped",
        /// DIRECT rectangle divisions.
        opt_direct_splits: Counter = "opt.direct.splits",
        /// DIRECT objective evaluations.
        opt_direct_evals: Counter = "opt.direct.evals",
    }
}

metric_table! {
    /// One classify server's own counters. Each server owns one table, so
    /// its `/metrics`, `/healthz` and probation watchdog count its own
    /// traffic alone; the table never enters a run report.
    struct ServeMetrics {
        /// Classify requests received, counted on entry. Each one but a
        /// `200` also lands in one of `bad_requests`, `shed`,
        /// `deadline_exceeded` and `errors`.
        requests: Counter = "serve.requests",
        /// Requests refused with `400`: the body did not parse.
        bad_requests: Counter = "serve.bad_requests",
        /// Requests refused with `429`: the bounded queue was full.
        shed: Counter = "serve.shed",
        /// Requests answered `504`: the deadline passed before prediction.
        deadline_exceeded: Counter = "serve.deadline_exceeded",
        /// Requests answered `500` (injected faults, engine failures,
        /// quarantined batches).
        errors: Counter = "serve.errors",
        /// Reloads accepted through the canary gate and swapped in.
        reloads: Counter = "serve.reloads",
        /// Reloads refused by the canary gate; the serving generation is
        /// untouched.
        reload_rejected: Counter = "serve.reload_rejected",
        /// Swaps back to the warm previous generation (manual or
        /// probation rollback).
        rollbacks: Counter = "serve.rollbacks",
        /// Batch workers respawned by the supervisor after a panic.
        worker_restarts: Counter = "serve.worker_restarts",
        /// Requests whose batch a worker panic poisoned (each also counts
        /// in `errors`).
        quarantined: Counter = "serve.quarantined",
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Appends this table's counters to a registry snapshot.
    pub(crate) fn snapshot_into(&self, snap: &mut MetricsSnapshot) {
        push_entries(snap, self.entries());
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

/// Appends each table entry to the matching list of `snap`.
fn push_entries<'a>(
    snap: &mut MetricsSnapshot,
    entries: impl Iterator<Item = (&'static str, Metric<'a>)>,
) {
    for (name, metric) in entries {
        match metric {
            Metric::Counter(c) => snap.counters.push((name, c.get())),
            Metric::Gauge(g) => snap.gauges.push((name, g.get())),
            Metric::Histogram(h) => snap.histograms.push((name, h.snapshot())),
            Metric::CacheFamilyMetrics(f) => {
                snap.cache
                    .push((name, f.hits.get(), f.misses.get(), f.evictions.get()))
            }
        }
    }
}

/// Snapshots every metric of the registry.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    push_entries(&mut snap, metrics().entries());
    snap.labeled = labeled()
        .lock()
        .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
        .unwrap_or_default();
    snap
}

/// Zeroes every metric (start of a fresh run / after a report).
pub fn reset() {
    for (_, metric) in metrics().entries() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
            Metric::CacheFamilyMetrics(f) => f.reset(),
        }
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
    fn every_table_row_snapshots_once_exports_uniquely_and_resets() {
        let _g = crate::test_lock();
        ObsConfig {
            level: ObsLevel::Summary,
            json_path: None,
            http_addr: None,
        }
        .install();
        reset();
        // A server's page merges its own table into the registry's
        // snapshot, so the two tables are checked together.
        let serving = ServeMetrics::new();
        let mut rows = 0;
        for (_, metric) in metrics().entries().chain(serving.entries()) {
            rows += 1;
            match metric {
                Metric::Counter(c) => c.inc(),
                Metric::Gauge(g) => g.record_max(1),
                Metric::Histogram(h) => h.observe(1),
                Metric::CacheFamilyMetrics(f) => {
                    f.hits.inc();
                    f.misses.inc();
                    f.evictions.inc();
                }
            }
        }
        let mut s = snapshot();
        serving.snapshot_into(&mut s);

        // Each row appears exactly once, carrying its bump.
        let mut names: Vec<&str> = s.counters.iter().map(|(n, _)| *n).collect();
        names.extend(s.gauges.iter().map(|(n, _)| *n));
        names.extend(s.cache.iter().map(|(n, ..)| *n));
        names.extend(s.histograms.iter().map(|(n, _)| *n));
        assert_eq!(names.len(), rows);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows, "a report name is declared twice");
        assert!(s.counters.iter().all(|&(_, v)| v == 1), "{s:?}");
        assert!(s.gauges.iter().all(|&(_, v)| v == 1), "{s:?}");
        assert!(s.cache.iter().all(|&(_, h, m, e)| (h, m, e) == (1, 1, 1)));
        assert!(s.histograms.iter().all(|(_, h)| h.count == 1), "{s:?}");

        // Flattened to Prometheus names, every series and every TYPE line
        // stays unique.
        let page = crate::export::to_prometheus(&s);
        let unique = |mut v: Vec<&str>| {
            let n = v.len();
            v.sort_unstable();
            v.dedup();
            n == v.len()
        };
        let types: Vec<&str> = page
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert!(unique(types), "{page}");
        let series: Vec<&str> = page
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' ').map(|(series, _)| series))
            .collect();
        assert!(unique(series), "{page}");

        // Reset zeroes every registry row.
        reset();
        let s = snapshot();
        assert!(s.counters.iter().all(|&(_, v)| v == 0), "{s:?}");
        assert!(s.gauges.iter().all(|&(_, v)| v == 0), "{s:?}");
        assert!(s.cache.iter().all(|&(_, h, m, e)| h + m + e == 0));
        assert!(s
            .histograms
            .iter()
            .all(|(_, h)| *h == HistogramSnapshot::default()));
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
