//! Model drift detection: training-time reference profiles and the
//! serving-time [`DriftMonitor`].
//!
//! The serving stack (PRs 3/6/7) watches *latency*; this module watches
//! *what the model is seeing and saying*. At the end of training the
//! classifier builds a [`ReferenceProfile`]: per-class log₂-bucket
//! distributions (the exact [`crate::metrics::Histogram`] bucketing) of
//! the winning match distance, the prediction margin, and input summary
//! statistics over the training set. The profile is persisted as an
//! optional CRC-checked section of the model file, so a served model
//! carries its own baseline.
//!
//! At serve time every classified request becomes a [`DriftSample`] fed
//! into a [`DriftMonitor`] — a ring of time-windowed sketch epochs
//! (default 8 × 30 s) accumulating the same distributions plus the
//! predicted-class mix. The hot path is a handful of relaxed atomic
//! increments; a Mutex is touched only on epoch rotation (once per
//! `epoch_secs` per slot) and never while scoring. On demand (scrapes,
//! `/debug/drift`, the canary replay) the live window is summed and scored
//! against the reference with PSI and a bucketed KS statistic.
//!
//! ## Scores
//!
//! * **PSI** (population stability index) over the shared buckets:
//!   `Σ (qᵢ − pᵢ)·ln(qᵢ/pᵢ)` with fractions clamped to ε = 1e-6.
//!   Identical distributions score 0; the classic rule of thumb reads
//!   < 0.1 as stable, 0.1–0.25 as moderate shift, and > 0.25 as a
//!   significant shift (our defaults: warn 0.2, page 0.5).
//! * **Bucketed KS**: `max |CDF_p(i) − CDF_q(i)|` over bucket upper
//!   bounds — 0 for identical, 1 for disjoint distributions. Because the
//!   CDFs are only evaluated at bucket boundaries the statistic is a
//!   lower bound on the exact KS distance. Not computed for the
//!   categorical class mix.
//!
//! Both scores are functions of the *summed* window counts, so the order
//! in which epochs are merged can never change a score (proven by
//! proptest in `tests/drift_props.rs`).

use crate::metrics::{bucket_index, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of continuous drift metrics tracked per class.
pub const N_DRIFT_METRICS: usize = 6;

/// Report/export names of the continuous drift metrics, index-aligned
/// with [`DriftSample::bucket_values`].
pub const DRIFT_METRIC_NAMES: [&str; N_DRIFT_METRICS] = [
    "match_distance",
    "margin",
    "length",
    "mean_abs",
    "stddev",
    "z_extreme",
];

/// Name of the categorical predicted-class-mix pseudo-metric.
pub const CLASS_MIX: &str = "class_mix";

const EMPTY_EPOCH: u64 = u64::MAX;
const PSI_EPS: f64 = 1e-6;

/// One classified series, reduced to the quantities the drift sketches
/// track. Produced at train time (over the training set) and at serve
/// time (per request).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftSample {
    /// Predicted class label.
    pub class: usize,
    /// Winning (argmin over all patterns) closest-match distance.
    pub best_distance: f64,
    /// Prediction margin: best distance of the runner-up class minus
    /// best distance of the winning class (≥ 0; small = unsure).
    pub margin: f64,
    /// Input length in samples.
    pub len: usize,
    /// Raw input mean (sketched as |mean|).
    pub mean: f64,
    /// Raw input standard deviation.
    pub stddev: f64,
    /// Largest |z-score| after z-normalization (max of |min z|, |max z|).
    pub z_extreme: f64,
}

/// Scales a non-negative statistic to millionths so unitless values fit
/// the integer log₂ buckets (same convention as the
/// `predict.match_distance` histogram). Negative or non-finite input
/// sketches as 0; the `as` cast saturates for huge values.
#[inline]
fn millionths(v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        0
    } else {
        (v * 1e6).round() as u64
    }
}

impl DriftSample {
    /// The integer value per continuous metric, index-aligned with
    /// [`DRIFT_METRIC_NAMES`]: distances, moments, and z-extremes in
    /// millionths, the length raw.
    pub fn bucket_values(&self) -> [u64; N_DRIFT_METRICS] {
        [
            millionths(self.best_distance),
            millionths(self.margin),
            self.len as u64,
            millionths(self.mean.abs()),
            millionths(self.stddev),
            millionths(self.z_extreme),
        ]
    }
}

/// Per-class bucket counts of every continuous drift metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassSketch {
    /// Training samples of this (predicted) class.
    pub samples: u64,
    /// `hists[m][b]`: count of metric `m` observations in bucket `b`.
    pub hists: [[u64; HIST_BUCKETS]; N_DRIFT_METRICS],
}

impl ClassSketch {
    fn new() -> Self {
        Self {
            samples: 0,
            hists: [[0; HIST_BUCKETS]; N_DRIFT_METRICS],
        }
    }
}

/// The training-time baseline: per-predicted-class distributions of the
/// drift metrics over the training set. Persisted as the optional
/// `profile` section of model v2 files.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReferenceProfile {
    classes: BTreeMap<usize, ClassSketch>,
}

impl ReferenceProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one training-set sample under its predicted class.
    pub fn observe(&mut self, sample: &DriftSample) {
        let sketch = self
            .classes
            .entry(sample.class)
            .or_insert_with(ClassSketch::new);
        sketch.samples += 1;
        for (m, &v) in sample.bucket_values().iter().enumerate() {
            sketch.hists[m][bucket_index(v)] += 1;
        }
    }

    /// Total samples across all classes.
    pub fn total_samples(&self) -> u64 {
        self.classes.values().map(|c| c.samples).sum()
    }

    /// Class labels in ascending order.
    pub fn class_labels(&self) -> Vec<usize> {
        self.classes.keys().copied().collect()
    }

    /// Per-class sketches in label order.
    pub fn sketches(&self) -> impl Iterator<Item = (usize, &ClassSketch)> {
        self.classes.iter().map(|(&l, s)| (l, s))
    }

    /// The all-classes bucket counts of one continuous metric.
    pub fn global_hist(&self, metric: usize) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for sketch in self.classes.values() {
            for (b, &n) in sketch.hists[metric].iter().enumerate() {
                out[b] += n;
            }
        }
        out
    }

    /// Predicted-class sample counts aligned with [`class_labels`]
    /// order, plus a trailing 0 slot for labels outside the reference
    /// (live traffic can predict them, training by construction cannot).
    ///
    /// [`class_labels`]: ReferenceProfile::class_labels
    pub fn class_mix(&self) -> Vec<u64> {
        let mut mix: Vec<u64> = self.classes.values().map(|c| c.samples).collect();
        mix.push(0);
        mix
    }

    /// Serializes the profile as tagged lines for the model-file
    /// `profile` section: one `profile-class` line per class followed by
    /// sparse `profile-hist` lines (`bucket:count` pairs, empty
    /// histograms omitted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, sketch) in &self.classes {
            let _ = writeln!(out, "profile-class {label} {}", sketch.samples);
            for (m, hist) in sketch.hists.iter().enumerate() {
                if hist.iter().all(|&n| n == 0) {
                    continue;
                }
                let _ = write!(out, "profile-hist {label} {}", DRIFT_METRIC_NAMES[m]);
                for (b, &n) in hist.iter().enumerate() {
                    if n > 0 {
                        let _ = write!(out, " {b}:{n}");
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// Parses what [`render`] produced. Unknown tags, malformed pairs,
    /// out-of-range buckets, and hist lines for undeclared classes are
    /// errors (the payload is CRC-protected, so damage means a bug, not
    /// line noise).
    ///
    /// [`render`]: ReferenceProfile::render
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut profile = Self::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_ascii_whitespace();
            match fields.next() {
                Some("profile-class") => {
                    let label: usize = fields
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("profile-class without a label: {line}"))?;
                    let samples: u64 = fields
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("profile-class without a count: {line}"))?;
                    let sketch = profile
                        .classes
                        .entry(label)
                        .or_insert_with(ClassSketch::new);
                    sketch.samples = samples;
                }
                Some("profile-hist") => {
                    let label: usize = fields
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("profile-hist without a label: {line}"))?;
                    let name = fields
                        .next()
                        .ok_or_else(|| format!("profile-hist without a metric: {line}"))?;
                    let metric = DRIFT_METRIC_NAMES
                        .iter()
                        .position(|n| *n == name)
                        .ok_or_else(|| format!("unknown drift metric {name:?}"))?;
                    let sketch = profile
                        .classes
                        .get_mut(&label)
                        .ok_or_else(|| format!("profile-hist for undeclared class {label}"))?;
                    for pair in fields {
                        let (b, n) = pair
                            .split_once(':')
                            .ok_or_else(|| format!("malformed bucket pair {pair:?}"))?;
                        let b: usize = b
                            .parse()
                            .map_err(|_| format!("malformed bucket index {pair:?}"))?;
                        let n: u64 = n
                            .parse()
                            .map_err(|_| format!("malformed bucket count {pair:?}"))?;
                        if b >= HIST_BUCKETS {
                            return Err(format!("bucket index {b} out of range"));
                        }
                        sketch.hists[metric][b] = n;
                    }
                }
                Some(other) => return Err(format!("unknown profile tag {other:?}")),
                None => {}
            }
        }
        Ok(profile)
    }

    /// True when no class holds any sample (nothing to score against).
    pub fn is_empty(&self) -> bool {
        self.total_samples() == 0
    }
}

// --- scores ---------------------------------------------------------------

/// Population stability index between two bucket-count vectors
/// (reference `p`, live `q`). Fractions are clamped to ε = 1e-6 so
/// empty buckets contribute a finite penalty. Returns 0 when either
/// side is entirely empty (no evidence, no drift).
pub fn psi(p: &[u64], q: &[u64]) -> f64 {
    let tp: u64 = p.iter().sum();
    let tq: u64 = q.iter().sum();
    if tp == 0 || tq == 0 {
        return 0.0;
    }
    let n = p.len().max(q.len());
    let mut score = 0.0;
    for i in 0..n {
        let pi = (p.get(i).copied().unwrap_or(0) as f64 / tp as f64).max(PSI_EPS);
        let qi = (q.get(i).copied().unwrap_or(0) as f64 / tq as f64).max(PSI_EPS);
        score += (qi - pi) * (qi / pi).ln();
    }
    score
}

/// Bucketed Kolmogorov–Smirnov statistic: the largest absolute CDF
/// difference evaluated at bucket boundaries. In [0, 1]; 0 when either
/// side is empty.
pub fn ks(p: &[u64], q: &[u64]) -> f64 {
    let tp: u64 = p.iter().sum();
    let tq: u64 = q.iter().sum();
    if tp == 0 || tq == 0 {
        return 0.0;
    }
    let n = p.len().max(q.len());
    let (mut cp, mut cq, mut worst) = (0u64, 0u64, 0.0f64);
    for i in 0..n {
        cp += p.get(i).copied().unwrap_or(0);
        cq += q.get(i).copied().unwrap_or(0);
        let d = (cp as f64 / tp as f64 - cq as f64 / tq as f64).abs();
        worst = worst.max(d);
    }
    worst
}

// --- monitor --------------------------------------------------------------

/// Drift-monitor knobs: window shape and PSI thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftConfig {
    /// Ring slots: the live window covers `epochs × epoch_secs`.
    pub epochs: usize,
    /// Seconds per epoch slot.
    pub epoch_secs: u64,
    /// PSI at or above this on any metric → verdict `warn`.
    pub warn: f64,
    /// PSI at or above this on any metric → verdict `page` and a
    /// `degraded` `/healthz` payload (liveness still 200).
    pub page: f64,
    /// Below this many live samples in the window the monitor reports
    /// `warming` instead of scoring noise.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            epoch_secs: 30,
            warn: 0.2,
            page: 0.5,
            min_samples: 50,
        }
    }
}

/// One ring slot: the sketches of a single `epoch_secs` time window.
struct Epoch {
    /// Epoch sequence number occupying this slot ([`EMPTY_EPOCH`] =
    /// never written).
    seq: AtomicU64,
    samples: AtomicU64,
    hists: [[AtomicU64; HIST_BUCKETS]; N_DRIFT_METRICS],
    /// Reference-class order plus one trailing slot for labels the
    /// reference never saw.
    class_counts: Vec<AtomicU64>,
}

impl Epoch {
    fn new(n_classes: usize) -> Self {
        Self {
            seq: AtomicU64::new(EMPTY_EPOCH),
            samples: AtomicU64::new(0),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            class_counts: (0..n_classes + 1).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn clear(&self) {
        self.samples.store(0, Ordering::Relaxed);
        for hist in &self.hists {
            for b in hist {
                b.store(0, Ordering::Relaxed);
            }
        }
        for c in &self.class_counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Drift state of one metric (or of the whole monitor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftStatus {
    /// No monitor attached / model carries no reference profile.
    Unavailable,
    /// Too few live samples in the window to score.
    Warming,
    /// All scores below the warn threshold.
    Ok,
    /// Some PSI at or above the warn threshold.
    Warn,
    /// Some PSI at or above the page threshold (`/healthz` degrades).
    Page,
}

impl DriftStatus {
    /// Stable lowercase name used in JSON, exposition, and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Unavailable => "unavailable",
            Self::Warming => "warming",
            Self::Ok => "ok",
            Self::Warn => "warn",
            Self::Page => "page",
        }
    }
}

impl std::fmt::Display for DriftStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One scored metric in a [`DriftReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDrift {
    /// Metric name ([`DRIFT_METRIC_NAMES`] or [`CLASS_MIX`]).
    pub metric: &'static str,
    /// PSI of live vs. reference.
    pub psi: f64,
    /// Bucketed KS statistic (absent for the categorical class mix).
    pub ks: Option<f64>,
    /// Per-metric verdict from the PSI thresholds.
    pub verdict: DriftStatus,
}

/// Point-in-time drift assessment: the live window scored against the
/// reference profile.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftReport {
    /// Overall verdict (worst per-metric verdict, or
    /// `Warming`/`Unavailable`).
    pub status: DriftStatus,
    /// Live samples inside the scoring window.
    pub live_samples: u64,
    /// Training samples behind the reference profile.
    pub reference_samples: u64,
    /// Window span in seconds (`epochs × epoch_secs`).
    pub window_secs: u64,
    /// Seconds per epoch slot.
    pub epoch_secs: u64,
    /// Ring slots.
    pub epochs: usize,
    /// Configured warn threshold.
    pub warn: f64,
    /// Configured page threshold.
    pub page: f64,
    /// Per-metric scores (empty while unavailable).
    pub metrics: Vec<MetricDrift>,
}

impl DriftReport {
    /// The report emitted when no monitor (or no profile) is attached.
    pub fn unavailable() -> Self {
        Self {
            status: DriftStatus::Unavailable,
            live_samples: 0,
            reference_samples: 0,
            window_secs: 0,
            epoch_secs: 0,
            epochs: 0,
            warn: 0.0,
            page: 0.0,
            metrics: Vec::new(),
        }
    }

    /// Largest PSI across metrics (0 when none).
    pub fn max_psi(&self) -> f64 {
        self.metrics.iter().map(|m| m.psi).fold(0.0, f64::max)
    }

    /// Whether this verdict should degrade `/healthz`.
    pub fn degraded(&self) -> bool {
        self.status == DriftStatus::Page
    }

    /// The full JSON object served by `GET /debug/drift`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let ks = m.ks.map_or("null".to_string(), |ks| format!("{ks:.6}"));
                format!(
                    "{{\"metric\":\"{}\",\"psi\":{:.6},\"ks\":{ks},\"verdict\":\"{}\"}}",
                    m.metric, m.psi, m.verdict
                )
            })
            .collect();
        format!(
            "{{\"status\":\"{}\",\"live_samples\":{},\"reference_samples\":{},\
             \"window_secs\":{},\"epoch_secs\":{},\"epochs\":{},\
             \"warn\":{:.6},\"page\":{:.6},\"metrics\":[{}]}}",
            self.status,
            self.live_samples,
            self.reference_samples,
            self.window_secs,
            self.epoch_secs,
            self.epochs,
            self.warn,
            self.page,
            metrics.join(","),
        )
    }
}

/// Lock-light online drift sketcher: a ring of `Epoch` slots fed by
/// every classified request and scored on demand against a
/// [`ReferenceProfile`].
pub struct DriftMonitor {
    reference_samples: u64,
    ref_hists: [[u64; HIST_BUCKETS]; N_DRIFT_METRICS],
    ref_mix: Vec<u64>,
    classes: Vec<usize>,
    config: DriftConfig,
    start_ns: u64,
    epoch_ns: u64,
    ring: Vec<Epoch>,
    rotate: Mutex<()>,
}

impl DriftMonitor {
    /// Builds a monitor scoring against `reference` with the given
    /// window shape and thresholds.
    pub fn new(reference: &ReferenceProfile, config: DriftConfig) -> Self {
        let classes = reference.class_labels();
        let epochs = config.epochs.max(1);
        Self {
            reference_samples: reference.total_samples(),
            ref_hists: std::array::from_fn(|m| reference.global_hist(m)),
            ref_mix: reference.class_mix(),
            ring: (0..epochs).map(|_| Epoch::new(classes.len())).collect(),
            classes,
            config: DriftConfig { epochs, ..config },
            start_ns: crate::now_ns(),
            epoch_ns: config.epoch_secs.max(1).saturating_mul(1_000_000_000),
            rotate: Mutex::new(()),
        }
    }

    /// The thresholds and window shape this monitor runs with.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// Records one classified request (a few relaxed atomic adds; the
    /// rotation lock is taken only on the first observation of a new
    /// epoch per slot).
    pub fn observe(&self, sample: &DriftSample) {
        self.observe_at(sample, crate::now_ns());
    }

    /// [`observe`] with an explicit clock — the test/replay seam.
    ///
    /// A straggler that loads a slot's sequence just before rotation can
    /// land its counts in the successor epoch; drift sketches tolerate
    /// that off-by-one-window blur by design.
    ///
    /// [`observe`]: DriftMonitor::observe
    pub fn observe_at(&self, sample: &DriftSample, now_ns: u64) {
        let seq = now_ns.saturating_sub(self.start_ns) / self.epoch_ns;
        let slot = (seq % self.ring.len() as u64) as usize;
        let epoch = &self.ring[slot];
        if epoch.seq.load(Ordering::Acquire) != seq {
            let _g = self.rotate.lock().unwrap_or_else(|e| e.into_inner());
            if epoch.seq.load(Ordering::Acquire) != seq {
                epoch.clear();
                epoch.seq.store(seq, Ordering::Release);
            }
        }
        epoch.samples.fetch_add(1, Ordering::Relaxed);
        for (m, &v) in sample.bucket_values().iter().enumerate() {
            epoch.hists[m][bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
        let class_idx = self
            .classes
            .iter()
            .position(|&c| c == sample.class)
            .unwrap_or(self.classes.len());
        epoch.class_counts[class_idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Scores the current live window against the reference.
    pub fn report(&self) -> DriftReport {
        self.report_at(crate::now_ns())
    }

    /// [`report`] with an explicit clock — the test/replay seam.
    ///
    /// [`report`]: DriftMonitor::report
    pub fn report_at(&self, now_ns: u64) -> DriftReport {
        let now_seq = now_ns.saturating_sub(self.start_ns) / self.epoch_ns;
        let mut live = [[0u64; HIST_BUCKETS]; N_DRIFT_METRICS];
        let mut mix = vec![0u64; self.classes.len() + 1];
        let mut samples = 0u64;
        for epoch in &self.ring {
            let seq = epoch.seq.load(Ordering::Acquire);
            if seq == EMPTY_EPOCH || now_seq.saturating_sub(seq) >= self.ring.len() as u64 {
                continue;
            }
            samples += epoch.samples.load(Ordering::Relaxed);
            for (m, hist) in epoch.hists.iter().enumerate() {
                for (b, n) in hist.iter().enumerate() {
                    live[m][b] += n.load(Ordering::Relaxed);
                }
            }
            for (c, n) in epoch.class_counts.iter().enumerate() {
                mix[c] += n.load(Ordering::Relaxed);
            }
        }
        let mut report = DriftReport {
            status: DriftStatus::Ok,
            live_samples: samples,
            reference_samples: self.reference_samples,
            window_secs: self.ring.len() as u64 * self.config.epoch_secs,
            epoch_secs: self.config.epoch_secs,
            epochs: self.ring.len(),
            warn: self.config.warn,
            page: self.config.page,
            metrics: Vec::with_capacity(N_DRIFT_METRICS + 1),
        };
        if self.reference_samples == 0 {
            report.status = DriftStatus::Unavailable;
            return report;
        }
        if samples < self.config.min_samples {
            report.status = DriftStatus::Warming;
            return report;
        }
        let verdict_of = |score: f64| {
            if score >= self.config.page {
                DriftStatus::Page
            } else if score >= self.config.warn {
                DriftStatus::Warn
            } else {
                DriftStatus::Ok
            }
        };
        for m in 0..N_DRIFT_METRICS {
            let score = psi(&self.ref_hists[m], &live[m]);
            report.metrics.push(MetricDrift {
                metric: DRIFT_METRIC_NAMES[m],
                psi: score,
                ks: Some(ks(&self.ref_hists[m], &live[m])),
                verdict: verdict_of(score),
            });
        }
        let mix_psi = psi(&self.ref_mix, &mix);
        report.metrics.push(MetricDrift {
            metric: CLASS_MIX,
            psi: mix_psi,
            ks: None,
            verdict: verdict_of(mix_psi),
        });
        report.status = report
            .metrics
            .iter()
            .map(|m| m.verdict)
            .max()
            .unwrap_or(DriftStatus::Ok);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: usize, distance: f64) -> DriftSample {
        DriftSample {
            class,
            best_distance: distance,
            margin: distance / 2.0,
            len: 96,
            mean: 0.1,
            stddev: 1.0,
            z_extreme: 2.5,
        }
    }

    #[test]
    fn psi_closed_forms() {
        // Identical distributions score exactly 0.
        assert_eq!(psi(&[10, 30, 60], &[10, 30, 60]), 0.0);
        // Same shape, different mass: still 0.
        assert!(psi(&[1, 3, 6], &[10, 30, 60]).abs() < 1e-12);
        // Hand-computed: p = [.5, .5], q = [.25, .75] →
        // (.25-.5)ln(.25/.5) + (.75-.5)ln(.75/.5) = .25·ln3 ≈ 0.274653.
        let got = psi(&[50, 50], &[25, 75]);
        assert!((got - 0.25 * 3.0f64.ln()).abs() < 1e-12, "psi = {got}");
        // Disjoint distributions blow past any sane threshold.
        assert!(psi(&[100, 0], &[0, 100]) > 10.0);
        // Either side empty: no evidence, no drift.
        assert_eq!(psi(&[0, 0], &[5, 5]), 0.0);
        assert_eq!(psi(&[5, 5], &[0, 0]), 0.0);
        // Symmetric in magnitude for swapped arguments (PSI is symmetric).
        let a = psi(&[50, 50], &[25, 75]);
        let b = psi(&[25, 75], &[50, 50]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn ks_closed_forms() {
        assert_eq!(ks(&[10, 30, 60], &[10, 30, 60]), 0.0);
        // p = [.5, .5], q = [.25, .75]: CDF gap after bucket 0 is 0.25.
        assert!((ks(&[50, 50], &[25, 75]) - 0.25).abs() < 1e-12);
        // Disjoint → 1.
        assert_eq!(ks(&[100, 0], &[0, 100]), 1.0);
        assert_eq!(ks(&[0], &[7]), 0.0);
    }

    #[test]
    fn profile_render_parse_round_trip() {
        let mut profile = ReferenceProfile::new();
        for i in 0..40 {
            profile.observe(&sample(i % 3, 0.5 + i as f64 * 0.01));
        }
        assert_eq!(profile.total_samples(), 40);
        assert_eq!(profile.class_labels(), vec![0, 1, 2]);
        let text = profile.render();
        let parsed = ReferenceProfile::parse(&text).expect("round trip");
        assert_eq!(parsed, profile);
        // The mix carries a trailing slot for unseen labels.
        assert_eq!(profile.class_mix(), vec![14, 13, 13, 0]);
    }

    #[test]
    fn profile_parse_rejects_damage() {
        assert!(ReferenceProfile::parse("profile-what 1 2").is_err());
        assert!(ReferenceProfile::parse("profile-class x 2").is_err());
        assert!(ReferenceProfile::parse("profile-hist 1 match_distance 0:1").is_err());
        assert!(ReferenceProfile::parse("profile-class 1 2\nprofile-hist 1 bogus 0:1").is_err());
        assert!(ReferenceProfile::parse("profile-class 1 2\nprofile-hist 1 margin 99:1").is_err());
        assert!(ReferenceProfile::parse("").unwrap().is_empty());
    }

    #[test]
    fn monitor_scores_clean_traffic_ok_and_shifted_traffic_page() {
        let mut profile = ReferenceProfile::new();
        for i in 0..200 {
            profile.observe(&sample(i % 2, 0.5 + (i % 10) as f64 * 0.01));
        }
        let config = DriftConfig {
            min_samples: 50,
            ..DriftConfig::default()
        };
        let monitor = DriftMonitor::new(&profile, config);
        let t0 = crate::now_ns();

        // Clean replay: same distribution → ok, PSI ~ 0.
        for i in 0..100 {
            monitor.observe_at(&sample(i % 2, 0.5 + (i % 10) as f64 * 0.01), t0);
        }
        let report = monitor.report_at(t0);
        assert_eq!(report.status, DriftStatus::Ok, "{report:?}");
        assert!(report.max_psi() < 0.05, "max psi = {}", report.max_psi());
        assert_eq!(report.live_samples, 100);
        assert_eq!(report.metrics.len(), N_DRIFT_METRICS + 1);

        // Amplitude-shifted traffic: distances land buckets away.
        let monitor = DriftMonitor::new(&profile, config);
        for i in 0..100 {
            monitor.observe_at(&sample(i % 2, 40.0 + (i % 10) as f64), t0);
        }
        let report = monitor.report_at(t0);
        assert_eq!(report.status, DriftStatus::Page, "{report:?}");
        let dist = report
            .metrics
            .iter()
            .find(|m| m.metric == "match_distance")
            .expect("match_distance scored");
        assert!(dist.psi > config.page, "psi = {}", dist.psi);
        assert!(dist.ks.unwrap() > 0.9);
        assert!(report.degraded());
    }

    #[test]
    fn monitor_warms_up_and_expires_old_epochs() {
        let mut profile = ReferenceProfile::new();
        for _ in 0..100 {
            profile.observe(&sample(0, 1.0));
        }
        let config = DriftConfig {
            epochs: 4,
            epoch_secs: 1,
            min_samples: 10,
            ..DriftConfig::default()
        };
        let monitor = DriftMonitor::new(&profile, config);
        let t0 = crate::now_ns();
        for _ in 0..9 {
            monitor.observe_at(&sample(0, 1.0), t0);
        }
        assert_eq!(monitor.report_at(t0).status, DriftStatus::Warming);
        monitor.observe_at(&sample(0, 1.0), t0);
        assert_eq!(monitor.report_at(t0).status, DriftStatus::Ok);

        // Four epoch lengths later the window has slid past every
        // sample: back to warming with zero live samples.
        let later = t0 + 5 * 1_000_000_000;
        let report = monitor.report_at(later);
        assert_eq!(report.status, DriftStatus::Warming);
        assert_eq!(report.live_samples, 0);

        // A slot is recycled for a new epoch without leaking old counts.
        monitor.observe_at(&sample(0, 1.0), later);
        let report = monitor.report_at(later);
        assert_eq!(report.live_samples, 1);
    }

    #[test]
    fn unseen_class_labels_shift_the_mix() {
        let mut profile = ReferenceProfile::new();
        for _ in 0..100 {
            profile.observe(&sample(3, 1.0));
        }
        let monitor = DriftMonitor::new(
            &profile,
            DriftConfig {
                min_samples: 10,
                ..DriftConfig::default()
            },
        );
        let t0 = crate::now_ns();
        // Live traffic predicts a label the reference never produced.
        for _ in 0..50 {
            monitor.observe_at(&sample(7, 1.0), t0);
        }
        let report = monitor.report_at(t0);
        let mix = report
            .metrics
            .iter()
            .find(|m| m.metric == CLASS_MIX)
            .expect("class mix scored");
        assert!(mix.psi > 1.0, "mix psi = {}", mix.psi);
        assert_eq!(mix.ks, None);
    }

    #[test]
    fn empty_reference_reports_unavailable() {
        let monitor = DriftMonitor::new(&ReferenceProfile::new(), DriftConfig::default());
        monitor.observe(&sample(0, 1.0));
        assert_eq!(monitor.report().status, DriftStatus::Unavailable);
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = DriftReport::unavailable();
        assert_eq!(
            report.to_json(),
            "{\"status\":\"unavailable\",\"live_samples\":0,\"reference_samples\":0,\
             \"window_secs\":0,\"epoch_secs\":0,\"epochs\":0,\
             \"warn\":0.000000,\"page\":0.000000,\"metrics\":[]}"
        );
        let mut profile = ReferenceProfile::new();
        for _ in 0..100 {
            profile.observe(&sample(0, 1.0));
        }
        let monitor = DriftMonitor::new(
            &profile,
            DriftConfig {
                min_samples: 1,
                ..DriftConfig::default()
            },
        );
        monitor.observe(&sample(0, 1.0));
        let json = monitor.report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"metric\":\"match_distance\""), "{json}");
        assert!(json.contains("\"ks\":null"), "{json}");
        assert!(json.contains("\"status\":\"ok\""), "{json}");
    }
}
