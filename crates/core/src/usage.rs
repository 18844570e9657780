//! Per-pattern utilization tracking for the serving path.
//!
//! RPM's efficiency case rests on classifying with a *small* set of K
//! representative patterns, which makes "is every pattern earning its
//! keep?" a first-class production question. [`PatternUsage`] rides on
//! the classifier and — only while observability is enabled — counts,
//! per pattern, how often it was the closest match (the feature-space
//! argmin, i.e. the pattern that dominates the decision) and accumulates
//! its match distances. A pattern whose argmin share stays at zero over
//! real traffic is dead weight: it costs a full sliding-window distance
//! scan per prediction and contributes nothing.
//!
//! The counters are relaxed atomics, so tracking is thread-safe across
//! the engine workers of a `predict_batch_with` call with
//! `Parallelism::Threads` and adds no synchronization to the hot path. Like every `rpm-obs` probe, tracking never feeds back into
//! the computation: predictions are bit-identical with tracking on or
//! off. Usage is process-local serving state — it is deliberately not
//! persisted with the model.

use std::sync::atomic::{AtomicU64, Ordering};

/// Distances are accumulated in millionths so they fit atomic integers
/// (feature distances are small non-negative reals).
const DIST_SCALE: f64 = 1e6;

/// Thread-safe per-pattern usage accumulators (one slot per pattern).
#[derive(Default)]
pub struct PatternUsage {
    argmin: Vec<AtomicU64>,
    dist_micros: Vec<AtomicU64>,
    observations: AtomicU64,
}

/// Snapshot of one pattern's accumulated usage.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternStats {
    /// Pattern index (column in the feature transform).
    pub index: usize,
    /// How often this pattern was the feature-space argmin.
    pub argmin: u64,
    /// Mean match distance of this pattern across all observations.
    pub mean_distance: f64,
}

impl PatternUsage {
    /// Zeroed accumulators for `n` patterns.
    pub fn new(n: usize) -> Self {
        Self {
            argmin: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dist_micros: (0..n).map(|_| AtomicU64::new(0)).collect(),
            observations: AtomicU64::new(0),
        }
    }

    /// Number of pattern slots.
    pub fn len(&self) -> usize {
        self.argmin.len()
    }

    /// Whether there are no pattern slots.
    pub fn is_empty(&self) -> bool {
        self.argmin.is_empty()
    }

    /// Predictions observed since construction or the last reset.
    pub fn observations(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }

    /// Records one prediction's feature vector (the per-pattern match
    /// distances): bumps the argmin pattern, accumulates every distance,
    /// and feeds the global `predict.match_distance` histogram with the
    /// winning distance. Callers gate on `rpm_obs::enabled()`.
    pub fn note(&self, features: &[f64]) {
        if features.is_empty() || features.len() != self.argmin.len() {
            return;
        }
        self.observations.fetch_add(1, Ordering::Relaxed);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (k, &d) in features.iter().enumerate() {
            let micros = (d.max(0.0) * DIST_SCALE) as u64;
            self.dist_micros[k].fetch_add(micros, Ordering::Relaxed);
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        self.argmin[best].fetch_add(1, Ordering::Relaxed);
        rpm_obs::metrics()
            .predict_match_distance
            .observe((best_d.max(0.0) * DIST_SCALE) as u64);
    }

    /// Snapshots every pattern's stats, in pattern order.
    pub fn stats(&self) -> Vec<PatternStats> {
        let n_obs = self.observations();
        self.argmin
            .iter()
            .zip(&self.dist_micros)
            .enumerate()
            .map(|(index, (a, d))| PatternStats {
                index,
                argmin: a.load(Ordering::Relaxed),
                mean_distance: if n_obs == 0 {
                    0.0
                } else {
                    d.load(Ordering::Relaxed) as f64 / DIST_SCALE / n_obs as f64
                },
            })
            .collect()
    }

    /// Zeroes every accumulator (e.g. between traffic windows).
    pub fn reset(&self) {
        self.observations.store(0, Ordering::Relaxed);
        for a in &self.argmin {
            a.store(0, Ordering::Relaxed);
        }
        for d in &self.dist_micros {
            d.store(0, Ordering::Relaxed);
        }
    }
}

// The classifier derives Clone; a clone starts its own usage window
// (values are snapshotted, not shared).
impl Clone for PatternUsage {
    fn clone(&self) -> Self {
        let cloned = Self::new(self.len());
        cloned
            .observations
            .store(self.observations(), Ordering::Relaxed);
        for (dst, src) in cloned.argmin.iter().zip(&self.argmin) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (dst, src) in cloned.dist_micros.iter().zip(&self.dist_micros) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        cloned
    }
}

impl std::fmt::Debug for PatternUsage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternUsage")
            .field("patterns", &self.len())
            .field("observations", &self.observations())
            .finish()
    }
}

/// Renders usage stats as the model-summary table shown by
/// `rpm-cli classify` (sorted by argmin share, dead patterns flagged).
pub fn render_usage(stats: &[PatternStats], classes: &[usize]) -> String {
    use std::fmt::Write as _;
    let total: u64 = stats.iter().map(|s| s.argmin).sum();
    let mut out = String::new();
    if total == 0 {
        let _ = writeln!(out, "pattern utilization: no predictions observed");
        return out;
    }
    let _ = writeln!(
        out,
        "pattern utilization ({total} predictions; argmin = closest match):"
    );
    let mut order: Vec<&PatternStats> = stats.iter().collect();
    order.sort_by(|a, b| b.argmin.cmp(&a.argmin).then(a.index.cmp(&b.index)));
    for s in order {
        let class = classes.get(s.index).copied().unwrap_or(0);
        let share = 100.0 * s.argmin as f64 / total as f64;
        let flag = if s.argmin == 0 { "  (unused)" } else { "" };
        let _ = writeln!(
            out,
            "  pattern {:>3} (class {class}): argmin {:>6} ({share:5.1}%), mean distance {:.4}{flag}",
            s.index, s.argmin, s.mean_distance
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn argmin_and_mean_distance_accumulate() {
        let usage = PatternUsage::new(3);
        usage.note(&[0.5, 0.1, 0.9]);
        usage.note(&[0.2, 0.4, 0.6]);
        usage.note(&[0.3, 0.1, 0.8]);
        let stats = usage.stats();
        assert_eq!(usage.observations(), 3);
        assert_eq!(stats[0].argmin, 1);
        assert_eq!(stats[1].argmin, 2);
        assert_eq!(stats[2].argmin, 0);
        assert!((stats[0].mean_distance - (0.5 + 0.2 + 0.3) / 3.0).abs() < 1e-4);
        assert!((stats[2].mean_distance - (0.9 + 0.6 + 0.8) / 3.0).abs() < 1e-4);
    }

    #[test]
    fn reset_and_clone_snapshot() {
        let usage = PatternUsage::new(2);
        usage.note(&[0.1, 0.2]);
        let cloned = usage.clone();
        usage.reset();
        assert_eq!(usage.observations(), 0);
        assert_eq!(usage.stats()[0].argmin, 0);
        // The clone kept the pre-reset values.
        assert_eq!(cloned.observations(), 1);
        assert_eq!(cloned.stats()[0].argmin, 1);
    }

    #[test]
    fn render_flags_unused_patterns() {
        let usage = PatternUsage::new(2);
        usage.note(&[0.1, 0.9]);
        let text = render_usage(&usage.stats(), &[0, 1]);
        assert!(text.contains("pattern   0"), "{text}");
        assert!(text.contains("(unused)"), "{text}");
    }

    #[test]
    fn empty_usage_renders_placeholder() {
        let usage = PatternUsage::new(2);
        let text = render_usage(&usage.stats(), &[0, 1]);
        assert!(text.contains("no predictions"), "{text}");
    }

    #[test]
    fn mismatched_feature_length_is_ignored() {
        let usage = PatternUsage::new(3);
        usage.note(&[0.1]);
        assert_eq!(usage.observations(), 0);
    }
}
