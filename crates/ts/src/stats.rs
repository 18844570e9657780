//! Small statistics helpers used across the pipeline, plus the
//! rolling-window statistics backing the fused closest-match kernel.

/// Neumaier-compensated running sum: every `add` folds the rounding
/// error of the addition into a separate compensation term, so a long
/// stream of adds (and subtracts — rolling-window updates push the old
/// sample back in with a flipped sign) accumulates error proportional to
/// the *magnitudes seen*, not to the running total's drift. This is what
/// keeps [`RollingStats`] honest over 10⁵-point series and what pins the
/// error bounds asserted in this module's tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    /// A fresh zero sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` (use a negative `v` to subtract).
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        // Neumaier's branch: the rounding error lives with whichever
        // operand is smaller in magnitude.
        if self.sum.abs() >= v.abs() {
            self.compensation += (self.sum - t) + v;
        } else {
            self.compensation += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// Compensated sum of a slice.
pub fn compensated_sum(x: &[f64]) -> f64 {
    let mut s = CompensatedSum::new();
    for &v in x {
        s.add(v);
    }
    s.value()
}

/// Compensated arithmetic mean; 0.0 for an empty slice.
pub fn compensated_mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        compensated_sum(x) / x.len() as f64
    }
}

/// When the rolling variance `E[x²] − μ²` retains less than this fraction
/// of the magnitude of the terms being subtracted, the subtraction has
/// cancelled too many significant digits to trust and the window is
/// recomputed exactly (two-pass). With compensated sums the rolling
/// variance's absolute error is a few ε·(E[x²] + μ²); at this threshold
/// the surviving *relative* error is ≲ 4·ε / 10⁻⁵ ≈ 10⁻¹⁰ — comfortably
/// inside the 10⁻⁹ tolerance the differential kernel suite enforces —
/// while windows whose spread is a sane fraction of their magnitude
/// (σ/rms > ~0.3%) never trigger the O(window) fallback.
const VAR_RELIABLE_FACTOR: f64 = 1e-5;

/// Bound on the relative error of a [`RollingStats`] variance against the
/// variance about the window mean it reports: `4·ε / VAR_RELIABLE_FACTOR`
/// on the rolling path (≈ 9·10⁻¹¹), a few ε on the two-pass fallback.
/// The batched kernel's lower bound and `rpm-sax`'s fast PAA frames
/// budget for it in their rounding margins.
pub const VAR_REL_ERR: f64 = 4.0 * f64::EPSILON / VAR_RELIABLE_FACTOR;

/// Per-window mean and population standard deviation of every sliding
/// window of a series, computed in O(series) total via rolling
/// compensated sums of `x` and `x²` — the preprocessing step of the
/// fused closest-match kernel (UCR-Suite style; see
/// [`crate::matching`]).
///
/// Numerical design, in order of importance:
///
/// 1. **Global centering.** The series' global mean is subtracted once
///    up front (`centered()` exposes the shifted copy). `E[x²] − μ²`
///    cancels catastrophically when `|μ| ≫ σ`; removing the global
///    offset removes the dominant source of that regime (sensor
///    baselines, absolute-unit series). Window σ is shift-invariant, so
///    the z-normalization the kernel folds in is unchanged.
/// 2. **Compensated rolling sums.** Both rolling sums use
///    [`CompensatedSum`], so summation error does not grow with series
///    length.
/// 3. **Cancellation fallback.** Windows where the variance subtraction
///    still cancels past `VAR_RELIABLE_FACTOR` (near-constant windows
///    inside a wide-ranging series) are recomputed exactly in two
///    passes — O(window) for pathological windows only.
#[derive(Clone, Debug)]
pub struct RollingStats {
    window: usize,
    shift: f64,
    centered: Vec<f64>,
    mean_c: Vec<f64>,
    std: Vec<f64>,
}

impl RollingStats {
    /// Builds rolling statistics for every length-`window` window of
    /// `series`. Returns `None` when `window` is zero or longer than the
    /// series.
    pub fn new(series: &[f64], window: usize) -> Option<Self> {
        if window == 0 || window > series.len() {
            return None;
        }
        let shift = compensated_mean(series);
        let centered: Vec<f64> = series.iter().map(|v| v - shift).collect();
        let n = window as f64;
        let count = series.len() - window + 1;
        let mut mean_c = Vec::with_capacity(count);
        let mut std = Vec::with_capacity(count);
        let mut s1 = CompensatedSum::new();
        let mut s2 = CompensatedSum::new();
        for &v in &centered[..window] {
            s1.add(v);
            s2.add(v * v);
        }
        for p in 0..count {
            if p > 0 {
                let out = centered[p - 1];
                let inn = centered[p + window - 1];
                s1.add(inn);
                s1.add(-out);
                s2.add(inn * inn);
                s2.add(-(out * out));
            }
            let mut mu = s1.value() / n;
            let ex2 = s2.value() / n;
            let mut var = ex2 - mu * mu;
            if var < VAR_RELIABLE_FACTOR * (ex2.abs() + mu * mu) {
                // Too much cancellation (or a negative artifact):
                // recompute this window exactly.
                let w = &centered[p..p + window];
                let (lo, hi) = w
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                if lo == hi {
                    // Exactly constant: σ is 0 by definition, not a
                    // rounding residue that might straddle ZNORM_EPSILON.
                    mu = lo;
                    var = 0.0;
                } else {
                    mu = compensated_mean(w);
                    let mut acc = CompensatedSum::new();
                    for &v in w {
                        let d = v - mu;
                        acc.add(d * d);
                    }
                    var = acc.value() / n;
                }
            }
            mean_c.push(mu);
            std.push(if var > 0.0 { var.sqrt() } else { 0.0 });
        }
        Some(Self {
            window,
            shift,
            centered,
            mean_c,
            std,
        })
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of sliding windows (`series_len - window + 1`).
    pub fn count(&self) -> usize {
        self.mean_c.len()
    }

    /// The globally centered series (`series[i] - shift()`).
    pub fn centered(&self) -> &[f64] {
        &self.centered
    }

    /// The global mean subtracted from every sample.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Mean of window `p` in centered coordinates.
    #[inline]
    pub fn mean_centered(&self, p: usize) -> f64 {
        self.mean_c[p]
    }

    /// Every window's [`mean_centered`](Self::mean_centered), by position.
    pub(crate) fn means_centered(&self) -> &[f64] {
        &self.mean_c
    }

    /// Every window's [`std`](Self::std), by position.
    pub(crate) fn stds(&self) -> &[f64] {
        &self.std
    }

    /// Mean of window `p` in the series' original units.
    pub fn mean(&self, p: usize) -> f64 {
        self.mean_c[p] + self.shift
    }

    /// Population standard deviation of window `p` (shift-invariant, so
    /// identical in centered and raw coordinates). Clamped at 0.
    #[inline]
    pub fn std(&self, p: usize) -> f64 {
        self.std[p]
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population standard deviation; 0.0 for slices shorter than 2.
pub fn std_dev(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    (x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64).sqrt()
}

/// The `p`-th percentile of `x` (`p` in `[0, 100]`) using linear
/// interpolation between order statistics — the convention behind the
/// paper's "distance at the 30th percentile" similarity threshold τ
/// (§3.2.3).
///
/// # Panics
/// Panics when `x` is empty or `p` lies outside `[0, 100]`.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    assert!(!x.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile rank out of range");
    let mut sorted = x.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn std_dev_basic() {
        assert_eq!(std_dev(&[2.0, 2.0, 2.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_endpoints() {
        let x = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 100.0), 3.0);
        assert_eq!(percentile(&x, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let x = [0.0, 10.0];
        assert!((percentile(&x, 30.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 30.0), 7.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let x = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&x, 50.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_bad_rank_panics() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn compensated_sum_beats_naive_on_cancellation() {
        // 1 + 1e16 - 1e16 = 1: the naive sum loses the 1 entirely.
        let x = [1.0, 1e16, -1e16];
        assert_eq!(x.iter().sum::<f64>(), 0.0);
        assert_eq!(compensated_sum(&x), 1.0);
    }

    #[test]
    fn compensated_mean_matches_plain_on_easy_data() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(compensated_mean(&x), 2.5);
        assert_eq!(compensated_mean(&[]), 0.0);
    }

    /// Deterministic xorshift random walk (no RNG dependency here).
    fn random_walk(len: usize, seed: u64, offset: f64) -> Vec<f64> {
        let mut state = seed.max(1);
        let mut acc = offset;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                acc += ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                acc
            })
            .collect()
    }

    /// Exact scalar recompute of one window's mean/σ, straight two-pass
    /// over the raw samples — the oracle RollingStats is pinned against.
    fn scalar_window_stats(w: &[f64]) -> (f64, f64) {
        let mu = compensated_mean(w);
        let mut acc = CompensatedSum::new();
        for &v in w {
            let d = v - mu;
            acc.add(d * d);
        }
        (mu, (acc.value() / w.len() as f64).sqrt())
    }

    /// The satellite requirement: rolling stats vs a scalar recompute
    /// over a ≥10⁵-point random walk, with the compensated-summation
    /// error bound pinned in assertions. The bounds are the measured
    /// worst case with an order of magnitude of headroom; they are what
    /// the 1e-9 differential-kernel tolerance is budgeted against.
    #[test]
    fn rolling_stats_match_scalar_recompute_on_long_walk() {
        for (seed, offset) in [(7u64, 0.0), (99u64, 1e6)] {
            let series = random_walk(100_000, seed, offset);
            for window in [16usize, 64, 250] {
                let rs = RollingStats::new(&series, window).unwrap();
                assert_eq!(rs.count(), series.len() - window + 1);
                let mut worst_mean = 0.0f64;
                let mut worst_std = 0.0f64;
                for p in 0..rs.count() {
                    let (mu, sd) = scalar_window_stats(&series[p..p + window]);
                    worst_mean = worst_mean.max((rs.mean(p) - mu).abs());
                    worst_std = worst_std.max((rs.std(p) - sd).abs());
                }
                // Pinned error bounds (absolute; window σ here is O(1)-O(10),
                // so these are also conservative relative bounds).
                assert!(
                    worst_mean < 1e-9,
                    "mean error {worst_mean:e} (seed {seed}, offset {offset}, window {window})"
                );
                assert!(
                    worst_std < 1e-9,
                    "std error {worst_std:e} (seed {seed}, offset {offset}, window {window})"
                );
            }
        }
    }

    #[test]
    fn rolling_stats_rejects_degenerate_windows() {
        assert!(RollingStats::new(&[1.0, 2.0], 0).is_none());
        assert!(RollingStats::new(&[1.0, 2.0], 3).is_none());
        let rs = RollingStats::new(&[1.0, 2.0], 2).unwrap();
        assert_eq!(rs.count(), 1);
        assert!((rs.mean(0) - 1.5).abs() < 1e-15);
        assert!((rs.std(0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn rolling_stats_constant_window_has_zero_std() {
        // A constant run embedded in an otherwise huge-magnitude series:
        // the cancellation fallback must report σ exactly 0, not a
        // rounding artifact that straddles ZNORM_EPSILON.
        let mut series = vec![1e8; 40];
        for (i, v) in series.iter_mut().enumerate().skip(20) {
            *v = 1e8 + (i as f64) * 3.5;
        }
        let rs = RollingStats::new(&series, 10).unwrap();
        assert_eq!(rs.std(0), 0.0, "constant window must have σ = 0");
        assert!((rs.mean(0) - 1e8).abs() < 1e-6);
        assert!(rs.std(25) > 1.0, "sloped window has real spread");
    }

    #[test]
    fn rolling_stats_near_constant_window_survives_large_offset() {
        // σ = 1e-3 ripple on a 1e6 baseline: the rolling E[x²] − μ² form
        // alone would cancel to garbage; the fallback recomputes it.
        let window = 32;
        let series: Vec<f64> = (0..200)
            .map(|i| 1e6 + 1e-3 * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let rs = RollingStats::new(&series, window).unwrap();
        for p in 0..rs.count() {
            // Against the exact two-pass oracle on the stored samples
            // (the samples themselves carry ~ulp(1e6) ≈ 1e-10
            // representation error, so "exactly 1e-3" is unattainable).
            let (_, sd) = scalar_window_stats(&series[p..p + window]);
            assert!(
                (rs.std(p) - sd).abs() < 1e-12,
                "window {p}: σ {} vs oracle {sd}",
                rs.std(p)
            );
            assert!(
                (rs.std(p) - 1e-3).abs() < 1e-9,
                "window {p}: σ {}",
                rs.std(p)
            );
        }
    }
}
