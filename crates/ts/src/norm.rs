//! Z-normalization.
//!
//! Every subsequence the paper's pipeline touches is z-normalized before
//! discretization or distance computation (§3.2.1).
//!
//! # The σ = 0 convention
//!
//! A subsequence whose population standard deviation falls below
//! [`ZNORM_EPSILON`] is treated as constant and mapped to **all zeros**,
//! the standard guard used by the SAX literature to avoid amplifying
//! quantization noise on flat segments. This single convention is shared
//! by every kernel in the workspace: the functions here, the naive
//! closest-match oracle ([`crate::matching::best_match_naive`]), and the
//! fused rolling-statistics kernel ([`crate::matching::best_match`]) all
//! compare the *same population σ* against the *same threshold*, so a
//! constant window scores the distance `‖z(pattern)‖` in every
//! implementation. The differential kernel suite (`tests/kernel_diff.rs`)
//! pins the convention.
//!
//! Means and variances are computed with Neumaier-compensated summation
//! ([`crate::stats::CompensatedSum`]): plain `f64` summation leaks
//! O(n·ε·|offset|) into the mean for series riding a large baseline
//! (absolute-unit sensors), which is exactly the regime the rolling
//! kernel's differential tests exercise at 1e-9 tolerance.

use crate::stats::{compensated_mean, CompensatedSum};

/// Standard deviation below which a window counts as constant.
pub const ZNORM_EPSILON: f64 = 1e-10;

/// Compensated mean and population standard deviation of `x` — the
/// shared two-pass recompute behind both z-normalization and the naive
/// matching oracle.
///
/// An exactly constant `x` reports σ = 0, as
/// [`RollingStats`](crate::stats::RollingStats) does. The two-pass form
/// alone does not guarantee it: `n·c` may round, leaving the mean an ulp
/// off `c`, and at |c| ≳ 5·10⁵ one ulp already exceeds
/// [`ZNORM_EPSILON`]. Constancy is re-checked only when σ is within a
/// few ulps of the mean of the threshold, so the common path pays
/// nothing.
#[inline]
fn mean_sd(x: &[f64]) -> (f64, f64) {
    let mean = compensated_mean(x);
    let mut acc = CompensatedSum::new();
    for &v in x {
        let d = v - mean;
        acc.add(d * d);
    }
    let sd = (acc.value() / x.len() as f64).sqrt();
    if sd < ZNORM_EPSILON + 4.0 * f64::EPSILON * mean.abs() && x.iter().all(|&v| v == x[0]) {
        return (x[0], 0.0);
    }
    (mean, sd)
}

/// Returns the z-normalized copy of `x`.
///
/// A (near-)constant input yields all zeros rather than NaNs.
pub fn znorm(x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    znorm_into(x, &mut out);
    out
}

/// Z-normalizes `x` into the caller-provided buffer `out`.
///
/// The buffer form exists because the closest-match search z-normalizes one
/// window per sliding position; reusing one scratch buffer removes the per-
/// window allocation from the hottest loop in the system.
///
/// # Panics
/// Panics if `out.len() != x.len()`.
pub fn znorm_into(x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "znorm_into buffer length mismatch");
    if x.is_empty() {
        return;
    }
    let (mean, sd) = mean_sd(x);
    if sd < ZNORM_EPSILON {
        out.fill(0.0);
    } else {
        for (o, v) in out.iter_mut().zip(x) {
            *o = (v - mean) / sd;
        }
    }
}

/// Z-normalizes `x` in place.
pub fn znorm_in_place(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let (mean, sd) = mean_sd(x);
    if sd < ZNORM_EPSILON {
        x.fill(0.0);
    } else {
        for v in x.iter_mut() {
            *v = (*v - mean) / sd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zero_mean_unit_variance() {
        let z = znorm(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mean = z.iter().sum::<f64>() / z.len() as f64;
        let var = z.iter().map(|v| v * v).sum::<f64>() / z.len() as f64;
        assert!(close(mean, 0.0), "mean {mean}");
        assert!(close(var, 1.0), "var {var}");
    }

    #[test]
    fn constant_series_maps_to_zero() {
        assert_eq!(znorm(&[3.3; 8]), vec![0.0; 8]);
    }

    #[test]
    fn near_constant_series_maps_to_zero() {
        let z = znorm(&[1.0, 1.0 + 1e-13, 1.0]);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn constant_series_on_large_baseline_maps_to_zero() {
        // The σ=0 convention must survive absolute-unit baselines: the
        // compensated mean leaves no rounding residue that would push σ
        // past ZNORM_EPSILON.
        assert_eq!(znorm(&[1e8; 16]), vec![0.0; 16]);
        assert_eq!(znorm(&[-3.7e9; 5]), vec![0.0; 5]);
    }

    #[test]
    fn constant_plateau_whose_mean_rounds_maps_to_zero() {
        // 23 copies of this value sum to a number that rounds, so the
        // two-pass mean lands one ulp (1.16e-10) off the value, and the
        // two-pass σ is that ulp, which is above ZNORM_EPSILON. The window
        // is exactly constant and must still map to zeros.
        let plateau = [954897.5017767096; 23];
        assert_eq!(znorm(&plateau), vec![0.0; 23]);
        let mut in_place = plateau.to_vec();
        znorm_in_place(&mut in_place);
        assert_eq!(in_place, vec![0.0; 23]);
    }

    #[test]
    fn large_offset_preserves_zscores() {
        // The same shape riding a 1e6 baseline must z-normalize to the
        // same values to well under the kernel suite's 1e-9 tolerance.
        let base = [0.3, -1.2, 2.0, 0.7, -0.4, 1.1, -2.2, 0.9];
        let shifted: Vec<f64> = base.iter().map(|v| v + 1e6).collect();
        for (a, b) in znorm(&base).iter().zip(znorm(&shifted)) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_is_ok() {
        assert!(znorm(&[]).is_empty());
        let mut e: Vec<f64> = vec![];
        znorm_in_place(&mut e);
    }

    #[test]
    fn shift_and_scale_invariance() {
        let a = znorm(&[0.0, 1.0, 0.0, -1.0]);
        let b = znorm(&[10.0, 12.0, 10.0, 8.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!(close(*x, *y));
        }
    }

    #[test]
    fn in_place_matches_copy() {
        let src = [2.0, -1.0, 0.5, 7.0, 3.0];
        let copied = znorm(&src);
        let mut inpl = src.to_vec();
        znorm_in_place(&mut inpl);
        assert_eq!(copied, inpl);
    }

    #[test]
    fn into_matches_copy() {
        let src = [2.0, -1.0, 0.5, 7.0];
        let mut buf = vec![0.0; 4];
        znorm_into(&src, &mut buf);
        assert_eq!(buf, znorm(&src));
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn into_rejects_bad_buffer() {
        let mut buf = vec![0.0; 3];
        znorm_into(&[1.0, 2.0], &mut buf);
    }
}
