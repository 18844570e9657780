//! Admissibility property tests for the batched kernel's lower bound.
//!
//! The batched kernel prunes a (pattern, window) pair whenever its
//! sliding-dot-product lower bound on the squared z-normalized distance
//! exceeds the pattern's best-so-far. Pruning is sound only if the bound
//! is **admissible in floating point**: the value the scan compares never
//! exceeds the float distance the exact loop computes for that window.
//! These tests drive [`rpm::ts::BatchedMatch::audit`] — which reports the
//! production bound alongside the exhaustive exact distance — over random
//! and adversarial inputs, and assert `lb ≤ exact` at every window with
//! no slack: the reported bound already carries its rounding margin and
//! deflation (`Windows` in `crates/ts/src/batched.rs`).
//!
//! All quantities are *squared un-normalized* distances, matching the
//! kernel's internal accumulator.
//!
//! Case count is read from `PROPTEST_CASES` (default 256 — the PR-gate
//! budget); the nightly CI sweep runs with `PROPTEST_CASES=2048`.

use proptest::prelude::*;
use rpm::ts::{BatchedMatch, MatchKernel, MatchPlan, ScanCounters};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn batched_set(patterns: &[Vec<f64>]) -> BatchedMatch {
    let plans: Vec<MatchPlan> = patterns
        .iter()
        .map(|p| MatchPlan::with_kernel(p, MatchKernel::Batched))
        .collect();
    BatchedMatch::new(&plans)
}

/// Audit `patterns` over `series`, asserting the bound is admissible at
/// every (pattern, window) pair.
fn assert_admissible(patterns: &[Vec<f64>], series: &[f64]) {
    for row in batched_set(patterns).audit(series) {
        assert!(
            row.lb <= row.exact,
            "inadmissible: pattern {} pos {}: lb {:.17e} > exact {:.17e}",
            row.pattern,
            row.position,
            row.lb,
            row.exact
        );
    }
}

/// Copies `pattern` verbatim into `series` at `at` (clamped to fit).
/// Returns the position used.
fn plant(series: &mut [f64], pattern: &[f64], at: usize) -> usize {
    let at = at.min(series.len() - pattern.len());
    series[at..at + pattern.len()].copy_from_slice(pattern);
    at
}

/// Random-walk series generator (realistic autocorrelation).
fn random_walk(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, len).prop_map(|steps| {
        let mut acc = 0.0;
        steps
            .into_iter()
            .map(|s| {
                acc += s;
                acc
            })
            .collect()
    })
}

/// Coin-flip strategy (the vendored proptest shim has no `any::<bool>()`).
fn coin() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|b| b == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random walks, pattern lengths on both sides of 16 points, so short
    /// patterns (few dot-product terms) and longer ones are both audited.
    #[test]
    fn bounds_admissible_on_random_walks(
        patterns in proptest::collection::vec(random_walk(4..48), 1..5),
        series in random_walk(48..224),
    ) {
        assert_admissible(&patterns, &series);
    }

    /// Constant plateaus spliced mid-series create σ = 0 windows right
    /// next to barely-variable ones — the regime where rolling-stat
    /// cancellation is most dangerous for a bound.
    #[test]
    fn bounds_admissible_with_plateaus(
        patterns in proptest::collection::vec(random_walk(4..40), 1..4),
        series in random_walk(64..160),
        start in 0usize..64,
        run in 8usize..48,
        level in -50.0f64..50.0,
    ) {
        let mut series = series;
        let begin = start.min(series.len());
        let end = (start + run).min(series.len());
        for v in &mut series[begin..end] {
            *v = level;
        }
        assert_admissible(&patterns, &series);
    }

    /// ±1e5..1e6 vertical offsets: window means dwarf window variance, so
    /// the bound inherits maximal cancellation error from the rolling
    /// statistics. Admissibility must survive.
    #[test]
    fn bounds_admissible_with_large_offsets(
        patterns in proptest::collection::vec(random_walk(4..40), 1..4),
        series in random_walk(48..128),
        magnitude in 1.0e5f64..1.0e6,
        negative in coin(),
    ) {
        let offset = if negative { -magnitude } else { magnitude };
        let shifted: Vec<f64> = series.iter().map(|x| x + offset).collect();
        assert_admissible(&patterns, &shifted);
    }

    /// Near-constant series: jitter well above the σ = 0 threshold but
    /// small against the level, the other cancellation-heavy regime.
    #[test]
    fn bounds_admissible_on_near_constant_series(
        patterns in proptest::collection::vec(random_walk(4..32), 1..4),
        jitter in proptest::collection::vec(-1.0f64..1.0, 48..128),
        amplitude in 1.0e-3f64..10.0,
        level in -1.0e4f64..1.0e4,
    ) {
        let series: Vec<f64> = jitter.iter().map(|j| level + amplitude * j).collect();
        assert_admissible(&patterns, &series);
    }

    /// Exact planted occurrences: at the planted window d ≈ 0, where the
    /// dot-product expansion cancels hardest (two ≈ 2n terms subtract to
    /// ≈ 0). The bound must stay below the exact distance there, with or
    /// without a large offset under both the pattern and the series.
    #[test]
    fn bounds_admissible_at_exact_planted_occurrences(
        pattern in random_walk(4..48),
        series in random_walk(64..192),
        at in 0usize..192,
        again in 0usize..192,
        offset in -1.0e6f64..1.0e6,
        shifted in coin(),
    ) {
        let offset = if shifted { offset } else { 0.0 };
        let pattern: Vec<f64> = pattern.iter().map(|v| v + offset).collect();
        let mut series: Vec<f64> = series.iter().map(|v| v + offset).collect();
        plant(&mut series, &pattern, again);
        let planted = plant(&mut series, &pattern, at);
        assert_admissible(std::slice::from_ref(&pattern), &series);
        // The planted window's bound cannot price it out: it is at most
        // the exact distance, which is ≈ 0.
        let row = batched_set(std::slice::from_ref(&pattern))
            .audit(&series)
            .into_iter()
            .find(|r| r.position == planted);
        if let Some(row) = row {
            prop_assert!(row.lb <= 1e-6 * pattern.len() as f64, "{row:?}");
        }
    }

    /// The bound at the *matching* window of an embedded affine copy must
    /// be ~0 (it cannot price a perfect match out of the scan), and stay
    /// admissible everywhere else.
    #[test]
    fn embedded_pattern_window_is_not_priced_out(
        pattern in random_walk(16..32),
        prefix in random_walk(8..48),
        suffix in random_walk(8..48),
        scale in 0.5f64..3.0,
        shift in -10.0f64..10.0,
    ) {
        let mut series = prefix.clone();
        let at = series.len();
        // Affine copies z-normalize to the pattern exactly: exact ≈ 0.
        series.extend(pattern.iter().map(|v| v * scale + shift));
        series.extend_from_slice(&suffix);
        assert_admissible(std::slice::from_ref(&pattern), &series);

        // The embedded window may coincide with a σ = 0 window (audit
        // skips those), but when present its bound must be ≈ 0.
        let n = pattern.len() as f64;
        for row in batched_set(std::slice::from_ref(&pattern))
            .audit(&series)
            .into_iter()
            .filter(|r| r.position == at)
        {
            prop_assert!(row.lb <= 1e-6 * n, "bound at match: {:.3e}", row.lb);
        }
    }

    /// A pattern planted in a series is decided with a few exact
    /// evaluations per scan: the seed lands on the occurrence, and the
    /// bound prunes nearly every other window. Patterns come from a
    /// different walk than the background, so the background holds no
    /// second near-occurrence.
    #[test]
    fn planted_patterns_need_few_exact_evaluations(
        patterns in proptest::collection::vec(random_walk(24..48), 1..4),
        series in random_walk(400..600),
        early_abandon in coin(),
    ) {
        let mut series = series;
        let stride = series.len() / patterns.len();
        for (k, p) in patterns.iter().enumerate() {
            plant(&mut series, p, k * stride);
        }
        let counters = ScanCounters::new();
        let got = batched_set(&patterns).match_all(&series, early_abandon, Some(&counters));
        prop_assert!(got.iter().all(|m| m.is_some_and(|m| m.distance < 1e-6)));
        let stats = counters.snapshot();
        // Windows the exact loop had to touch: abandoned + completed.
        let touched = stats.windows - stats.pruned_envelope;
        prop_assert!(touched <= 4 * stats.searches, "{stats:?}");
        prop_assert!(50 * touched < stats.windows, "{stats:?}");
    }
}
