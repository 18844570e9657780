//! Differential correctness suite for the closest-match kernels.
//!
//! The rolling-statistics kernel (`MatchPlan::best_match`, the default) must
//! agree with the naive per-window oracle (`best_match_naive`) on every
//! input: the winning position **exactly**, and the distance within `1e-9`
//! relative tolerance. Bit-equality is deliberately not required — the two
//! kernels sum the same per-element terms in different orders, so the last
//! few ulps may differ (see DESIGN.md, "Closest-match kernel").
//!
//! Case count is read from `PROPTEST_CASES` (default 256 — the PR-gate
//! budget); the nightly CI sweep runs with `PROPTEST_CASES=2048`.

use proptest::prelude::*;
use rpm::ts::{best_match, best_match_naive, prepare_pattern, MatchKernel, MatchPlan};

/// Relative tolerance for distance agreement between the two kernels.
const REL_TOL: f64 = 1e-9;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Assert the rolling kernel and the naive oracle agree on `(pattern, series)`.
fn assert_kernels_agree(pattern: &[f64], series: &[f64], early_abandon: bool) {
    let naive = best_match_naive(pattern, series, early_abandon);
    let rolling = best_match(pattern, series, early_abandon);
    match (naive, rolling) {
        (None, None) => {}
        (Some(n), Some(r)) => {
            assert_eq!(
                r.position, n.position,
                "argmin diverged: rolling pos {} (d={:.17e}) vs naive pos {} (d={:.17e})",
                r.position, r.distance, n.position, n.distance
            );
            let tol = REL_TOL * n.distance.abs().max(1.0);
            assert!(
                (r.distance - n.distance).abs() <= tol,
                "distance diverged at pos {}: rolling {:.17e} vs naive {:.17e} (tol {:.3e})",
                n.position,
                r.distance,
                n.distance,
                tol
            );
        }
        (n, r) => panic!("feasibility diverged: naive={n:?} rolling={r:?}"),
    }
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

    /// Plain random walks: the bread-and-butter case.
    #[test]
    fn random_walks_agree(
        pattern in random_walk(4..48),
        series in random_walk(48..256),
        early_abandon in coin(),
    ) {
        assert_kernels_agree(&pattern, &series, early_abandon);
    }

    /// Large-magnitude vertical offsets (±1e6) stress the rolling sums:
    /// variance is tiny relative to E[x²], which forces the kernel onto its
    /// exact two-pass fallback. Agreement must survive.
    #[test]
    fn large_offsets_agree(
        pattern in random_walk(4..32),
        series in random_walk(32..160),
        magnitude in 1.0e5f64..1.0e6,
        negative in coin(),
        early_abandon in coin(),
    ) {
        let offset = if negative { -magnitude } else { magnitude };
        let shifted: Vec<f64> = series.iter().map(|x| x + offset).collect();
        assert_kernels_agree(&pattern, &shifted, early_abandon);
        // Offset pattern too: z-normalization must cancel it on both sides.
        let shifted_pat: Vec<f64> = pattern.iter().map(|x| x - offset).collect();
        assert_kernels_agree(&shifted_pat, &shifted, early_abandon);
    }

    /// A constant plateau spliced into the series produces σ = 0 windows
    /// mid-scan; both kernels must apply the all-zeros convention and agree
    /// on position and distance.
    #[test]
    fn constant_plateau_in_series_agrees(
        pattern in random_walk(4..24),
        series in random_walk(64..160),
        start in 0usize..64,
        run in 8usize..48,
        level in -50.0f64..50.0,
        early_abandon in coin(),
    ) {
        let mut series = series;
        let begin = start.min(series.len());
        let end = (start + run).min(series.len());
        for v in &mut series[begin..end] {
            *v = level;
        }
        assert_kernels_agree(&pattern, &series, early_abandon);
    }

    /// A constant (degenerate) pattern: every window is equidistant modulo
    /// window shape, and the plan must fall back to the naive scan so the
    /// positional tie-break is byte-for-byte identical.
    #[test]
    fn constant_pattern_agrees(
        len in 3usize..24,
        level in -100.0f64..100.0,
        series in random_walk(32..128),
        early_abandon in coin(),
    ) {
        let pattern = vec![level; len];
        let naive = best_match_naive(&pattern, &series, early_abandon).unwrap();
        let rolling = best_match(&pattern, &series, early_abandon).unwrap();
        // Degenerate patterns delegate to the naive scan: exact equality.
        prop_assert_eq!(rolling.position, naive.position);
        prop_assert_eq!(rolling.distance.to_bits(), naive.distance.to_bits());
    }

    /// Near-constant series: a plateau with jitter well above the σ = 0
    /// threshold (amplitudes in [1e-3, 10]) so both kernels must treat the
    /// windows as genuinely variable and still agree at tolerance.
    #[test]
    fn near_constant_series_agrees(
        pattern in random_walk(4..16),
        jitter in proptest::collection::vec(-1.0f64..1.0, 48..128),
        amplitude in 1.0e-3f64..10.0,
        level in -1.0e4f64..1.0e4,
        early_abandon in coin(),
    ) {
        let series: Vec<f64> = jitter.iter().map(|j| level + amplitude * j).collect();
        assert_kernels_agree(&pattern, &series, early_abandon);
    }

    /// Series length == pattern length: exactly one candidate window, which
    /// exercises the rolling-statistics warm-up path with no slide at all.
    #[test]
    fn single_window_agrees(
        series in random_walk(4..64),
        seed in random_walk(4..64),
        early_abandon in coin(),
    ) {
        let n = series.len().min(seed.len());
        assert_kernels_agree(&seed[..n], &series[..n], early_abandon);
        // Pattern longer than the series: both must report no match.
        if seed.len() > series.len() {
            prop_assert!(best_match(&seed, &series, early_abandon).is_none());
            prop_assert!(best_match_naive(&seed, &series, early_abandon).is_none());
        }
    }

    /// Reusing one `MatchPlan` across many series is bit-identical to
    /// preparing a fresh plan per call — plan state is never mutated by a
    /// scan.
    #[test]
    fn plan_reuse_is_bitwise_deterministic(
        pattern in random_walk(4..32),
        series_a in random_walk(32..128),
        series_b in random_walk(32..128),
        early_abandon in coin(),
    ) {
        let shared = prepare_pattern(&pattern);
        for series in [&series_a, &series_b] {
            let reused = shared.best_match(series, early_abandon).unwrap();
            let fresh = prepare_pattern(&pattern).best_match(series, early_abandon).unwrap();
            prop_assert_eq!(reused.position, fresh.position);
            prop_assert_eq!(reused.distance.to_bits(), fresh.distance.to_bits());
            // And a second scan with the same plan repeats exactly.
            let again = shared.best_match(series, early_abandon).unwrap();
            prop_assert_eq!(again.position, reused.position);
            prop_assert_eq!(again.distance.to_bits(), reused.distance.to_bits());
        }
    }

    /// A plan pinned to the naive kernel is byte-for-byte the naive oracle.
    #[test]
    fn naive_plan_is_the_oracle(
        pattern in random_walk(4..32),
        series in random_walk(32..128),
        early_abandon in coin(),
    ) {
        let plan = MatchPlan::with_kernel(&pattern, MatchKernel::Naive);
        let via_plan = plan.best_match(&series, early_abandon).unwrap();
        let oracle = best_match_naive(&pattern, &series, early_abandon).unwrap();
        prop_assert_eq!(via_plan.position, oracle.position);
        prop_assert_eq!(via_plan.distance.to_bits(), oracle.distance.to_bits());
    }

    /// Early abandoning is an optimization, not a semantics change: with and
    /// without it the rolling kernel returns the same position and a
    /// tolerance-equal distance.
    #[test]
    fn early_abandon_preserves_result(
        pattern in random_walk(4..32),
        series in random_walk(32..160),
    ) {
        let eager = best_match(&pattern, &series, true).unwrap();
        let full = best_match(&pattern, &series, false).unwrap();
        prop_assert_eq!(eager.position, full.position);
        let tol = REL_TOL * full.distance.abs().max(1.0);
        prop_assert!((eager.distance - full.distance).abs() <= tol);
    }
}

/// Regression: a window exactly constant at ~9.5e5, where 23 copies of
/// the value sum to a float that rounds and the two-pass mean lands an
/// ulp off. Every kernel must score it by the σ = 0 convention
/// (distance ‖zp‖/√n = 1), so naive and rolling agree; a rolling σ of 0
/// against a naive σ of one ulp once made their argmins diverge.
#[test]
fn constant_plateau_on_large_baseline_agrees() {
    let pattern = [
        0.7541337845291338,
        0.411039116284174,
        0.38150498613623807,
        0.6624592493830239,
        0.8959478924423485,
        0.03128982795604163,
        0.2263857947085559,
        -0.23324891219798016,
        0.7224235933915719,
        1.182945193014402,
        0.3665806710906292,
        0.07014994418336884,
        -0.17438340505101957,
        -0.5712083588057024,
        0.022928741448277057,
        0.1364107495121747,
        0.03019505364820141,
        -0.0512502478272534,
        0.032685408530146454,
        0.6456748786376225,
        0.6623533656005947,
        0.46877426516072873,
        0.7184351119308949,
    ];
    let level = 954897.5017767096;
    let plateau = vec![level; 29];
    // Ramps on both sides make the windows that overlap the plateau
    // variable; the plateau's own windows are exactly constant.
    let mut series: Vec<f64> = (0..6).map(|i| level - 4.0 + 0.8 * i as f64).collect();
    series.extend_from_slice(&plateau);
    series.extend((0..6).map(|i| level + 0.1 * (i * i) as f64));
    for s in [&plateau, &series] {
        for early_abandon in [true, false] {
            assert_kernels_agree(&pattern, s, early_abandon);
            assert_batched_agrees(&[pattern.to_vec()], s, early_abandon);
        }
    }
    let on_plateau = best_match_naive(&pattern, &plateau, true).unwrap();
    assert_eq!(on_plateau.position, 0);
    assert!((on_plateau.distance - 1.0).abs() < 1e-12, "{on_plateau:?}");
}

// --- Batched pattern-set kernel --------------------------------------
//
// The batched kernel scans all K patterns of a set in one pass per
// series, pruning windows with a sliding-dot-product lower bound. Its
// contract is stronger than the rolling/naive tolerance above: because
// the bound is admissible in floating point (proved in
// `lb_admissibility.rs`) and the exact tier shares the rolling kernel's
// summation code verbatim, the batched result must be **bit-identical**
// to the per-pattern rolling scan — position and distance bits — for
// every pattern in the set.

/// Assert the batched kernel agrees with both per-pattern oracles for
/// every pattern in `patterns`: bit-identical to rolling, and exact
/// position + `REL_TOL` distance vs naive.
fn assert_batched_agrees(patterns: &[Vec<f64>], series: &[f64], early_abandon: bool) {
    let plans: Vec<MatchPlan> = patterns
        .iter()
        .map(|p| MatchPlan::with_kernel(p, MatchKernel::Batched))
        .collect();
    let set = rpm::ts::BatchedMatch::new(&plans);
    let results = set.match_all(series, early_abandon, None);
    assert_eq!(results.len(), patterns.len());
    for (k, (pattern, got)) in patterns.iter().zip(&results).enumerate() {
        let rolling = best_match(pattern, series, early_abandon);
        match (rolling, got) {
            (None, None) => {}
            (Some(r), Some(b)) => {
                assert_eq!(
                    b.position, r.position,
                    "pattern {k}: batched pos {} (d={:.17e}) vs rolling pos {} (d={:.17e})",
                    b.position, b.distance, r.position, r.distance
                );
                assert_eq!(
                    b.distance.to_bits(),
                    r.distance.to_bits(),
                    "pattern {k}: batched distance {:.17e} not bit-identical to rolling {:.17e}",
                    b.distance,
                    r.distance
                );
                let naive = best_match_naive(pattern, series, early_abandon).unwrap();
                assert_eq!(
                    b.position, naive.position,
                    "pattern {k}: naive argmin diverged"
                );
                let tol = REL_TOL * naive.distance.abs().max(1.0);
                assert!(
                    (b.distance - naive.distance).abs() <= tol,
                    "pattern {k}: batched {:.17e} vs naive {:.17e} (tol {:.3e})",
                    b.distance,
                    naive.distance,
                    tol
                );
            }
            (r, b) => panic!("pattern {k}: feasibility diverged: rolling={r:?} batched={b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Multi-pattern sets over random walks: the core batched contract.
    #[test]
    fn batched_multi_pattern_set_agrees(
        patterns in proptest::collection::vec(random_walk(4..48), 2..6),
        series in random_walk(48..256),
        early_abandon in coin(),
    ) {
        assert_batched_agrees(&patterns, &series, early_abandon);
    }

    /// A single-pattern set (K = 1) must equal the rolling scan exactly —
    /// the degenerate batch carries no cross-pattern state.
    #[test]
    fn batched_single_pattern_agrees(
        pattern in random_walk(4..48),
        series in random_walk(48..192),
        early_abandon in coin(),
    ) {
        assert_batched_agrees(std::slice::from_ref(&pattern), &series, early_abandon);
    }

    /// Duplicate patterns in one set: every copy must return the same
    /// bits, and all of them the rolling answer — per-pattern best-so-far
    /// state must not leak between set members.
    #[test]
    fn batched_duplicate_patterns_agree(
        pattern in random_walk(4..32),
        copies in 2usize..6,
        series in random_walk(32..160),
        early_abandon in coin(),
    ) {
        let patterns = vec![pattern; copies];
        assert_batched_agrees(&patterns, &series, early_abandon);
    }

    /// K ≫ windows: many patterns nearly as long as the series, so each
    /// scan has only a handful of candidate positions (including the
    /// single-window warm-up path) while the set is wide.
    #[test]
    fn batched_many_patterns_few_windows(
        series in random_walk(24..48),
        seeds in proptest::collection::vec(random_walk(20..48), 8..20),
        early_abandon in coin(),
    ) {
        let patterns: Vec<Vec<f64>> = seeds
            .into_iter()
            .map(|s| {
                let n = s.len().min(series.len());
                s[..n].to_vec()
            })
            .collect();
        assert_batched_agrees(&patterns, &series, early_abandon);
    }

    /// Oversized patterns in the set report no match, without disturbing
    /// their feasible neighbours.
    #[test]
    fn batched_oversized_patterns_are_infeasible(
        series in random_walk(16..48),
        feasible in random_walk(4..16),
        extra in random_walk(1..32),
        early_abandon in coin(),
    ) {
        let mut oversized = series.clone();
        oversized.extend_from_slice(&extra);
        assert_batched_agrees(&[feasible, oversized], &series, early_abandon);
    }

    /// The adversarial corpus, batched: constant plateaus (σ = 0 windows
    /// mid-scan) and ±1e5..1e6 vertical offsets in one series, scanned by
    /// a mixed-length pattern set.
    #[test]
    fn batched_adversarial_series_agrees(
        patterns in proptest::collection::vec(random_walk(4..32), 2..5),
        series in random_walk(64..192),
        start in 0usize..64,
        run in 8usize..48,
        level in -50.0f64..50.0,
        magnitude in 1.0e5f64..1.0e6,
        negative in coin(),
        early_abandon in coin(),
    ) {
        let mut series = series;
        let begin = start.min(series.len());
        let end = (start + run).min(series.len());
        for v in &mut series[begin..end] {
            *v = level;
        }
        let offset = if negative { -magnitude } else { magnitude };
        let shifted: Vec<f64> = series.iter().map(|x| x + offset).collect();
        assert_batched_agrees(&patterns, &series, early_abandon);
        assert_batched_agrees(&patterns, &shifted, early_abandon);
    }

    /// Constant (degenerate) patterns inside a batched set take the naive
    /// fallback — byte-for-byte the naive oracle — while their variable
    /// neighbours stay bit-identical to rolling.
    #[test]
    fn batched_degenerate_members_take_naive_fallback(
        variable in random_walk(4..24),
        len in 3usize..24,
        level in -100.0f64..100.0,
        series in random_walk(32..128),
        early_abandon in coin(),
    ) {
        let constant = vec![level; len];
        let plans = vec![
            MatchPlan::with_kernel(&variable, MatchKernel::Batched),
            MatchPlan::with_kernel(&constant, MatchKernel::Batched),
        ];
        let set = rpm::ts::BatchedMatch::new(&plans);
        let results = set.match_all(&series, early_abandon, None);
        let var_rolling = best_match(&variable, &series, early_abandon).unwrap();
        let var_batched = results[0].unwrap();
        prop_assert_eq!(var_batched.position, var_rolling.position);
        prop_assert_eq!(var_batched.distance.to_bits(), var_rolling.distance.to_bits());
        let const_naive = best_match_naive(&constant, &series, early_abandon).unwrap();
        let const_batched = results[1].unwrap();
        prop_assert_eq!(const_batched.position, const_naive.position);
        prop_assert_eq!(const_batched.distance.to_bits(), const_naive.distance.to_bits());
    }
}
