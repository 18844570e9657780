//! Feature-space transformation (§3.1) and the pattern distance.
//!
//! A time series becomes the vector of closest-match distances to the K
//! representative patterns — the "universal data type" the paper feeds to
//! the SVM. The rotation-invariant variant (§6.1) additionally matches
//! against the series rotated at its midpoint and keeps the minimum, so a
//! best match severed by rotation is re-joined in one of the two views.
//!
//! Batch transforms run on the shared training [`Engine`]
//! (`rpm_core::engine`): workers pull series indices from a shared
//! counter and results merge by index, so the parallel output is
//! bit-identical to the serial one, and worker panics surface as
//! [`EngineError`] values instead of aborting the process.
//!
//! Every transform here is built on [`MatchPlan`]s: the per-pattern
//! closest-match preparation (z-normalization, the early-abandon |zp|
//! sort, `Σzp²`) is computed **once** per pattern and reused across every
//! series it is matched against — the train-set transform, CFS scoring
//! and batch prediction all pay O(patterns) plan builds instead of
//! O(patterns · series).

use crate::cache::Ctx;
use crate::engine::{Engine, EngineError};
use rpm_cluster::resample;
use rpm_ts::{euclidean, rotate_half, znorm, BatchedMatch, MatchKernel, MatchPlan, ScanCounters};
use std::sync::Arc;

/// Distance between two patterns / subsequences of possibly different
/// lengths: the shorter is slid over the longer (both z-normalized) and
/// the length-normalized closest-match distance is returned. Symmetric by
/// construction. Falls back to resampling when one side is empty-window
/// degenerate (cannot happen for grammar-derived patterns, but keeps the
/// function total).
pub fn pattern_distance(a: &[f64], b: &[f64], early_abandon: bool) -> f64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match MatchPlan::new(short).best_match(long, early_abandon) {
        Some(m) => m.distance,
        None => f64::INFINITY,
    }
}

/// [`pattern_distance`] between two *prepared* sides: the shorter plan is
/// slid over the longer side's raw values. Callers holding a plan per
/// subsequence (candidate refinement, the τ pool, medoid selection) avoid
/// re-preparing the shorter pattern on every pair.
pub fn pattern_distance_plans(a: &MatchPlan, b: &MatchPlan, early_abandon: bool) -> f64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match short.best_match(long.raw(), early_abandon) {
        Some(m) => m.distance,
        None => f64::INFINITY,
    }
}

/// Prepares one [`MatchPlan`] per pattern with the given kernel — the
/// entry ticket to every plan-based transform below.
pub fn prepare_patterns(patterns: &[Vec<f64>], kernel: MatchKernel) -> Vec<MatchPlan> {
    patterns
        .iter()
        .map(|p| MatchPlan::with_kernel(p, kernel))
        .collect()
}

/// Closest-match distance of a prepared pattern inside `series`, with the
/// resampling fallback for a pattern longer than the series (possible when
/// test series are shorter than the training series the pattern came
/// from): the pattern is linearly resampled to the series length and
/// compared directly, keeping the feature finite.
fn feature_distance_plan(
    plan: &MatchPlan,
    series: &[f64],
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> f64 {
    if plan.len() <= series.len() {
        match plan.best_match_counted(series, early_abandon, counters) {
            Some(m) => m.distance,
            None => 0.0, // empty pattern: degenerate, treat as zero signal
        }
    } else {
        let shrunk = resample(plan.raw(), series.len());
        let d = euclidean(&znorm(&shrunk), &znorm(series));
        d / (series.len() as f64).sqrt()
    }
}

/// Transforms one series into the K-dimensional pattern-distance vector
/// using pre-built plans — the zero-per-call-preparation entry point for
/// repeated (serving) transforms.
///
/// While `rpm-obs` is enabled each call also feeds the
/// `transform.series_ns` histogram; the disabled path skips the clock
/// reads entirely.
pub fn transform_series_plans(
    series: &[f64],
    plans: &[MatchPlan],
    rotation_invariant: bool,
    early_abandon: bool,
) -> Vec<f64> {
    transform_series_plans_counted(series, plans, rotation_invariant, early_abandon, None)
}

/// [`transform_series_plans`] with an optional per-request
/// [`ScanCounters`] accumulator (the request-tracing path). Counting is
/// integer-only side work inside the kernel, so the distances are
/// bit-identical with or without it.
pub fn transform_series_plans_counted(
    series: &[f64],
    plans: &[MatchPlan],
    rotation_invariant: bool,
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    if !rpm_obs::enabled() {
        return transform_series_inner(series, plans, rotation_invariant, early_abandon, counters);
    }
    let start = rpm_obs::now_ns();
    let out = transform_series_inner(series, plans, rotation_invariant, early_abandon, counters);
    rpm_obs::metrics()
        .transform_series
        .observe(rpm_obs::now_ns().saturating_sub(start));
    out
}

/// Transforms one series into the K-dimensional pattern-distance vector.
///
/// Prepares a plan per pattern on every call; callers transforming more
/// than one series should use [`prepare_patterns`] +
/// [`transform_series_plans`] instead.
pub fn transform_series(
    series: &[f64],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
) -> Vec<f64> {
    let plans = prepare_patterns(patterns, MatchKernel::default());
    transform_series_plans(series, &plans, rotation_invariant, early_abandon)
}

fn transform_series_inner(
    series: &[f64],
    plans: &[MatchPlan],
    rotation_invariant: bool,
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    if wants_batched(plans) {
        // Ad-hoc batched route for callers without a prebuilt set;
        // repeated-transform callers should hold a [`BatchedMatch`] and
        // use [`transform_series_batched_counted`] instead.
        let batched = BatchedMatch::new(plans);
        return batched_series_row(
            &batched,
            plans,
            series,
            rotation_invariant,
            early_abandon,
            counters,
        );
    }
    let rotated = if rotation_invariant {
        Some(rotate_half(series))
    } else {
        None
    };
    plans
        .iter()
        .map(|p| {
            let d = feature_distance_plan(p, series, early_abandon, counters);
            match &rotated {
                Some(r) => d.min(feature_distance_plan(p, r, early_abandon, counters)),
                None => d,
            }
        })
        .collect()
}

/// True when `plans` should run through the pattern-set kernel: the
/// pipeline prepares every plan with one kernel, so the first grouped
/// plan speaks for the set (fallback-only sets gain nothing and keep
/// the per-pattern path).
fn wants_batched(plans: &[MatchPlan]) -> bool {
    plans.iter().any(|p| p.kernel() == MatchKernel::Batched)
}

/// Prepares the batched pattern-set scanner for a plan slice, or `None`
/// when no plan requests the batched kernel — build once per model
/// (train/load) and reuse across every transformed series.
pub fn batched_match(plans: &[MatchPlan]) -> Option<BatchedMatch> {
    wants_batched(plans).then(|| BatchedMatch::new(plans))
}

/// One series' feature row through the batched kernel: a single
/// `match_all` per view (plus one for the rotated view), with the same
/// resampling fallback [`feature_distance_plan`] applies to patterns
/// longer than the series. Distances are bit-identical to the
/// per-pattern rolling path.
fn batched_series_row(
    batched: &BatchedMatch,
    plans: &[MatchPlan],
    series: &[f64],
    rotation_invariant: bool,
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    let mut row = batched_feature_distances(batched, plans, series, early_abandon, counters);
    if rotation_invariant {
        let rotated = rotate_half(series);
        let rot = batched_feature_distances(batched, plans, &rotated, early_abandon, counters);
        for (d, r) in row.iter_mut().zip(rot) {
            *d = d.min(r);
        }
    }
    row
}

fn batched_feature_distances(
    batched: &BatchedMatch,
    plans: &[MatchPlan],
    series: &[f64],
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    let matches = batched.match_all(series, early_abandon, counters);
    plans
        .iter()
        .zip(&matches)
        .map(|(plan, m)| match m {
            Some(m) => m.distance,
            None if !plan.is_empty() && plan.len() > series.len() => {
                let shrunk = resample(plan.raw(), series.len());
                euclidean(&znorm(&shrunk), &znorm(series)) / (series.len() as f64).sqrt()
            }
            None => 0.0, // empty pattern: degenerate, treat as zero signal
        })
        .collect()
}

/// [`transform_series_plans_counted`] against a prebuilt
/// [`BatchedMatch`] — the serving path's entry point, paying zero
/// per-call preparation. `plans` must be the slice the set was built
/// from (it supplies the resampling fallback for oversized patterns).
pub fn transform_series_batched_counted(
    series: &[f64],
    plans: &[MatchPlan],
    batched: &BatchedMatch,
    rotation_invariant: bool,
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    if !rpm_obs::enabled() {
        return batched_series_row(
            batched,
            plans,
            series,
            rotation_invariant,
            early_abandon,
            counters,
        );
    }
    let start = rpm_obs::now_ns();
    let out = batched_series_row(
        batched,
        plans,
        series,
        rotation_invariant,
        early_abandon,
        counters,
    );
    rpm_obs::metrics()
        .transform_series
        .observe(rpm_obs::now_ns().saturating_sub(start));
    out
}

/// Transforms a whole set of series (plans prepared once internally).
pub fn transform_set(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
) -> Vec<Vec<f64>> {
    let plans = prepare_patterns(patterns, MatchKernel::default());
    series
        .iter()
        .map(|s| transform_series_plans(s, &plans, rotation_invariant, early_abandon))
        .collect()
}

/// Plan-based [`transform_set`] on an explicit [`Engine`]: series are
/// distributed across the engine's workers and merged by index, so
/// results are identical to the serial version. A panic inside a worker
/// becomes an [`EngineError`] instead of a process abort.
///
/// The batch is borrowed — any `&[S]` whose items view as `&[f64]`
/// (`&[Vec<f64>]`, `&[&[f64]]`, …) works, so serving callers can fan
/// out over request buffers they do not own.
pub fn transform_set_plans_engine<S: AsRef<[f64]> + Sync>(
    series: &[S],
    plans: &[MatchPlan],
    rotation_invariant: bool,
    early_abandon: bool,
    engine: &Engine,
) -> Result<Vec<Vec<f64>>, EngineError> {
    transform_set_plans_engine_counted(
        series,
        plans,
        rotation_invariant,
        early_abandon,
        engine,
        None,
    )
}

/// [`transform_set_plans_engine`] with an optional shared
/// [`ScanCounters`] accumulator: every worker adds into the same atomic
/// totals, so the caller reads one request-scoped sum after the batch
/// joins. Results stay bit-identical to the uncounted form.
pub fn transform_set_plans_engine_counted<S: AsRef<[f64]> + Sync>(
    series: &[S],
    plans: &[MatchPlan],
    rotation_invariant: bool,
    early_abandon: bool,
    engine: &Engine,
    counters: Option<&ScanCounters>,
) -> Result<Vec<Vec<f64>>, EngineError> {
    // For the batched kernel, build the pattern set once and share it
    // across workers (it is `Sync`) instead of once per series.
    let batched = wants_batched(plans).then(|| BatchedMatch::new(plans));
    engine.map(series, |_, s| match &batched {
        Some(b) => transform_series_batched_counted(
            s.as_ref(),
            plans,
            b,
            rotation_invariant,
            early_abandon,
            counters,
        ),
        None => transform_series_plans_counted(
            s.as_ref(),
            plans,
            rotation_invariant,
            early_abandon,
            counters,
        ),
    })
}

/// [`transform_set`] on an explicit [`Engine`] (plans prepared once
/// internally with the default kernel).
pub fn transform_set_engine(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
    engine: &Engine,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let plans = prepare_patterns(patterns, MatchKernel::default());
    transform_set_plans_engine(series, &plans, rotation_invariant, early_abandon, engine)
}

/// Parallel [`transform_set`] over `n_threads` workers — the batch
/// classification entry point. Identical results to the serial version.
pub fn transform_set_parallel(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
    n_threads: usize,
) -> Result<Vec<Vec<f64>>, EngineError> {
    transform_set_engine(
        series,
        patterns,
        rotation_invariant,
        early_abandon,
        &Engine::new(n_threads.max(1)),
    )
}

/// Training-internal transform: like [`transform_set_engine`] but
/// memoizing per-pattern *columns* in the run's cache, keyed by the
/// context's set identity. The CFS-selection transform and the final SVM
/// transform both call this over the same training series, so every
/// pattern surviving selection reuses its column instead of re-running
/// the closest-match scan. Workers fan out over patterns (columns are the
/// cacheable unit); rows are assembled in index order afterwards, keeping
/// the result bit-identical to [`transform_set`].
pub(crate) fn transform_set_ctx(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
    kernel: MatchKernel,
    ctx: &Ctx<'_>,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let _span = rpm_obs::span!("transform");
    rpm_obs::metrics()
        .transform_columns
        .add(patterns.len() as u64);
    if kernel == MatchKernel::Batched {
        return transform_set_ctx_batched(series, patterns, rotation_invariant, early_abandon, ctx);
    }
    let rotated: Option<Vec<Vec<f64>>> =
        rotation_invariant.then(|| series.iter().map(|s| rotate_half(s)).collect());
    let columns = ctx.engine.map(patterns, |_, p| {
        ctx.cache.column(
            ctx.set,
            p,
            rotation_invariant,
            early_abandon,
            kernel,
            || {
                // One plan per column, reused across every series in the
                // set — the per-pattern sort and normalization amortize
                // over the whole column.
                let plan = MatchPlan::with_kernel(p, kernel);
                series
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let d = feature_distance_plan(&plan, s, early_abandon, None);
                        match &rotated {
                            Some(r) => {
                                d.min(feature_distance_plan(&plan, &r[i], early_abandon, None))
                            }
                            None => d,
                        }
                    })
                    .collect()
            },
        )
    })?;
    Ok((0..series.len())
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect())
}

/// The batched-kernel arm of [`transform_set_ctx`]: instead of a
/// closest-match scan per (pattern, series) pair, the *missing* columns
/// are computed in one pattern-set scan per series — one shared
/// `RollingStats` per (series, pattern length) — and the workers fan
/// out over series (rows) rather than patterns (columns). Cache
/// semantics are unchanged: one recorded hit or miss per pattern
/// column, misses stored for the CFS→SVM transform reuse, rows
/// bit-identical to the per-pattern path.
fn transform_set_ctx_batched(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
    ctx: &Ctx<'_>,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let kernel = MatchKernel::Batched;
    let cached: Vec<Option<Arc<Vec<f64>>>> = patterns
        .iter()
        .map(|p| {
            ctx.cache
                .try_column(ctx.set, p, rotation_invariant, early_abandon, kernel)
        })
        .collect();
    let missing: Vec<usize> = cached
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.is_none().then_some(i))
        .collect();
    let computed: Vec<Arc<Vec<f64>>> = if missing.is_empty() {
        Vec::new()
    } else {
        let missing_patterns: Vec<Vec<f64>> =
            missing.iter().map(|&i| patterns[i].clone()).collect();
        let plans = prepare_patterns(&missing_patterns, kernel);
        let batched = BatchedMatch::new(&plans);
        let rows = ctx.engine.map(series, |_, s| {
            batched_series_row(&batched, &plans, s, rotation_invariant, early_abandon, None)
        })?;
        missing
            .iter()
            .enumerate()
            .map(|(k, &pattern_idx)| {
                let col: Vec<f64> = rows.iter().map(|r| r[k]).collect();
                ctx.cache.store_column(
                    ctx.set,
                    &patterns[pattern_idx],
                    rotation_invariant,
                    early_abandon,
                    kernel,
                    Arc::new(col),
                )
            })
            .collect()
    };
    let mut from_scan = computed.into_iter();
    let columns: Vec<Arc<Vec<f64>>> = cached
        .into_iter()
        .map(|c| c.unwrap_or_else(|| from_scan.next().expect("one computed column per miss")))
        .collect();
    Ok((0..series.len())
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SaxCache;

    fn bump(at: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let d = (i as f64 - at as f64) / 3.0;
                (-0.5 * d * d).exp()
            })
            .collect()
    }

    #[test]
    fn pattern_distance_is_symmetric() {
        let a = bump(10, 30);
        let b = bump(20, 50);
        let d1 = pattern_distance(&a, &b, true);
        let d2 = pattern_distance(&b, &a, true);
        assert_eq!(d1, d2);
    }

    #[test]
    fn identical_patterns_have_zero_distance() {
        let a = bump(5, 20);
        assert!(pattern_distance(&a, &a, true) < 1e-9);
    }

    #[test]
    fn containing_series_matches_its_pattern() {
        let series = bump(40, 100);
        let pattern = series[30..55].to_vec();
        let f = transform_series(&series, &[pattern], false, true);
        assert!(f[0] < 1e-9, "{f:?}");
    }

    #[test]
    fn transform_width_equals_pattern_count() {
        let series = bump(10, 64);
        let pats = vec![bump(3, 10), bump(5, 12), bump(7, 20)];
        let f = transform_series(&series, &pats, false, true);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn oversized_pattern_stays_finite() {
        let series = bump(5, 16);
        let pattern = bump(30, 64);
        let f = transform_series(&series, &[pattern], false, true);
        assert!(f[0].is_finite());
    }

    #[test]
    fn rotation_invariance_recovers_severed_match() {
        // Series with the bump at the end; rotate so the bump is split
        // across the wrap point; the plain transform misses it while the
        // rotation-invariant one recovers a near-zero distance.
        let series = bump(50, 100);
        let pattern = series[38..63].to_vec();
        let severed = rpm_ts::rotate(&series, 50); // cut through the bump
        let plain = transform_series(&severed, std::slice::from_ref(&pattern), false, true);
        let invariant = transform_series(&severed, &[pattern], true, true);
        assert!(invariant[0] < 1e-6, "{invariant:?}");
        assert!(
            plain[0] > invariant[0] + 0.05,
            "plain {plain:?} vs {invariant:?}"
        );
    }

    #[test]
    fn rotation_invariant_distance_never_exceeds_plain() {
        let series = bump(20, 80);
        let pats = vec![bump(4, 15), bump(9, 25)];
        let plain = transform_series(&series, &pats, false, true);
        let inv = transform_series(&series, &pats, true, true);
        for (p, i) in plain.iter().zip(&inv) {
            assert!(i <= p, "invariant must take the min: {i} > {p}");
        }
    }

    #[test]
    fn transform_set_shape() {
        let set = vec![bump(5, 40), bump(9, 40)];
        let pats = vec![bump(3, 10)];
        let t = transform_set(&set, &pats, false, true);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].len(), 1);
    }

    #[test]
    fn parallel_transform_matches_serial() {
        let set: Vec<Vec<f64>> = (0..17).map(|k| bump(5 + k, 60)).collect();
        let pats = vec![bump(3, 10), bump(7, 22)];
        let serial = transform_set(&set, &pats, false, true);
        for threads in [1usize, 2, 4, 32] {
            let par = transform_set_parallel(&set, &pats, false, true, threads).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_transform_handles_empty_set() {
        let pats = vec![bump(3, 10)];
        let par = transform_set_parallel(&[], &pats, false, true, 4).unwrap();
        assert!(par.is_empty());
    }

    #[test]
    fn cached_transform_matches_plain_for_both_rotations() {
        let set: Vec<Vec<f64>> = (0..9).map(|k| bump(4 + 3 * k, 48)).collect();
        let pats = vec![bump(2, 9), bump(6, 14), bump(3, 11)];
        let cache = SaxCache::new(true);
        for rotation in [false, true] {
            let plain = transform_set(&set, &pats, rotation, true);
            for threads in [1usize, 4] {
                let ctx = Ctx::new(Engine::new(threads), &cache);
                // Twice: cold (misses) then warm (all columns hit).
                for _ in 0..2 {
                    let got =
                        transform_set_ctx(&set, &pats, rotation, true, MatchKernel::Rolling, &ctx)
                            .unwrap();
                    assert_eq!(plain, got, "rotation={rotation} threads={threads}");
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 6, "3 patterns x 2 rotation variants");
        assert!(stats.hits >= 18, "repeats served from memory: {stats:?}");
    }

    #[test]
    fn plan_transforms_match_per_call_preparation() {
        let set: Vec<Vec<f64>> = (0..7).map(|k| bump(6 + 2 * k, 52)).collect();
        let pats = vec![bump(3, 11), bump(8, 19)];
        let plans = prepare_patterns(&pats, MatchKernel::Rolling);
        for s in &set {
            assert_eq!(
                transform_series(s, &pats, true, true),
                transform_series_plans(s, &plans, true, true)
            );
        }
    }

    #[test]
    fn naive_kernel_transform_agrees_with_rolling() {
        let set: Vec<Vec<f64>> = (0..5).map(|k| bump(9 + 4 * k, 64)).collect();
        let pats = vec![bump(4, 13), bump(2, 21)];
        let rolling = prepare_patterns(&pats, MatchKernel::Rolling);
        let naive = prepare_patterns(&pats, MatchKernel::Naive);
        for s in &set {
            let a = transform_series_plans(s, &rolling, false, true);
            let b = transform_series_plans(s, &naive, false, true);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn pattern_distance_plans_matches_raw_form() {
        let a = bump(10, 30);
        let b = bump(20, 50);
        let pa = MatchPlan::new(&a);
        let pb = MatchPlan::new(&b);
        assert_eq!(
            pattern_distance(&a, &b, true),
            pattern_distance_plans(&pa, &pb, true)
        );
        assert_eq!(
            pattern_distance_plans(&pa, &pb, true),
            pattern_distance_plans(&pb, &pa, true),
            "plan form stays symmetric"
        );
    }

    #[test]
    fn counted_batch_transform_is_bit_identical_and_sums_across_workers() {
        let set: Vec<Vec<f64>> = (0..12).map(|k| bump(3 + 4 * k, 72)).collect();
        let pats = vec![bump(5, 16), bump(2, 24)];
        let plans = prepare_patterns(&pats, MatchKernel::Rolling);
        let engine = Engine::new(4);
        let plain = transform_set_plans_engine(&set, &plans, true, true, &engine).unwrap();
        let counters = ScanCounters::new();
        let counted =
            transform_set_plans_engine_counted(&set, &plans, true, true, &engine, Some(&counters))
                .unwrap();
        assert_eq!(plain, counted, "counting must not perturb the transform");
        let stats = counters.snapshot();
        // rotation-invariant: 2 scans per (series, pattern) pair.
        assert_eq!(stats.searches, (set.len() * pats.len() * 2) as u64);
        assert!(stats.windows > 0);
        assert!(stats.match_ns > 0);
    }

    #[test]
    fn batched_transform_builds_stats_once_per_series() {
        // The CFS-scoring fix: with K same-length patterns, the batched
        // path computes the per-series rolling statistics ONCE and shares
        // them across all K member scans, where the per-pattern rolling
        // path rebuilds them K times. The `stats_builds` counter is the
        // contract: series.len() × length-groups for batched, series.len()
        // × K for rolling.
        let set: Vec<Vec<f64>> = (0..6).map(|k| bump(3 + 5 * k, 72)).collect();
        let pats = vec![bump(5, 16), bump(2, 16), bump(9, 16), bump(12, 16)];
        let engine = Engine::serial();

        let batched_plans = prepare_patterns(&pats, MatchKernel::Batched);
        let batched_counters = ScanCounters::new();
        let batched_rows = transform_set_plans_engine_counted(
            &set,
            &batched_plans,
            false,
            true,
            &engine,
            Some(&batched_counters),
        )
        .unwrap();
        let batched_stats = batched_counters.snapshot();
        assert_eq!(
            batched_stats.stats_builds,
            set.len() as u64,
            "one RollingStats build per (series, length-group)"
        );
        // Pair accounting is preserved: still one search per (series,
        // pattern), and the bound pruned at least something.
        assert_eq!(batched_stats.searches, (set.len() * pats.len()) as u64);
        assert!(batched_stats.pruned_envelope > 0, "{batched_stats:?}");

        let rolling_plans = prepare_patterns(&pats, MatchKernel::Rolling);
        let rolling_counters = ScanCounters::new();
        let rolling_rows = transform_set_plans_engine_counted(
            &set,
            &rolling_plans,
            false,
            true,
            &engine,
            Some(&rolling_counters),
        )
        .unwrap();
        let rolling_stats = rolling_counters.snapshot();
        assert_eq!(
            rolling_stats.stats_builds,
            (set.len() * pats.len()) as u64,
            "per-pattern path rebuilds stats K times per series"
        );

        // And the shared-stats rows are bit-identical to the per-pattern ones.
        assert_eq!(batched_rows, rolling_rows);
    }

    #[test]
    fn early_abandon_matches_exhaustive() {
        let series = bump(33, 120);
        let pats = vec![bump(4, 17), bump(2, 9)];
        let fast = transform_series(&series, &pats, false, true);
        let slow = transform_series(&series, &pats, false, false);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
