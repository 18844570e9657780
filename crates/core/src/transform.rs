//! Feature-space transformation (§3.1) and the pattern distance.
//!
//! A time series becomes the vector of closest-match distances to the K
//! representative patterns — the "universal data type" the paper feeds to
//! the SVM. The rotation-invariant variant (§6.1) additionally matches
//! against the series rotated at its midpoint and keeps the minimum, so a
//! best match severed by rotation is re-joined in one of the two views.
//!
//! Every transform runs on a [`PatternSet`]: one [`MatchPlan`] per
//! pattern (z-normalization, the early-abandon |zp| sort, `Σzp²`),
//! grouped into one [`BatchedMatch`]. The set is built **once** and
//! reused for every series it is matched against, so the train-set
//! transform, CFS scoring and batch prediction all pay O(patterns)
//! preparation instead of O(patterns · series), and a series' feature
//! row is one pattern-set scan per view.
//!
//! Batch transforms run on the shared training [`Engine`]
//! (`rpm_core::engine`): workers pull series indices from a shared
//! counter and results merge by index, so the parallel output is
//! bit-identical to the serial one, and worker panics surface as
//! [`EngineError`] values instead of aborting the process.

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

/// A pattern set prepared for repeated transforms: the raw pattern values
/// in feature order and the [`BatchedMatch`] built from their plans.
#[derive(Clone, Debug)]
pub struct PatternSet {
    /// Raw values, one entry per feature; the resampling fallback for a
    /// pattern longer than the series reads them.
    values: Vec<Vec<f64>>,
    batched: BatchedMatch,
}

impl PatternSet {
    /// Prepares `patterns` with one kernel. `Naive` plans and constant
    /// patterns are scanned one by one inside the set.
    pub fn new(patterns: &[Vec<f64>], kernel: MatchKernel) -> Self {
        let plans: Vec<MatchPlan> = patterns
            .iter()
            .map(|p| MatchPlan::with_kernel(p, kernel))
            .collect();
        Self::from_plans(&plans)
    }

    /// A set over already prepared plans, which may mix kernels.
    pub(crate) fn from_plans(plans: &[MatchPlan]) -> Self {
        Self {
            values: plans.iter().map(|p| p.raw().to_vec()).collect(),
            batched: BatchedMatch::new(plans),
        }
    }

    /// One series' feature row: a pattern-set scan of the series and,
    /// when `rotation_invariant`, of its midpoint rotation, keeping the
    /// smaller distance per pattern.
    pub(crate) fn row(
        &self,
        series: &[f64],
        rotation_invariant: bool,
        early_abandon: bool,
        counters: Option<&ScanCounters>,
    ) -> Vec<f64> {
        let mut row = self.distances(series, early_abandon, counters);
        if rotation_invariant {
            let rotated = rotate_half(series);
            for (d, r) in row
                .iter_mut()
                .zip(self.distances(&rotated, early_abandon, counters))
            {
                *d = d.min(r);
            }
        }
        row
    }

    /// Closest-match distance of every pattern inside `series`. A pattern
    /// longer than the series (test series can be shorter than the
    /// training series a pattern came from) is linearly resampled to the
    /// series length and compared directly, keeping the feature finite.
    fn distances(
        &self,
        series: &[f64],
        early_abandon: bool,
        counters: Option<&ScanCounters>,
    ) -> Vec<f64> {
        let matches = self.batched.match_all(series, early_abandon, counters);
        self.values
            .iter()
            .zip(matches)
            .map(|(pattern, m)| match m {
                Some(m) => m.distance,
                None if !pattern.is_empty() && pattern.len() > series.len() => {
                    let shrunk = resample(pattern, series.len());
                    euclidean(&znorm(&shrunk), &znorm(series)) / (series.len() as f64).sqrt()
                }
                None => 0.0, // empty pattern: degenerate, treat as zero signal
            })
            .collect()
    }
}

/// Transforms one series into the K-dimensional pattern-distance vector.
///
/// Prepares the pattern set on every call; callers transforming more
/// than one series should use [`transform_set`] or [`transform_batch`].
pub fn transform_series(
    series: &[f64],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
) -> Vec<f64> {
    PatternSet::new(patterns, MatchKernel::default()).row(
        series,
        rotation_invariant,
        early_abandon,
        None,
    )
}

/// Transforms a whole set of series (the pattern set is prepared once).
pub fn transform_set(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
) -> Vec<Vec<f64>> {
    let set = PatternSet::new(patterns, MatchKernel::default());
    series
        .iter()
        .map(|s| set.row(s, rotation_invariant, early_abandon, None))
        .collect()
}

/// Transforms a batch against a prepared [`PatternSet`] on `engine`'s
/// workers. Series are distributed across the workers and merged by
/// index, so results are identical to [`transform_set`]; a panic inside
/// a worker becomes an [`EngineError`] instead of a process abort.
///
/// With `counters` attached, every worker adds into the same atomic
/// totals, so the caller reads one batch-scoped sum after the join.
/// Counting is integer-only side work: the rows are bit-identical either
/// way. The batch is borrowed — any `&[S]` whose items view as `&[f64]`
/// (`&[Vec<f64>]`, `&[&[f64]]`, …) works.
pub fn transform_batch<S: AsRef<[f64]> + Sync>(
    series: &[S],
    set: &PatternSet,
    rotation_invariant: bool,
    early_abandon: bool,
    engine: &Engine,
    counters: Option<&ScanCounters>,
) -> Result<Vec<Vec<f64>>, EngineError> {
    engine.map(series, |_, s| {
        set.row(s.as_ref(), rotation_invariant, early_abandon, counters)
    })
}

/// Training-internal transform: [`transform_batch`] of the plain view
/// (training data is clean, §6.1), memoizing per-pattern *columns* in
/// the run's cache under the context's set identity. The CFS-selection
/// transform and the final SVM transform both call this over the same
/// training series, so every pattern surviving selection reuses its
/// column instead of re-running the closest-match scan. The missing
/// columns are computed in one pattern-set scan per series; one hit or
/// miss is recorded per column, and rows are assembled in index order,
/// bit-identical to [`transform_set`].
pub(crate) fn transform_set_ctx(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    early_abandon: bool,
    kernel: MatchKernel,
    ctx: &Ctx<'_>,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let _span = rpm_obs::span!("transform");
    rpm_obs::metrics()
        .transform_columns
        .add(patterns.len() as u64);
    let cached: Vec<Option<Arc<Vec<f64>>>> = patterns
        .iter()
        .map(|p| ctx.cache.try_column(ctx.set, p))
        .collect();
    let missing: Vec<usize> = (0..patterns.len())
        .filter(|&i| cached[i].is_none())
        .collect();
    let mut computed = Vec::new();
    if !missing.is_empty() {
        let plans: Vec<MatchPlan> = missing
            .iter()
            .map(|&i| MatchPlan::with_kernel(&patterns[i], kernel))
            .collect();
        let set = PatternSet::from_plans(&plans);
        let rows = transform_batch(series, &set, false, early_abandon, &ctx.engine, None)?;
        computed = missing
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let column = rows.iter().map(|r| r[k]).collect();
                ctx.cache
                    .store_column(ctx.set, &patterns[i], Arc::new(column))
            })
            .collect();
    }
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
        let prepared = PatternSet::new(&pats, MatchKernel::default());
        for threads in [1usize, 2, 4, 32] {
            let engine = Engine::new(threads);
            let par = transform_batch(&set, &prepared, false, true, &engine, None).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_transform_handles_empty_set() {
        let prepared = PatternSet::new(&[bump(3, 10)], MatchKernel::default());
        let none: &[Vec<f64>] = &[];
        let par = transform_batch(none, &prepared, false, true, &Engine::new(4), None).unwrap();
        assert!(par.is_empty());
    }

    #[test]
    fn cached_transform_matches_plain() {
        let set: Vec<Vec<f64>> = (0..9).map(|k| bump(4 + 3 * k, 48)).collect();
        let pats = vec![bump(2, 9), bump(6, 14), bump(3, 11)];
        let cache = SaxCache::default();
        let plain = transform_set(&set, &pats, false, true);
        for threads in [1usize, 4] {
            let ctx = Ctx::new(Engine::new(threads), &cache);
            // Twice: cold (misses) then warm (all columns hit).
            for _ in 0..2 {
                let got =
                    transform_set_ctx(&set, &pats, true, MatchKernel::default(), &ctx).unwrap();
                assert_eq!(plain, got, "threads={threads}");
            }
        }
        assert_eq!(cache.stats().misses, 3, "one miss per pattern");
        assert_eq!(cache.stats().hits, 9, "every repeat served from memory");
    }

    #[test]
    fn prepared_rows_match_per_call_preparation() {
        let set: Vec<Vec<f64>> = (0..7).map(|k| bump(6 + 2 * k, 52)).collect();
        let pats = vec![bump(3, 11), bump(8, 19)];
        let prepared = PatternSet::new(&pats, MatchKernel::default());
        for s in &set {
            assert_eq!(
                transform_series(s, &pats, true, true),
                prepared.row(s, true, true, None)
            );
        }
    }

    #[test]
    fn naive_kernel_transform_agrees_with_default() {
        let set: Vec<Vec<f64>> = (0..5).map(|k| bump(9 + 4 * k, 64)).collect();
        let pats = vec![bump(4, 13), bump(2, 21)];
        let naive = PatternSet::new(&pats, MatchKernel::Naive);
        for s in &set {
            let a = transform_series(s, &pats, false, true);
            let b = naive.row(s, false, true, None);
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
        let prepared = PatternSet::new(&pats, MatchKernel::default());
        let engine = Engine::new(4);
        let plain = transform_batch(&set, &prepared, true, true, &engine, None).unwrap();
        let counters = ScanCounters::new();
        let counted =
            transform_batch(&set, &prepared, true, true, &engine, Some(&counters)).unwrap();
        assert_eq!(plain, counted, "counting must not perturb the transform");
        let stats = counters.snapshot();
        // rotation-invariant: 2 scans per (series, pattern) pair.
        assert_eq!(stats.searches, (set.len() * pats.len() * 2) as u64);
        assert!(stats.windows > 0);
        assert!(stats.match_ns > 0);
    }

    #[test]
    fn batched_transform_builds_stats_once_per_series() {
        // The CFS-scoring win: with K same-length patterns, the pattern-set
        // scan computes the per-series rolling statistics ONCE and shares
        // them across all K member scans, where K per-pattern scans would
        // rebuild them K times. The `stats_builds` counter is the
        // contract: series.len() × length-groups.
        let set: Vec<Vec<f64>> = (0..6).map(|k| bump(3 + 5 * k, 72)).collect();
        let pats = vec![bump(5, 16), bump(2, 16), bump(9, 16), bump(12, 16)];
        let prepared = PatternSet::new(&pats, MatchKernel::default());
        let counters = ScanCounters::new();
        let rows = transform_batch(
            &set,
            &prepared,
            false,
            true,
            &Engine::serial(),
            Some(&counters),
        )
        .unwrap();
        let stats = counters.snapshot();
        assert_eq!(
            stats.stats_builds,
            set.len() as u64,
            "one RollingStats build per (series, length-group)"
        );
        // Pair accounting is preserved: still one search per (series,
        // pattern), and the bound pruned at least something.
        assert_eq!(stats.searches, (set.len() * pats.len()) as u64);
        assert!(stats.pruned_envelope > 0, "{stats:?}");

        // And the shared-stats rows are bit-identical to the per-pattern
        // rolling scan.
        for (s, row) in set.iter().zip(&rows) {
            let oracle: Vec<f64> = pats
                .iter()
                .map(|p| MatchPlan::new(p).best_match(s, true).unwrap().distance)
                .collect();
            assert_eq!(*row, oracle);
        }
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
