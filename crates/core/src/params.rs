//! SAX parameter selection — Algorithm 3 and the DIRECT variant (§4).
//!
//! The objective of a parameter combination is `1 − F` where `F` is the
//! F-measure obtained on held-out validation splits: mine candidates on
//! the split's training part, select representative patterns, transform
//! both parts, train the SVM on the training part and score the
//! validation part. (The paper's pseudocode nests a further five-fold CV
//! inside the validation slice; scoring a model trained on the split's
//! training part is equivalent in expectation and robust for the very
//! small classes in the suite — recorded as a deviation in DESIGN.md.)
//!
//! `per_class` mode reproduces the paper exactly: each class gets its own
//! optimized combination (the objective extracts that class's F-measure),
//! and the final model merges the per-class pattern sets with one more
//! feature-selection pass (§4.3 — that merge lives in
//! `RpmClassifier::train_with_configs`). Shared mode optimizes one
//! combination against the macro F-measure at a fraction of the cost.
//!
//! Every mode scores combinations in batches through one `Scorer`:
//! shared DIRECT hands it each iteration's new points, per-class DIRECT
//! runs its classes one after another on it, and grid search hands it
//! every point at once. A batch's (combination × validation split) pairs
//! are the jobs of one engine run, reduced per combination in split
//! order, so `n_threads > 1` returns bit-identical outcomes to serial.
//! Combination scores are memoized in the run's [`SaxCache`], so
//! overlapping DIRECT probes pay for each distinct combination once, and
//! only the searching thread looks them up: a budget is spent in the
//! same order at any thread count.

use crate::budget::BudgetState;
use crate::cache::{Ctx, EvalValue, SaxCache, SetId};
use crate::config::{ParamSearch, RpmConfig};
use crate::engine::{panic_error, Engine};
use crate::model::{RpmClassifier, TrainError};
use rpm_ml::{macro_f1, per_class_f1, shuffled_stratified_split};
use rpm_opt::{direct_minimize_integer, DirectParams};
use rpm_sax::SaxConfig;
use rpm_ts::{Dataset, Label};
use std::collections::BTreeMap;
use std::panic::catch_unwind;
use std::time::Duration;

/// One combination's validation score: per-class F-measures plus macro.
type CombinationScore = (BTreeMap<Label, f64>, f64);

/// Result of the parameter search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Chosen SAX configuration per class.
    pub per_class: BTreeMap<Label, SaxConfig>,
    /// Distinct parameter combinations evaluated (the paper's `R`).
    pub evaluations: usize,
    /// The search ran out of [`crate::TrainBudget`] before finishing:
    /// `per_class` holds the best parameters scored so far rather than
    /// the full search's choice.
    pub degraded: bool,
}

/// Integer search bounds `(window, paa, alphabet)` derived from the
/// training series lengths: windows span an eighth to half of the
/// shortest series, PAA sizes 3..=8, alphabets 3..=8 — the region the
/// GrammarViz line of work searches.
pub fn default_bounds(train: &Dataset) -> ([i64; 3], [i64; 3]) {
    let min_len = train.min_len().max(8) as i64;
    let w_hi = (min_len / 2).max(8);
    let w_lo = (min_len / 8).clamp(4, w_hi);
    ([w_lo, 3, 3], [w_hi, 8, 8])
}

/// Builds a [`SaxConfig`] from a rounded DIRECT/grid point, clamping the
/// PAA size to the window (a word cannot be longer than its window).
fn sax_from_point(p: &[i64]) -> SaxConfig {
    let window = p[0].max(2) as usize;
    let paa = (p[1].max(2) as usize).min(window);
    let alpha = (p[2].clamp(2, 12)) as usize;
    SaxConfig::new(window, paa, alpha)
}

/// Scores batches of parameter combinations for one search: a
/// combination's score is its mean F-measure over the validation
/// splits, per class (map) plus macro, or `None` when no split could
/// train (no candidates / degenerate split). Scores are memoized per
/// [`SaxConfig`] in the run's cache. The first failure is kept for
/// [`Scorer::finish`] and the failed combinations score `None`; the
/// search goes on, so a checkpoint keeps every score it could compute.
struct Scorer<'a> {
    train: &'a Dataset,
    config: &'a RpmConfig,
    ctx: Ctx<'a>,
    failure: Option<TrainError>,
}

impl<'a> Scorer<'a> {
    fn new(train: &'a Dataset, config: &'a RpmConfig, ctx: &Ctx<'a>) -> Self {
        Self {
            train,
            config,
            ctx: *ctx,
            failure: None,
        }
    }

    /// The scores of `batch`, in order. A combination repeated within
    /// the batch is scored once and answered from memory after, as it
    /// would be point by point.
    fn score(&mut self, batch: &[SaxConfig]) -> Vec<EvalValue> {
        let mut firsts: Vec<SaxConfig> = Vec::with_capacity(batch.len());
        for sax in batch {
            if !firsts.contains(sax) {
                firsts.push(*sax);
            }
        }
        let mut scored = self.score_distinct(&firsts).into_iter();
        batch
            .iter()
            .enumerate()
            .map(|(i, sax)| match batch[..i].contains(sax) {
                true => self.ctx.cache.lookup_eval(sax).flatten(),
                false => scored.next().expect("one score per distinct combination"),
            })
            .collect()
    }

    /// [`score`](Self::score) for a batch without repeats.
    fn score_distinct(&mut self, batch: &[SaxConfig]) -> Vec<EvalValue> {
        let cache = self.ctx.cache;
        // Claim, in combination order: a memo hit (checkpoint-restored
        // scores included) is answered; a miss spends budget and passes
        // the `params.eval` fault site, then joins this batch's jobs.
        let mut out: Vec<EvalValue> = Vec::with_capacity(batch.len());
        let mut fresh: Vec<usize> = Vec::new();
        for (i, sax) in batch.iter().enumerate() {
            if let Some(value) = cache.lookup_eval(sax) {
                out.push(value);
                continue;
            }
            let claimed = self.ctx.budget.is_none_or(BudgetState::try_claim);
            // The unwind boundary makes the fault site — or a genuine
            // bug — a typed error.
            let passed = claimed
                && match catch_unwind(|| rpm_obs::fault::fire("params.eval")) {
                    Ok(()) => true,
                    Err(payload) => {
                        self.fail(TrainError::Engine(panic_error(payload)));
                        false
                    }
                };
            if passed {
                fresh.push(i);
            } else {
                // Unscored or failed: the search reads it as its worst
                // value and degrades to the best scored so far.
                cache.store_eval(*sax, None);
            }
            out.push(None);
        }

        if !fresh.is_empty() {
            // Every (fresh combination × split) pair is one job of one
            // engine run; each combination reduces its splits in order.
            let n_splits = self.config.n_validation_splits.max(1);
            let obs = rpm_obs::enabled();
            let (train, config, ctx) = (self.train, self.config, self.ctx);
            let folds = ctx.engine.run(fresh.len() * n_splits, |job| {
                // A job that starts past the deadline does not run, so at
                // most one job per worker runs past it.
                if ctx.budget.is_some_and(BudgetState::past_deadline) {
                    return None;
                }
                let t0 = obs.then(rpm_obs::now_ns);
                let sax = &batch[fresh[job / n_splits]];
                let fold = score_fold(train, config, sax, job % n_splits, &ctx);
                Some((
                    fold,
                    t0.map_or(0, |t0| rpm_obs::now_ns().saturating_sub(t0)),
                ))
            });
            let mut folds = match folds {
                Ok(folds) => Some(folds.into_iter()),
                Err(e) => {
                    self.fail(TrainError::Engine(e));
                    None
                }
            };
            let classes = train.classes();
            for &i in &fresh {
                // A failed run, or a split skipped past the deadline,
                // leaves its combination unscored and out of the
                // checkpoint.
                let value = folds.as_mut().and_then(|folds| {
                    let splits: Vec<_> = folds.by_ref().take(n_splits).collect();
                    let splits: Vec<_> = splits.into_iter().collect::<Option<_>>()?;
                    if obs {
                        let m = rpm_obs::metrics();
                        m.params_evals.inc();
                        m.params_eval.observe(splits.iter().map(|(_, ns)| ns).sum());
                    }
                    let value = mean_over_splits(&classes, splits.into_iter().map(|(f, _)| f));
                    if let Some(checkpoint) = ctx.checkpoint {
                        checkpoint.record(&batch[i], &value);
                    }
                    value
                });
                cache.store_eval(batch[i], value.clone());
                out[i] = value;
            }
        }
        out
    }

    fn fail(&mut self, e: TrainError) {
        self.failure.get_or_insert(e);
    }

    /// The first failure of any batch scored, if one failed.
    fn finish(self) -> Result<(), TrainError> {
        self.failure.map_or(Ok(()), Err)
    }
}

/// One validation split of one combination: mine on the split's training
/// part with `sax` for every class, select, fit, and score the held-out
/// part. `None` when the split cannot train.
fn score_fold(
    train: &Dataset,
    config: &RpmConfig,
    sax: &SaxConfig,
    split_idx: usize,
    ctx: &Ctx<'_>,
) -> Option<CombinationScore> {
    let _span = rpm_obs::span!("eval");
    rpm_obs::metrics().params_folds.inc();
    let split_seed = config.seed ^ (split_idx as u64).wrapping_mul(0x9E3779B97F4A7C15);
    let (tr_idx, va_idx) =
        shuffled_stratified_split(&train.labels, config.validation_train_fraction, split_seed);
    if va_idx.is_empty() {
        return None;
    }
    let sub_train = train.subset(&tr_idx);
    let validate = train.subset(&va_idx);
    if sub_train.n_classes() < 2 {
        return None;
    }
    let per_class_sax: BTreeMap<Label, SaxConfig> =
        sub_train.classes().iter().map(|&c| (c, *sax)).collect();
    // Avoid nested parameter search: train with these explicit configs,
    // serially (this fold is already one engine job). Transform columns
    // are keyed by the split and the combination, so a fold reads only
    // columns its own scan computed (frames are keyed by series, so
    // every split shares them).
    let fold_ctx = ctx.serial().with_set(SetId::Split(split_seed, *sax));
    let model =
        RpmClassifier::train_with_configs_ctx(&sub_train, config, &per_class_sax, &fold_ctx)
            .ok()?; // pruning: abandon this combination's split
    let preds = model.predict_batch(&validate.series);
    Some((
        per_class_f1(&validate.labels, &preds),
        macro_f1(&validate.labels, &preds),
    ))
}

/// A combination's score from its splits' scores, summed in split order
/// (so the float sums match the serial loop), with an entry for each of
/// `classes`. `None` when no split scored.
fn mean_over_splits(
    classes: &[Label],
    folds: impl Iterator<Item = Option<CombinationScore>>,
) -> EvalValue {
    let mut f_sums: BTreeMap<Label, f64> = classes.iter().map(|&c| (c, 0.0)).collect();
    let mut macro_sum = 0.0;
    let mut scored_splits = 0usize;
    for (f1s, macro_f) in folds.flatten() {
        for (c, f) in f1s {
            *f_sums.entry(c).or_insert(0.0) += f;
        }
        macro_sum += macro_f;
        scored_splits += 1;
    }
    if scored_splits == 0 {
        return None;
    }
    let n = scored_splits as f64;
    for f in f_sums.values_mut() {
        *f /= n;
    }
    Some((f_sums, macro_sum / n))
}

/// Runs the configured search and returns per-class configurations,
/// using `config.n_threads` workers and a fresh memoization cache.
/// Results are identical for any thread count.
///
/// # Panics
/// Panics when called with a `Fixed`/`PerClassFixed` strategy (those need
/// no search) — `RpmClassifier::train` never does.
pub fn search_parameters(train: &Dataset, config: &RpmConfig) -> Result<SearchOutcome, TrainError> {
    let cache = SaxCache::default();
    let budget = BudgetState::new(&config.budget);
    let ctx = Ctx::new(Engine::new(config.n_threads), &cache).with_budget(&budget);
    search_parameters_ctx(train, config, &ctx)
}

/// [`search_parameters`] inside an existing training context.
pub(crate) fn search_parameters_ctx(
    train: &Dataset,
    config: &RpmConfig,
    ctx: &Ctx<'_>,
) -> Result<SearchOutcome, TrainError> {
    let _span = rpm_obs::span!("params");
    let mut outcome = match &config.param_search {
        ParamSearch::Fixed(_) | ParamSearch::PerClassFixed(_) => {
            panic!("search_parameters called with a fixed strategy")
        }
        ParamSearch::Direct {
            max_evals,
            per_class,
        } => direct_search(train, config, *max_evals, *per_class, ctx),
        ParamSearch::Grid {
            windows,
            paas,
            alphas,
            per_class,
        } => grid_search(train, config, windows, paas, alphas, *per_class, ctx),
    }?;
    outcome.degraded = ctx.budget.is_some_and(BudgetState::exhausted);
    if outcome.degraded {
        rpm_obs::metrics().train_degraded.inc();
    }
    Ok(outcome)
}

fn direct_params_for(max_evals: usize, wall_clock: Option<Duration>) -> DirectParams {
    DirectParams {
        // Raw proposals; distinct integer points are cached, and roughly
        // half the proposals round onto already-seen combinations.
        max_evals: max_evals * 2,
        max_iters: 40,
        eps: 1e-4,
        wall_clock,
    }
}

fn direct_search(
    train: &Dataset,
    config: &RpmConfig,
    max_evals: usize,
    per_class: bool,
    ctx: &Ctx<'_>,
) -> Result<SearchOutcome, TrainError> {
    let (lo, hi) = default_bounds(train);
    let classes = train.classes();
    let mut scorer = Scorer::new(train, config, ctx);
    // Shared mode runs DIRECT once against the macro F-measure; per-class
    // mode runs it once per class, one class after another on the same
    // scorer, against that class's F-measure. Each DIRECT iteration is
    // one batch: its (combination × split) pairs fan out on the engine.
    let targets: Vec<Option<Label>> = match per_class {
        true => classes.iter().copied().map(Some).collect(),
        false => vec![None],
    };
    let mut evaluations = 0usize;
    let mut chosen: BTreeMap<Label, SaxConfig> = BTreeMap::new();
    for target in targets {
        let (point, _f, n) = direct_minimize_integer(
            |batch| {
                let saxes: Vec<SaxConfig> = batch.iter().map(|p| sax_from_point(p)).collect();
                let scores = scorer.score(&saxes);
                scores
                    .into_iter()
                    .map(|score| match (score, target) {
                        (Some((per_cls, _)), Some(c)) => {
                            1.0 - per_cls.get(&c).copied().unwrap_or(0.0)
                        }
                        (Some((_, macro_f)), None) => 1.0 - macro_f,
                        (None, _) => 1.0,
                    })
                    .collect()
            },
            &lo,
            &hi,
            &direct_params_for(max_evals, ctx.budget.and_then(BudgetState::remaining)),
        );
        evaluations += n;
        let sax = sax_from_point(&point);
        match target {
            Some(c) => {
                chosen.insert(c, sax);
            }
            None => chosen.extend(classes.iter().map(|&c| (c, sax))),
        }
    }
    scorer.finish()?;
    Ok(SearchOutcome {
        per_class: chosen,
        evaluations,
        degraded: false,
    })
}

fn grid_search(
    train: &Dataset,
    config: &RpmConfig,
    windows: &[usize],
    paas: &[usize],
    alphas: &[usize],
    per_class: bool,
    ctx: &Ctx<'_>,
) -> Result<SearchOutcome, TrainError> {
    let classes = train.classes();
    // Feasible grid points in enumeration order: window, then PAA, then
    // alphabet — the order the serial nested loops visited.
    let mut points: Vec<SaxConfig> = Vec::new();
    for &w in windows {
        for &p in paas {
            for &a in alphas {
                if w < 2 || w > train.min_len() {
                    continue; // pruning: infeasible window
                }
                points.push(sax_from_point(&[w as i64, p as i64, a as i64]));
            }
        }
    }

    // Every point scores in one batch; the reduction below walks
    // enumeration order with strict `>` comparisons, so ties keep the
    // earliest point — bit-identical to the serial search.
    let mut scorer = Scorer::new(train, config, ctx);
    let scores = scorer.score(&points);
    scorer.finish()?;

    let mut best: BTreeMap<Label, (f64, SaxConfig)> = BTreeMap::new();
    let mut best_shared: (f64, Option<SaxConfig>) = (-1.0, None);
    let mut evaluations = 0usize;
    for (sax, score) in points.iter().zip(scores) {
        let Some((per_cls, macro_f)) = score else {
            continue;
        };
        evaluations += 1;
        for (&c, &f) in &per_cls {
            let e = best.entry(c).or_insert((-1.0, *sax));
            if f > e.0 {
                *e = (f, *sax);
            }
        }
        if macro_f > best_shared.0 {
            best_shared = (macro_f, Some(*sax));
        }
    }

    let fallback = SaxConfig::new((train.min_len() / 4).max(4), 4, 4);
    let per_class_out: BTreeMap<Label, SaxConfig> = if per_class {
        classes
            .iter()
            .map(|&c| (c, best.get(&c).map(|e| e.1).unwrap_or(fallback)))
            .collect()
    } else {
        let shared = best_shared.1.unwrap_or(fallback);
        classes.iter().map(|&c| (c, shared)).collect()
    };
    Ok(SearchOutcome {
        per_class: per_class_out,
        evaluations,
        degraded: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new("p", Vec::new(), Vec::new());
        for class in 0..2usize {
            for _ in 0..10 {
                let mut s: Vec<f64> = (0..96).map(|_| 0.2 * (rng.gen::<f64>() - 0.5)).collect();
                let at = rng.gen_range(0usize..96 - 20);
                for i in 0..20 {
                    let t = std::f64::consts::TAU * i as f64 / 20.0;
                    s[at + i] += 3.0 * if class == 0 { t.sin() } else { (2.0 * t).sin() };
                }
                d.push(s, class);
            }
        }
        d
    }

    /// Scores `batch` on a fresh cache with `engine`.
    fn score_on(
        engine: Engine,
        d: &Dataset,
        cfg: &RpmConfig,
        batch: &[SaxConfig],
    ) -> Vec<EvalValue> {
        let cache = SaxCache::default();
        let ctx = Ctx::new(engine, &cache);
        let mut scorer = Scorer::new(d, cfg, &ctx);
        let scores = scorer.score(batch);
        scorer.finish().unwrap();
        scores
    }

    fn eval(d: &Dataset, cfg: &RpmConfig, sax: &SaxConfig) -> EvalValue {
        score_on(Engine::serial(), d, cfg, std::slice::from_ref(sax)).remove(0)
    }

    #[test]
    fn bounds_are_ordered_and_feasible() {
        let d = dataset(1);
        let (lo, hi) = default_bounds(&d);
        for i in 0..3 {
            assert!(lo[i] <= hi[i], "{lo:?} vs {hi:?}");
        }
        assert!(hi[0] <= 96 / 2);
        assert!(lo[0] >= 4);
    }

    #[test]
    fn sax_from_point_clamps() {
        let s = sax_from_point(&[10, 50, 30]);
        assert_eq!(s.window, 10);
        assert_eq!(s.paa_size, 10, "paa clamped to window");
        assert_eq!(s.alphabet, 12, "alphabet clamped to 12");
    }

    #[test]
    fn evaluate_combination_scores_sane_params() {
        let d = dataset(2);
        let cfg = RpmConfig::default();
        let sax = SaxConfig::new(20, 4, 4);
        let (per_cls, macro_f) = eval(&d, &cfg, &sax).expect("scorable");
        assert!(per_cls.len() == 2);
        for f in per_cls.values() {
            assert!((0.0..=1.0).contains(f));
        }
        assert!((0.0..=1.0).contains(&macro_f));
    }

    #[test]
    fn evaluate_combination_prunes_oversized_window() {
        let d = dataset(3);
        let cfg = RpmConfig::default();
        let sax = SaxConfig::new(500, 4, 4);
        assert!(eval(&d, &cfg, &sax).is_none());
    }

    #[test]
    fn evaluate_combination_is_memoized() {
        let d = dataset(2);
        let cfg = RpmConfig::default();
        let sax = SaxConfig::new(20, 4, 4);
        let cache = SaxCache::default();
        let ctx = Ctx::new(Engine::serial(), &cache);
        let mut scorer = Scorer::new(&d, &cfg, &ctx);
        let first = scorer.score(&[sax]);
        let evals_after_first = cache.stats();
        let second = scorer.score(&[sax]);
        scorer.finish().unwrap();
        assert_eq!(first, second);
        assert_eq!(
            cache.stats().hits,
            evals_after_first.hits + 1,
            "second score answered from memory"
        );
    }

    #[test]
    fn a_repeat_within_a_batch_is_scored_once() {
        let d = dataset(2);
        let cfg = RpmConfig::default();
        let (a, b) = (SaxConfig::new(20, 4, 4), SaxConfig::new(16, 4, 3));
        let budget = BudgetState::new(&crate::config::TrainBudget {
            max_evals: Some(2),
            wall_clock: None,
        });
        let cache = SaxCache::default();
        let ctx = Ctx::new(Engine::new(2), &cache).with_budget(&budget);
        let mut scorer = Scorer::new(&d, &cfg, &ctx);
        let scores = scorer.score(&[a, b, a, a]);
        scorer.finish().unwrap();
        assert_eq!(scores[0], scores[2]);
        assert_eq!(scores[0], scores[3]);
        assert!(scores[0].is_some() && scores[1].is_some());
        assert!(!budget.exhausted(), "two fresh combinations, two claims");
        assert_eq!(
            scores,
            vec![
                eval(&d, &cfg, &a),
                eval(&d, &cfg, &b),
                eval(&d, &cfg, &a),
                eval(&d, &cfg, &a)
            ]
        );
    }

    #[test]
    fn parallel_folds_match_serial_scoring() {
        let d = dataset(2);
        let cfg = RpmConfig {
            n_validation_splits: 3,
            ..RpmConfig::default()
        };
        let batch = [SaxConfig::new(20, 4, 4), SaxConfig::new(24, 6, 5)];
        let serial = score_on(Engine::serial(), &d, &cfg, &batch);
        for threads in [2, 4] {
            let parallel = score_on(Engine::new(threads), &d, &cfg, &batch);
            for (s, p) in serial.iter().zip(&parallel) {
                let (s, p) = (s.as_ref().expect("scorable"), p.as_ref().expect("scorable"));
                assert_eq!(s.0, p.0);
                assert_eq!(
                    s.1.to_bits(),
                    p.1.to_bits(),
                    "fold reduction order preserved"
                );
            }
        }
    }

    #[test]
    fn shared_direct_search_returns_uniform_configs() {
        let d = dataset(4);
        let cfg = RpmConfig {
            param_search: ParamSearch::Direct {
                max_evals: 6,
                per_class: false,
            },
            n_validation_splits: 1,
            ..RpmConfig::default()
        };
        let out = search_parameters(&d, &cfg).unwrap();
        assert_eq!(out.per_class.len(), 2);
        let first = out.per_class[&0];
        assert_eq!(
            out.per_class[&1], first,
            "shared mode: same config everywhere"
        );
        assert!(out.evaluations >= 1);
    }

    #[test]
    fn grid_search_picks_feasible_configs() {
        let d = dataset(5);
        let cfg = RpmConfig {
            param_search: ParamSearch::Grid {
                windows: vec![16, 24],
                paas: vec![4],
                alphas: vec![4],
                per_class: true,
            },
            n_validation_splits: 1,
            ..RpmConfig::default()
        };
        let out = search_parameters(&d, &cfg).unwrap();
        assert_eq!(out.per_class.len(), 2);
        for s in out.per_class.values() {
            assert!(s.window == 16 || s.window == 24);
        }
        assert!(out.evaluations <= 2);
    }

    #[test]
    fn grid_search_skips_infeasible_windows() {
        let d = dataset(6);
        let cfg = RpmConfig {
            param_search: ParamSearch::Grid {
                windows: vec![500],
                paas: vec![4],
                alphas: vec![4],
                per_class: false,
            },
            n_validation_splits: 1,
            ..RpmConfig::default()
        };
        let out = search_parameters(&d, &cfg).unwrap();
        assert_eq!(out.evaluations, 0);
        // Falls back to a sane default rather than panicking.
        assert!(out.per_class[&0].window <= 96);
    }

    #[test]
    fn parallel_grid_search_matches_serial() {
        let d = dataset(8);
        let base = RpmConfig {
            param_search: ParamSearch::Grid {
                windows: vec![16, 24],
                paas: vec![4],
                alphas: vec![3, 4],
                per_class: true,
            },
            n_validation_splits: 1,
            n_threads: 1,
            ..RpmConfig::default()
        };
        let serial = search_parameters(&d, &base).unwrap();
        let parallel = search_parameters(
            &d,
            &RpmConfig {
                n_threads: 4,
                ..base
            },
        )
        .unwrap();
        assert_eq!(serial.per_class, parallel.per_class);
        assert_eq!(serial.evaluations, parallel.evaluations);
    }

    #[test]
    fn parallel_direct_search_matches_serial() {
        let d = dataset(9);
        let base = RpmConfig {
            param_search: ParamSearch::Direct {
                max_evals: 4,
                per_class: true,
            },
            n_validation_splits: 1,
            n_threads: 1,
            ..RpmConfig::default()
        };
        let serial = search_parameters(&d, &base).unwrap();
        let parallel = search_parameters(
            &d,
            &RpmConfig {
                n_threads: 4,
                ..base
            },
        )
        .unwrap();
        assert_eq!(serial.per_class, parallel.per_class);
        assert_eq!(serial.evaluations, parallel.evaluations);
    }

    #[test]
    fn a_deadline_stops_a_grid_search_part_way() {
        let d = dataset(8);
        for n_threads in [1, 2] {
            let cfg = RpmConfig {
                param_search: ParamSearch::Grid {
                    windows: vec![16, 20, 24, 28],
                    paas: vec![4],
                    alphas: vec![3, 4],
                    per_class: false,
                },
                n_validation_splits: 1,
                n_threads,
                budget: crate::config::TrainBudget {
                    max_evals: None,
                    wall_clock: Some(Duration::from_millis(1)),
                },
                ..RpmConfig::default()
            };
            // The grid is one batch whose 8 points claim their budget at
            // once, but each (point × split) job checks the deadline as
            // it starts, and the jobs that start after it do not run.
            let out = search_parameters(&d, &cfg).unwrap();
            assert!(out.degraded, "{n_threads} threads: the deadline tripped");
            assert!(out.evaluations < 8, "{n_threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "fixed strategy")]
    fn fixed_strategy_panics_in_search() {
        let d = dataset(7);
        let cfg = RpmConfig::fixed(SaxConfig::new(8, 4, 4));
        let _ = search_parameters(&d, &cfg);
    }
}
