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
//! Every mode runs on the shared training engine with deterministic
//! merges, so `n_threads > 1` returns bit-identical outcomes to serial:
//! grid points evaluate in parallel but reduce serially in enumeration
//! order; per-class DIRECT runs are independent and merge in class order;
//! shared DIRECT batches its proposals inside the optimizer. Combination
//! scores are memoized in the run's [`SaxCache`], so overlapping DIRECT
//! probes pay for each distinct combination once.

use crate::budget::BudgetState;
use crate::cache::{Ctx, SaxCache, SetId};
use crate::config::{ParamSearch, RpmConfig};
use crate::engine::{Engine, EngineError};
use crate::model::{RpmClassifier, TrainError};
use rpm_ml::{macro_f1, per_class_f1, shuffled_stratified_split};
use rpm_opt::{direct_minimize_integer, DirectParams};
use rpm_sax::SaxConfig;
use rpm_ts::{Dataset, Label};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
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

/// Scores one parameter combination: mean F-measure over the validation
/// splits, per class (map) plus macro. Returns `Ok(None)` when no split
/// could train (no candidates / degenerate split); `Err` when a fold
/// worker failed. Memoized per [`SaxConfig`] in the run's cache.
fn evaluate_combination(
    train: &Dataset,
    config: &RpmConfig,
    sax: &SaxConfig,
    ctx: &Ctx<'_>,
) -> Result<Option<CombinationScore>, TrainError> {
    let mut failure: Option<TrainError> = None;
    let value = ctx.cache.eval(sax, || {
        // Only fresh evaluations spend budget; cache hits and
        // checkpoint-restored scores short-circuit above this closure.
        if let Some(budget) = ctx.budget {
            if !budget.try_claim() {
                return None; // unscored: the search degrades to best-so-far
            }
        }
        let t0 = rpm_obs::enabled().then(rpm_obs::now_ns);
        // The unwind boundary makes a panicking evaluation — the
        // `params.eval` fault site, or a genuine bug — a typed error on
        // every search path, including shared DIRECT where the objective
        // runs outside any engine job.
        let out = match catch_unwind(AssertUnwindSafe(|| {
            rpm_obs::fault::fire("params.eval");
            evaluate_combination_uncached(train, config, sax, ctx)
        })) {
            Ok(Ok(v)) => v,
            Ok(Err(e)) => {
                failure = Some(e);
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                failure = Some(TrainError::Engine(EngineError::WorkerPanicked(msg)));
                None
            }
        };
        if let Some(t0) = t0 {
            let m = rpm_obs::metrics();
            m.params_evals.inc();
            m.params_eval.observe(rpm_obs::now_ns().saturating_sub(t0));
        }
        if failure.is_none() {
            if let Some(checkpoint) = ctx.checkpoint {
                checkpoint.record(sax, &out);
            }
        }
        out
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(value),
    }
}

fn evaluate_combination_uncached(
    train: &Dataset,
    config: &RpmConfig,
    sax: &SaxConfig,
    ctx: &Ctx<'_>,
) -> Result<Option<CombinationScore>, TrainError> {
    let _span = rpm_obs::span!("eval");
    let classes = train.classes();
    let n_splits = config.n_validation_splits.max(1);

    // Folds fan out on the engine (serial in practice when a grid point /
    // DIRECT class already spent the budget); the reduction below walks
    // them in split order, so the float sums match the serial loop.
    let folds = ctx.engine.run(n_splits, |split_idx| {
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
        // Avoid nested parameter search: train with these explicit
        // configs. The fold context is keyed by the split's identity so
        // cached transform columns never leak across different subsets
        // (frames are keyed by series, so the split shares them).
        let fold_ctx = ctx.serial().with_set(SetId::Split(split_seed));
        let model = match RpmClassifier::train_with_configs_ctx(
            &sub_train,
            config,
            &per_class_sax,
            &fold_ctx,
        ) {
            Ok(m) => m,
            Err(_) => return None, // pruning: abandon this combination's split
        };
        let preds = model.predict_batch(&validate.series);
        Some((
            per_class_f1(&validate.labels, &preds),
            macro_f1(&validate.labels, &preds),
        ))
    })?;

    let mut f_sums: BTreeMap<Label, f64> = classes.iter().map(|&c| (c, 0.0)).collect();
    let mut macro_sum = 0.0;
    let mut scored_splits = 0usize;
    for (f1s, macro_f) in folds.into_iter().flatten() {
        for (c, f) in f1s {
            *f_sums.entry(c).or_insert(0.0) += f;
        }
        macro_sum += macro_f;
        scored_splits += 1;
    }
    if scored_splits == 0 {
        return Ok(None);
    }
    let n = scored_splits as f64;
    for f in f_sums.values_mut() {
        *f /= n;
    }
    Ok(Some((f_sums, macro_sum / n)))
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

fn direct_params_for(
    max_evals: usize,
    n_threads: usize,
    wall_clock: Option<Duration>,
) -> DirectParams {
    DirectParams {
        // Raw proposals; distinct integer points are cached, and roughly
        // half the proposals round onto already-seen combinations.
        max_evals: max_evals * 2,
        max_iters: 40,
        eps: 1e-4,
        n_threads,
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

    if per_class {
        // One independent DIRECT run per class: classes fan out across
        // the engine's workers, each run serial inside. The objective
        // returns `f64`, so a fold failure is parked in a slot and
        // re-raised once the optimizer returns.
        let runs = ctx.engine.map(&classes, |_, &target| {
            let sub = ctx.serial();
            let failure: Mutex<Option<TrainError>> = Mutex::new(None);
            let (point, _f, n) = direct_minimize_integer(
                |p| {
                    let sax = sax_from_point(p);
                    match evaluate_combination(train, config, &sax, &sub) {
                        Ok(Some((per_cls, _))) => {
                            1.0 - per_cls.get(&target).copied().unwrap_or(0.0)
                        }
                        Ok(None) => 1.0,
                        Err(e) => {
                            if let Ok(mut slot) = failure.lock() {
                                slot.get_or_insert(e);
                            }
                            1.0
                        }
                    }
                },
                &lo,
                &hi,
                &direct_params_for(max_evals, 1, ctx.budget.and_then(BudgetState::remaining)),
            );
            match failure.into_inner().ok().flatten() {
                Some(e) => Err(e),
                None => Ok((sax_from_point(&point), n)),
            }
        })?;
        // Merge in ascending class order, exactly like the serial loop.
        let mut evaluations = 0usize;
        let mut per_class_out: BTreeMap<Label, SaxConfig> = BTreeMap::new();
        for (&target, run) in classes.iter().zip(runs) {
            let (sax, n) = run?;
            evaluations += n;
            per_class_out.insert(target, sax);
        }
        Ok(SearchOutcome {
            per_class: per_class_out,
            evaluations,
            degraded: false,
        })
    } else {
        // One shared run: parallelism lives inside the optimizer, which
        // batch-evaluates its proposals over the engine's worker count.
        let fold_ctx = ctx.serial();
        let failure: Mutex<Option<TrainError>> = Mutex::new(None);
        let (point, _f, n) = direct_minimize_integer(
            |p| {
                let sax = sax_from_point(p);
                match evaluate_combination(train, config, &sax, &fold_ctx) {
                    Ok(Some((_, macro_f))) => 1.0 - macro_f,
                    Ok(None) => 1.0,
                    Err(e) => {
                        if let Ok(mut slot) = failure.lock() {
                            slot.get_or_insert(e);
                        }
                        1.0
                    }
                }
            },
            &lo,
            &hi,
            &direct_params_for(
                max_evals,
                ctx.engine.n_threads(),
                ctx.budget.and_then(BudgetState::remaining),
            ),
        );
        if let Some(e) = failure.into_inner().ok().flatten() {
            return Err(e);
        }
        let sax = sax_from_point(&point);
        Ok(SearchOutcome {
            per_class: classes.iter().map(|&c| (c, sax)).collect(),
            evaluations: n,
            degraded: false,
        })
    }
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

    // Every point evaluates in parallel; the reduction below is serial
    // and walks enumeration order with strict `>` comparisons, so ties
    // keep the earliest point — bit-identical to the serial search.
    let scores = ctx.engine.map(&points, |_, sax| {
        evaluate_combination(train, config, sax, &ctx.serial())
    })?;

    let mut best: BTreeMap<Label, (f64, SaxConfig)> = BTreeMap::new();
    let mut best_shared: (f64, Option<SaxConfig>) = (-1.0, None);
    let mut evaluations = 0usize;
    for (sax, score) in points.iter().zip(scores) {
        let Some((per_cls, macro_f)) = score? else {
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

    fn eval(d: &Dataset, cfg: &RpmConfig, sax: &SaxConfig) -> Option<(BTreeMap<Label, f64>, f64)> {
        let cache = SaxCache::default();
        let ctx = Ctx::new(Engine::serial(), &cache);
        evaluate_combination(d, cfg, sax, &ctx).unwrap()
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
        let first = evaluate_combination(&d, &cfg, &sax, &ctx).unwrap();
        let evals_after_first = cache.stats();
        let second = evaluate_combination(&d, &cfg, &sax, &ctx).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            cache.stats().hits,
            evals_after_first.hits + 1,
            "second score answered from memory"
        );
    }

    #[test]
    fn parallel_folds_match_serial_scoring() {
        let d = dataset(2);
        let cfg = RpmConfig {
            n_validation_splits: 3,
            ..RpmConfig::default()
        };
        let sax = SaxConfig::new(20, 4, 4);
        let serial = eval(&d, &cfg, &sax);
        let cache = SaxCache::default();
        let ctx = Ctx::new(Engine::new(4), &cache);
        let parallel = evaluate_combination(&d, &cfg, &sax, &ctx).unwrap();
        let (s, p) = (serial.expect("scorable"), parallel.expect("scorable"));
        assert_eq!(s.0, p.0);
        assert_eq!(
            s.1.to_bits(),
            p.1.to_bits(),
            "fold reduction order preserved"
        );
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
    #[should_panic(expected = "fixed strategy")]
    fn fixed_strategy_panics_in_search() {
        let d = dataset(7);
        let cfg = RpmConfig::fixed(SaxConfig::new(8, 4, 4));
        let _ = search_parameters(&d, &cfg);
    }
}
