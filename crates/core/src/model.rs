//! The RPM classifier (training stage §3.2, classification stage §3.1).

use crate::cache::{CacheStats, Ctx, SaxCache};
use crate::candidates::{find_candidates_for_class_ctx, Candidate, CandidateSet};
use crate::config::{ParamSearch, RpmConfig};
use crate::distinct::select_representative_ctx;
use crate::engine::{Engine, EngineError};
use crate::params::search_parameters_ctx;
use crate::transform::{transform_set_ctx, PatternSet};
use crate::usage::{render_usage, PatternStats, PatternUsage};
use rpm_ml::{LinearSvm, SvmParams};
use rpm_sax::SaxConfig;
use rpm_ts::{Dataset, Label, Parallelism, ScanCounters};
use std::collections::BTreeMap;
use std::fmt;

/// A trained representative pattern — the candidate that survived
/// Algorithm 2's selection.
pub type Pattern = Candidate;

/// Training failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// The training set is empty.
    EmptyTrainingSet,
    /// Training data holds fewer than two classes.
    TooFewClasses,
    /// No class produced any candidate under the chosen SAX parameters
    /// (window too long, γ too strict, or nothing repeats).
    NoCandidates,
    /// A training-engine worker failed (a panic inside a parallel stage,
    /// surfaced as an error instead of aborting the process).
    Engine(EngineError),
    /// The parameter-search checkpoint could not be opened or resumed
    /// (corrupt file, unsupported version, or a context mismatch —
    /// resuming against different data or scoring configuration would
    /// silently produce a different model, so it is refused).
    Checkpoint(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTrainingSet => write!(f, "training set is empty"),
            Self::TooFewClasses => write!(f, "training data holds fewer than two classes"),
            Self::NoCandidates => {
                write!(
                    f,
                    "no candidate patterns found; relax gamma or the SAX parameters"
                )
            }
            Self::Engine(e) => write!(f, "training failed: {e}"),
            Self::Checkpoint(msg) => write!(f, "checkpoint unusable: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<EngineError> for TrainError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

/// A trained RPM model: the representative patterns plus the SVM over the
/// transformed feature space.
#[derive(Clone, Debug)]
pub struct RpmClassifier {
    pub(crate) patterns: Vec<Pattern>,
    /// The patterns prepared for matching (same order as `patterns`):
    /// plans and the pattern-set scanner are built once at construction
    /// and shared by every `transform`/`predict` call. Rebuilt with the
    /// default kernel when a model is loaded from disk — the kernel is
    /// an execution strategy, not part of the persisted model.
    pub(crate) set: PatternSet,
    pub(crate) svm: LinearSvm,
    pub(crate) per_class_sax: BTreeMap<Label, SaxConfig>,
    pub(crate) rotation_invariant: bool,
    pub(crate) early_abandon: bool,
    /// True when the parameter search ran out of its [`crate::TrainBudget`]
    /// and the model was fit with best-so-far parameters; persisted so a
    /// loaded model still discloses it.
    pub(crate) degraded: bool,
    /// Memoization-cache counters of the training run that produced this
    /// model (zero for models loaded from disk).
    pub(crate) cache_stats: CacheStats,
    /// Serving-path utilization accumulators (one slot per pattern);
    /// populated only while `rpm-obs` is enabled, never persisted.
    pub(crate) usage: PatternUsage,
    /// Training-time reference profile: per-predicted-class distributions
    /// of the drift metrics over the training set, persisted as the
    /// optional `profile` section of model v2 files. `None` for models
    /// saved before the section existed — drift detection then reports
    /// `unavailable` instead of guessing.
    pub(crate) profile: Option<rpm_obs::ReferenceProfile>,
}

/// Reduces one classified series to the quantities the drift sketches
/// track: the winning closest-match distance, the class margin (runner-up
/// class's best distance minus the winning class's), and input summary
/// statistics. `row` is the series' feature vector (one distance per
/// pattern, aligned with `pattern_classes`).
fn drift_sample(
    series: &[f64],
    row: &[f64],
    pattern_classes: &[Label],
    label: Label,
) -> rpm_obs::DriftSample {
    let mut class_best: BTreeMap<Label, f64> = BTreeMap::new();
    for (&class, &d) in pattern_classes.iter().zip(row) {
        let e = class_best.entry(class).or_insert(f64::INFINITY);
        if d < *e {
            *e = d;
        }
    }
    let mut dists: Vec<f64> = class_best.into_values().collect();
    dists.sort_by(f64::total_cmp);
    let best_distance = dists.first().copied().unwrap_or(0.0);
    let margin = if dists.len() > 1 {
        (dists[1] - dists[0]).max(0.0)
    } else {
        0.0
    };
    let n = series.len().max(1) as f64;
    let mean = series.iter().sum::<f64>() / n;
    let var = series
        .iter()
        .map(|v| {
            let d = v - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    let stddev = var.sqrt();
    let z_extreme = if stddev > 0.0 {
        series
            .iter()
            .map(|v| ((v - mean) / stddev).abs())
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    rpm_obs::DriftSample {
        class: label,
        best_distance,
        margin,
        len: series.len(),
        mean,
        stddev,
        z_extreme,
    }
}

/// How [`RpmClassifier::predict_batch_with`] runs a batch, and what it
/// reports besides the labels. The default is serial with nothing
/// attached — [`RpmClassifier::predict_batch`].
#[derive(Clone, Copy, Default)]
pub struct PredictOptions<'a> {
    /// On the caller's thread, or fanned out over engine workers.
    pub parallelism: Parallelism,
    /// Per-request kernel counters (the request-tracing path): searches,
    /// windows, prunes, abandons and match time of this batch alone.
    pub counters: Option<&'a ScanCounters>,
    /// Drift monitor receiving one sample per series.
    pub drift: Option<&'a rpm_obs::DriftMonitor>,
}

impl RpmClassifier {
    /// Trains on `train` per `config`, running the configured SAX
    /// parameter search first (§4), then Algorithms 1 + 2, then the SVM.
    pub fn train(train: &Dataset, config: &RpmConfig) -> Result<Self, TrainError> {
        if config.obs.level != rpm_obs::ObsLevel::Off {
            config.obs.install();
        }
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        let classes = train.classes();
        if classes.len() < 2 {
            return Err(TrainError::TooFewClasses);
        }
        let _train_span = rpm_obs::span!("train");
        // One cache and one engine serve both the parameter search and
        // the final fit: cached values are pure functions of their keys,
        // so combinations probed by the search stay warm for the final
        // training pass (and the surfaced CacheStats cover the whole
        // call).
        let cache = SaxCache::new(config.cache);
        // A checkpoint only makes sense when there is a search to resume;
        // fixed-parameter training ignores `config.checkpoint`.
        let searching = matches!(
            config.param_search,
            ParamSearch::Direct { .. } | ParamSearch::Grid { .. }
        );
        let checkpoint = match &config.checkpoint {
            Some(path) if searching => {
                let fingerprint = crate::checkpoint::context_fingerprint(train, config);
                let (cp, restored) = crate::checkpoint::Checkpoint::open(path, fingerprint)
                    .map_err(|e| TrainError::Checkpoint(e.to_string()))?;
                // Completed evaluations from the previous run become cache
                // hits: the search re-runs only the missing cells and the
                // resumed trajectory is bit-identical to an uninterrupted
                // one (eval scores are pure functions of their SaxConfig).
                for (sax, value) in restored {
                    cache.preload_eval(sax, value);
                }
                Some(cp)
            }
            _ => None,
        };
        let budget = crate::budget::BudgetState::new(&config.budget);
        let ctx = Ctx::new(Engine::new(config.n_threads), &cache)
            .with_budget(&budget)
            .with_checkpoint(checkpoint.as_ref());
        let (per_class_sax, degraded): (BTreeMap<Label, SaxConfig>, bool) =
            match &config.param_search {
                ParamSearch::Fixed(sax) => (classes.iter().map(|&c| (c, *sax)).collect(), false),
                ParamSearch::PerClassFixed(saxes) => {
                    assert_eq!(
                        saxes.len(),
                        classes.len(),
                        "PerClassFixed needs one SaxConfig per class"
                    );
                    (
                        classes.iter().copied().zip(saxes.iter().copied()).collect(),
                        false,
                    )
                }
                ParamSearch::Direct { .. } | ParamSearch::Grid { .. } => {
                    let outcome = search_parameters_ctx(train, config, &ctx)?;
                    (outcome.per_class, outcome.degraded)
                }
            };
        let mut model = Self::train_with_configs_ctx(train, config, &per_class_sax, &ctx)?;
        model.degraded = degraded;
        Ok(model)
    }

    /// Trains with explicit per-class SAX configurations (the §4.3 path
    /// after parameter learning). Exposed for the parameter-search
    /// objective and the benchmarks. Runs on `config.n_threads` workers
    /// with the memoization cache from `config.cache`; results are
    /// identical to the serial path for any thread count.
    pub fn train_with_configs(
        train: &Dataset,
        config: &RpmConfig,
        per_class_sax: &BTreeMap<Label, SaxConfig>,
    ) -> Result<Self, TrainError> {
        let cache = SaxCache::new(config.cache);
        let ctx = Ctx::new(Engine::new(config.n_threads), &cache);
        Self::train_with_configs_ctx(train, config, per_class_sax, &ctx)
    }

    /// [`RpmClassifier::train_with_configs`] inside an existing training
    /// context — the parameter search trains fold models through this so
    /// every stage shares one engine and one cache.
    pub(crate) fn train_with_configs_ctx(
        train: &Dataset,
        config: &RpmConfig,
        per_class_sax: &BTreeMap<Label, SaxConfig>,
        ctx: &Ctx<'_>,
    ) -> Result<Self, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        if train.n_classes() < 2 {
            return Err(TrainError::TooFewClasses);
        }
        let _fit_span = rpm_obs::span!("fit");

        // --- Algorithm 1 per class, fanned out across the engine's
        //     workers. The SAX lookup happens before the fan-out so a
        //     missing class still panics on the caller's thread.
        let mine_span = rpm_obs::span!("mine");
        let views = train.by_class();
        let saxes: Vec<SaxConfig> = views
            .iter()
            .map(|view| {
                per_class_sax
                    .get(&view.label)
                    .copied()
                    .unwrap_or_else(|| panic!("missing SaxConfig for class {}", view.label))
            })
            .collect();
        let sets: Vec<CandidateSet> = ctx.engine.map(&views, |i, view| {
            find_candidates_for_class_ctx(
                &view.members,
                view.label,
                &saxes[i],
                config,
                &ctx.serial(),
            )
        })?;
        // Merge in ascending-label order (`by_class` order), exactly as
        // the serial per-class loop did.
        let mut all_candidates: Vec<Candidate> = Vec::new();
        let mut tau_pool: Vec<f64> = Vec::new();
        for set in sets {
            all_candidates.extend(set.candidates);
            tau_pool.extend(set.intra_cluster_distances);
        }
        if all_candidates.is_empty() {
            return Err(TrainError::NoCandidates);
        }
        drop(mine_span);

        // --- Algorithm 2 over the pooled candidates.
        let mut selected = select_representative_ctx(
            all_candidates.clone(),
            &tau_pool,
            &train.series,
            &train.labels,
            config,
            ctx,
        )?;
        if selected.is_empty() {
            // CFS can in principle reject everything on degenerate data;
            // fall back to the deduplicated pool so training still works.
            selected = all_candidates;
        }

        // --- SVM over the transformed training set (training data is
        //     clean, so the plain transform is used here even when
        //     rotation-invariant classification is requested; §6.1). The
        //     selected patterns' columns were cached by the CFS transform
        //     above, so this pass is mostly cache hits.
        let pattern_values: Vec<Vec<f64>> = selected.iter().map(|c| c.values.clone()).collect();
        let svm_span = rpm_obs::span!("svm");
        let rows = transform_set_ctx(
            &train.series,
            &pattern_values,
            config.early_abandon,
            config.kernel,
            ctx,
        )?;
        let svm = LinearSvm::train(&rows, &train.labels, &config.svm);
        drop(svm_span);

        // --- Reference profile: the training-set distributions of the
        //     drift metrics, keyed by the model's *own* predictions so
        //     serve-time comparisons are apples-to-apples even where the
        //     model disagrees with the training labels.
        let profile_span = rpm_obs::span!("profile");
        let pattern_classes: Vec<Label> = selected.iter().map(|p| p.class).collect();
        let mut profile = rpm_obs::ReferenceProfile::new();
        for (series, row) in train.series.iter().zip(&rows) {
            let label = svm.predict(row);
            profile.observe(&drift_sample(series, row, &pattern_classes, label));
        }
        drop(profile_span);

        let usage = PatternUsage::new(pattern_values.len());
        Ok(Self {
            patterns: selected,
            set: PatternSet::new(&pattern_values, config.kernel),
            svm,
            per_class_sax: per_class_sax.clone(),
            rotation_invariant: config.rotation_invariant,
            early_abandon: config.early_abandon,
            degraded: false,
            cache_stats: ctx.cache.stats(),
            usage,
            profile: Some(profile),
        })
    }

    /// Transforms a series into this model's feature space, reusing the
    /// pattern set built at training (or load) time.
    pub fn transform(&self, series: &[f64]) -> Vec<f64> {
        self.feature_row(series, None)
    }

    /// One series' feature row; while `rpm-obs` is enabled it also feeds
    /// the `transform.series_ns` histogram.
    fn feature_row(&self, series: &[f64], counters: Option<&ScanCounters>) -> Vec<f64> {
        let start = rpm_obs::enabled().then(rpm_obs::now_ns);
        let row = self.set.row(
            series,
            self.rotation_invariant,
            self.early_abandon,
            counters,
        );
        if let Some(start) = start {
            rpm_obs::metrics()
                .transform_series
                .observe(rpm_obs::now_ns().saturating_sub(start));
        }
        row
    }

    /// One series through the model: its feature row and label. While
    /// `rpm-obs` is enabled this also counts the series, feeds the
    /// `predict.latency_ns`/`predict.match_distance` histograms and the
    /// per-pattern utilization accumulators. Instrumentation only
    /// observes — labels are bit-identical either way.
    fn classify(&self, series: &[f64], counters: Option<&ScanCounters>) -> (Vec<f64>, Label) {
        if !rpm_obs::enabled() {
            let row = self.feature_row(series, counters);
            let label = self.svm.predict(&row);
            return (row, label);
        }
        let start = rpm_obs::now_ns();
        let row = self.feature_row(series, counters);
        self.usage.note(&row);
        let label = self.svm.predict(&row);
        let m = rpm_obs::metrics();
        m.predict_series.inc();
        m.predict_latency
            .observe(rpm_obs::now_ns().saturating_sub(start));
        (row, label)
    }

    /// Predicts the class label of one series.
    pub fn predict(&self, series: &[f64]) -> Label {
        self.classify(series, None).1
    }

    /// Predicts a batch serially:
    /// [`predict_batch_with`](Self::predict_batch_with) with the default
    /// [`PredictOptions`]. The batch is *borrowed*: any slice whose items
    /// view as `&[f64]` works (`&[Vec<f64>]` from a dataset, `&[&[f64]]`
    /// gathered across request buffers) — no sample data is copied to
    /// cross this call.
    pub fn predict_batch<S: AsRef<[f64]> + Sync>(&self, series: &[S]) -> Vec<Label> {
        self.predict_batch_with(series, PredictOptions::default())
            .expect("serial prediction runs no engine workers")
    }

    /// The batch entry point: predicts every series in the borrowed batch
    /// as `options` asks.
    ///
    /// [`Parallelism::Serial`] classifies on the caller's thread and
    /// cannot fail; [`Parallelism::Threads`] classifies on that many
    /// engine workers with bit-identical labels, a worker panic
    /// surfacing as an [`EngineError`] instead of aborting the process.
    /// Attached [`ScanCounters`] receive this batch's kernel work, and an
    /// attached [`rpm_obs::DriftMonitor`] one sample per series, derived
    /// from the same feature row the SVM reads.
    pub fn predict_batch_with<S: AsRef<[f64]> + Sync>(
        &self,
        series: &[S],
        options: PredictOptions<'_>,
    ) -> Result<Vec<Label>, EngineError> {
        let _span = rpm_obs::span!("predict");
        rpm_obs::metrics().predict_batches.inc();
        let rows = match options.parallelism {
            Parallelism::Serial => series
                .iter()
                .map(|s| self.classify(s.as_ref(), options.counters))
                .collect(),
            threads => Engine::new(threads.workers())
                .map(series, |_, s| self.classify(s.as_ref(), options.counters))?,
        };
        if let Some(monitor) = options.drift {
            let classes: Vec<Label> = self.patterns.iter().map(|p| p.class).collect();
            for (s, (row, label)) in series.iter().zip(&rows) {
                monitor.observe(&drift_sample(s.as_ref(), row, &classes, *label));
            }
        }
        Ok(rows.into_iter().map(|(_, label)| label).collect())
    }

    /// The training-time drift reference profile, when the model carries
    /// one (models persisted before the `profile` section return `None`).
    pub fn reference_profile(&self) -> Option<&rpm_obs::ReferenceProfile> {
        self.profile.as_ref()
    }

    /// Per-pattern utilization accumulated on the serving path while
    /// `rpm-obs` is enabled: argmin (closest-match) counts and mean match
    /// distances, in pattern order. All zeros when observability was off.
    pub fn pattern_usage(&self) -> Vec<PatternStats> {
        self.usage.stats()
    }

    /// Predictions observed by the utilization tracker.
    pub fn usage_observations(&self) -> u64 {
        self.usage.observations()
    }

    /// Zeroes the utilization accumulators (e.g. between traffic
    /// windows).
    pub fn reset_pattern_usage(&self) {
        self.usage.reset();
    }

    /// Human-readable utilization table (see [`crate::usage`]): patterns
    /// by argmin share, dead patterns flagged.
    pub fn render_pattern_usage(&self) -> String {
        let classes: Vec<usize> = self.patterns.iter().map(|p| p.class).collect();
        render_usage(&self.usage.stats(), &classes)
    }

    /// Classifies every `hop`-strided window of a long streaming series,
    /// returning `(window start, predicted label)` pairs — the deployment
    /// shape for continuous monitoring (e.g. the §6.2 ICU feed, where the
    /// stream is scored window by window rather than pre-segmented).
    ///
    /// Windows shorter than `window` at the tail are skipped. `hop == 0`
    /// is clamped to 1.
    pub fn classify_stream(
        &self,
        stream: &[f64],
        window: usize,
        hop: usize,
    ) -> Vec<(usize, Label)> {
        let hop = hop.max(1);
        let mut out = Vec::new();
        if window == 0 || stream.len() < window {
            return out;
        }
        let mut start = 0;
        while start + window <= stream.len() {
            out.push((start, self.predict(&stream[start..start + window])));
            start += hop;
        }
        out
    }

    /// The learned representative patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Patterns belonging to one class.
    pub fn patterns_for_class(&self, class: Label) -> Vec<&Pattern> {
        self.patterns.iter().filter(|p| p.class == class).collect()
    }

    /// The per-class SAX configurations the model was trained with.
    pub fn sax_configs(&self) -> &BTreeMap<Label, SaxConfig> {
        &self.per_class_sax
    }

    /// Memoization-cache counters of the training run that produced this
    /// model (`CacheStats::default()` for models loaded from disk).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Whether rotation-invariant classification is enabled.
    pub fn is_rotation_invariant(&self) -> bool {
        self.rotation_invariant
    }

    /// Whether the parameter search exhausted its [`crate::TrainBudget`]
    /// before completing — the model was fit with the best parameters
    /// found so far and may score below a full search. Survives
    /// save/load.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The SVM hyper-parameters type, re-exported for convenience.
    pub fn svm_params_type() -> SvmParams {
        SvmParams::default()
    }

    /// The model's wire-visible shape, for serving-side compatibility
    /// checks: a hot reload must not change the label vocabulary
    /// clients see mid-flight.
    pub fn schema(&self) -> ModelSchema {
        ModelSchema {
            classes: self.per_class_sax.keys().copied().collect(),
            patterns: self.patterns.len(),
            rotation_invariant: self.rotation_invariant,
        }
    }
}

/// Shape summary of a trained model as seen over the wire. The serving
/// reload gate compares the incumbent's schema against a candidate's
/// before swapping: labels are part of the `/classify` contract, so a
/// candidate with a different class set is an operator error (wrong
/// file), not a retrain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSchema {
    /// Distinct class labels, ascending (the `/classify` vocabulary).
    pub classes: Vec<Label>,
    /// Representative patterns in the model (informational).
    pub patterns: usize,
    /// Whether rotation-invariant matching is enabled (informational).
    pub rotation_invariant: bool,
}

impl ModelSchema {
    /// Checks that `candidate` can replace a model with this schema
    /// without changing what clients observe. Only the class set is a
    /// hard gate; pattern count and rotation mode legitimately change
    /// across retrains.
    pub fn check_compat(&self, candidate: &ModelSchema) -> Result<(), SchemaMismatch> {
        if self.classes != candidate.classes {
            return Err(SchemaMismatch {
                incumbent_classes: self.classes.clone(),
                candidate_classes: candidate.classes.clone(),
            });
        }
        Ok(())
    }
}

/// Why a candidate model cannot replace the incumbent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaMismatch {
    /// Class labels the serving model answers with.
    pub incumbent_classes: Vec<Label>,
    /// Class labels the rejected candidate would answer with.
    pub candidate_classes: Vec<Label>,
}

impl std::fmt::Display for SchemaMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "class set changed: serving {:?}, candidate {:?}",
            self.incumbent_classes, self.candidate_classes
        )
    }
}

impl std::error::Error for SchemaMismatch {}

/// RPM through the shared [`rpm_ts::Classifier`] interface, so harnesses
/// can drive it and the baselines through one trait object.
impl rpm_ts::Classifier for RpmClassifier {
    fn predict(&self, series: &[f64]) -> Label {
        RpmClassifier::predict(self, series)
    }

    fn predict_batch_refs(&self, series: &[&[f64]]) -> Vec<Label> {
        RpmClassifier::predict_batch(self, series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use rpm_ts::{MatchPlan, ScanStats};

    /// Two-class set: class 0 plants an up-chirp, class 1 a down-chirp,
    /// at random positions.
    fn two_class_dataset(n_per_class: usize, len: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new("synthetic", Vec::new(), Vec::new());
        for class in 0..2usize {
            for _ in 0..n_per_class {
                let mut s: Vec<f64> = (0..len).map(|_| 0.2 * (rng.gen::<f64>() - 0.5)).collect();
                let motif = 24;
                let at = rng.gen_range(0..len - motif);
                for i in 0..motif {
                    let t = i as f64 / motif as f64;
                    let v = (std::f64::consts::TAU * (1.0 + 2.0 * t) * t).sin();
                    s[at + i] += 3.0 * if class == 0 { v } else { -v };
                }
                d.push(s, class);
            }
        }
        d
    }

    fn fixed_config() -> RpmConfig {
        RpmConfig::fixed(SaxConfig::new(24, 4, 4))
    }

    #[test]
    fn trains_and_classifies_plantd_motifs() {
        let train = two_class_dataset(12, 128, 1);
        let test = two_class_dataset(10, 128, 2);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        assert!(!model.patterns().is_empty());
        let preds = model.predict_batch(&test.series);
        let err = preds
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p != l)
            .count() as f64
            / preds.len() as f64;
        assert!(err <= 0.25, "error rate {err}");
    }

    #[test]
    fn patterns_carry_class_labels() {
        let train = two_class_dataset(12, 128, 3);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let classes: std::collections::BTreeSet<usize> =
            model.patterns().iter().map(|p| p.class).collect();
        assert!(!classes.is_empty());
        for &c in &classes {
            assert!(c < 2);
            assert_eq!(
                model.patterns_for_class(c).len(),
                model.patterns().iter().filter(|p| p.class == c).count()
            );
        }
    }

    #[test]
    fn transform_dimension_matches_pattern_count() {
        let train = two_class_dataset(12, 128, 4);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let f = model.transform(&train.series[0]);
        assert_eq!(f.len(), model.patterns().len());
    }

    #[test]
    fn empty_training_set_errors() {
        let d = Dataset::default();
        assert_eq!(
            RpmClassifier::train(&d, &fixed_config()).unwrap_err(),
            TrainError::EmptyTrainingSet
        );
    }

    #[test]
    fn single_class_errors() {
        let mut d = Dataset::default();
        d.push(vec![0.0; 64], 0);
        d.push(vec![1.0; 64], 0);
        assert_eq!(
            RpmClassifier::train(&d, &fixed_config()).unwrap_err(),
            TrainError::TooFewClasses
        );
    }

    #[test]
    fn oversized_window_gives_no_candidates() {
        let train = two_class_dataset(6, 40, 5);
        let cfg = RpmConfig::fixed(SaxConfig::new(64, 4, 4));
        assert_eq!(
            RpmClassifier::train(&train, &cfg).unwrap_err(),
            TrainError::NoCandidates
        );
    }

    #[test]
    fn per_class_fixed_configs_are_applied() {
        let train = two_class_dataset(12, 128, 6);
        let cfg = RpmConfig {
            param_search: ParamSearch::PerClassFixed(vec![
                SaxConfig::new(24, 4, 4),
                SaxConfig::new(32, 4, 5),
            ]),
            ..RpmConfig::default()
        };
        let model = RpmClassifier::train(&train, &cfg).unwrap();
        assert_eq!(model.sax_configs()[&0].window, 24);
        assert_eq!(model.sax_configs()[&1].window, 32);
    }

    #[test]
    fn rotation_invariant_flag_propagates() {
        let train = two_class_dataset(12, 128, 7);
        let cfg = RpmConfig {
            rotation_invariant: true,
            ..fixed_config()
        };
        let model = RpmClassifier::train(&train, &cfg).unwrap();
        assert!(model.is_rotation_invariant());
    }

    #[test]
    fn stream_classification_tracks_regime_changes() {
        let train = two_class_dataset(12, 128, 31);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        // A stream that is class 0 for its first half and class 1 after.
        let probe = two_class_dataset(1, 128, 32);
        let mut stream = probe.series[probe.labels.iter().position(|&l| l == 0).unwrap()].clone();
        stream.extend_from_slice(&probe.series[probe.labels.iter().position(|&l| l == 1).unwrap()]);
        let verdicts = model.classify_stream(&stream, 128, 64);
        assert_eq!(verdicts.len(), 3); // starts 0, 64, 128
        assert_eq!(verdicts[0], (0, 0));
        assert_eq!(verdicts[2], (128, 1));
    }

    #[test]
    fn stream_edge_cases() {
        let train = two_class_dataset(10, 128, 33);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        assert!(model.classify_stream(&[1.0; 10], 128, 1).is_empty());
        assert!(model.classify_stream(&[1.0; 200], 0, 1).is_empty());
        // hop 0 clamps to 1 and terminates.
        let v = model.classify_stream(&train.series[0], 128, 0);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn parallel_training_matches_serial() {
        let train = two_class_dataset(10, 128, 40);
        let test = two_class_dataset(6, 128, 41);
        let serial = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let parallel_cfg = RpmConfig {
            n_threads: 4,
            ..fixed_config()
        };
        let parallel = RpmClassifier::train(&train, &parallel_cfg).unwrap();
        assert_eq!(
            serial.predict_batch(&test.series),
            parallel.predict_batch(&test.series)
        );
        assert_eq!(serial.patterns().len(), parallel.patterns().len());
        let threaded = PredictOptions {
            parallelism: Parallelism::Threads(4),
            ..PredictOptions::default()
        };
        let batched = parallel.predict_batch_with(&test.series, threaded).unwrap();
        assert_eq!(batched, serial.predict_batch(&test.series));
    }

    #[test]
    fn every_batch_option_keeps_labels_and_feeds_what_is_attached() {
        let train = two_class_dataset(10, 128, 46);
        let test = two_class_dataset(4, 128, 47);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let plain = model.predict_batch(&test.series);
        // The serving shape: slices borrowed from buffers owned elsewhere.
        let refs: Vec<&[f64]> = test.series.iter().map(Vec::as_slice).collect();
        let classes: Vec<Label> = model.patterns().iter().map(|p| p.class).collect();
        // A reference holding exactly the samples each series should
        // produce, its best distance taken as the row minimum: a monitor
        // fed the right samples scores zero drift on every metric.
        let mut expected = rpm_obs::ReferenceProfile::new();
        for (s, &label) in test.series.iter().zip(&plain) {
            let row = model.transform(s);
            let sample = drift_sample(s, &row, &classes, label);
            let row_min = row.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(sample.best_distance, row_min);
            expected.observe(&sample);
        }
        let drift_config = rpm_obs::DriftConfig {
            min_samples: 1,
            ..rpm_obs::DriftConfig::default()
        };
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            for counted in [false, true] {
                for watched in [false, true] {
                    let case = format!("{parallelism:?} counted={counted} watched={watched}");
                    let counters = ScanCounters::new();
                    let monitor = rpm_obs::DriftMonitor::new(&expected, drift_config);
                    let options = PredictOptions {
                        parallelism,
                        counters: counted.then_some(&counters),
                        drift: watched.then_some(&monitor),
                    };
                    let labels = model.predict_batch_with(&refs, options).unwrap();
                    assert_eq!(labels, plain, "{case}");
                    let stats = counters.snapshot();
                    if counted {
                        assert!(stats.searches > 0, "{case}: {stats:?}");
                        assert!(stats.windows >= stats.searches, "{case}");
                    } else {
                        assert_eq!(stats, rpm_ts::ScanStats::default(), "{case}");
                    }
                    let report = monitor.report();
                    let fed = if watched { refs.len() as u64 } else { 0 };
                    assert_eq!(report.live_samples, fed, "{case}");
                    if watched {
                        assert_eq!(report.max_psi(), 0.0, "{case}: {report:?}");
                    }
                }
            }
        }
    }

    /// A model over arbitrary prepared plans — empty, constant, oversized
    /// and `Naive`-pinned ones included, which training never yields —
    /// with an SVM fit on their rows of `fit` (two or more series).
    fn model_over(
        plans: &[MatchPlan],
        fit: &[Vec<f64>],
        rotation_invariant: bool,
    ) -> RpmClassifier {
        let set = PatternSet::from_plans(plans);
        let rows: Vec<Vec<f64>> = fit.iter().map(|s| set.row(s, false, true, None)).collect();
        let labels: Vec<Label> = (0..fit.len()).map(|i| i % 2).collect();
        let patterns = plans
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate {
                class: i % 2,
                values: p.raw().to_vec(),
                frequency: 1,
                coverage: 1,
                sax: SaxConfig::new(4, 2, 3),
            })
            .collect();
        RpmClassifier {
            patterns,
            set,
            svm: LinearSvm::train(&rows, &labels, &SvmParams::default()),
            per_class_sax: BTreeMap::new(),
            rotation_invariant,
            early_abandon: true,
            degraded: false,
            cache_stats: CacheStats::default(),
            usage: PatternUsage::new(plans.len()),
            profile: None,
        }
    }

    fn walk(len: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut acc = 0.0;
        (0..len)
            .map(|_| {
                acc += rng.gen::<f64>() - 0.5;
                acc
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The batch's kernel counters add up, and do not depend on how
        /// the batch was spread over workers.
        #[test]
        fn scan_counters_reconcile_across_parallelism(
            kinds in proptest::collection::vec(0u32..4, 1..9),
            lens in proptest::collection::vec(1usize..72, 8),
            series_lens in proptest::collection::vec(8usize..96, 2..6),
            threads in 2usize..5,
            rotation in 0u32..2,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let plans: Vec<MatchPlan> = kinds
                .iter()
                .zip(&lens)
                .map(|(kind, &n)| match kind {
                    0 => MatchPlan::new(&walk(n, &mut rng)),
                    1 => MatchPlan::new(&vec![1.5; n]),
                    2 => MatchPlan::with_kernel(&walk(n, &mut rng), rpm_ts::MatchKernel::Naive),
                    _ => MatchPlan::new(&[]),
                })
                .collect();
            let batch: Vec<Vec<f64>> = series_lens.iter().map(|&n| walk(n, &mut rng)).collect();
            let model = model_over(&plans, &batch, rotation == 1);
            let scan = |parallelism| {
                let counters = ScanCounters::new();
                let options = PredictOptions {
                    parallelism,
                    counters: Some(&counters),
                    drift: None,
                };
                let labels = model.predict_batch_with(&batch, options).unwrap();
                (labels, ScanStats { match_ns: 0, ..counters.snapshot() })
            };
            let (serial_labels, serial) = scan(Parallelism::Serial);
            let (threaded_labels, threaded) = scan(Parallelism::Threads(threads));
            proptest::prop_assert_eq!(&serial_labels, &threaded_labels);
            proptest::prop_assert_eq!(serial, threaded);
            proptest::prop_assert!(serial.pruned_envelope + serial.abandoned <= serial.windows);
            let views = 1 + rotation as usize;
            let windows: usize = batch
                .iter()
                .map(|s| {
                    plans
                        .iter()
                        .filter(|p| !p.is_empty() && p.len() <= s.len())
                        .map(|p| s.len() - p.len() + 1)
                        .sum::<usize>()
                })
                .sum();
            proptest::prop_assert_eq!(serial.windows, (views * windows) as u64);
        }
    }

    #[test]
    fn training_builds_a_reference_profile() {
        let train = two_class_dataset(10, 128, 50);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let profile = model.reference_profile().expect("training always profiles");
        assert_eq!(profile.total_samples(), train.series.len() as u64);
        // The model predicts both classes on its own training set, so the
        // profile holds a sketch per class.
        assert_eq!(profile.class_labels(), vec![0, 1]);
    }

    #[test]
    fn classifier_trait_dispatches_to_rpm() {
        let train = two_class_dataset(10, 128, 42);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let as_trait: &dyn rpm_ts::Classifier = &model;
        let direct = model.predict_batch(&train.series);
        let via_trait = rpm_ts::Classifier::predict_batch(&as_trait, &train.series);
        assert_eq!(direct, via_trait);
        let refs: Vec<&[f64]> = train.series.iter().map(Vec::as_slice).collect();
        assert_eq!(direct, as_trait.predict_batch_refs(&refs));
    }

    #[test]
    fn training_is_deterministic() {
        let train = two_class_dataset(10, 128, 8);
        let m1 = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let m2 = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let test = two_class_dataset(5, 128, 9);
        assert_eq!(
            m1.predict_batch(&test.series),
            m2.predict_batch(&test.series)
        );
        assert_eq!(m1.patterns().len(), m2.patterns().len());
    }
}
