//! The training path, end to end and layer by layer.
//!
//! End to end, a model is trained with `RpmClassifier::train` and
//! timed. Layer by layer, the benchmark reads the counters the program
//! exposes during that call (parameter search, memo caches, match
//! kernel), times `search_parameters` on its own, and replays the final
//! fit's stages through each layer's public function with the chosen
//! SAX parameters: SAX discretisation, grammar inference, candidate
//! mining, near-duplicate removal, the selection transform, CFS and the
//! SVM. `fit.other_s` is what a whole fit takes beyond those stages.

use rpm_core::{
    compute_tau, find_candidates_for_class, remove_similar_kernel, search_parameters,
    transform_set, ParamSearch, RpmClassifier, RpmConfig,
};
use rpm_grammar::{infer, infer_repair, Token};
use rpm_ml::{cfs_select, LinearSvm};
use rpm_obs::metrics::MetricsSnapshot;
use rpm_sax::{discretize, SaxConfig, SaxWord};
use rpm_ts::{Dataset, Label};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Trains one model, returning it with the wall time of the call.
pub fn train_timed(train: &Dataset, config: &RpmConfig) -> Result<(RpmClassifier, f64), String> {
    let t0 = Instant::now();
    let model = RpmClassifier::train(train, config).map_err(|e| format!("train: {e}"))?;
    Ok((model, t0.elapsed().as_secs_f64()))
}

/// Share of `test` the model labels correctly, as `(correct, total)`.
pub fn correct_on(model: &RpmClassifier, test: &Dataset) -> (usize, usize) {
    let predicted = model.predict_batch(&test.series);
    let correct = predicted
        .iter()
        .zip(&test.labels)
        .filter(|(p, l)| p == l)
        .count();
    (correct, test.labels.len())
}

/// The bytes `model` saves to.
pub fn saved(model: &RpmClassifier) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    model.save(&mut bytes).map_err(|e| format!("save: {e}"))?;
    Ok(bytes)
}

/// Saves `model`, loads it back through the serving loader and checks
/// that it predicts `series` exactly as the original does. Returns the
/// loaded model and its verification report.
pub fn round_trip(
    model: &RpmClassifier,
    series: &[Vec<f64>],
) -> Result<(RpmClassifier, rpm_core::VerifyReport), String> {
    let bytes = saved(model)?;
    let (loaded, report) =
        rpm_serve::load_verified(&bytes, false).map_err(|e| format!("load_verified: {e}"))?;
    if loaded.predict_batch(series) != model.predict_batch(series) {
        return Err("a saved and reloaded model predicts differently".to_string());
    }
    Ok((loaded, report))
}

/// Match-kernel work, from the program's `match.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Kernel {
    pub windows: u64,
    pub pruned_first_last: u64,
    pub pruned_envelope: u64,
    pub pruned_sax: u64,
    pub abandoned: u64,
    pub stats_builds: u64,
}

impl Kernel {
    /// The counter deltas between two registry snapshots.
    pub fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        Self {
            windows: d("match.windows"),
            pruned_first_last: d("match.pruned_first_last"),
            pruned_envelope: d("match.pruned_envelope"),
            pruned_sax: d("match.pruned_sax"),
            abandoned: d("match.abandoned"),
            stats_builds: d("match.stats_builds"),
        }
    }

    /// Windows that ran the exact loop to completion.
    pub fn exact(&self) -> u64 {
        self.windows
            - self.pruned_first_last
            - self.pruned_envelope
            - self.pruned_sax
            - self.abandoned
    }

    /// Share of windows a lower bound pruned.
    pub fn prune_rate(&self) -> f64 {
        let pruned = self.pruned_first_last + self.pruned_envelope + self.pruned_sax;
        ratio(pruned, self.windows)
    }

    fn add(&mut self, o: &Self) {
        self.windows += o.windows;
        self.pruned_first_last += o.pruned_first_last;
        self.pruned_envelope += o.pruned_envelope;
        self.pruned_sax += o.pruned_sax;
        self.abandoned += o.abandoned;
        self.stats_builds += o.stats_builds;
    }
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Memo-cache families in the order the registry reports them.
pub const CACHE_FAMILIES: [&str; 4] = ["frames", "words", "evals", "columns"];

/// Per-layer figures of training one or more models. Times in seconds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub search_s: f64,
    pub mine_s: f64,
    pub discretize_s: f64,
    pub infer_s: f64,
    pub dedup_s: f64,
    pub select_s: f64,
    pub cfs_s: f64,
    pub svm_s: f64,
    pub fit_s: f64,
    pub evals: u64,
    pub folds: u64,
    /// `(lookups, hits)` per [`CACHE_FAMILIES`] entry.
    pub cache: [(u64, u64); 4],
    pub rules_inspected: u64,
    pub candidates: u64,
    pub words: u64,
    pub rules: u64,
    pub pool_in: u64,
    pub pool_out: u64,
    pub features_in: u64,
    pub features_out: u64,
    pub kernel: Kernel,
}

impl Layers {
    pub fn add(&mut self, o: &Self) {
        self.search_s += o.search_s;
        self.mine_s += o.mine_s;
        self.discretize_s += o.discretize_s;
        self.infer_s += o.infer_s;
        self.dedup_s += o.dedup_s;
        self.select_s += o.select_s;
        self.cfs_s += o.cfs_s;
        self.svm_s += o.svm_s;
        self.fit_s += o.fit_s;
        self.evals += o.evals;
        self.folds += o.folds;
        for (a, b) in self.cache.iter_mut().zip(&o.cache) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.rules_inspected += o.rules_inspected;
        self.candidates += o.candidates;
        self.words += o.words;
        self.rules += o.rules;
        self.pool_in += o.pool_in;
        self.pool_out += o.pool_out;
        self.features_in += o.features_in;
        self.features_out += o.features_out;
        self.kernel.add(&o.kernel);
    }

    /// The fit's time outside the replayed stages.
    pub fn fit_other_s(&self) -> f64 {
        self.fit_s - (self.mine_s + self.dedup_s + self.select_s + self.cfs_s + self.svm_s)
    }

    /// Every count, by metric name: these must repeat exactly between
    /// two passes over the same inputs.
    pub fn counts(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("params.evals".to_string(), self.evals),
            ("params.folds".to_string(), self.folds),
            (
                "candidates.rules_inspected".to_string(),
                self.rules_inspected,
            ),
            ("candidates.count".to_string(), self.candidates),
            ("sax.words".to_string(), self.words),
            ("grammar.rules".to_string(), self.rules),
            ("distinct.pool_in".to_string(), self.pool_in),
            ("distinct.pool_out".to_string(), self.pool_out),
            ("cfs.features_in".to_string(), self.features_in),
            ("cfs.features_out".to_string(), self.features_out),
        ];
        for (family, (lookups, hits)) in CACHE_FAMILIES.iter().zip(self.cache) {
            out.push((format!("cache.{family}.lookups"), lookups));
            out.push((format!("cache.{family}.hits"), hits));
        }
        out
    }
}

/// Trains on `train` with the program's counters recording, then times
/// the parameter search and replays the final fit's stages. Requires
/// `rpm_obs` to be recording. Returns the layers and the trained model.
pub fn traced(train: &Dataset, config: &RpmConfig) -> Result<(Layers, RpmClassifier), String> {
    let before = rpm_obs::metrics::snapshot();
    let model = RpmClassifier::train(train, config).map_err(|e| format!("train: {e}"))?;
    let after = rpm_obs::metrics::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let family = |snap: &MetricsSnapshot, name: &str| {
        snap.cache
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((0, 0), |&(_, hits, misses, _)| (hits + misses, hits))
    };
    let mut layers = Layers {
        folds: delta("params.folds"),
        kernel: Kernel::between(&before, &after),
        ..Layers::default()
    };
    for (slot, name) in layers.cache.iter_mut().zip(CACHE_FAMILIES) {
        let (l1, h1) = family(&after, name);
        let (l0, h0) = family(&before, name);
        *slot = (l1 - l0, h1 - h0);
    }

    if matches!(
        config.param_search,
        ParamSearch::Direct { .. } | ParamSearch::Grid { .. }
    ) {
        let t0 = Instant::now();
        let outcome = search_parameters(train, config).map_err(|e| format!("search: {e}"))?;
        layers.search_s = t0.elapsed().as_secs_f64();
        layers.evals = outcome.evaluations as u64;
        if &outcome.per_class != model.sax_configs() {
            return Err("search_parameters disagrees with the search inside train".to_string());
        }
    }
    replay_fit(train, config, model.sax_configs(), &mut layers)?;
    Ok((layers, model))
}

/// The stages of `train_with_configs`, each through its public function.
fn replay_fit(
    train: &Dataset,
    config: &RpmConfig,
    per_class: &BTreeMap<Label, SaxConfig>,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut pool = Vec::new();
    let mut tau_pool = Vec::new();
    for view in train.by_class() {
        let sax = per_class
            .get(&view.label)
            .ok_or_else(|| format!("no SAX parameters for class {}", view.label))?;

        let t0 = Instant::now();
        let words: Vec<_> = view
            .members
            .iter()
            .map(|s| discretize(s, sax, config.numerosity_reduction))
            .collect();
        layers.discretize_s += t0.elapsed().as_secs_f64();
        layers.words += words.iter().map(|w| w.len() as u64).sum::<u64>();

        // The token stream candidate mining feeds the grammar: interned
        // words, with a unique sentinel between series.
        let mut interner: HashMap<&SaxWord, Token> = HashMap::new();
        let mut tokens: Vec<Token> = Vec::new();
        let mut sentinel = Token::MAX;
        for (i, series_words) in words.iter().enumerate() {
            for w in series_words {
                let next = interner.len() as Token;
                tokens.push(*interner.entry(&w.word).or_insert(next));
            }
            if i + 1 < words.len() {
                tokens.push(sentinel);
                sentinel -= 1;
            }
        }
        let t0 = Instant::now();
        let grammar = match config.grammar {
            rpm_core::GrammarAlgorithm::Sequitur => infer(&tokens),
            rpm_core::GrammarAlgorithm::RePair => infer_repair(&tokens),
        };
        layers.infer_s += t0.elapsed().as_secs_f64();
        layers.rules += grammar.repeated_rules().count() as u64;

        let t0 = Instant::now();
        let set = find_candidates_for_class(&view.members, view.label, sax, config);
        layers.mine_s += t0.elapsed().as_secs_f64();
        layers.rules_inspected += set.rules_inspected as u64;
        layers.candidates += set.candidates.len() as u64;
        pool.extend(set.candidates);
        tau_pool.extend(set.intra_cluster_distances);
    }

    layers.pool_in += pool.len() as u64;
    let t0 = Instant::now();
    let tau = compute_tau(&tau_pool, config.tau_percentile);
    let mut deduped = remove_similar_kernel(pool, tau, config.early_abandon, config.kernel);
    if deduped.len() > config.max_candidates {
        deduped.sort_by_key(|c| std::cmp::Reverse((c.coverage, c.frequency)));
        deduped.truncate(config.max_candidates);
    }
    layers.dedup_s += t0.elapsed().as_secs_f64();
    layers.pool_out += deduped.len() as u64;

    let values: Vec<Vec<f64>> = deduped.iter().map(|c| c.values.clone()).collect();
    let t0 = Instant::now();
    let rows = transform_set(&train.series, &values, false, config.early_abandon);
    layers.select_s += t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut selected = cfs_select(&rows, &train.labels, &config.cfs);
    layers.cfs_s += t0.elapsed().as_secs_f64();
    layers.features_in += values.len() as u64;
    if selected.is_empty() {
        selected = (0..values.len()).collect();
    }
    layers.features_out += selected.len() as u64;

    let svm_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| selected.iter().map(|&j| r[j]).collect())
        .collect();
    let t0 = Instant::now();
    let svm = LinearSvm::train(&svm_rows, &train.labels, &config.svm);
    layers.svm_s += t0.elapsed().as_secs_f64();
    std::hint::black_box(svm);

    let t0 = Instant::now();
    let model = RpmClassifier::train_with_configs(train, config, per_class)
        .map_err(|e| format!("train_with_configs: {e}"))?;
    layers.fit_s += t0.elapsed().as_secs_f64();
    std::hint::black_box(model);
    Ok(())
}
