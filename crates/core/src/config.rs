//! Configuration for the RPM pipeline: the [`RpmConfig`] knobs, the
//! validated [`RpmConfig::builder`], and the training-engine settings
//! (`n_threads`, `cache`).

use rpm_cluster::BisectParams;
use rpm_ml::{CfsParams, SvmParams};
use rpm_obs::ObsConfig;
use rpm_sax::{SaxConfig, MAX_ALPHABET, MIN_ALPHABET};
use rpm_ts::MatchKernel;
use std::fmt;
use std::time::Duration;

/// Resource budget for the parameter search (§4.5 is the expensive
/// phase). When either bound trips, the search stops at a safe boundary
/// — whole combinations, never a torn evaluation — and training
/// continues with the best parameters scored so far, flagging the model
/// (and the run report, via the `train.degraded` counter) as degraded
/// instead of erroring. The default is unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrainBudget {
    /// Wall-clock limit for the whole parameter search. Checked between
    /// evaluations, so a slow evaluation can overshoot by its own
    /// duration but nothing is ever half-applied.
    pub wall_clock: Option<Duration>,
    /// Cap on *fresh* combination evaluations (cache hits and
    /// checkpoint-restored scores are free — resuming under the same
    /// budget makes progress instead of re-spending it).
    pub max_evals: Option<usize>,
}

impl TrainBudget {
    /// No limits (the default).
    pub const fn unlimited() -> Self {
        Self {
            wall_clock: None,
            max_evals: None,
        }
    }

    /// Whether both bounds are absent.
    pub fn is_unlimited(&self) -> bool {
        self.wall_clock.is_none() && self.max_evals.is_none()
    }
}

/// Which grammar-inference algorithm mines the repeated patterns
/// (§3.2.2 notes the technique "works with other (context-free) GI
/// algorithms"; both options return identical grammar semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GrammarAlgorithm {
    /// Online Sequitur (the paper's choice).
    #[default]
    Sequitur,
    /// Offline Re-Pair (Larsson & Moffat): globally most-frequent digram
    /// first; often slightly better compression, hence higher-frequency
    /// rules.
    RePair,
}

/// How the SAX granularity parameters are chosen (§4).
#[derive(Clone, Debug)]
pub enum ParamSearch {
    /// Use one fixed configuration for every class (no search).
    Fixed(SaxConfig),
    /// One fixed configuration per class, ordered by ascending label.
    PerClassFixed(Vec<SaxConfig>),
    /// DIRECT over (window, paa, alphabet) as §4.2. `per_class` selects
    /// the paper's per-class optimization; otherwise one shared
    /// configuration is optimized against the macro F-measure.
    Direct {
        /// Budget of *distinct* parameter combinations evaluated (the
        /// paper's `R`; its observed average is < 200).
        max_evals: usize,
        /// Optimize per class (paper) or once for all classes (cheaper).
        per_class: bool,
    },
    /// Exhaustive grid (Algorithm 3's brute-force variant).
    Grid {
        /// Window sizes to try.
        windows: Vec<usize>,
        /// PAA sizes to try.
        paas: Vec<usize>,
        /// Alphabet sizes to try.
        alphas: Vec<usize>,
        /// Optimize per class (paper) or shared.
        per_class: bool,
    },
}

/// A rejected [`RpmConfigBuilder`] value, naming the offending knob and
/// its documented range.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// γ must lie in `(0, 1]` — it is a fraction of the class size.
    GammaOutOfRange(f64),
    /// The τ percentile must lie in `[0, 100]`.
    TauPercentileOutOfRange(f64),
    /// An alphabet size outside the supported
    /// [`MIN_ALPHABET`]`..=`[`MAX_ALPHABET`] range.
    AlphabetOutOfRange(usize),
    /// A SAX window of zero length.
    ZeroWindow,
    /// A PAA size of zero.
    ZeroPaa,
    /// The validation train fraction must lie strictly in `(0, 1)`.
    ValidationFractionOutOfRange(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::GammaOutOfRange(g) => {
                write!(f, "gamma {g} outside (0, 1]")
            }
            Self::TauPercentileOutOfRange(t) => {
                write!(f, "tau percentile {t} outside [0, 100]")
            }
            Self::AlphabetOutOfRange(a) => write!(
                f,
                "alphabet size {a} outside {MIN_ALPHABET}..={MAX_ALPHABET}"
            ),
            Self::ZeroWindow => write!(f, "SAX window must be positive"),
            Self::ZeroPaa => write!(f, "PAA size must be positive"),
            Self::ValidationFractionOutOfRange(v) => {
                write!(f, "validation train fraction {v} outside (0, 1)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// All knobs of the RPM classifier. `Default` reproduces the paper's
/// choices where stated (γ = 20% of the class size, τ at the 30th
/// percentile, numerosity reduction on, centroids, complete linkage) and
/// uses a modest DIRECT budget for parameter selection.
#[derive(Clone, Debug)]
pub struct RpmConfig {
    /// Minimum fraction of a class's training instances a motif must
    /// appear in (§3.2's γ; the experiments use 0.2).
    pub gamma: f64,
    /// Percentile of intra-cluster pairwise distances used as the
    /// similarity threshold τ (§3.2.3; the experiments use 30).
    pub tau_percentile: f64,
    /// Apply numerosity reduction during discretization (§3.2.1). Off only
    /// for the ablation study.
    pub numerosity_reduction: bool,
    /// Use the cluster medoid instead of the centroid as the pattern
    /// representative (§3.2.2 notes both options).
    pub use_medoid: bool,
    /// Enable the rotation-invariant test transform of §6.1.
    pub rotation_invariant: bool,
    /// Early-abandon the closest-match search (§5.3). Off only for the
    /// ablation benchmark; results are identical either way.
    pub early_abandon: bool,
    /// Closest-match kernel: the batched pattern-set × series kernel
    /// (default; bit-identical to the per-pattern rolling scan, with
    /// shared per-series statistics and admissible lower-bound pruning)
    /// or the pre-optimization per-window re-normalizing scan, which is
    /// tolerance-equal (≤1e-9 relative distance, exact match positions —
    /// see `tests/kernel_diff.rs`) and exists for the differential tests
    /// and the ablation benchmark.
    /// Not persisted: loaded models always serve with the default kernel.
    pub kernel: MatchKernel,
    /// Cap on occurrences per grammar rule fed to the O(u³) clustering;
    /// larger rules are uniformly subsampled (engineering guard, see
    /// DESIGN.md).
    pub max_occurrences_per_rule: usize,
    /// Cap on the deduplicated candidate pool entering the CFS transform,
    /// keeping the best-covered candidates. The transform is
    /// O(candidates · series · length²), so an unbounded pool lets one
    /// over-fragmented class dominate training time; the paper observes
    /// the pool is naturally small (§1: O(K) motifs).
    pub max_candidates: usize,
    /// Bisection-refinement knobs (Algorithm 1 lines 10-12).
    pub bisect: BisectParams,
    /// SVM hyper-parameters (§3.1).
    pub svm: SvmParams,
    /// CFS feature-selection knobs (§3.2.3).
    pub cfs: CfsParams,
    /// Grammar-inference algorithm for candidate generation (§3.2.2).
    pub grammar: GrammarAlgorithm,
    /// SAX parameter selection strategy (§4).
    pub param_search: ParamSearch,
    /// Random train/validate splits per parameter evaluation
    /// (Algorithm 3 uses 5; smaller is cheaper).
    pub n_validation_splits: usize,
    /// Fraction of the training data kept for candidate mining in each
    /// validation split.
    pub validation_train_fraction: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Worker threads for the training engine: `1` runs everything
    /// inline (the reference serial path), `0` uses one worker per
    /// available CPU, any other value spawns exactly that many workers.
    /// Results are bit-identical across all settings (DESIGN.md §5).
    pub n_threads: usize,
    /// Memoize discretizations, combination scores, and transform columns
    /// during training. Identical results either way; off only for the
    /// cache ablation.
    pub cache: bool,
    /// Observability settings (recording level + JSONL report path),
    /// installed globally when training starts. Recording never changes
    /// results — only what is measured. Binaries usually leave this at
    /// the default and rely on `RPM_LOG` instead (`rpm_obs::init_env`).
    pub obs: ObsConfig,
    /// Resource budget for the parameter search; exhausting it degrades
    /// (best-so-far parameters) instead of erroring.
    pub budget: TrainBudget,
    /// Checkpoint file for the parameter search: completed combination
    /// scores are appended as they finish, and a later run pointed at
    /// the same file re-runs only the missing combinations
    /// (`rpm-cli train --checkpoint PATH`). `None` disables
    /// checkpointing.
    pub checkpoint: Option<std::path::PathBuf>,
}

impl Default for RpmConfig {
    fn default() -> Self {
        Self {
            gamma: 0.2,
            tau_percentile: 30.0,
            numerosity_reduction: true,
            use_medoid: false,
            rotation_invariant: false,
            early_abandon: true,
            kernel: MatchKernel::Batched,
            max_occurrences_per_rule: 64,
            max_candidates: 48,
            bisect: BisectParams::default(),
            svm: SvmParams::default(),
            cfs: CfsParams::default(),
            grammar: GrammarAlgorithm::Sequitur,
            param_search: ParamSearch::Direct {
                max_evals: 24,
                per_class: false,
            },
            n_validation_splits: 3,
            validation_train_fraction: 0.7,
            seed: 0xC0FFEE,
            n_threads: 1,
            cache: true,
            obs: ObsConfig::default(),
            budget: TrainBudget::unlimited(),
            checkpoint: None,
        }
    }
}

impl RpmConfig {
    /// Convenience: a configuration with fixed SAX parameters (no search).
    pub fn fixed(sax: SaxConfig) -> Self {
        Self {
            param_search: ParamSearch::Fixed(sax),
            ..Self::default()
        }
    }

    /// A validated builder starting from [`RpmConfig::default`]:
    ///
    /// ```
    /// use rpm_core::RpmConfig;
    ///
    /// let config = RpmConfig::builder().gamma(0.2).threads(8).build().unwrap();
    /// assert_eq!(config.n_threads, 8);
    ///
    /// let err = RpmConfig::builder().gamma(1.5).build().unwrap_err();
    /// assert!(err.to_string().contains("gamma"));
    /// ```
    pub fn builder() -> RpmConfigBuilder {
        RpmConfigBuilder::default()
    }
}

/// Builder for [`RpmConfig`] whose [`RpmConfigBuilder::build`] validates
/// every range the pipeline depends on, instead of panicking deep inside
/// training. Unset knobs keep their [`RpmConfig::default`] values.
#[derive(Clone, Debug, Default)]
pub struct RpmConfigBuilder {
    config: RpmConfig,
    /// A pending `sax(w, p, a)` request, validated (and turned into a
    /// `ParamSearch::Fixed`) at build time so invalid alphabets error
    /// instead of panicking in `SaxConfig::new`.
    fixed_sax: Option<(usize, usize, usize)>,
}

impl RpmConfigBuilder {
    /// Minimum class-coverage fraction γ; valid range `(0, 1]`.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.config.gamma = gamma;
        self
    }

    /// τ percentile of intra-cluster distances; valid range `[0, 100]`.
    pub fn tau_percentile(mut self, percentile: f64) -> Self {
        self.config.tau_percentile = percentile;
        self
    }

    /// Training-engine worker threads (`0` = one per CPU, `1` = serial).
    pub fn threads(mut self, n_threads: usize) -> Self {
        self.config.n_threads = n_threads;
        self
    }

    /// Enable or disable the training memoization cache.
    pub fn cache(mut self, enabled: bool) -> Self {
        self.config.cache = enabled;
        self
    }

    /// Observability settings (recording level + JSONL report path).
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.config.obs = obs;
        self
    }

    /// Master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Toggle numerosity reduction (§3.2.1).
    pub fn numerosity_reduction(mut self, on: bool) -> Self {
        self.config.numerosity_reduction = on;
        self
    }

    /// Toggle the rotation-invariant test transform (§6.1).
    pub fn rotation_invariant(mut self, on: bool) -> Self {
        self.config.rotation_invariant = on;
        self
    }

    /// Toggle early abandoning in closest-match scans (§5.3).
    pub fn early_abandon(mut self, on: bool) -> Self {
        self.config.early_abandon = on;
        self
    }

    /// Use medoid (instead of centroid) cluster representatives.
    pub fn use_medoid(mut self, on: bool) -> Self {
        self.config.use_medoid = on;
        self
    }

    /// Grammar-inference algorithm.
    pub fn grammar(mut self, grammar: GrammarAlgorithm) -> Self {
        self.config.grammar = grammar;
        self
    }

    /// Fixed SAX parameters (no search); validated at build time.
    pub fn sax(mut self, window: usize, paa_size: usize, alphabet: usize) -> Self {
        self.fixed_sax = Some((window, paa_size, alphabet));
        self
    }

    /// An explicit parameter-search strategy.
    pub fn param_search(mut self, search: ParamSearch) -> Self {
        self.config.param_search = search;
        self.fixed_sax = None;
        self
    }

    /// Validation splits per parameter evaluation.
    pub fn validation_splits(mut self, n: usize) -> Self {
        self.config.n_validation_splits = n;
        self
    }

    /// Train fraction of each validation split; valid range `(0, 1)`.
    pub fn validation_train_fraction(mut self, fraction: f64) -> Self {
        self.config.validation_train_fraction = fraction;
        self
    }

    /// Cap on the deduplicated candidate pool.
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.config.max_candidates = n;
        self
    }

    /// Resource budget for the parameter search (see [`TrainBudget`]).
    pub fn budget(mut self, budget: TrainBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Checkpoint file for parameter-search resume.
    pub fn checkpoint(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.checkpoint = Some(path.into());
        self
    }

    /// Validates every range and returns the finished configuration.
    pub fn build(self) -> Result<RpmConfig, ConfigError> {
        let Self {
            mut config,
            fixed_sax,
        } = self;
        if !(config.gamma > 0.0 && config.gamma <= 1.0) {
            return Err(ConfigError::GammaOutOfRange(config.gamma));
        }
        if !(0.0..=100.0).contains(&config.tau_percentile) || config.tau_percentile.is_nan() {
            return Err(ConfigError::TauPercentileOutOfRange(config.tau_percentile));
        }
        if !(config.validation_train_fraction > 0.0 && config.validation_train_fraction < 1.0) {
            return Err(ConfigError::ValidationFractionOutOfRange(
                config.validation_train_fraction,
            ));
        }
        if let Some((window, paa, alphabet)) = fixed_sax {
            validate_sax(window, paa, alphabet)?;
            config.param_search = ParamSearch::Fixed(SaxConfig::new(window, paa, alphabet));
        }
        match &config.param_search {
            ParamSearch::Fixed(s) => validate_sax(s.window, s.paa_size, s.alphabet)?,
            ParamSearch::PerClassFixed(saxes) => {
                for s in saxes {
                    validate_sax(s.window, s.paa_size, s.alphabet)?;
                }
            }
            ParamSearch::Grid {
                windows,
                paas,
                alphas,
                ..
            } => {
                if windows.contains(&0) {
                    return Err(ConfigError::ZeroWindow);
                }
                if paas.contains(&0) {
                    return Err(ConfigError::ZeroPaa);
                }
                if let Some(&a) = alphas
                    .iter()
                    .find(|&&a| !(MIN_ALPHABET..=MAX_ALPHABET).contains(&a))
                {
                    return Err(ConfigError::AlphabetOutOfRange(a));
                }
            }
            ParamSearch::Direct { .. } => {}
        }
        Ok(config)
    }
}

fn validate_sax(window: usize, paa_size: usize, alphabet: usize) -> Result<(), ConfigError> {
    if window == 0 {
        return Err(ConfigError::ZeroWindow);
    }
    if paa_size == 0 {
        return Err(ConfigError::ZeroPaa);
    }
    if !(MIN_ALPHABET..=MAX_ALPHABET).contains(&alphabet) {
        return Err(ConfigError::AlphabetOutOfRange(alphabet));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = RpmConfig::default();
        assert_eq!(c.gamma, 0.2);
        assert_eq!(c.tau_percentile, 30.0);
        assert!(c.numerosity_reduction);
        assert!(!c.use_medoid);
        assert!(c.early_abandon);
        assert_eq!(c.kernel, MatchKernel::Batched, "batched kernel by default");
        assert_eq!(c.n_threads, 1, "serial by default");
        assert!(c.cache);
    }

    #[test]
    fn fixed_constructor_sets_search() {
        let c = RpmConfig::fixed(SaxConfig::new(32, 4, 4));
        match c.param_search {
            ParamSearch::Fixed(s) => {
                assert_eq!(s.window, 32);
                assert_eq!(s.paa_size, 4);
                assert_eq!(s.alphabet, 4);
            }
            _ => panic!("expected Fixed"),
        }
    }

    #[test]
    fn builder_round_trips_the_issue_example() {
        let c = RpmConfig::builder().gamma(0.2).threads(8).build().unwrap();
        assert_eq!(c.gamma, 0.2);
        assert_eq!(c.n_threads, 8);
        assert!(c.cache);
    }

    #[test]
    fn builder_rejects_bad_gamma() {
        for g in [0.0, -0.1, 1.01, f64::NAN] {
            let err = RpmConfig::builder().gamma(g).build().unwrap_err();
            assert!(matches!(err, ConfigError::GammaOutOfRange(_)), "{g}: {err}");
        }
        assert!(RpmConfig::builder().gamma(1.0).build().is_ok());
    }

    #[test]
    fn builder_rejects_bad_tau() {
        for t in [-0.001, 100.001, f64::NAN] {
            let err = RpmConfig::builder().tau_percentile(t).build().unwrap_err();
            assert!(
                matches!(err, ConfigError::TauPercentileOutOfRange(_)),
                "{t}: {err}"
            );
        }
        assert!(RpmConfig::builder().tau_percentile(0.0).build().is_ok());
        assert!(RpmConfig::builder().tau_percentile(100.0).build().is_ok());
    }

    #[test]
    fn builder_rejects_bad_alphabet_without_panicking() {
        for a in [0usize, 1, MAX_ALPHABET + 1, 1000] {
            let err = RpmConfig::builder().sax(32, 4, a).build().unwrap_err();
            assert_eq!(err, ConfigError::AlphabetOutOfRange(a));
        }
        let ok = RpmConfig::builder()
            .sax(32, 4, MAX_ALPHABET)
            .build()
            .unwrap();
        assert!(matches!(ok.param_search, ParamSearch::Fixed(_)));
    }

    #[test]
    fn builder_rejects_zero_geometry() {
        assert_eq!(
            RpmConfig::builder().sax(0, 4, 4).build().unwrap_err(),
            ConfigError::ZeroWindow
        );
        assert_eq!(
            RpmConfig::builder().sax(8, 0, 4).build().unwrap_err(),
            ConfigError::ZeroPaa
        );
    }

    #[test]
    fn builder_validates_grid_alphas() {
        let err = RpmConfig::builder()
            .param_search(ParamSearch::Grid {
                windows: vec![16],
                paas: vec![4],
                alphas: vec![4, 99],
                per_class: false,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::AlphabetOutOfRange(99));
    }

    #[test]
    fn builder_rejects_bad_validation_fraction() {
        for v in [0.0, 1.0, -0.5, 2.0] {
            let err = RpmConfig::builder()
                .validation_train_fraction(v)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::ValidationFractionOutOfRange(_)),
                "{v}"
            );
        }
    }

    #[test]
    fn config_errors_display_the_offending_value() {
        assert!(ConfigError::GammaOutOfRange(2.0).to_string().contains("2"));
        assert!(ConfigError::AlphabetOutOfRange(99)
            .to_string()
            .contains("99"));
    }
}
