//! Suite evaluation: train/test all six classifiers on generated datasets.

use rpm_baselines::{
    Classifier, FastShapelets, FastShapeletsParams, LearningShapelets, LearningShapeletsParams,
    OneNnDtw, OneNnEuclidean, SaxVsm, SaxVsmParams,
};
use rpm_core::{ParamSearch, RpmClassifier, RpmConfig};
use rpm_data::{generate, DatasetSpec};
use rpm_ml::error_rate;
use rpm_ts::Dataset;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The six classifiers of Tables 1–2, in the paper's column order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClassifierKind {
    /// 1-NN Euclidean.
    NnEd,
    /// 1-NN DTW, best warping window.
    NnDtwB,
    /// SAX-VSM.
    SaxVsm,
    /// Fast Shapelets.
    Fs,
    /// Learning Shapelets.
    Ls,
    /// Representative Pattern Mining (this paper).
    Rpm,
}

impl ClassifierKind {
    /// All six, in table order.
    pub const ALL: [ClassifierKind; 6] = [
        ClassifierKind::NnEd,
        ClassifierKind::NnDtwB,
        ClassifierKind::SaxVsm,
        ClassifierKind::Fs,
        ClassifierKind::Ls,
        ClassifierKind::Rpm,
    ];

    /// Table-header name.
    pub fn name(&self) -> &'static str {
        match self {
            ClassifierKind::NnEd => "NN-ED",
            ClassifierKind::NnDtwB => "NN-DTWB",
            ClassifierKind::SaxVsm => "SAX-VSM",
            ClassifierKind::Fs => "FS",
            ClassifierKind::Ls => "LS",
            ClassifierKind::Rpm => "RPM",
        }
    }
}

/// One classifier's outcome on one dataset.
#[derive(Clone, Copy, Debug)]
pub struct MethodOutcome {
    /// Test error rate.
    pub error: f64,
    /// Training + classification wall time (Table 2's metric).
    pub time: Duration,
}

/// All classifiers' outcomes on one dataset.
#[derive(Clone, Debug)]
pub struct DatasetResult {
    /// Dataset name.
    pub name: String,
    /// Outcomes in [`ClassifierKind::ALL`] order.
    pub outcomes: Vec<(ClassifierKind, MethodOutcome)>,
}

impl DatasetResult {
    /// Outcome of one method.
    pub fn get(&self, kind: ClassifierKind) -> MethodOutcome {
        self.outcomes
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, o)| *o)
            .expect("all kinds evaluated")
    }
}

/// Suite-run options.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Master seed for dataset generation.
    pub seed: u64,
    /// Which classifiers to run.
    pub methods: Vec<ClassifierKind>,
    /// RPM configuration (defaults to shared DIRECT selection).
    pub rpm: RpmConfig,
    /// Learning Shapelets iterations for the quick protocol (the knob
    /// that dominates LS cost).
    pub ls_max_iter: usize,
    /// Run LS with its published hyperparameter-selection protocol
    /// (validation grid + long final training) — what Table 2 charges LS
    /// for. Disable for quick smoke runs.
    pub ls_full_protocol: bool,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        Self {
            seed: 2016,
            methods: ClassifierKind::ALL.to_vec(),
            rpm: RpmConfig {
                param_search: ParamSearch::Direct {
                    max_evals: 12,
                    per_class: false,
                },
                n_validation_splits: 2,
                ..RpmConfig::default()
            },
            ls_max_iter: 120,
            ls_full_protocol: true,
        }
    }
}

/// Times one method end to end: build (train) + batch classification,
/// through the shared [`Classifier`] trait object — RPM and the five
/// baselines all go through this single code path.
fn time_run(
    name: &'static str,
    build: impl FnOnce() -> Box<dyn Classifier>,
    test: &Dataset,
) -> MethodOutcome {
    let _span = rpm_obs::span!(name);
    let start = Instant::now();
    let model = build();
    let preds = model.predict_batch(&test.series);
    let time = start.elapsed();
    MethodOutcome {
        error: error_rate(&test.labels, &preds),
        time,
    }
}

/// Trains and tests the requested classifiers on one suite dataset,
/// with optional test-set corruption (used by the §6.1 rotation study).
pub fn evaluate_dataset_with(
    spec: &DatasetSpec,
    options: &SuiteOptions,
    corrupt_test: impl Fn(&Dataset) -> Dataset,
) -> DatasetResult {
    let (train, test_clean) = generate(spec, options.seed);
    let test = corrupt_test(&test_clean);
    let mut outcomes = Vec::new();
    for &kind in &options.methods {
        let outcome = match kind {
            ClassifierKind::NnEd => time_run(
                kind.name(),
                || Box::new(OneNnEuclidean::train(&train)),
                &test,
            ),
            ClassifierKind::NnDtwB => {
                time_run(kind.name(), || Box::new(OneNnDtw::train(&train)), &test)
            }
            ClassifierKind::SaxVsm => time_run(
                kind.name(),
                || {
                    Box::new(SaxVsm::train(
                        &train,
                        &SaxVsmParams::for_length(spec.length),
                    ))
                },
                &test,
            ),
            ClassifierKind::Fs => time_run(
                kind.name(),
                || {
                    Box::new(FastShapelets::train(
                        &train,
                        &FastShapeletsParams::default(),
                    ))
                },
                &test,
            ),
            ClassifierKind::Ls => time_run(
                kind.name(),
                || {
                    if options.ls_full_protocol {
                        Box::new(LearningShapelets::train_with_selection(
                            &train,
                            options.seed,
                        ))
                    } else {
                        Box::new(LearningShapelets::train(
                            &train,
                            &LearningShapeletsParams {
                                max_iter: options.ls_max_iter,
                                ..Default::default()
                            },
                        ))
                    }
                },
                &test,
            ),
            ClassifierKind::Rpm => time_run(
                kind.name(),
                || {
                    Box::new(
                        RpmClassifier::train(&train, &options.rpm)
                            .expect("RPM training failed on suite dataset"),
                    )
                },
                &test,
            ),
        };
        outcomes.push((kind, outcome));
    }
    DatasetResult {
        name: spec.name.to_string(),
        outcomes,
    }
}

/// Trains and tests on the clean test set.
pub fn evaluate_dataset(spec: &DatasetSpec, options: &SuiteOptions) -> DatasetResult {
    evaluate_dataset_with(spec, options, Clone::clone)
}

/// Runs the whole suite, logging one progress line per dataset through
/// the structured logger (visible when observability is enabled).
pub fn run_suite(specs: &[DatasetSpec], options: &SuiteOptions) -> Vec<DatasetResult> {
    specs
        .iter()
        .map(|spec| {
            rpm_obs::info!("suite", "{} ...", spec.name);
            let r = evaluate_dataset(spec, options);
            let rpm_err = r
                .outcomes
                .iter()
                .find(|(k, _)| *k == ClassifierKind::Rpm)
                .map(|(_, o)| o.error);
            rpm_obs::info!("suite", "{} done (RPM err {rpm_err:?})", spec.name);
            r
        })
        .collect()
}

/// Renders suite results as a machine-readable JSON document — the
/// stable companion to BENCH.md's hand-edited tables, meant for CI
/// trend tracking and `jq`-style post-processing. Schema:
///
/// ```json
/// {
///   "schema": 1,
///   "datasets": [
///     {"name": "CBF",
///      "methods": [{"method": "NN-ED", "error": 0.02, "seconds": 0.011}]}
///   ]
/// }
/// ```
///
/// Method entries appear in evaluation order; errors are test error
/// rates in `[0, 1]`, `seconds` is train+classify wall time (Table 2's
/// metric). Names are quoted through [`rpm_obs::json::quote`].
pub fn results_to_json(results: &[DatasetResult]) -> String {
    use rpm_obs::json::quote;
    let mut out = String::from("{\n  \"schema\": 1,\n  \"datasets\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"methods\": [\n",
            quote(&r.name)
        ));
        for (j, (kind, o)) in r.outcomes.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"method\": {}, \"error\": {:.6}, \"seconds\": {:.6}}}{}\n",
                quote(kind.name()),
                o.error,
                o.time.as_secs_f64(),
                if j + 1 < r.outcomes.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes [`results_to_json`] to the first free `BENCH_<n>.json` in
/// `dir` (starting at 1), mirroring the repo's numbered `BENCH.md`
/// convention: existing result files are never overwritten, so a CI
/// artifact step can archive every run. Returns the path written.
pub fn write_bench_json(dir: &Path, results: &[DatasetResult]) -> std::io::Result<PathBuf> {
    let json = results_to_json(results);
    for n in 1..10_000u32 {
        let path = dir.join(format!("BENCH_{n}.json"));
        if path.exists() {
            continue;
        }
        std::fs::write(&path, &json)?;
        return Ok(path);
    }
    Err(std::io::Error::other("no free BENCH_<n>.json slot"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_sax::SaxConfig;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "CBF",
            classes: 3,
            train: 12,
            test: 15,
            length: 128,
        }
    }

    fn quick_options() -> SuiteOptions {
        SuiteOptions {
            methods: vec![ClassifierKind::NnEd, ClassifierKind::Rpm],
            rpm: RpmConfig::fixed(SaxConfig::new(32, 4, 4)),
            ls_max_iter: 10,
            ls_full_protocol: false,
            ..Default::default()
        }
    }

    #[test]
    fn evaluates_requested_methods_only() {
        let r = evaluate_dataset(&tiny_spec(), &quick_options());
        assert_eq!(r.outcomes.len(), 2);
        assert_eq!(r.name, "CBF");
        for (_, o) in &r.outcomes {
            assert!((0.0..=1.0).contains(&o.error));
            assert!(o.time > Duration::ZERO);
        }
    }

    #[test]
    fn corruption_hook_is_applied() {
        // Corrupting the test set to constant series must hurt accuracy.
        let clean = evaluate_dataset(&tiny_spec(), &quick_options());
        let mangled = evaluate_dataset_with(&tiny_spec(), &quick_options(), |t| {
            let mut t2 = t.clone();
            for s in &mut t2.series {
                s.fill(0.0);
            }
            t2
        });
        let ed_clean = clean.get(ClassifierKind::NnEd).error;
        let ed_mangled = mangled.get(ClassifierKind::NnEd).error;
        assert!(ed_mangled >= ed_clean, "{ed_mangled} vs {ed_clean}");
    }

    #[test]
    fn get_panics_on_missing_method() {
        let r = evaluate_dataset(&tiny_spec(), &quick_options());
        let caught = std::panic::catch_unwind(|| r.get(ClassifierKind::Ls));
        assert!(caught.is_err());
    }

    fn fake_results() -> Vec<DatasetResult> {
        vec![
            DatasetResult {
                name: "CBF".into(),
                outcomes: vec![
                    (
                        ClassifierKind::NnEd,
                        MethodOutcome {
                            error: 0.02,
                            time: Duration::from_millis(11),
                        },
                    ),
                    (
                        ClassifierKind::Rpm,
                        MethodOutcome {
                            error: 0.0,
                            time: Duration::from_millis(250),
                        },
                    ),
                ],
            },
            DatasetResult {
                name: "Coffee".into(),
                outcomes: vec![(
                    ClassifierKind::Rpm,
                    MethodOutcome {
                        error: 0.125,
                        time: Duration::from_secs(1),
                    },
                )],
            },
        ]
    }

    #[test]
    fn json_export_lists_every_method() {
        let json = results_to_json(&fake_results());
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"name\": \"CBF\""));
        assert!(json.contains("\"name\": \"Coffee\""));
        assert!(json.contains("\"method\": \"NN-ED\""));
        assert!(json.contains("\"error\": 0.125000"));
        assert!(json.contains("\"seconds\": 1.000000"));
        // Balanced brackets — cheap well-formedness check without a parser.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = json.matches(open).count();
            let c = json.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn bench_json_picks_next_free_slot() {
        let dir = std::env::temp_dir().join(format!("rpm-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let results = fake_results();
        let first = write_bench_json(&dir, &results).unwrap();
        assert!(first.ends_with("BENCH_1.json"));
        let second = write_bench_json(&dir, &results).unwrap();
        assert!(second.ends_with("BENCH_2.json"));
        // Existing files are never overwritten.
        let kept = std::fs::read_to_string(&first).unwrap();
        assert_eq!(kept, results_to_json(&results));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
