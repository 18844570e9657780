//! End-to-end integration tests: the full RPM pipeline over generated
//! datasets, exercised through the public facade.

use rpm::prelude::*;
use rpm_data::{generate, registry::spec_by_name, rotate_dataset};

fn quick_config(window: usize) -> RpmConfig {
    RpmConfig::fixed(SaxConfig::new(window, 4, 4))
}

#[test]
fn cbf_end_to_end_beats_chance_by_far() {
    let train = rpm::data::cbf::generate(10, 128, 1);
    let test = rpm::data::cbf::generate(30, 128, 2);
    let model = RpmClassifier::train(&train, &quick_config(32)).unwrap();
    let err = error_rate(&test.labels, &model.predict_batch(&test.series));
    // Chance is 2/3 for 3 classes; the paper reports ~0.002 on CBF.
    assert!(err < 0.15, "CBF error {err}");
}

#[test]
fn every_class_receives_a_prediction_in_range() {
    let train = rpm::data::control::synthetic_control(8, 60, 3);
    let test = rpm::data::control::synthetic_control(5, 60, 4);
    let model = RpmClassifier::train(&train, &quick_config(16)).unwrap();
    let preds = model.predict_batch(&test.series);
    for p in preds {
        assert!(p < 6, "prediction {p} outside label range");
    }
}

#[test]
fn gun_point_with_direct_search() {
    let spec = spec_by_name("GunPoint").unwrap();
    let (train, test) = generate(&spec, 7);
    let config = RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 6,
            per_class: false,
        },
        n_validation_splits: 2,
        ..RpmConfig::default()
    };
    let model = RpmClassifier::train(&train, &config).unwrap();
    let err = error_rate(&test.labels, &model.predict_batch(&test.series));
    assert!(err < 0.2, "GunPoint error {err}");
}

#[test]
fn per_class_direct_search_trains() {
    let spec = spec_by_name("ItalyPowerDemand").unwrap();
    let (train, test) = generate(&spec, 9);
    let config = RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 4,
            per_class: true,
        },
        n_validation_splits: 1,
        ..RpmConfig::default()
    };
    let model = RpmClassifier::train(&train, &config).unwrap();
    let err = error_rate(&test.labels, &model.predict_batch(&test.series));
    assert!(err < 0.35, "ItalyPowerDemand error {err}");
}

#[test]
fn rotation_invariant_model_survives_rotation() {
    let spec = spec_by_name("GunPoint").unwrap();
    let (train, test) = generate(&spec, 11);
    let rotated = rotate_dataset(&test, 5);

    let plain = RpmClassifier::train(&train, &quick_config(30)).unwrap();
    let invariant = RpmClassifier::train(
        &train,
        &RpmConfig {
            rotation_invariant: true,
            ..quick_config(30)
        },
    )
    .unwrap();

    let err_plain = error_rate(&rotated.labels, &plain.predict_batch(&rotated.series));
    let err_inv = error_rate(&rotated.labels, &invariant.predict_batch(&rotated.series));
    assert!(
        err_inv <= err_plain + 0.05,
        "rotation invariance should not hurt: {err_inv} vs {err_plain}"
    );
    assert!(err_inv < 0.25, "rotated error {err_inv}");
}

#[test]
fn patterns_are_class_specific_prototypes() {
    // The paper's core claim: each class gets its own pattern set.
    let train = rpm::data::cbf::generate(10, 128, 21);
    let model = RpmClassifier::train(&train, &quick_config(32)).unwrap();
    for p in model.patterns() {
        assert!(p.class < 3);
        assert!(p.frequency >= 2);
        assert!(p.coverage >= 2);
        assert!(!p.values.is_empty());
        assert!(p.values.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn ucr_roundtrip_then_train() {
    let dir = std::env::temp_dir().join("rpm_integration_ucr");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("CBF_TRAIN");
    let train = rpm::data::cbf::generate(10, 128, 31);
    rpm::data::ucr::write_ucr(&train, std::fs::File::create(&path).unwrap()).unwrap();
    let (reloaded, _) = rpm::data::ucr::read_ucr_file(&path).unwrap();
    assert_eq!(reloaded.len(), train.len());
    let model = RpmClassifier::train(&reloaded, &quick_config(32)).unwrap();
    assert!(!model.patterns().is_empty());
    std::fs::remove_file(path).ok();
}

#[test]
fn naive_and_rolling_kernels_train_equivalent_models() {
    // Kernel choice is an execution strategy, not a modeling decision: a
    // model trained with the naive oracle kernel must select the same
    // patterns (tolerance-aware — distances agree to 1e-9, not bitwise)
    // and classify identically to the default model, whose batched
    // kernel equals the rolling scan bit for bit.
    use rpm::core::MatchKernel;
    let train = rpm::data::cbf::generate(10, 128, 71);
    let test = rpm::data::cbf::generate(30, 128, 72);

    let rolling = RpmClassifier::train(&train, &quick_config(32)).unwrap();
    let naive = RpmClassifier::train(
        &train,
        &RpmConfig {
            kernel: MatchKernel::Naive,
            ..quick_config(32)
        },
    )
    .unwrap();

    // Same representative-pattern set: count, class, and values.
    assert_eq!(rolling.patterns().len(), naive.patterns().len());
    for (r, n) in rolling.patterns().iter().zip(naive.patterns()) {
        assert_eq!(r.class, n.class);
        assert_eq!(r.values.len(), n.values.len());
        for (a, b) in r.values.iter().zip(&n.values) {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "pattern values diverged: {a} vs {b}"
            );
        }
    }

    // Same predictions, hence identical accuracy.
    let preds_rolling = rolling.predict_batch(&test.series);
    let preds_naive = naive.predict_batch(&test.series);
    assert_eq!(preds_rolling, preds_naive);
    let err = error_rate(&test.labels, &preds_rolling);
    assert!(err < 0.15, "CBF error {err}");
}

#[test]
fn batched_model_rows_equal_the_rolling_oracle() {
    // Stronger than the naive comparison above: the batched kernel's
    // exact tier shares the rolling scan's summation code verbatim and
    // its pruning bound is admissible, so every feature a trained model
    // computes must equal, bit for bit, the per-pattern rolling scan
    // (`MatchPlan::best_match`) — or, for a pattern longer than the
    // series, the resampled direct comparison.
    use rpm::cluster::resample;
    use rpm::ts::{euclidean, znorm, MatchPlan};
    let train = rpm::data::cbf::generate(10, 128, 71);
    let test = rpm::data::cbf::generate(30, 128, 72);
    let model = RpmClassifier::train(&train, &quick_config(32)).unwrap();
    let oracle = |s: &[f64]| -> Vec<f64> {
        model
            .patterns()
            .iter()
            .map(|p| match MatchPlan::new(&p.values).best_match(s, true) {
                Some(m) => m.distance,
                None => {
                    let shrunk = resample(&p.values, s.len());
                    euclidean(&znorm(&shrunk), &znorm(s)) / (s.len() as f64).sqrt()
                }
            })
            .collect()
    };
    // Full-length test series, and truncated ones shorter than every
    // pattern, which take the resampling fallback.
    let shortest = model
        .patterns()
        .iter()
        .map(|p| p.values.len())
        .min()
        .unwrap();
    let truncated: Vec<&[f64]> = test.series.iter().map(|s| &s[..shortest - 1]).collect();
    let full: Vec<&[f64]> = test.series.iter().map(Vec::as_slice).collect();
    for s in full.iter().chain(&truncated) {
        let row = model.transform(s);
        let want = oracle(s);
        assert_eq!(row.len(), want.len());
        for (a, b) in row.iter().zip(&want) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "feature rows diverged: {a} vs {b}"
            );
        }
    }
}

#[test]
fn training_twice_is_deterministic() {
    let train = rpm::data::ecg::generate(12, 136, 41);
    let test = rpm::data::ecg::generate(10, 136, 42);
    let m1 = RpmClassifier::train(&train, &quick_config(28)).unwrap();
    let m2 = RpmClassifier::train(&train, &quick_config(28)).unwrap();
    assert_eq!(
        m1.predict_batch(&test.series),
        m2.predict_batch(&test.series)
    );
}

#[test]
fn medical_alarm_case_study_is_learnable() {
    let train = rpm::data::abp::generate(15, 400, 51);
    let test = rpm::data::abp::generate(20, 400, 52);
    let model = RpmClassifier::train(&train, &quick_config(50)).unwrap();
    let err = error_rate(&test.labels, &model.predict_batch(&test.series));
    assert!(err < 0.45, "ABP error {err} (chance = 0.5)");
}

#[test]
fn grid_and_direct_search_both_produce_working_models() {
    let spec = spec_by_name("ECGFiveDays").unwrap();
    let (train, test) = generate(&spec, 61);
    for search in [
        ParamSearch::Grid {
            windows: vec![20, 30],
            paas: vec![4],
            alphas: vec![4],
            per_class: false,
        },
        ParamSearch::Direct {
            max_evals: 5,
            per_class: false,
        },
    ] {
        let config = RpmConfig {
            param_search: search,
            n_validation_splits: 1,
            ..RpmConfig::default()
        };
        let model = RpmClassifier::train(&train, &config).unwrap();
        let err = error_rate(&test.labels, &model.predict_batch(&test.series));
        assert!(err < 0.35, "error {err}");
    }
}
