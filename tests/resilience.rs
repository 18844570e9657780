//! Robustness acceptance tests: injected faults at every site must surface
//! as typed errors (never a crash), an interrupted parameter search must
//! resume from its checkpoint to a bit-identical model, and an exhausted
//! training budget must degrade gracefully instead of erroring.
//!
//! The fault plan is process-global, so every test serializes on [`gate`]
//! and disarms before returning.

use rpm::core::{ParamSearch, RpmClassifier, RpmConfig, TrainBudget, TrainError};
use rpm::data::registry::spec_by_name;
use rpm::data::{generate, ucr::read_ucr};
use rpm::sax::SaxConfig;
use rpm::ts::Dataset;
use std::sync::{Mutex, MutexGuard};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms one `site:kind:prob:seed` spec (the `RPM_FAULT` syntax).
fn arm(spec: &str) {
    rpm::obs::fault::install(rpm::obs::fault::parse(spec).expect("valid fault spec"));
}

fn disarm() {
    rpm::obs::fault::clear();
}

fn small_cbf() -> Dataset {
    let mut spec = spec_by_name("CBF").expect("CBF registered");
    spec.train = 12;
    spec.test = 4;
    generate(&spec, 2016).0
}

/// A serial, deterministic DIRECT-search config (the checkpoint/budget
/// paths only engage when a search runs).
fn search_config() -> RpmConfig {
    RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 6,
            per_class: false,
        },
        n_validation_splits: 2,
        n_threads: 1,
        ..RpmConfig::default()
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rpm_resilience_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let unique = format!("{name}-{}", std::process::id());
    dir.join(unique)
}

fn model_bytes(model: &RpmClassifier) -> Vec<u8> {
    let mut buf = Vec::new();
    model.save(&mut buf).expect("save to memory");
    buf
}

#[test]
fn interrupted_search_resumes_from_checkpoint_bit_identically() {
    let _g = gate();
    disarm();
    let train = small_cbf();
    let checkpoint = temp_path("resume.ckpt");
    std::fs::remove_file(&checkpoint).ok();

    // Ground truth: one uninterrupted run, no checkpoint involved.
    let baseline = RpmClassifier::train(&train, &search_config()).expect("baseline train");
    let baseline_bytes = model_bytes(&baseline);

    // Crash mid-search: every parameter evaluation panics with p=0.5
    // (seeded, so the crash point is reproducible). The panic is caught
    // and surfaced as a typed engine error.
    let config = RpmConfig {
        checkpoint: Some(checkpoint.clone()),
        ..search_config()
    };
    arm("params.eval:panic:0.5:3");
    let crashed = RpmClassifier::train(&train, &config);
    disarm();
    match crashed {
        Err(TrainError::Engine(_)) => {}
        other => panic!("expected an injected mid-search crash, got {other:?}"),
    }
    let ckpt_text = std::fs::read_to_string(&checkpoint).expect("checkpoint written");
    assert!(
        ckpt_text.lines().any(|l| l.starts_with("eval ")),
        "crashed run persisted completed evaluations:\n{ckpt_text}"
    );

    // Resume: completed cells come back from the checkpoint, the rest
    // re-run, and the final model is byte-for-byte the uninterrupted one.
    let resumed = RpmClassifier::train(&train, &config).expect("resumed train");
    assert_eq!(model_bytes(&resumed), baseline_bytes);

    // A second resume (everything cached) also matches.
    let again = RpmClassifier::train(&train, &config).expect("fully-cached train");
    assert_eq!(model_bytes(&again), baseline_bytes);
    std::fs::remove_file(&checkpoint).ok();
}

#[test]
fn exhausted_budget_degrades_instead_of_erroring() {
    let _g = gate();
    disarm();
    let train = small_cbf();

    let full = RpmClassifier::train(&train, &search_config()).expect("unbudgeted train");
    assert!(!full.is_degraded());

    let config = RpmConfig {
        budget: TrainBudget {
            wall_clock: None,
            max_evals: Some(1),
        },
        ..search_config()
    };
    let model = RpmClassifier::train(&train, &config).expect("budgeted train");
    assert!(model.is_degraded(), "1-eval budget must mark the model");

    // The flag survives the v2 save/load round trip.
    let loaded = RpmClassifier::load(model_bytes(&model).as_slice()).expect("reload");
    assert!(loaded.is_degraded());
}

/// An evaluation budget is claimed by the searching thread in the
/// search's own order, so a budgeted search scores the same combinations
/// — and saves the same model — at any thread count, under shared and
/// per-class DIRECT alike.
#[test]
fn eval_budget_saves_the_same_model_at_any_thread_count() {
    let _g = gate();
    disarm();
    let train = small_cbf();
    for per_class in [false, true] {
        let budgeted = |n_threads: usize| RpmConfig {
            param_search: ParamSearch::Direct {
                max_evals: 12,
                per_class,
            },
            budget: TrainBudget {
                max_evals: Some(5),
                wall_clock: None,
            },
            n_threads,
            ..search_config()
        };
        let serial = RpmClassifier::train(&train, &budgeted(1)).expect("serial train");
        assert!(
            serial.is_degraded(),
            "per_class={per_class}: 5 evals run out"
        );
        let parallel = RpmClassifier::train(&train, &budgeted(4)).expect("parallel train");
        assert_eq!(
            model_bytes(&parallel),
            model_bytes(&serial),
            "per_class={per_class}"
        );
    }
}

#[test]
fn zero_wall_clock_budget_still_returns_a_model() {
    let _g = gate();
    disarm();
    let train = small_cbf();
    let config = RpmConfig {
        budget: TrainBudget {
            wall_clock: Some(std::time::Duration::ZERO),
            max_evals: None,
        },
        ..search_config()
    };
    let model = RpmClassifier::train(&train, &config).expect("deadline-zero train");
    assert!(model.is_degraded());
}

#[test]
fn engine_job_faults_surface_as_typed_errors() {
    let _g = gate();
    disarm();
    let train = small_cbf();
    for threads in [1usize, 4] {
        arm("engine.job:panic:1:0");
        let err = RpmClassifier::train(
            &train,
            &RpmConfig {
                n_threads: threads,
                ..RpmConfig::fixed(SaxConfig::new(24, 4, 4))
            },
        )
        .expect_err("armed engine fault must fail training");
        disarm();
        assert!(
            matches!(err, TrainError::Engine(_)),
            "threads={threads}: {err}"
        );
    }
}

#[test]
fn persistence_faults_surface_as_io_errors() {
    let _g = gate();
    disarm();
    let train = small_cbf();
    let model = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(24, 4, 4)))
        .expect("train without faults");
    let bytes = model_bytes(&model);

    arm("persist.save:io:1:0");
    let err = model.save(Vec::new()).expect_err("injected save fault");
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    disarm();

    arm("persist.load:io:1:0");
    let err = RpmClassifier::load(bytes.as_slice()).expect_err("injected load fault");
    assert!(matches!(err, rpm::core::PersistError::Io(_)), "{err}");
    disarm();

    // Disarmed, both paths work again.
    assert!(model.save(Vec::new()).is_ok());
    assert!(RpmClassifier::load(bytes.as_slice()).is_ok());
}

#[test]
fn checkpoint_faults_surface_as_typed_errors_or_degrade() {
    let _g = gate();
    disarm();
    let train = small_cbf();
    let checkpoint = temp_path("faulty.ckpt");
    std::fs::remove_file(&checkpoint).ok();
    let config = RpmConfig {
        checkpoint: Some(checkpoint.clone()),
        ..search_config()
    };

    // A checkpoint that cannot be opened is a typed training error.
    arm("checkpoint.load:io:1:0");
    let err = RpmClassifier::train(&train, &config).expect_err("injected checkpoint-load fault");
    assert!(matches!(err, TrainError::Checkpoint(_)), "{err}");
    disarm();

    // Checkpoint *write* failures must not fail training — persistence of
    // progress is best-effort (a warning), the search itself continues.
    arm("checkpoint.write:io:1:0");
    let model = RpmClassifier::train(&train, &config);
    disarm();
    let model = model.expect("write faults degrade to a warning");
    assert!(!model.patterns().is_empty());
    std::fs::remove_file(&checkpoint).ok();
}

#[test]
fn data_load_faults_surface_as_io_errors() {
    let _g = gate();
    disarm();
    arm("data.load:io:1:0");
    let err = read_ucr("1,0.5,1.5\n2,3.0,4.0\n".as_bytes(), "t").expect_err("injected data fault");
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    let err = rpm::data::read_ucr_lenient("1,0.5,1.5\n".as_bytes(), "t")
        .expect_err("lenient reader also honors the site");
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    disarm();
    assert!(read_ucr("1,0.5,1.5\n2,3.0,4.0\n".as_bytes(), "t").is_ok());
}

#[test]
fn delay_faults_only_slow_things_down() {
    let _g = gate();
    disarm();
    let train = small_cbf();
    arm("engine.job:delay10:1:0");
    let model = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(24, 4, 4)));
    disarm();
    assert!(model.is_ok(), "delays never change results");
}
