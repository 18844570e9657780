//! Observability acceptance tests: instrumentation must never change
//! results (instrumented parallel training stays bit-identical to serial),
//! metric totals must be consistent across thread counts, and the span
//! tree must obey its nesting/ordering invariants.
//!
//! The recording level is a process-wide global, so every test serializes
//! on [`gate`].

use rpm::obs::{ObsConfig, ObsLevel};
use rpm::prelude::*;
use rpm_data::{generate, registry::spec_by_name};
use std::sync::{Mutex, MutexGuard};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drains any state left over from a previous test in this binary.
fn reset() {
    ObsConfig {
        level: ObsLevel::Spans,
        json_path: None,
        http_addr: None,
    }
    .install();
    rpm::obs::finish();
    ObsConfig::default().install();
}

fn small_cbf() -> (Dataset, Dataset) {
    let mut spec = spec_by_name("CBF").unwrap();
    spec.train = 15;
    spec.test = 12;
    generate(&spec, 2016)
}

/// What one instrumented training run must repeat at any thread count.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    bytes: Vec<u8>,
    preds: Vec<usize>,
    /// Every counter but the times (`*_ns`): engine runs and jobs,
    /// search, mining, selection, transform, prediction, kernel, ML and
    /// DIRECT counts.
    counters: Vec<(String, u64)>,
    /// `(family, hits, misses)` of each memo family.
    caches: Vec<(&'static str, u64, u64)>,
    /// `(path, calls)` of each stage, in tree order.
    stages: Vec<(String, u64)>,
}

fn instrumented_run(train: &Dataset, test: &Dataset, config: &RpmConfig) -> RunFingerprint {
    ObsConfig {
        level: ObsLevel::Spans,
        json_path: None,
        http_addr: None,
    }
    .install();
    let model = RpmClassifier::train(train, config).unwrap();
    let preds = model.predict_batch(&test.series);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let report = rpm::obs::finish().expect("observability is on");
    ObsConfig::default().install();

    let counters: Vec<(String, u64)> = report
        .metrics
        .counters
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .chain(report.metrics.labeled.iter().cloned())
        .filter(|(n, _)| !n.ends_with("_ns"))
        .collect();
    for watched in [
        "transform.columns",
        "predict.series",
        "ml.svm_trains",
        "ml.cfs_runs",
    ] {
        assert!(
            counters.iter().any(|(n, v)| n == watched && *v > 0),
            "{watched} must be recorded"
        );
    }
    assert!(
        report.metrics.counter("engine.jobs").unwrap_or(0) > 0,
        "engine jobs must be recorded"
    );
    RunFingerprint {
        bytes,
        preds,
        counters,
        caches: report
            .metrics
            .cache
            .iter()
            .map(|&(family, hits, misses, _)| (family, hits, misses))
            .collect(),
        stages: report
            .stages
            .iter()
            .map(|s| (s.path.clone(), s.calls))
            .collect(),
    }
}

/// Training with observability on at 1/2/4/8 threads, under the default
/// shared DIRECT search, a per-class DIRECT search and a fixed
/// configuration: identical model bytes and predictions, identical
/// counters (times aside), identical hits and misses in each memo
/// family, and identical stage paths with identical call counts. A memo
/// computes each key once and a split's transform columns are keyed by
/// combination, so nothing here follows scheduling.
#[test]
fn instrumented_training_is_deterministic_across_thread_counts() {
    let _g = gate();
    reset();
    let (train, test) = small_cbf();
    let searches = [
        ("shared DIRECT", RpmConfig::default()),
        (
            "per-class DIRECT",
            RpmConfig {
                param_search: ParamSearch::Direct {
                    max_evals: 12,
                    per_class: true,
                },
                ..RpmConfig::default()
            },
        ),
        ("fixed", RpmConfig::fixed(SaxConfig::new(32, 4, 4))),
    ];
    for (search, config) in searches {
        let serial = instrumented_run(
            &train,
            &test,
            &RpmConfig {
                n_threads: 1,
                ..config.clone()
            },
        );
        let searched = !matches!(config.param_search, ParamSearch::Fixed(_));
        assert_eq!(
            serial.stages.iter().any(|(p, _)| p == "train/params/eval"),
            searched,
            "{search}: a search scores folds under train/params/eval"
        );
        for threads in [2usize, 4, 8] {
            let run = instrumented_run(
                &train,
                &test,
                &RpmConfig {
                    n_threads: threads,
                    ..config.clone()
                },
            );
            assert_eq!(
                run.bytes, serial.bytes,
                "{search}: bytes at {threads} threads"
            );
            assert_eq!(run.preds, serial.preds, "{search}: predictions");
            assert_eq!(run.counters, serial.counters, "{search}: work counters");
            assert_eq!(run.caches, serial.caches, "{search}: memo hits and misses");
            assert_eq!(run.stages, serial.stages, "{search}: stage paths and calls");
        }
    }
}

/// Span records obey the structural invariants: depth equals the path
/// segment count minus one, children nest inside their parent's window on
/// the same thread, records come back sorted by start time, and every
/// span ends within the report's wall time.
#[test]
fn span_nesting_and_ordering_invariants_hold() {
    let _g = gate();
    reset();
    ObsConfig {
        level: ObsLevel::Spans,
        json_path: None,
        http_addr: None,
    }
    .install();
    {
        let _train = rpm::obs::span!("train");
        {
            let _mine = rpm::obs::span!("mine");
            let _cfs = rpm::obs::span!("cfs");
        }
        let _svm = rpm::obs::span!("svm");
    }
    let report = rpm::obs::finish().expect("observability is on");
    ObsConfig::default().install();

    let paths: Vec<&str> = report.records.iter().map(|r| r.path.as_str()).collect();
    assert_eq!(
        paths,
        ["train", "train/mine", "train/mine/cfs", "train/svm"]
    );

    for pair in report.records.windows(2) {
        assert!(
            pair[0].start_ns <= pair[1].start_ns,
            "records must be sorted by start time"
        );
    }
    for r in &report.records {
        assert_eq!(r.depth as usize, r.path.matches('/').count(), "{}", r.path);
        assert!(r.start_ns + r.dur_ns <= report.wall_ns);
        let parent_path = match r.path.rfind('/') {
            Some(i) => &r.path[..i],
            None => continue,
        };
        let parent = report
            .records
            .iter()
            .find(|p| p.path == parent_path)
            .expect("parent span exists");
        assert_eq!(parent.thread, r.thread, "nesting is per-thread");
        assert!(parent.start_ns <= r.start_ns, "{}", r.path);
        assert!(
            r.start_ns + r.dur_ns <= parent.start_ns + parent.dur_ns,
            "child {} must end within its parent",
            r.path
        );
    }

    // Stage aggregates mirror the records.
    assert_eq!(report.stages.len(), 4);
    for s in &report.stages {
        assert_eq!(s.calls, 1);
        assert!(s.total_ns <= report.wall_ns);
    }
}

/// With observability off, probes are inert: no spans, no counter
/// movement, and `finish` has nothing to report.
#[test]
fn disabled_probes_record_nothing() {
    let _g = gate();
    reset();
    assert_eq!(rpm::obs::level(), ObsLevel::Off);
    let before = rpm::obs::metrics().engine_jobs.get();
    {
        let _span = rpm::obs::span!("ghost");
        rpm::obs::metrics().engine_jobs.add(17);
    }
    assert_eq!(rpm::obs::metrics().engine_jobs.get(), before);
    assert!(rpm::obs::finish().is_none());
}

/// Every memo family pays on a per-class DIRECT search: alphabet
/// neighbours share PAA frames, overlapping per-class probes share
/// combination scores, and the SVM transform reuses the CFS transform's
/// columns. The run report carries one cache line per family.
#[test]
fn every_memo_family_hits_under_per_class_direct_search() {
    let _g = gate();
    reset();
    ObsConfig {
        level: ObsLevel::Spans,
        json_path: None,
        http_addr: None,
    }
    .install();
    let config = RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 12,
            per_class: true,
        },
        ..RpmConfig::default()
    };
    RpmClassifier::train(&small_cbf().0, &config).unwrap();
    let report = rpm::obs::finish().expect("observability is on");
    ObsConfig::default().install();

    let families: Vec<_> = report
        .metrics
        .cache
        .iter()
        .map(|c| (c.0, c.1 > 0))
        .collect();
    let hit = [("frames", true), ("evals", true), ("columns", true)];
    assert_eq!(families, hit, "(family, hit at least once)");
    let jsonl = report.to_jsonl();
    let cache_lines = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"cache\""));
    assert_eq!(cache_lines.count(), 3, "{jsonl}");
}

/// The run report splits mining: every `mine_class` call opens one
/// `sax`, one `grammar` and one `cluster` child, and
/// `mine.rules_clustered` counts the rules that reach clustering — on
/// the quickstart data some, but not all, rules cover γ of their class.
#[test]
fn mining_stages_split_once_per_mine_class_call() {
    let _g = gate();
    reset();
    ObsConfig {
        level: ObsLevel::Spans,
        json_path: None,
        http_addr: None,
    }
    .install();
    let train = rpm::data::cbf::generate(10, 128, 1);
    RpmClassifier::train(&train, &RpmConfig::default()).unwrap();
    let report = rpm::obs::finish().expect("observability is on");
    ObsConfig::default().install();

    let calls = |name: &str| -> u64 {
        report
            .stages
            .iter()
            .filter(|s| s.path.ends_with(&format!("mine_class/{name}")))
            .map(|s| s.calls)
            .sum()
    };
    let mine_class: u64 = report
        .stages
        .iter()
        .filter(|s| s.name == "mine_class")
        .map(|s| s.calls)
        .sum();
    assert!(mine_class > 0);
    for child in ["sax", "grammar", "cluster"] {
        assert_eq!(calls(child), mine_class, "{child}");
    }
    let rules = report.metrics.counter("mine.rules").unwrap_or(0);
    let clustered = report.metrics.counter("mine.rules_clustered").unwrap_or(0);
    assert!(
        0 < clustered && clustered < rules,
        "{clustered} of {rules} rules clustered"
    );
}
