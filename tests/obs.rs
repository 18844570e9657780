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

/// One run's comparison key: model bytes, predictions, counter totals,
/// and the cache-lookup total.
type RunFingerprint = (Vec<u8>, Vec<usize>, Vec<(String, u64)>, u64);

fn small_cbf() -> (Dataset, Dataset) {
    let mut spec = spec_by_name("CBF").unwrap();
    spec.train = 15;
    spec.test = 12;
    generate(&spec, 2016)
}

/// Training with observability on at 1/4/8 threads: identical serialized
/// model bytes and predictions, and identical totals for every
/// scheduling-independent counter (engine jobs, cache lookups, candidate
/// counts). Only the hit/miss split within a cache family may vary with
/// scheduling; the lookup total may not.
#[test]
fn instrumented_training_is_deterministic_across_thread_counts() {
    let _g = gate();
    reset();
    let (train, test) = small_cbf();

    let mut baseline: Option<RunFingerprint> = None;
    for threads in [1usize, 4, 8] {
        ObsConfig {
            level: ObsLevel::Spans,
            json_path: None,
            http_addr: None,
        }
        .install();
        let config = RpmConfig {
            n_threads: threads,
            ..RpmConfig::fixed(SaxConfig::new(32, 4, 4))
        };
        let model = RpmClassifier::train(&train, &config).unwrap();
        let preds = model.predict_batch(&test.series);
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();

        let report = rpm::obs::finish().expect("observability is on");
        ObsConfig::default().install();

        let watched = [
            "engine.runs",
            "engine.jobs",
            "mine.rules",
            "mine.candidates",
            "prune.pool_in",
            "prune.kept",
            "cfs.features_in",
            "cfs.survivors",
            "transform.columns",
            "predict.series",
            "ml.svm_trains",
            "ml.cfs_runs",
        ];
        let counters: Vec<(String, u64)> = watched
            .iter()
            .map(|&name| (name.to_string(), report.metrics.counter(name).unwrap_or(0)))
            .collect();
        let (lookups, hits) = report.metrics.cache_totals();
        assert!(hits <= lookups);
        assert!(
            report.metrics.counter("engine.jobs").unwrap_or(0) > 0,
            "engine jobs must be recorded"
        );

        match &baseline {
            None => baseline = Some((bytes, preds, counters, lookups)),
            Some((b_bytes, b_preds, b_counters, b_lookups)) => {
                assert_eq!(b_bytes, &bytes, "model bytes differ at {threads} threads");
                assert_eq!(b_preds, &preds, "predictions differ at {threads} threads");
                assert_eq!(
                    b_counters, &counters,
                    "counter totals differ at {threads} threads"
                );
                assert_eq!(
                    *b_lookups, lookups,
                    "cache lookup totals differ at {threads} threads"
                );
            }
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
