//! Scaling benchmarks for the §5.3 complexity analysis: discretization +
//! grammar induction are linear in the training size, and RPM training
//! overall stays near-linear (the candidate pool, not the raw size, drives
//! the clustering term).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rpm_core::{Parallelism, ParamSearch, PredictOptions, RpmClassifier, RpmConfig};
use rpm_sax::SaxConfig;

fn bench_train_vs_set_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("rpm_train_vs_train_size");
    g.sample_size(10);
    for &n_per_class in &[4usize, 8, 16] {
        let train = rpm_data::cbf::generate(n_per_class, 128, 1);
        let config = RpmConfig::fixed(SaxConfig::new(32, 4, 4));
        g.bench_with_input(
            BenchmarkId::from_parameter(n_per_class * 3),
            &train,
            |b, train| b.iter(|| RpmClassifier::train(black_box(train), &config).unwrap()),
        );
    }
    g.finish();
}

fn bench_train_vs_series_length(c: &mut Criterion) {
    let mut g = c.benchmark_group("rpm_train_vs_length");
    g.sample_size(10);
    for &len in &[64usize, 128, 256] {
        let train = rpm_data::cbf::generate(8, len, 2);
        let config = RpmConfig::fixed(SaxConfig::new(len / 4, 4, 4));
        g.bench_with_input(BenchmarkId::from_parameter(len), &train, |b, train| {
            b.iter(|| RpmClassifier::train(black_box(train), &config).unwrap())
        });
    }
    g.finish();
}

fn bench_discretize_plus_grammar_linear(c: &mut Criterion) {
    let mut g = c.benchmark_group("discretize_plus_sequitur");
    for &len in &[512usize, 2048, 8192] {
        let series: Vec<f64> = (0..len)
            .map(|i| (i as f64 * 0.37).sin() + (i as f64 * 0.071).cos())
            .collect();
        let sax = SaxConfig::new(32, 4, 4);
        g.bench_with_input(BenchmarkId::from_parameter(len), &series, |b, s| {
            b.iter(|| {
                let words = rpm_sax::discretize(black_box(s), &sax, true);
                let mut interner = std::collections::HashMap::new();
                let mut seq = rpm_grammar::Sequitur::new();
                for w in &words {
                    let next = interner.len() as u32;
                    let t = *interner.entry(w.word.clone()).or_insert(next);
                    seq.push(t);
                }
                seq.into_grammar()
            })
        });
    }
    g.finish();
}

/// Grid-search training under the shared engine (the tentpole's headline
/// case): the same 12-combination grid, serial-without-cache (the seed's
/// behaviour), then cached at 1, 2, and 4 workers. Results are
/// bit-identical across every row; only the wall clock moves — the cache
/// removes repeated SAX/transform work shared by grid neighbours, the
/// threads overlap what remains.
fn bench_grid_search_thread_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid_search_training_threads");
    g.sample_size(10);
    let train = rpm_data::cbf::generate(8, 128, 3);
    let grid = ParamSearch::Grid {
        windows: vec![16, 24, 32, 48],
        paas: vec![4],
        alphas: vec![3, 4, 6],
        per_class: false,
    };
    for (label, n_threads, cache) in [
        ("1-nocache", 1usize, false),
        ("1", 1, true),
        ("2", 2, true),
        ("4", 4, true),
    ] {
        let config = RpmConfig {
            param_search: grid.clone(),
            n_validation_splits: 2,
            n_threads,
            cache,
            ..RpmConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| RpmClassifier::train(black_box(&train), config).unwrap())
        });
    }
    g.finish();
}

/// Thread scaling of the batch transform alone (training fixed, the
/// per-series feature columns computed by the engine).
fn bench_transform_thread_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_transform_threads");
    g.sample_size(10);
    let train = rpm_data::cbf::generate(8, 128, 4);
    let test = rpm_data::cbf::generate(40, 128, 5);
    let model = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(32, 4, 4))).unwrap();
    for &n_threads in &[1usize, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(n_threads),
            &test.series,
            |b, series| {
                let options = PredictOptions {
                    parallelism: Parallelism::Threads(n_threads),
                    ..PredictOptions::default()
                };
                b.iter(|| {
                    model
                        .predict_batch_with(black_box(series), options)
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_train_vs_set_size,
    bench_train_vs_series_length,
    bench_discretize_plus_grammar_linear,
    bench_grid_search_thread_scaling,
    bench_transform_thread_scaling
);
criterion_main!(benches);
