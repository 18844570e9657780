//! `perfbench`: end-to-end and per-layer benchmark of RPM training and
//! `/classify` serving.
//!
//! ```text
//! perfbench --workload <train_search|serve_bulk> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` in this directory for the workloads and the metric map.

mod loadgen;
mod serve;
mod stats;
mod train;

use loadgen::Body;
use rpm_core::{RpmClassifier, RpmConfig};
use rpm_data::{generate, registry::spec_by_name, DatasetSpec};
use rpm_sax::SaxConfig;
use rpm_serve::{ServeConfig, Server};
use rpm_ts::Dataset;
use serve::Rates;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics, as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("test_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms.light", "ms"),
    ("latency_p50_ms.heavy", "ms"),
    ("sustained_rps", "1/s"),
];

/// Per-layer metrics, as declared in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("params.search_s", "s"),
    ("params.evals", "count"),
    ("params.folds", "count"),
    ("cache.frames.lookups", "count"),
    ("cache.frames.hit_rate", "ratio"),
    ("cache.words.lookups", "count"),
    ("cache.words.hit_rate", "ratio"),
    ("cache.evals.lookups", "count"),
    ("cache.evals.hit_rate", "ratio"),
    ("cache.columns.lookups", "count"),
    ("cache.columns.hit_rate", "ratio"),
    ("candidates.mine_s", "s"),
    ("candidates.rules_inspected", "count"),
    ("candidates.count", "count"),
    ("sax.discretize_s", "s"),
    ("sax.words", "count"),
    ("grammar.infer_s", "s"),
    ("grammar.rules", "count"),
    ("distinct.dedup_s", "s"),
    ("distinct.pool_in", "count"),
    ("distinct.pool_out", "count"),
    ("transform.select_s", "s"),
    ("cfs.select_s", "s"),
    ("cfs.features_in", "count"),
    ("cfs.features_out", "count"),
    ("svm.train_s", "s"),
    ("fit.s", "s"),
    ("fit.other_s", "s"),
    ("match.windows", "count"),
    ("match.pruned_first_last", "count"),
    ("match.pruned_envelope", "count"),
    ("match.abandoned", "count"),
    ("match.exact", "count"),
    ("match.prune_rate", "ratio"),
    ("match.stats_builds", "count"),
    ("proto.parse_ms", "ms"),
    ("proto.bytes", "bytes"),
    ("predict.batch_ms", "ms"),
    ("batch.queue_wait_ms.p50", "ms"),
    ("batch.queue_wait_ms.tail", "ms"),
    ("batch.fill", "count"),
    ("batch.batches", "count"),
    ("http.overhead_ms", "ms"),
    ("http.rejected", "count"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.unsent", "count"),
];

/// One workload: what it trains, what it serves, and at which rates.
pub struct Workload {
    pub name: &'static str,
    pub rates: Rates,
    /// Share of `--seconds` spent on the serving rungs; the rest of a run
    /// trains the (Trace, CBF) pairs on `train_search` and sets the
    /// served model up again on `serve_bulk`.
    pub serve_share: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "train_search",
        rates: Rates {
            light: 100.0,
            heavy: 200.0,
            probes: &[400.0],
            limit_ms: 100.0,
            rounds: 3,
        },
        serve_share: 0.3,
    },
    Workload {
        name: "serve_bulk",
        rates: Rates {
            light: 30.0,
            heavy: 60.0,
            probes: &[80.0, 200.0],
            limit_ms: 250.0,
            rounds: 6,
        },
        serve_share: 0.65,
    },
];

/// `train_search` trains this many (Trace, CBF) pairs per cycle, each
/// generated from its own seed, so one run's training time averages
/// over several search trajectories instead of following one.
const TRAIN_PAIRS: usize = 5;
/// Times the set-up of a `train_search` run is repeated; `setup_s` is
/// the median.
const SETUP_REPS: usize = 5;
/// Series per `serve_bulk` request body.
const BULK_SERIES: usize = 32;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line. Checks that exactly the declared metrics were
    /// measured, each finite.
    fn json(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        let mut expected: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        expected.sort_unstable();
        if names != expected {
            return Err(format!("measured {names:?}, declared {expected:?}"));
        }
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let (_, value) = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .expect("checked above");
            if !value.is_finite() {
                return Err(format!("{name} is not finite"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Fails when two passes over the same inputs counted differently.
pub fn same_counts<N: AsRef<str>>(
    what: &str,
    first: &[(N, u64)],
    second: &[(N, u64)],
) -> Result<(), String> {
    for ((name, a), (_, b)) in first.iter().zip(second) {
        if a != b {
            return Err(format!(
                "{what}: {} counted {a} then {b} on the same inputs",
                name.as_ref()
            ));
        }
    }
    Ok(())
}

/// Peak resident set size of this process (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn senders() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Request bodies of `per_body` series each, labelled by `model` from
/// exactly the values the server will parse.
fn bodies(
    model: &RpmClassifier,
    series: &[Vec<f64>],
    per_body: usize,
) -> Result<Vec<Body>, String> {
    series
        .chunks(per_body)
        .filter(|c| c.len() == per_body)
        .map(|chunk| {
            let mut text = String::new();
            for s in chunk {
                let values: Vec<String> = s.iter().map(|v| format!("{v:.6}")).collect();
                text.push('[');
                text.push_str(&values.join(","));
                text.push_str("]\n");
            }
            let parsed: Vec<Vec<f64>> = rpm_serve::proto::parse_body(text.as_bytes())?
                .into_iter()
                .map(|r| r.values)
                .collect();
            Ok(Body {
                labels: model.predict_batch(&parsed),
                text,
            })
        })
        .collect()
}

/// A seed for the `i`-th input set of a run, spread so nearby run seeds
/// share no data.
fn derive_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

fn spec(name: &str) -> Result<DatasetSpec, String> {
    spec_by_name(name).ok_or(format!("{name} is not in the dataset registry"))
}

/// A model under a running server, with what it was trained on.
struct Served {
    server: Server,
    model: RpmClassifier,
    config: RpmConfig,
    train: Dataset,
    bodies: Vec<Body>,
    accuracy: f64,
}

/// Round-trips `model` through save and `load_verified`, starts a server
/// on the loaded copy and labels the request bodies offline.
fn start_server(
    model: RpmClassifier,
    config: RpmConfig,
    train: Dataset,
    test: &Dataset,
    per_body: usize,
) -> Result<Served, String> {
    let (loaded, report) = train::round_trip(&model, &test.series)?;
    let server = Server::start_verified(Arc::new(loaded), &report, &serve_config())
        .map_err(|e| format!("server start: {e}"))?;
    let (correct, total) = train::correct_on(&model, test);
    let bodies = bodies(&model, &test.series, per_body)?;
    Ok(Served {
        server,
        model,
        config,
        train,
        bodies,
        accuracy: correct as f64 / total as f64,
    })
}

/// The served model is trained on data from this fixed seed: a serve
/// workload measures one deployed model, and `--seed` draws its traffic.
const MODEL_SEED: u64 = 2016;

/// One set-up of `serve_bulk`, with recording off so every set-up does
/// the same work: data, training, save, `load_verified`, server start,
/// offline labels. Returns the served model with the wall time of the
/// set-up and of its training. A running server must be dropped first:
/// a server's shutdown clears process-wide serving state.
fn set_up_served(seed: u64) -> Result<(Served, f64, f64), String> {
    rpm_obs::ObsConfig::default().install();
    let t0 = Instant::now();
    let mut bulk = spec("CBF")?;
    bulk.length = 1024;
    bulk.test = 16 * BULK_SERIES;
    let config = RpmConfig::fixed(SaxConfig::new(64, 8, 4));
    let train = generate(&bulk, MODEL_SEED).0;
    let test = generate(&bulk, seed).1;
    let (model, train_s) = train::train_timed(&train, &config)?;
    let served = start_server(model, config, train, &test, BULK_SERIES)?;
    Ok((served, t0.elapsed().as_secs_f64(), train_s))
}

/// Training side of a run: what is served afterwards, and the figures
/// for `setup_s`, `train_s` and `test_accuracy`.
struct Trained {
    served: Served,
    setup_times: Vec<f64>,
    train_times: Vec<f64>,
    accuracy: f64,
    models: usize,
}

/// `train_search`: set-up generates [`TRAIN_PAIRS`] (Trace, CBF) pairs;
/// the measured part trains all of them with the default configuration
/// in cycles until the training share of `--seconds` is used (at least
/// one cycle). The Trace model of the first pair is served afterwards.
fn train_search(args: &Args, out: &mut Outcome) -> Result<Trained, String> {
    let config = RpmConfig::default();
    let mut setup_times = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        pairs = (0..TRAIN_PAIRS as u64)
            .map(|i| {
                let s = derive_seed(args.seed, i);
                Ok([generate(&spec("Trace")?, s), generate(&spec("CBF")?, s)])
            })
            .collect::<Result<Vec<_>, String>>()?;
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let [(trace_train, trace_test), (cbf_train, _)] = &pairs[0];

    if args.trace {
        // Two passes over the first pair; every count must repeat.
        let mut passes = Vec::new();
        let mut trace_model = None;
        for _ in 0..2 {
            let (mut layers, model) = train::traced(trace_train, &config)?;
            layers.add(&train::traced(cbf_train, &config)?.0);
            passes.push(layers);
            trace_model = Some(model);
        }
        check_training_repeats(&passes[0], &passes[1])?;
        report_training(out, &passes[1]);
        report_kernel(out, &passes[1].kernel);
        let model = trace_model.expect("two passes ran");
        let served = start_server(model, config, trace_train.clone(), trace_test, 1)?;
        let accuracy = served.accuracy;
        return Ok(Trained {
            served,
            setup_times,
            train_times: Vec::new(),
            accuracy,
            models: 2 * passes.len(),
        });
    }

    let budget = args.seconds * (1.0 - args.workload.serve_share);
    let started = Instant::now();
    let mut cycle_means = Vec::new();
    let (mut correct, mut total, mut models) = (0, 0, 0);
    let mut first = None;
    loop {
        let t_cycle = Instant::now();
        let mut pair_times = Vec::new();
        for pair in &pairs {
            let mut pair_s = 0.0;
            for (train, test) in pair {
                let (model, s) = train::train_timed(train, &config)?;
                pair_s += s;
                models += 1;
                if cycle_means.is_empty() {
                    let (c, t) = train::correct_on(&model, test);
                    correct += c;
                    total += t;
                    train::round_trip(&model, &test.series)?;
                    first.get_or_insert((model, s));
                }
            }
            pair_times.push(pair_s);
        }
        cycle_means.push(pair_times.iter().sum::<f64>() / pair_times.len() as f64);
        let cycle = t_cycle.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + cycle > budget {
            break;
        }
    }
    out.note(format!(
        "trained {models} models in {} cycle(s) of {TRAIN_PAIRS} (Trace, CBF) pairs",
        cycle_means.len()
    ));
    let (model, _) = first.expect("one cycle ran");
    let served = start_server(model, config, trace_train.clone(), trace_test, 1)?;
    Ok(Trained {
        served,
        setup_times,
        train_times: cycle_means,
        accuracy: correct as f64 / total as f64,
        models,
    })
}

/// `serve_bulk`: the first set-up of the served model. The untraced run
/// sets it up again between serving rounds.
fn serve_setup(args: &Args, out: &mut Outcome) -> Result<Trained, String> {
    let (served, setup_s, train_s) = set_up_served(args.seed)?;
    if args.trace {
        let mut passes = Vec::new();
        for _ in 0..2 {
            passes.push(train::traced(&served.train, &served.config)?.0);
        }
        check_training_repeats(&passes[0], &passes[1])?;
        report_training(out, &passes[1]);
    }
    Ok(Trained {
        train_times: vec![train_s],
        accuracy: served.accuracy,
        served,
        setup_times: vec![setup_s],
        models: 1,
    })
}

/// Nearest-rank quantile of `serve_bulk`'s set-up and training times
/// that `setup_s` and `train_s` report. On a shared host the speed of
/// CPU-bound work shifts by up to ~40% within seconds as other tenants
/// load it, so one run's set-ups fall on both speeds; this quantile
/// moves less from run to run than the median of such a two-speed
/// sample, and one stalled set-up cannot move it.
const SLOW_QUANTILE: f64 = 0.9;

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut out = Outcome::default();
    if args.trace {
        rpm_obs::ObsConfig {
            level: rpm_obs::ObsLevel::Summary,
            ..rpm_obs::ObsConfig::default()
        }
        .install();
    }
    let Trained {
        mut served,
        mut setup_times,
        mut train_times,
        accuracy,
        models,
    } = if w.name == "train_search" {
        train_search(args, &mut out)?
    } else {
        serve_setup(args, &mut out)?
    };
    out.attempted += models as u64;

    let addr = served.server.local_addr();
    let serve_secs = args.seconds * w.serve_share;
    if args.trace {
        let layers = serve::traced(
            addr,
            &served.bodies,
            &served.model,
            &w.rates,
            serve_secs,
            senders(),
        )?;
        // On train_search the kernel counters describe training.
        if w.name != "train_search" {
            report_kernel(&mut out, &layers.kernel);
        }
        if layers.mismatches > 0 {
            out.errors.push(format!(
                "{} served responses had wrong labels",
                layers.mismatches
            ));
        }
        out.attempted += layers.attempted as u64;
        out.failed += layers.failed as u64;
        for (name, value) in [
            ("proto.parse_ms", layers.parse_ms),
            ("proto.bytes", layers.bytes),
            ("predict.batch_ms", layers.predict_ms),
            ("batch.queue_wait_ms.p50", layers.queue_wait_p50_ms),
            ("batch.queue_wait_ms.tail", layers.queue_wait_tail_ms),
            ("batch.fill", layers.batch_fill),
            ("batch.batches", layers.batches as f64),
            ("http.overhead_ms", layers.overhead_ms),
            ("http.rejected", layers.rejected as f64),
            ("loadgen.late_ms", layers.late_ms),
            ("loadgen.unsent", layers.unsent as f64),
        ] {
            out.set(name, value);
        }
    } else {
        // On `serve_bulk` the rest of `--seconds` sets the served
        // model up again, in a slot after each round while no load runs,
        // so the set-up and training samples span the run. Each new
        // server takes the old one's place and must save the same model.
        let bodies = std::mem::take(&mut served.bodies);
        let expected = train::saved(&served.model)?;
        let slot_secs = args.seconds * (1.0 - w.serve_share) / w.rates.rounds as f64;
        let mut current = Some(served);
        let mut changed = 0;
        let ladder = serve::ladder(addr, &bodies, &w.rates, serve_secs, senders(), &mut || {
            if w.name != "train_search" {
                let started = Instant::now();
                loop {
                    drop(current.take());
                    let (next, setup_s, train_s) = set_up_served(args.seed)?;
                    setup_times.push(setup_s);
                    train_times.push(train_s);
                    changed += usize::from(train::saved(&next.model)? != expected);
                    current = Some(next);
                    if started.elapsed().as_secs_f64() >= slot_secs {
                        break;
                    }
                }
            }
            Ok(current.as_ref().expect("a server runs").server.local_addr())
        })?;
        let (setup_s, train_s) = if w.name == "train_search" {
            (stats::median(&setup_times), stats::median(&train_times))
        } else {
            out.attempted += setup_times.len() as u64 - 1;
            if changed > 0 {
                out.errors.push(format!(
                    "{changed} of {} set-ups trained a different model from the same data",
                    setup_times.len() - 1
                ));
            }
            let slow = |v: &[f64]| stats::nearest_rank(&stats::sorted(v), SLOW_QUANTILE);
            (
                slow(&setup_times).expect("one set-up ran"),
                slow(&train_times).expect("one set-up ran"),
            )
        };
        served = current.expect("a server runs");
        for (level, rungs) in [("light", &ladder.light), ("heavy", &ladder.heavy)] {
            let mut p50s = Vec::new();
            for rung in rungs {
                let latencies = rung.latencies();
                let tail = stats::tail(&latencies)
                    .ok_or(format!("a {level} rung has too few samples for a tail"))?;
                p50s.push(stats::nearest_rank(&latencies, 0.5).unwrap_or(0.0));
                out.note(format!(
                    "{level}: {} rps, {} sent, {} unsent, {} failed, p50 {:.3} ms, \
                     tail p{:.2} of {} samples {:.3} ms, generator late p50 {:.3} ms",
                    rung.rate,
                    rung.samples.len(),
                    rung.unsent,
                    rung.failed(),
                    p50s.last().expect("pushed above"),
                    tail.percentile,
                    tail.samples,
                    tail.value,
                    rung.lateness(w.rates.limit_ms).p50_ms
                ));
                out.attempted += rung.attempted() as u64;
                out.failed += rung.failed() as u64;
            }
            out.set(&format!("latency_p50_ms.{level}"), stats::median(&p50s));
        }
        for rungs in &ladder.probes {
            for rung in rungs {
                out.note(format!(
                    "probe {} rps: {} sent, {} unsent, {} failed, tail {:.3} ms, \
                     lateness growing {}: {}",
                    rung.rate,
                    rung.samples.len(),
                    rung.unsent,
                    rung.failed(),
                    stats::tail(&rung.latencies()).map_or(f64::NAN, |t| t.value),
                    rung.lateness(w.rates.limit_ms).growing,
                    if rung.passes(w.rates.limit_ms) {
                        "pass"
                    } else {
                        "fail"
                    }
                ));
            }
        }
        let mismatches: usize = ladder
            .light
            .iter()
            .chain(&ladder.heavy)
            .chain(ladder.probes.iter().flatten())
            .map(|r| r.mismatches())
            .sum();
        if mismatches > 0 {
            out.errors
                .push(format!("{mismatches} served responses had wrong labels"));
        }
        out.note(format!(
            "set-ups {setup_times:?} s, training {train_times:?} s"
        ));
        out.set("sustained_rps", ladder.sustained_rps);
        out.set("setup_s", setup_s);
        out.set("train_s", train_s);
        out.set("test_accuracy", accuracy);
    }
    served.server.shutdown();
    if !args.trace {
        out.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(out)
}

fn check_training_repeats(a: &train::Layers, b: &train::Layers) -> Result<(), String> {
    same_counts("training", &a.counts(), &b.counts())?;
    if a.kernel != b.kernel {
        return Err(format!(
            "training: match counters {:?} then {:?} on the same inputs",
            a.kernel, b.kernel
        ));
    }
    Ok(())
}

fn report_training(out: &mut Outcome, l: &train::Layers) {
    for (name, value) in [
        ("params.search_s", l.search_s),
        ("params.evals", l.evals as f64),
        ("params.folds", l.folds as f64),
        ("candidates.mine_s", l.mine_s),
        ("candidates.rules_inspected", l.rules_inspected as f64),
        ("candidates.count", l.candidates as f64),
        ("sax.discretize_s", l.discretize_s),
        ("sax.words", l.words as f64),
        ("grammar.infer_s", l.infer_s),
        ("grammar.rules", l.rules as f64),
        ("distinct.dedup_s", l.dedup_s),
        ("distinct.pool_in", l.pool_in as f64),
        ("distinct.pool_out", l.pool_out as f64),
        ("transform.select_s", l.select_s),
        ("cfs.select_s", l.cfs_s),
        ("cfs.features_in", l.features_in as f64),
        ("cfs.features_out", l.features_out as f64),
        ("svm.train_s", l.svm_s),
        ("fit.s", l.fit_s),
        ("fit.other_s", l.fit_other_s()),
    ] {
        out.set(name, value);
    }
    for (family, (lookups, hits)) in train::CACHE_FAMILIES.iter().zip(l.cache) {
        out.set(&format!("cache.{family}.lookups"), lookups as f64);
        out.set(
            &format!("cache.{family}.hit_rate"),
            train::ratio(hits, lookups),
        );
    }
}

fn report_kernel(out: &mut Outcome, k: &train::Kernel) {
    for (name, value) in [
        ("match.windows", k.windows as f64),
        ("match.pruned_first_last", k.pruned_first_last as f64),
        ("match.pruned_envelope", k.pruned_envelope as f64),
        ("match.abandoned", k.abandoned as f64),
        ("match.exact", k.exact() as f64),
        ("match.prune_rate", k.prune_rate()),
        ("match.stats_builds", k.stats_builds as f64),
    ] {
        out.set(name, value);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let json = match outcome.json(declared) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: incorrect output: {e}");
    }
    for (name, value) in &outcome.metrics {
        let unit = declared
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        println!("{name} = {value} {unit}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of the JSON array under `key` (the benchmark's arrays
    /// hold flat objects, so the first `]` closes it).
    fn array<'a>(json: &'a str, key: &str) -> &'a str {
        let at = json.find(&format!("\"{key}\"")).expect("key present");
        let open = at + json[at..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        &json[open + 1..close]
    }

    /// Every value of string field `field` in an array's objects, in order.
    fn strings(objects: &str, field: &str) -> Vec<String> {
        let needle = format!("\"{field}\": \"");
        objects
            .match_indices(&needle)
            .map(|(i, _)| {
                let rest = &objects[i + needle.len()..];
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .collect()
    }

    fn declared() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let json = declared();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let objects = array(&json, key);
            let names = strings(objects, "name");
            let units = strings(objects, "unit");
            let expected: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            let expected_units: Vec<String> = table.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(names, expected, "{key} names");
            assert_eq!(units, expected_units, "{key} units");
        }
    }

    #[test]
    fn workloads_and_their_rates_match_benchmark_json() {
        let json = declared();
        let objects = array(&json, "workloads");
        let names = strings(objects, "name");
        let whys = strings(objects, "why");
        let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, expected);
        for (w, why) in WORKLOADS.iter().zip(&whys) {
            let rates = format!("light {} rps, heavy {} rps", w.rates.light, w.rates.heavy);
            assert!(why.contains(&rates), "{}: `why` must state {rates}", w.name);
        }
    }

    #[test]
    fn the_result_line_refuses_undeclared_or_missing_metrics() {
        let mut out = Outcome::default();
        for (name, _) in &END_TO_END {
            out.set(name, 1.5);
        }
        let json = out.json(&END_TO_END).expect("all declared metrics present");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(json.contains("\"sustained_rps\": {\"value\": 1.5, \"unit\": \"1/s\"}"));

        out.set("extra", 1.0);
        assert!(out.json(&END_TO_END).is_err());
        out.metrics.retain(|(n, _)| n != "extra" && n != "train_s");
        assert!(out.json(&END_TO_END).is_err());
        out.set("train_s", f64::NAN);
        assert!(out.json(&END_TO_END).is_err());
    }

    #[test]
    fn repeated_counts_must_agree() {
        let a = [("x", 1u64), ("y", 2)];
        assert!(same_counts("t", &a, &a).is_ok());
        let err = same_counts("t", &a, &[("x", 1), ("y", 3)]).unwrap_err();
        assert!(err.contains("y counted 2 then 3"), "{err}");
    }
}
