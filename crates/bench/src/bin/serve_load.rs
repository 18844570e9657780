//! `serve_load` — p50/p99 latency vs offered QPS for `rpm-serve`.
//!
//! ```text
//! serve_load [--duration-secs S] [--json PATH]
//! ```
//!
//! Trains a deliberately compute-heavy CBF model in-process (length
//! 1024, rotation-invariant matching, early abandoning off) so the
//! server is bound by `predict` rather than by connection handling,
//! probes the end-to-end capacity of the micro-batching configuration
//! with a short overload burst, then drives two server configurations
//! with open-loop load at three offered-QPS levels derived from that
//! measured capacity (light ≈ 30%, heavy ≈ 80%, overload ≈ 250%):
//!
//! * **micro-batch** — `max_batch = 32`, the production configuration:
//!   a free worker takes what is queued, up to 32 series, without
//!   waiting for more, so a saturated worker drains 32 series per
//!   wakeup and replies once per batch, and scheduler round-trips,
//!   condvar cycles, and per-call bookkeeping amortize across it.
//! * **per-request** — `max_batch = 1`: the same stack forced to
//!   dispatch one request per worker wakeup, i.e. what a server
//!   without micro-batching would do. Every series pays its own
//!   wakeup, reply send, and (on a contended box) preemption.
//!
//! The overload row is the backpressure demonstration: offered load
//! beyond capacity must surface as fast, bounded-latency `429` sheds —
//! not as an unbounded queue quietly converting every request into a
//! timeout. Results print as the BENCH.md table and optionally land in
//! a JSON artifact (`--json BENCH_2.json`).

use rpm_core::{RpmClassifier, RpmConfig};
use rpm_data::{generate, registry::spec_by_name};
use rpm_sax::SaxConfig;
use rpm_serve::{LoadConfig, LoadReport, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn serve_config(max_batch: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_batch,
        // Small enough that the sender pool (96 concurrent requests)
        // can actually fill it: backpressure never triggers if the
        // bound exceeds the in-flight ceiling.
        queue_depth: 48,
        deadline: Duration::from_secs(2),
        limits: rpm_obs::ServeLimits {
            max_connections: 128,
            ..rpm_obs::ServeLimits::default()
        },
        ..ServeConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let duration = Duration::from_secs(flag::<u64>(&args, "--duration-secs").unwrap_or(4));
    let json_path: Option<String> = flag(&args, "--json");

    // A compute-heavy serving model: long series, rotation-invariant
    // matching, no early abandoning. The point is to move the
    // bottleneck into `predict_batch`, where micro-batching operates,
    // and well below the rate the loopback HTTP path can carry.
    let mut spec = spec_by_name("CBF").expect("CBF in the registry");
    spec.length = 1024;
    spec.train = 24;
    spec.test = 16;
    let (train, test) = generate(&spec, 2016);
    let config = RpmConfig {
        rotation_invariant: true,
        early_abandon: false,
        ..RpmConfig::fixed(SaxConfig::new(64, 8, 4))
    };
    let model = Arc::new(RpmClassifier::train(&train, &config).expect("train CBF"));

    // Serial per-series floor, for the record.
    let started = Instant::now();
    let _ = model.predict_batch(&test.series);
    let per_series = started.elapsed().as_secs_f64() / test.series.len() as f64;
    eprintln!(
        "calibration: {:.3} ms/series serial predict floor",
        per_series * 1e3
    );

    // One representative request body, reused for every request.
    let rendered: Vec<String> = test.series[0].iter().map(|v| format!("{v:.6}")).collect();
    let body = format!("[{}]\n", rendered.join(","));

    // End-to-end capacity probe: overload the micro-batch server for a
    // short burst and take its sustained 200-rate as capacity. This
    // folds in connection handling, parsing, queueing, and scheduler
    // contention — everything the serial floor cannot see.
    let probe_secs = 2.0;
    let probe = {
        let mut server =
            Server::start(Arc::clone(&model), &serve_config(32)).expect("start probe server");
        let report = rpm_serve::run_load(&LoadConfig {
            addr: server.local_addr(),
            qps: (4.0 / per_series.max(1e-9)).max(200.0),
            duration: Duration::from_secs_f64(probe_secs),
            senders: 96,
            bodies: vec![body.clone()],
        });
        server.shutdown();
        report
    };
    // Sustained 200-rate under overload: completed-request rate scaled
    // by the fraction that were served rather than shed.
    let capacity_qps =
        (probe.achieved_qps * probe.ok as f64 / (probe.sent.max(1)) as f64).max(50.0);
    eprintln!(
        "capacity probe: {} ok / {} shed / {} missed → ~{capacity_qps:.0} qps sustained",
        probe.ok, probe.shed, probe.missed
    );
    let levels = [
        ("light", capacity_qps * 0.3),
        ("heavy", capacity_qps * 0.8),
        ("overload", capacity_qps * 2.5),
    ];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (mode, max_batch) in [("micro-batch", 32usize), ("per-request", 1usize)] {
        let mut server =
            Server::start(Arc::clone(&model), &serve_config(max_batch)).expect("start server");
        let addr = server.local_addr();
        for (level, qps) in levels {
            let report: LoadReport = rpm_serve::run_load(&LoadConfig {
                addr,
                qps,
                duration,
                senders: 96,
                bodies: vec![body.clone()],
            });
            let label = format!("{mode} {level}");
            eprintln!(
                "{label}: offered {:.0} qps → {} ok / {} shed / {} deadline / {} err, \
                 p50 {:.2} ms, p99 {:.2} ms",
                report.offered_qps,
                report.ok,
                report.shed,
                report.deadline,
                report.errors,
                report.p50_ms,
                report.p99_ms
            );
            rows.push(report.markdown_row(&label));
            json.push(report.to_json(&label));
        }
        server.shutdown();
    }

    println!(
        "| run | offered qps | achieved qps | 200 | 429 | 504 | err | p50 ms | p99 ms | shed p99 ms |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for row in &rows {
        println!("{row}");
    }
    if let Some(path) = json_path {
        let artifact = format!(
            "{{\n  \"schema\": 1,\n  \"per_series_ms\": {:.4},\n  \"capacity_qps\": {:.1},\n  \"runs\": [\n  {}\n  ]\n}}\n",
            per_series * 1e3,
            capacity_qps,
            json.join(",\n  ")
        );
        std::fs::write(&path, artifact).expect("write json artifact");
        eprintln!("wrote {path}");
    }
}
