//! The serving path: open-loop load at fixed rates against a live
//! `rpm_serve::Server` on loopback.

use crate::loadgen::{self, Body, RungReport};
use crate::stats;
use crate::train::Kernel;
use rpm_core::RpmClassifier;
use rpm_obs::metrics::MetricsSnapshot;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A workload's fixed offered rates, requests per second, and the tail
/// latency limit a rung must meet.
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    pub light: f64,
    pub heavy: f64,
    /// Rates tried above `heavy`, ascending, for `sustained_rps`.
    pub probes: &'static [f64],
    pub limit_ms: f64,
    /// Light and heavy rungs alternate this many times; each level
    /// reports the median of its rungs' figures.
    pub rounds: usize,
}

/// Share of the serving time given to the light and heavy rounds; the
/// probes split the rest.
const LEVELS_SHARE: f64 = 0.7;

/// Ticks for a rung at `rate` lasting `secs`. Never fewer than 20, so a
/// tail percentile with ten samples beyond it exists.
fn ticks(rate: f64, secs: f64) -> usize {
    ((rate * secs).round() as usize).max(20)
}

/// Rungs each probe rate is split into; a probe passes when most pass.
const PROBE_RUNGS: usize = 3;

/// Bodies whose parse and predict are timed offline.
const PROFILED_BODIES: usize = 16;

/// Light, heavy and probe rungs, with the highest rate met.
#[derive(Debug)]
pub struct Ladder {
    pub light: Vec<RungReport>,
    pub heavy: Vec<RungReport>,
    pub probes: Vec<Vec<RungReport>>,
    /// The highest rate met, by [`level_passes`], at that rate and at
    /// every rate below it; 0 when the light level failed.
    pub sustained_rps: f64,
}

/// A rate is met when most of its rungs pass: one stall of the machine
/// must not decide it.
fn level_passes(rungs: &[RungReport], limit_ms: f64) -> bool {
    2 * rungs.iter().filter(|r| r.passes(limit_ms)).count() > rungs.len()
}

/// Alternates light and heavy rungs for `rates.rounds` rounds, calling
/// `between_rounds` after each round while no load runs, then runs the
/// probes in ascending order until one fails. `between_rounds` returns
/// the address to load from then on. `secs` is the time to spend on the
/// rungs in total.
pub fn ladder(
    addr: SocketAddr,
    bodies: &[Body],
    rates: &Rates,
    secs: f64,
    senders: usize,
    between_rounds: &mut dyn FnMut() -> Result<SocketAddr, String>,
) -> Result<Ladder, String> {
    let rung_secs = secs * LEVELS_SHARE / (2 * rates.rounds) as f64;
    let probe_secs = secs * (1.0 - LEVELS_SHARE) / (PROBE_RUNGS * rates.probes.len().max(1)) as f64;
    let mut addr = addr;
    let run = |addr: SocketAddr, rate: f64, secs: f64| {
        loadgen::run_rung(addr, bodies, rate, ticks(rate, secs), senders, grace(rates))
    };
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    for _ in 0..rates.rounds {
        light.push(run(addr, rates.light, rung_secs));
        heavy.push(run(addr, rates.heavy, rung_secs));
        addr = between_rounds()?;
    }
    let mut sustained = 0.0;
    let mut probes = Vec::new();
    if level_passes(&light, rates.limit_ms) {
        sustained = rates.light;
        if level_passes(&heavy, rates.limit_ms) {
            sustained = rates.heavy;
            for &rate in rates.probes {
                let rungs: Vec<RungReport> = (0..PROBE_RUNGS)
                    .map(|_| run(addr, rate, probe_secs))
                    .collect();
                let passed = level_passes(&rungs, rates.limit_ms);
                probes.push(rungs);
                if !passed {
                    break;
                }
                sustained = rate;
            }
        }
    }
    Ok(Ladder {
        light,
        heavy,
        probes,
        sustained_rps: sustained,
    })
}

/// How long past its last due time a rung may still send: long enough
/// that only a saturated server leaves ticks unsent.
fn grace(rates: &Rates) -> Duration {
    Duration::from_secs_f64(1.0 + rates.limit_ms / 1e3)
}

/// Per-layer figures of the serving path. Times in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub parse_ms: f64,
    pub bytes: f64,
    pub predict_ms: f64,
    pub queue_wait_p50_ms: f64,
    pub queue_wait_tail_ms: f64,
    pub batch_fill: f64,
    pub batches: u64,
    pub overhead_ms: f64,
    pub rejected: u64,
    pub late_ms: f64,
    pub unsent: u64,
    pub kernel: Kernel,
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: usize,
}

/// Server counters as scraped from `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Scrape {
    requests: u64,
    shed: u64,
    deadline: u64,
    errors: u64,
    rejected: u64,
}

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Self, String> {
        let (status, text) = loadgen::request(addr, "GET", "/metrics", "")
            .ok_or("GET /metrics failed".to_string())?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        let counter = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
                .unwrap_or(0)
        };
        Ok(Self {
            requests: counter("rpm_serve_requests_total"),
            shed: counter("rpm_serve_shed_total"),
            deadline: counter("rpm_serve_deadline_exceeded_total"),
            errors: counter("rpm_serve_errors_total"),
            rejected: counter("rpm_http_rejected_total"),
        })
    }
}

/// Checks the client's status counts against the server's `/metrics`
/// deltas over the same rung.
fn reconcile(rung: &RungReport, before: Scrape, after: Scrape) -> Result<(), String> {
    let [ok, shed, deadline, other] = rung.status_counts();
    let requests = after.requests - before.requests;
    let d_shed = after.shed - before.shed;
    let d_deadline = after.deadline - before.deadline;
    let d_errors = after.errors - before.errors;
    let d_rejected = after.rejected - before.rejected;
    let served_ok = requests.checked_sub(d_shed + d_deadline + d_errors);
    if served_ok != Some(ok)
        || shed != d_shed
        || deadline != d_deadline
        || other != d_errors + d_rejected
    {
        return Err(format!(
            "client counts 200/429/504/other = {ok}/{shed}/{deadline}/{other} disagree with \
             /metrics deltas requests {requests}, shed {d_shed}, deadline_exceeded \
             {d_deadline}, errors {d_errors}, http.rejected {d_rejected}"
        ));
    }
    Ok(())
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

fn histogram<'a>(
    snap: &'a MetricsSnapshot,
    name: &str,
) -> Option<&'a rpm_obs::metrics::HistogramSnapshot> {
    snap.histograms
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| h)
}

/// Median wall time of `f` over `reps` calls, ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

/// The traced serving run: the light rung twice, reconciled against
/// `/metrics` each time, with every count compared between the two;
/// then the parse and predict layers timed offline on the same bodies.
pub fn traced(
    addr: SocketAddr,
    bodies: &[Body],
    model: &RpmClassifier,
    rates: &Rates,
    secs: f64,
    senders: usize,
) -> Result<Layers, String> {
    let n = ticks(rates.light, secs / 2.0);
    rpm_obs::metrics::reset();
    let start = rpm_obs::metrics::snapshot();
    let mut rungs = Vec::new();
    let mut counts: Vec<Vec<(&str, u64)>> = Vec::new();
    for _ in 0..2 {
        let scrape0 = Scrape::take(addr)?;
        let snap0 = rpm_obs::metrics::snapshot();
        let rung = loadgen::run_rung(addr, bodies, rates.light, n, senders, grace(rates));
        let snap1 = rpm_obs::metrics::snapshot();
        reconcile(&rung, scrape0, Scrape::take(addr)?)?;
        let kernel = Kernel::between(&snap0, &snap1);
        let bytes: u64 = rung
            .samples
            .iter()
            .map(|s| bodies[s.tick % bodies.len()].text.len() as u64)
            .sum();
        counts.push(vec![
            ("requests", rung.samples.len() as u64),
            ("proto.bytes", bytes),
            (
                "http.rejected",
                counter_delta(&snap0, &snap1, "http.rejected"),
            ),
            ("match.windows", kernel.windows),
            ("match.pruned_first_last", kernel.pruned_first_last),
            ("match.pruned_envelope", kernel.pruned_envelope),
            ("match.abandoned", kernel.abandoned),
            ("match.stats_builds", kernel.stats_builds),
        ]);
        rungs.push(rung);
    }
    crate::same_counts("serving", &counts[0], &counts[1])?;
    let end = rpm_obs::metrics::snapshot();

    let mut layers = Layers {
        kernel: Kernel::between(&start, &end),
        batches: counter_delta(&start, &end, "serve.batches"),
        rejected: counter_delta(&start, &end, "http.rejected"),
        ..Layers::default()
    };
    if let Some(wait) = histogram(&end, "serve.queue_wait_ns") {
        layers.queue_wait_p50_ms = wait.p50() / 1e6;
        let beyond = stats::TAIL_BEYOND as f64;
        let q = ((wait.count as f64 - beyond) / wait.count as f64).max(0.0);
        layers.queue_wait_tail_ms = wait.quantile(q) / 1e6;
    }
    if let Some(fill) = histogram(&end, "serve.batch_fill") {
        layers.batch_fill = fill.mean();
    }
    // Send-to-response time per request, without generator lateness.
    let mut exchange = Vec::new();
    let mut late = Vec::new();
    for rung in &rungs {
        exchange.extend(rung.samples.iter().map(|s| s.latency_ms - s.late_ms));
        late.extend(rung.samples.iter().map(|s| s.late_ms));
        layers.unsent += rung.unsent as u64;
        layers.attempted += rung.attempted();
        layers.failed += rung.failed();
        layers.mismatches += rung.mismatches();
    }
    // Means, so the two sides subtract: the client's exchange time less
    // the handler's own time (`serve.latency_ns`, whose mean is exact)
    // leaves connection set-up, HTTP framing and transfer.
    let server_ms = histogram(&end, "serve.latency_ns").map_or(0.0, |h| h.mean() / 1e6);
    layers.overhead_ms = exchange.iter().sum::<f64>() / exchange.len().max(1) as f64 - server_ms;
    layers.late_ms = stats::lateness(&late, rates.limit_ms).tail_ms;
    layers.bytes = bodies.iter().map(|b| b.text.len() as f64).sum::<f64>() / bodies.len() as f64;

    // Offline, the same bodies through the parse and predict layers.
    let mut parse = Vec::new();
    let mut predict = Vec::new();
    for body in bodies.iter().take(PROFILED_BODIES) {
        let series: Vec<Vec<f64>> = rpm_serve::proto::parse_body(body.text.as_bytes())?
            .into_iter()
            .map(|line| line.values)
            .collect();
        parse.push(median_ms(5, || {
            std::hint::black_box(rpm_serve::proto::parse_body(body.text.as_bytes()).ok());
        }));
        predict.push(median_ms(5, || {
            std::hint::black_box(model.predict_batch(&series));
        }));
    }
    layers.parse_ms = stats::median(&parse);
    layers.predict_ms = stats::median(&predict);
    Ok(layers)
}
