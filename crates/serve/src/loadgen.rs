//! Open-loop load generation against a running classify server.
//!
//! The generator is *open-loop*: request `k` is scheduled at
//! `start + k / qps` regardless of how earlier requests fared, which is
//! how real arrival processes behave — clients do not politely slow
//! down because the server is struggling. That makes the measured p99
//! honest under overload (a closed-loop generator would hide queueing
//! collapse by self-throttling) and makes the `429` shed rate visible
//! as exactly the traffic the bounded queue refused.
//!
//! Each sender thread owns every `senders`-th tick, sleeps until the
//! tick is due, POSTs one pre-rendered JSONL body over a fresh
//! connection, and records `(status, latency)`. Bodies cycle
//! round-robin by tick index, so offering `n × bodies.len()` requests
//! replays each body exactly `n` times — a uniform replay of the
//! source distribution, which is what the drift monitor compares
//! against its training-time reference. Senders stop issuing
//! once the configured duration has elapsed: ticks the client could
//! not send in time are counted as [`LoadReport::missed`] rather than
//! silently stretching the run into a closed loop, so `achieved_qps`
//! versus `offered_qps` shows exactly how far the client fell behind.
//! Percentiles are exact (sorted samples, no buckets) since a load run
//! holds a few thousand points at most.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One load-generation run against `/classify`.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Offered (not achieved) request rate.
    pub qps: f64,
    /// How long to keep offering.
    pub duration: Duration,
    /// Sender threads sharing the schedule.
    pub senders: usize,
    /// Pre-rendered JSONL request bodies, cycled round-robin by tick
    /// index. Must be non-empty; a single-element vector reproduces
    /// the fixed-body behaviour.
    pub bodies: Vec<String>,
}

/// What a load run observed.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The rate the schedule offered.
    pub offered_qps: f64,
    /// Completed requests (any status) over the wall-clock the run took.
    pub achieved_qps: f64,
    /// Requests sent.
    pub sent: usize,
    /// Scheduled ticks the client could not send before the run's
    /// duration elapsed (sender threads saturated). Zero means the
    /// offered rate was genuinely offered.
    pub missed: usize,
    /// `200` responses.
    pub ok: usize,
    /// `429` sheds (backpressure).
    pub shed: usize,
    /// `504` deadline misses.
    pub deadline: usize,
    /// Everything else: other statuses and connect/IO failures.
    pub errors: usize,
    /// Latency percentiles over the `200` responses, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile over the `200` responses, milliseconds.
    pub p99_ms: f64,
    /// Mean over the `200` responses, milliseconds.
    pub mean_ms: f64,
    /// 99th percentile over the `429` sheds, milliseconds: overload
    /// rejections must stay cheap, and this is the receipt.
    pub shed_p99_ms: f64,
}

impl LoadReport {
    /// One row of the BENCH.md latency-vs-QPS table.
    pub fn markdown_row(&self, label: &str) -> String {
        format!(
            "| {label} | {:.0} | {:.0} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} |",
            self.offered_qps,
            self.achieved_qps,
            self.ok,
            self.shed,
            self.deadline,
            self.errors,
            self.p50_ms,
            self.p99_ms,
            self.shed_p99_ms,
        )
    }

    /// JSON object for machine-readable benchmark artifacts.
    pub fn to_json(&self, label: &str) -> String {
        format!(
            "{{\"label\":{},\"offered_qps\":{:.1},\"achieved_qps\":{:.1},\
             \"sent\":{},\"missed\":{},\"ok\":{},\"shed\":{},\"deadline\":{},\"errors\":{},\
             \"p50_ms\":{:.3},\"p99_ms\":{:.3},\"mean_ms\":{:.3},\"shed_p99_ms\":{:.3}}}",
            rpm_obs::json::quote(label),
            self.offered_qps,
            self.achieved_qps,
            self.sent,
            self.missed,
            self.ok,
            self.shed,
            self.deadline,
            self.errors,
            self.p50_ms,
            self.p99_ms,
            self.mean_ms,
            self.shed_p99_ms,
        )
    }
}

/// Runs one open-loop load generation pass and reports what came back.
pub fn run_load(config: &LoadConfig) -> LoadReport {
    assert!(!config.bodies.is_empty(), "LoadConfig.bodies is empty");
    let total = ((config.qps * config.duration.as_secs_f64()).round() as usize).max(1);
    let senders = config.senders.max(1);
    let tick = Duration::from_secs_f64(1.0 / config.qps.max(0.001));
    // A short runway so every sender is up before tick 0 is due.
    let start = Instant::now() + Duration::from_millis(20);

    // Senders that fall behind stop at the schedule's end rather than
    // stretching the run: an overloaded client is itself a measurement
    // (`missed`), not license to turn the open loop closed.
    let stop_at = start + config.duration;

    let begun = Instant::now();
    let (samples, missed): (Vec<(u16, Duration)>, usize) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..senders {
            let bodies = config.bodies.as_slice();
            let addr = config.addr;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                let mut k = t;
                while k < total {
                    let due = start + tick * (k as u32);
                    let now = Instant::now();
                    if now >= stop_at {
                        // Remaining ticks this sender owns were never
                        // offered; report them instead of sending late.
                        return (local, (total - k).div_ceil(senders));
                    }
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent_at = Instant::now();
                    let status = post_once(addr, &bodies[k % bodies.len()]);
                    local.push((status, sent_at.elapsed()));
                    k += senders;
                }
                (local, 0)
            }));
        }
        let mut samples = Vec::new();
        let mut missed = 0usize;
        for handle in handles {
            let (local, local_missed) = handle.join().expect("sender thread");
            samples.extend(local);
            missed += local_missed;
        }
        (samples, missed)
    });
    let wall = begun.elapsed();

    let mut ok_ms: Vec<f64> = Vec::new();
    let mut shed_ms: Vec<f64> = Vec::new();
    let (mut ok, mut shed, mut deadline, mut errors) = (0usize, 0usize, 0usize, 0usize);
    for (status, latency) in &samples {
        let ms = latency.as_secs_f64() * 1e3;
        match status {
            200 => {
                ok += 1;
                ok_ms.push(ms);
            }
            429 => {
                shed += 1;
                shed_ms.push(ms);
            }
            504 => deadline += 1,
            _ => errors += 1,
        }
    }
    LoadReport {
        offered_qps: config.qps,
        achieved_qps: samples.len() as f64 / wall.as_secs_f64().max(1e-9),
        sent: samples.len(),
        missed,
        ok,
        shed,
        deadline,
        errors,
        p50_ms: percentile(&mut ok_ms, 0.50),
        p99_ms: percentile(&mut ok_ms, 0.99),
        mean_ms: if ok_ms.is_empty() {
            0.0
        } else {
            ok_ms.iter().sum::<f64>() / ok_ms.len() as f64
        },
        shed_p99_ms: percentile(&mut shed_ms, 0.99),
    }
}

/// Exact nearest-rank percentile; 0.0 for an empty sample set.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// One POST /classify over a fresh connection; returns the response
/// status, or `0` for connect/IO failures.
fn post_once(addr: SocketAddr, body: &str) -> u16 {
    use std::io::{Read, Write};
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(5)) else {
        return 0;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    if write!(
        stream,
        "POST /classify HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .is_err()
    {
        return 0;
    }
    let mut response = String::new();
    if stream.read_to_string(&mut response).is_err() {
        return 0;
    }
    // "HTTP/1.0 200 OK" → 200.
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.50), 50.0);
        assert_eq!(percentile(&mut s, 0.99), 99.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        let mut one = [7.5];
        assert_eq!(percentile(&mut one, 0.99), 7.5);
    }

    #[test]
    fn reports_render_rows_and_json() {
        let report = LoadReport {
            offered_qps: 100.0,
            achieved_qps: 98.5,
            sent: 500,
            missed: 2,
            ok: 480,
            shed: 15,
            deadline: 5,
            errors: 0,
            p50_ms: 1.2,
            p99_ms: 4.8,
            mean_ms: 1.5,
            shed_p99_ms: 0.3,
        };
        let row = report.markdown_row("micro-batch");
        assert!(row.starts_with("| micro-batch | 100 |"), "{row}");
        let json = report.to_json("micro-batch");
        assert!(json.contains("\"ok\":480"), "{json}");
        assert!(json.contains("\"shed\":15"), "{json}");
        assert!(json.contains("\"missed\":2"), "{json}");
    }
}
