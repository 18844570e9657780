//! Open-loop `POST /classify` generator with bounded concurrency.
//!
//! Tick `k` of a rung is due at `start + k / rate`, whatever happened to
//! earlier ticks. At most `senders` ticks are in flight (one connection
//! per sender thread); a free sender takes the next tick in schedule
//! order, so when every sender is busy the generator runs late and the
//! lateness is recorded. Latency is timed from the due time, so a stall
//! also charges the ticks queued behind it. Ticks still unsent when the
//! rung's grace period ends are counted as unsent, never dropped.

use crate::stats::{self, Lateness};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request body and the labels the offline model gives its series.
#[derive(Clone, Debug)]
pub struct Body {
    /// JSONL text, one series per line.
    pub text: String,
    /// Offline `predict_batch` labels, one per line.
    pub labels: Vec<usize>,
}

/// One tick that was sent.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Position in the schedule.
    pub tick: usize,
    /// Send time minus due time, ms.
    pub late_ms: f64,
    /// Response completion minus due time, ms.
    pub latency_ms: f64,
    /// HTTP status, or 0 when the connection or I/O failed.
    pub status: u16,
    /// The served labels equal the offline labels.
    pub labels_ok: bool,
}

/// Everything one rung produced.
#[derive(Clone, Debug)]
pub struct RungReport {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Sent ticks in schedule order.
    pub samples: Vec<Sample>,
    /// Ticks not sent before the grace period ended.
    pub unsent: usize,
}

impl RungReport {
    /// Ticks scheduled.
    pub fn attempted(&self) -> usize {
        self.samples.len() + self.unsent
    }

    /// Non-200 responses, label mismatches and unsent ticks.
    pub fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.status != 200 || !s.labels_ok)
            .count()
            + self.unsent
    }

    /// 200 responses whose labels differ from the offline model's.
    pub fn mismatches(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.status == 200 && !s.labels_ok)
            .count()
    }

    /// Ascending latencies of every sent tick, ms.
    pub fn latencies(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .samples
                .iter()
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// Generator lateness over the rung.
    pub fn lateness(&self, limit_ms: f64) -> Lateness {
        let late: Vec<f64> = self.samples.iter().map(|s| s.late_ms).collect();
        stats::lateness(&late, limit_ms)
    }

    /// Responses per status code class: `[200, 429, 504, other]`.
    pub fn status_counts(&self) -> [u64; 4] {
        let mut c = [0u64; 4];
        for s in &self.samples {
            let i = match s.status {
                200 => 0,
                429 => 1,
                504 => 2,
                _ => 3,
            };
            c[i] += 1;
        }
        c
    }

    /// The rung meets `limit_ms`: nothing failed, the tail latency is
    /// within the limit and the generator did not fall behind.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed() == 0
            && stats::tail(&self.latencies()).is_some_and(|t| t.value <= limit_ms)
            && !self.lateness(limit_ms).growing
    }
}

/// Sends `ticks` requests at `rate` per second to `addr` from `senders`
/// threads, cycling through `bodies`. `grace` is how long past the last
/// due time a tick may still be sent.
pub fn run_rung(
    addr: SocketAddr,
    bodies: &[Body],
    rate: f64,
    ticks: usize,
    senders: usize,
    grace: Duration,
) -> RungReport {
    assert!(!bodies.is_empty() && rate > 0.0 && senders > 0);
    let period = Duration::from_secs_f64(1.0 / rate);
    // A short runway so every sender is waiting before tick 0 is due.
    let start = Instant::now() + Duration::from_millis(20);
    let stop_at = start + period * ticks as u32 + grace;
    let next = AtomicUsize::new(0);
    let unsent = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(ticks));
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let tick = next.fetch_add(1, Ordering::Relaxed);
                    if tick >= ticks {
                        break;
                    }
                    let due = start + period * tick as u32;
                    let now = Instant::now();
                    if now >= stop_at {
                        unsent.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let body = &bodies[tick % bodies.len()];
                    let (status, labels_ok) = match request(addr, "POST", "/classify", &body.text) {
                        Some((status, text)) => {
                            (status, status == 200 && labels_of(&text) == body.labels)
                        }
                        None => (0, false),
                    };
                    let done = Instant::now();
                    local.push(Sample {
                        tick,
                        late_ms: ms(sent.saturating_duration_since(due)),
                        latency_ms: ms(done.saturating_duration_since(due)),
                        status,
                        labels_ok,
                    });
                }
                samples
                    .lock()
                    .expect("a sender panicked while holding the sample lock")
                    .extend(local);
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample lock poisoned");
    samples.sort_by_key(|s| s.tick);
    RungReport {
        rate,
        samples,
        unsent: unsent.into_inner(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One HTTP/1.0 request over a fresh connection (the server closes
/// every connection after its response). Returns the status and body,
/// or `None` on a connection or I/O failure.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.set_nodelay(true).ok()?;
    let head = format!(
        "{method} {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).ok()?;
    stream.write_all(body.as_bytes()).ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

/// The `"label"` of every response line, in order.
pub fn labels_of(body: &str) -> Vec<usize> {
    body.lines()
        .filter_map(|line| {
            let rest = &line[line.find("\"label\":")? + "\"label\":".len()..];
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: usize, late_ms: f64, latency_ms: f64, status: u16) -> Sample {
        Sample {
            tick,
            late_ms,
            latency_ms,
            status,
            labels_ok: status == 200,
        }
    }

    #[test]
    fn unsent_ticks_and_wrong_labels_count_as_failures() {
        let mut samples: Vec<Sample> = (0..20).map(|k| sample(k, 0.0, 1.0, 200)).collect();
        samples[3].labels_ok = false;
        samples[4].status = 504;
        let r = RungReport {
            rate: 10.0,
            samples,
            unsent: 2,
        };
        assert_eq!(r.attempted(), 22);
        assert_eq!(r.failed(), 4);
        assert_eq!(r.mismatches(), 1);
        assert_eq!(r.status_counts(), [19, 0, 1, 0]);
        assert!(!r.passes(100.0));
    }

    #[test]
    fn a_rung_passes_only_within_the_limit_and_without_growing_lateness() {
        let steady = RungReport {
            rate: 100.0,
            samples: (0..40).map(|k| sample(k, 0.1, 2.0, 200)).collect(),
            unsent: 0,
        };
        assert!(steady.passes(5.0));
        assert!(!steady.passes(1.5), "tail above the limit");

        // Lateness climbing 1 ms per tick: the latency from the due time
        // still fits a generous limit, but the backlog grows.
        let behind = RungReport {
            rate: 100.0,
            samples: (0..40)
                .map(|k| sample(k, k as f64, 2.0 + k as f64, 200))
                .collect(),
            unsent: 0,
        };
        assert!(behind.lateness(50.0).growing);
        assert!(!behind.passes(50.0));
    }

    #[test]
    fn labels_are_read_from_every_response_line() {
        let body = "{\"label\":2}\n{\"id\":\"a\",\"label\": 10}\n";
        assert_eq!(labels_of(body), vec![2, 10]);
        assert!(labels_of("{\"error\":\"overloaded\"}\n").is_empty());
    }
}
