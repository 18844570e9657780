//! # rpm-obs — pipeline observability for the RPM training engine
//!
//! A std-only (offline-build-compatible) instrumentation layer shared by
//! every crate in the workspace:
//!
//! * **Spans** ([`span`](mod@span)) — RAII stage timers (`span!("cfs")`)
//!   with nesting, monotonic-clock timestamps, and per-thread recording
//!   that merges deterministically by stage path. Instrumentation never
//!   feeds back into the computation, so instrumented runs stay
//!   bit-identical to uninstrumented ones.
//! * **Metrics** ([`metrics`](mod@metrics)) — a static registry of atomic
//!   counters, gauges, and log₂-bucket histograms fed by the training
//!   engine, the memoization caches, the candidate/CFS pipeline, and the
//!   optimizers, declared once as one table.
//! * **Sinks** ([`report`]) — a human-readable end-of-run stage tree
//!   (time, %, calls) on stderr and a JSONL event/report export, plus a
//!   structured progress logger ([`logger`]) replacing ad-hoc prints. A
//!   saved report is read back by one validating reader,
//!   [`validate_jsonl`], whose [`ReportSummary`] feeds [`diff_reports`].
//!
//! Everything is gated by a single global [`ObsLevel`], set either
//! programmatically ([`ObsConfig::install`], reachable through
//! `RpmConfig { obs }` in `rpm-core`) or from the `RPM_LOG` environment
//! variable ([`init_env`]) for binaries and examples. At
//! [`ObsLevel::Off`] (the default) every probe is a no-op behind one
//! relaxed atomic load — the disabled path allocates nothing, takes no
//! lock, and never reads the clock (benchmarked in
//! `rpm-bench/benches/kernels.rs`).
//!
//! ```
//! use rpm_obs::{ObsConfig, ObsLevel};
//!
//! ObsConfig { level: ObsLevel::Spans, ..ObsConfig::default() }.install();
//! {
//!     let _train = rpm_obs::span!("train");
//!     let _mine = rpm_obs::span!("mine");
//!     rpm_obs::metrics().engine_jobs.add(3);
//! } // guards record "train" and "train/mine" on drop
//! let report = rpm_obs::finish().expect("observability is on");
//! assert_eq!(report.stages.len(), 2);
//! assert_eq!(report.metrics.counter("engine.jobs"), Some(3));
//! ```

pub mod diff;
pub mod drift;
pub mod export;
pub mod fault;
pub mod http;
pub mod logger;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;

pub use diff::{diff_reports, DiffOptions, DiffReport};
pub use drift::{
    DriftConfig, DriftMonitor, DriftReport, DriftSample, DriftStatus, MetricDrift, ReferenceProfile,
};
pub use export::{drift_to_prometheus, to_prometheus};
pub use fault::{FaultKind, FaultSpec};
pub use http::{
    metrics_routes, serve, serve_router, serve_with, MetricsServer, Request, Response, Router,
    ServeLimits, ServingModel,
};
pub use logger::LogEvent;
pub use metrics::{metrics, CacheFamilyMetrics, Counter, Gauge, Histogram, MetricsSnapshot};
pub use report::{finish, snapshot, validate_jsonl, ReportSummary, RunReport, StageAgg};
pub use span::{enter, SpanGuard, SpanRecord};
pub use trace::{
    parse_traceparent, record_exemplar, recorder, FlightRecorder, SpanId, TraceCtx, TraceId,
    TraceOutcome, TraceRecord, TraceSpan,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How much the instrumentation layer records. Levels are cumulative.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Nothing is recorded; every probe is a no-op (the default).
    #[default]
    Off = 0,
    /// Metrics and progress logs, no span timing.
    Summary = 1,
    /// Everything: metrics, logs, and the span/stage tree.
    Spans = 2,
    /// Spans plus debug-level log events.
    Debug = 3,
}

impl ObsLevel {
    /// Parses a level name (`off`, `summary`, `spans`, `debug`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Self::Off),
            "summary" | "1" | "info" => Some(Self::Summary),
            "spans" | "2" => Some(Self::Spans),
            "debug" | "3" => Some(Self::Debug),
            _ => None,
        }
    }

    fn as_str(&self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Summary => "summary",
            Self::Spans => "spans",
            Self::Debug => "debug",
        }
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Observability knobs carried by `RpmConfig { obs }` (and parsed from
/// `RPM_LOG` for binaries): the recording level and an optional JSONL
/// report path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Recording level; [`ObsLevel::Off`] disables everything.
    pub level: ObsLevel,
    /// Where [`finish`] writes the JSONL run report (`None` = no export).
    pub json_path: Option<String>,
    /// Address for the Prometheus `/metrics` endpoint (`None` = no
    /// server). Started process-globally on the first [`install`] that
    /// sets it; see [`http::serve_global`].
    ///
    /// [`install`]: ObsConfig::install
    pub http_addr: Option<String>,
}

impl ObsConfig {
    /// Parses the `RPM_LOG` directive syntax: a comma-separated list of a
    /// level name, `json=PATH`, and/or `http=ADDR`, e.g.
    /// `spans,json=run.jsonl,http=127.0.0.1:9898`. Unknown directives are
    /// ignored; a bare path-less `json`/addr-less `http` is ignored.
    pub fn parse(s: &str) -> Self {
        let mut config = Self::default();
        for directive in s.split(',') {
            let directive = directive.trim();
            if let Some(path) = directive.strip_prefix("json=") {
                if !path.is_empty() {
                    config.json_path = Some(path.to_string());
                    // A JSON export implies at least metric recording.
                    if config.level == ObsLevel::Off {
                        config.level = ObsLevel::Spans;
                    }
                }
            } else if let Some(addr) = directive.strip_prefix("http=") {
                if !addr.is_empty() {
                    config.http_addr = Some(addr.to_string());
                    // A scrape endpoint needs metrics to be recorded.
                    if config.level == ObsLevel::Off {
                        config.level = ObsLevel::Summary;
                    }
                }
            } else if let Some(level) = ObsLevel::parse(directive) {
                config.level = level;
            }
        }
        config
    }

    /// Installs this configuration globally: sets the recording level and
    /// the JSONL report path, pins the monotonic epoch, and (once per
    /// process) starts the `/metrics` endpoint when `http_addr` is set.
    pub fn install(&self) {
        let _ = epoch();
        if let Ok(mut p) = json_path_slot().lock() {
            p.clone_from(&self.json_path);
        }
        LEVEL.store(self.level as u8, Ordering::Relaxed);
        if let Some(addr) = &self.http_addr {
            http::serve_global(addr);
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(ObsLevel::Off as u8);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn json_path_slot() -> &'static Mutex<Option<String>> {
    static SLOT: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// The configured JSONL export path, if any.
pub fn json_path() -> Option<String> {
    json_path_slot().lock().ok().and_then(|p| p.clone())
}

/// The current global recording level.
pub fn level() -> ObsLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => ObsLevel::Off,
        1 => ObsLevel::Summary,
        2 => ObsLevel::Spans,
        _ => ObsLevel::Debug,
    }
}

/// Whether anything at all is being recorded (metrics + logs).
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= ObsLevel::Summary as u8
}

/// Whether span timing is being recorded.
#[inline]
pub fn spans_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= ObsLevel::Spans as u8
}

/// Whether debug-level log events are being recorded.
#[inline]
pub fn debug_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= ObsLevel::Debug as u8
}

/// The process-wide monotonic epoch all timestamps are relative to.
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the observability epoch (monotonic clock).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Initializes the global configuration from the `RPM_LOG` environment
/// variable (see [`ObsConfig::parse`]); leaves everything off when the
/// variable is unset. Returns the installed configuration.
pub fn init_env() -> ObsConfig {
    init_env_default(ObsLevel::Off)
}

/// [`init_env`], but falling back to `default_level` when `RPM_LOG` is
/// unset — binaries that want progress output by default use
/// `init_env_default(ObsLevel::Summary)` so `RPM_LOG=off` can silence
/// them.
pub fn init_env_default(default_level: ObsLevel) -> ObsConfig {
    fault::init_env();
    let config = match std::env::var("RPM_LOG") {
        Ok(s) if !s.trim().is_empty() => ObsConfig::parse(&s),
        _ => ObsConfig {
            level: default_level,
            ..ObsConfig::default()
        },
    };
    config.install();
    config
}

/// Serializes tests across this crate's modules: they all mutate the
/// global level and the shared span/log/metric state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_round_trips() {
        for l in [
            ObsLevel::Off,
            ObsLevel::Summary,
            ObsLevel::Spans,
            ObsLevel::Debug,
        ] {
            assert_eq!(ObsLevel::parse(&l.to_string()), Some(l));
        }
        assert_eq!(ObsLevel::parse("bogus"), None);
    }

    #[test]
    fn config_parse_directives() {
        let c = ObsConfig::parse("spans,json=run.jsonl");
        assert_eq!(c.level, ObsLevel::Spans);
        assert_eq!(c.json_path.as_deref(), Some("run.jsonl"));

        let c = ObsConfig::parse("summary");
        assert_eq!(c.level, ObsLevel::Summary);
        assert_eq!(c.json_path, None);

        // json alone implies span recording.
        let c = ObsConfig::parse("json=x.jsonl");
        assert_eq!(c.level, ObsLevel::Spans);

        // http alone implies metric recording.
        let c = ObsConfig::parse("http=127.0.0.1:9898");
        assert_eq!(c.level, ObsLevel::Summary);
        assert_eq!(c.http_addr.as_deref(), Some("127.0.0.1:9898"));

        // an explicit level combines with an endpoint.
        let c = ObsConfig::parse("spans,http=0.0.0.0:9000");
        assert_eq!(c.level, ObsLevel::Spans);
        assert_eq!(c.http_addr.as_deref(), Some("0.0.0.0:9000"));

        // unknown directives and an addr-less http are ignored.
        let c = ObsConfig::parse("verbose,wat,http=");
        assert_eq!(c, ObsConfig::default());
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
