//! `rpm-serve`: a concurrent classify server over a shared RPM model.
//!
//! The serving story in one sentence: load a persisted model **once**
//! (CRC-verified before the listener opens), share it immutably behind
//! an `Arc` across a worker pool, and let a free worker take every
//! request queued at that moment as one batch, so under load the
//! per-series cost approaches offline
//! [`predict_batch`](rpm_core::RpmClassifier::predict_batch) throughput
//! while a lone request is predicted as soon as it arrives.
//!
//! Pipeline, per request:
//!
//! ```text
//! POST /classify (JSONL)
//!   → parse            [proto]          400 on malformed lines
//!   → bounded enqueue  [batch]          429 + Retry-After when full
//!   → batch pop        [worker pool]    what is queued, ≤ max_batch series
//!   → predict_batch_with(refs, opts)    zero-copy borrow of request buffers;
//!                                       opts attach kernel counters + drift
//!   → JSONL response / 504 deadline / 500 fault
//! ```
//!
//! Three properties are load-bearing:
//!
//! - **Backpressure over collapse.** The queue is bounded in series;
//!   beyond it requests shed immediately with `429` + `Retry-After`
//!   instead of queueing into latencies nobody will wait for.
//! - **Deadlines, TrainBudget-style.** Each request carries a deadline;
//!   workers drop expired entries before dispatch, and the handler's
//!   reply-timeout backstops deadlines that expire mid-predict. Both
//!   answer `504` with a `deadline_exceeded` error body.
//! - **Verified start.** [`load_verified`] runs the v2 per-section CRC
//!   check before any traffic is accepted; a v1 stream (no checksums)
//!   is refused unless explicitly allowed.
//!
//! Each server counts its own requests, outcomes, swaps and worker
//! restarts ([`Lifecycle::metrics`]) and reports them, with its
//! generation and queue depth, on its own `/metrics` and `/healthz`.
//! The `serve.request` / `serve.batch` / `serve.reload` /
//! `serve.worker` fault sites make the request, reload, and worker
//! paths chaos-testable like the rest of the pipeline.
//!
//! The model is not a fixed `Arc` for the process lifetime: each server
//! holds its current model generation ([`lifecycle`]), which carries the
//! model's fingerprint and drift monitor, behind `POST /admin/reload` /
//! `POST /admin/rollback` (and SIGHUP), and the worker pool is
//! crash-only under a supervisor ([`SuperviseSettings`]) that
//! quarantines panicked batches and respawns dead workers with backoff.

mod batch;
pub mod lifecycle;
pub mod loadgen;
pub mod proto;
mod supervise;

use std::io::Read;
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use batch::{BatchQueue, Pending, Reply};
use rpm_core::{PersistError, RpmClassifier, VerifyReport};
use rpm_obs::{json, Request, Response, ServeLimits, ServeMetrics, TraceCtx, TraceOutcome};
use rpm_ts::Parallelism;
use supervise::Supervisor;

pub use lifecycle::{
    signals, Lifecycle, ModelGeneration, ReloadError, ReloadOutcome, ReloadPolicy,
};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use supervise::SuperviseSettings;

/// Everything the server needs besides the model.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Batch worker threads popping the shared queue.
    pub workers: usize,
    /// Most series in one batch. A free worker takes the requests
    /// already queued, in order, while they fit, and never waits for
    /// more; a request larger than this goes out alone.
    pub max_batch: usize,
    /// Queue bound in series; pushes beyond it shed with `429`.
    pub queue_depth: usize,
    /// Per-request deadline, from the start of the `/classify` handler
    /// (before the body is parsed). A request still queued when it
    /// passes is answered `504` without being predicted.
    pub deadline: Duration,
    /// Execution mode handed to `predict_batch_with` (as
    /// [`PredictOptions::parallelism`](rpm_core::PredictOptions)) per batch.
    pub parallelism: Parallelism,
    /// Per-connection HTTP limits (timeouts, body cap, admission).
    pub limits: ServeLimits,
    /// Drift-monitor window shape and PSI thresholds. Only takes effect
    /// when the served model carries a training-time reference profile;
    /// without one, drift endpoints report `unavailable`.
    pub drift: rpm_obs::DriftConfig,
    /// Hot-reload canary thresholds and the post-swap probation window.
    pub reload: ReloadPolicy,
    /// Worker-pool supervision: respawn backoff and the restart-storm
    /// breaker.
    pub supervise: SuperviseSettings,
    /// Where the served model lives on disk: the default candidate for
    /// `POST /admin/reload` with no explicit path (and for SIGHUP).
    pub model_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9899".to_string(),
            workers: 2,
            max_batch: 32,
            queue_depth: 1024,
            deadline: Duration::from_secs(2),
            parallelism: Parallelism::Serial,
            limits: ServeLimits::default(),
            drift: rpm_obs::DriftConfig::default(),
            reload: ReloadPolicy::default(),
            supervise: SuperviseSettings::default(),
            model_path: None,
        }
    }
}

/// Why the server refused to start.
#[derive(Debug)]
pub enum ServeError {
    /// The model stream failed verification (bad CRC, truncation, …).
    Verify(PersistError),
    /// The stream is a v1 model: it carries no checksums, so integrity
    /// cannot be established. Pass `allow_unverified` to serve it
    /// anyway (and log that you did).
    Unverified(VerifyReport),
    /// Bind or I/O failure bringing the listener up.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Verify(e) => write!(f, "model failed verification: {e}"),
            Self::Unverified(report) => write!(
                f,
                "model is format v{} without checksums; integrity cannot be \
                 verified (pass --allow-unverified to serve it anyway)",
                report.version
            ),
            Self::Io(e) => write!(f, "server I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Verifies and loads a model for serving: the stream is checksummed
/// end-to-end (v2 per-section CRCs) **before** parsing, and v1 streams
/// — which carry no checksums — are refused unless `allow_unverified`.
/// Returns the loaded model and the verification report (callers log
/// the section/pattern counts at startup).
pub fn load_verified(
    bytes: &[u8],
    allow_unverified: bool,
) -> Result<(RpmClassifier, VerifyReport), ServeError> {
    let report = RpmClassifier::verify(bytes).map_err(ServeError::Verify)?;
    if report.version < 2 && !allow_unverified {
        return Err(ServeError::Unverified(report));
    }
    let model = RpmClassifier::load(bytes).map_err(ServeError::Verify)?;
    Ok((model, report))
}

/// [`load_verified`] from a file path.
pub fn load_verified_path(
    path: &std::path::Path,
    allow_unverified: bool,
) -> Result<(RpmClassifier, VerifyReport), ServeError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    load_verified(&bytes, allow_unverified)
}

/// A running classify server: HTTP listener, supervised batch worker
/// pool, and the model lifecycle behind `/admin/reload` and
/// `/admin/rollback`.
pub struct Server {
    http: rpm_obs::MetricsServer,
    queue: Arc<BatchQueue>,
    lifecycle: Arc<Lifecycle>,
    supervisor: Option<Supervisor>,
}

impl Server {
    /// Starts the listener and worker pool. The model is shared
    /// immutably in the current generation: every worker pins the
    /// current generation per batch, and prediction borrows request
    /// buffers without copying them. The serving fingerprint is
    /// computed from the model's canonical serialization; when the
    /// model came through [`load_verified`], prefer
    /// [`Server::start_verified`] so `/healthz` reports the exact
    /// fingerprint of the bytes on disk.
    pub fn start(model: Arc<RpmClassifier>, config: &ServeConfig) -> Result<Server, ServeError> {
        let fingerprint = model.current_fingerprint();
        Self::start_inner(model, fingerprint, config)
    }

    /// [`Server::start`] with the fingerprint taken from a
    /// [`VerifyReport`] (the CRC of the model file actually loaded).
    pub fn start_verified(
        model: Arc<RpmClassifier>,
        report: &VerifyReport,
        config: &ServeConfig,
    ) -> Result<Server, ServeError> {
        Self::start_inner(model, report.fingerprint.clone(), config)
    }

    fn start_inner(
        model: Arc<RpmClassifier>,
        fingerprint: String,
        config: &ServeConfig,
    ) -> Result<Server, ServeError> {
        // A serving endpoint without metric recording would scrape
        // empty; bump to Summary (keeping any RPM_LOG JSONL path) the
        // way `rpm-cli classify --metrics-addr` does.
        if !rpm_obs::enabled() {
            rpm_obs::ObsConfig {
                level: rpm_obs::ObsLevel::Summary,
                json_path: rpm_obs::json_path(),
                http_addr: None,
            }
            .install();
        }
        // The lifecycle installs generation 1, whose drift monitor is
        // armed iff the model carries a reference profile.
        let lifecycle = Arc::new(Lifecycle::new(
            model,
            fingerprint,
            config.reload,
            config.drift,
        ));
        let queue = Arc::new(BatchQueue::new(config.queue_depth));

        let supervisor = Supervisor::start(
            Arc::clone(&queue),
            Arc::clone(&lifecycle),
            config.workers,
            config.max_batch,
            config.parallelism,
            config.supervise,
        );

        let handler_queue = Arc::clone(&queue);
        let handler_metrics = Arc::clone(lifecycle.metrics());
        let deadline = config.deadline;
        let serving_queue = Arc::clone(&queue);
        let serving_lc = Arc::clone(&lifecycle);
        let reload_lc = Arc::clone(&lifecycle);
        let rollback_lc = Arc::clone(&lifecycle);
        let default_path = config.model_path.clone();
        let router = rpm_obs::metrics_routes(move || {
            let current = serving_lc.current();
            Some(rpm_obs::ServingModel {
                fingerprint: current.fingerprint.clone(),
                generation: current.generation,
                drift: current.drift_report(),
                queue_depth: serving_queue.depth() as u64,
                counters: Arc::clone(serving_lc.metrics()),
            })
        })
        .route("POST", "/classify", move |req| {
            classify(&handler_queue, &handler_metrics, deadline, req)
        })
        .route("POST", "/admin/reload", move |req| {
            admin_reload(&reload_lc, default_path.as_deref(), req)
        })
        .route("POST", "/admin/rollback", move |_req| {
            admin_rollback(&rollback_lc)
        });
        let http = rpm_obs::serve_router(&config.addr, config.limits, router)?;

        Ok(Server {
            http,
            queue,
            lifecycle,
            supervisor: Some(supervisor),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// The model lifecycle: reload/rollback programmatically (the CLI's
    /// SIGHUP path) or drive probation ticks in tests.
    pub fn lifecycle(&self) -> Arc<Lifecycle> {
        Arc::clone(&self.lifecycle)
    }

    /// Orderly shutdown: stop accepting, close the queue (workers drain
    /// what is left), and join the pool via the supervisor.
    pub fn shutdown(&mut self) {
        self.http.shutdown();
        self.queue.close();
        if let Some(mut supervisor) = self.supervisor.take() {
            supervisor.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `POST /admin/reload`: run the candidate (body `{"path":"…"}`; an
/// empty body or `{}` takes the path the server was started with)
/// through the canary gate and swap it in. `200` on swap; `409` with a
/// machine-readable `reason` when the candidate is rejected — the
/// serving generation is untouched in that case. Any other body is a
/// `400` and no reload is attempted.
fn admin_reload(
    lifecycle: &Lifecycle,
    default_path: Option<&std::path::Path>,
    req: &Request,
) -> Response {
    let bad_request =
        |detail: &str| Response::json(400, proto::format_error("bad_request", detail));
    let path = match proto::parse_reload_body(&req.body) {
        Ok(explicit) => explicit
            .map(PathBuf::from)
            .or_else(|| default_path.map(std::path::Path::to_path_buf)),
        Err(e) => return bad_request(&format!("reload body: {e}")),
    };
    match path {
        Some(path) => swap_response(
            lifecycle.reload_from_path(&path),
            "swapped",
            "reload_rejected",
        ),
        None => {
            bad_request("no candidate: POST {\"path\":\"…\"} or start the server with a model path")
        }
    }
}

/// `POST /admin/rollback`: swap back to the warm previous generation.
/// `409` when there is none.
fn admin_rollback(lifecycle: &Lifecycle) -> Response {
    swap_response(
        lifecycle.rollback("admin request"),
        "rolled_back",
        "rollback_rejected",
    )
}

/// The admin answer to a swap: `200` naming the new and displaced
/// generations, or `409` with the rejection's machine-readable `reason`.
fn swap_response(
    outcome: Result<lifecycle::ReloadOutcome, lifecycle::ReloadError>,
    result: &str,
    error: &str,
) -> Response {
    match outcome {
        Ok(o) => Response::json(
            200,
            format!(
                "{{\"result\":\"{result}\",\"generation\":{},\"fingerprint\":{},\"displaced\":{}}}\n",
                o.generation,
                json::quote(&o.fingerprint),
                json::quote(&o.displaced)
            ),
        ),
        Err(e) => Response::json(
            409,
            format!(
                "{{\"error\":\"{error}\",\"reason\":{},\"detail\":{}}}\n",
                json::quote(e.code()),
                json::quote(&e.to_string())
            ),
        ),
    }
}

/// Closes out a request's trace and stamps the response with its
/// identity: finish the span tree, offer the record to the flight
/// recorder (tail-based retention), attach Prometheus exemplars for the
/// values that *were* observed into histograms this request (so every
/// exemplar's trace id resolves against `/debug/traces`), log non-OK
/// outcomes with the trace id, and echo `X-Request-Id` + `Traceparent`
/// on the response — every response, including `429`/`504`.
fn finish_traced(
    trace: &TraceCtx,
    outcome: TraceOutcome,
    latency_ns: Option<u64>,
    response: Response,
) -> Response {
    let status = response.status;
    let record = trace.finish(outcome, status);
    let trace_hex = record.trace_id.to_hex();
    let queue_wait = record.span("queue_wait").map(|s| s.dur_ns);
    let retained = rpm_obs::recorder().record(record);
    if retained {
        if let Some(latency) = latency_ns {
            rpm_obs::record_exemplar("serve.latency_ns", latency, trace.trace_id());
            if let Some(wait) = queue_wait {
                rpm_obs::record_exemplar("serve.queue_wait_ns", wait, trace.trace_id());
            }
        }
    }
    if outcome != TraceOutcome::Ok {
        rpm_obs::logger::log_traced(
            "info",
            "serve",
            Some(trace_hex.clone()),
            format!("request {} ({status})", outcome.as_str()),
        );
    }
    response
        .with_header("X-Request-Id", trace_hex)
        .with_header("Traceparent", trace.traceparent())
}

/// The `POST /classify` handler: parse, enqueue (or shed), await the
/// worker's reply under the request deadline. The whole path is
/// request-traced: a W3C `traceparent` header is ingested (or a trace
/// id generated), `parse`/`respond` spans are recorded here, the
/// workers contribute `queue_wait`/`batch`/`predict`, and every exit —
/// 200, 400, 429, 500, 504 — flows through [`finish_traced`], and each
/// but a 200 counts in one outcome counter of `m`.
fn classify(queue: &BatchQueue, m: &ServeMetrics, deadline: Duration, req: &Request) -> Response {
    m.requests.inc();
    let started = Instant::now();
    let trace = TraceCtx::begin(req.header("traceparent"));

    if let Err(e) = rpm_obs::fault::point("serve.request") {
        m.errors.inc();
        return finish_traced(
            &trace,
            TraceOutcome::Error,
            None,
            Response::json(500, proto::format_error("internal", &e.to_string())),
        );
    }

    let parse_start = rpm_obs::now_ns();
    let parsed = proto::parse_body(&req.body);
    trace.add_span(
        "parse",
        parse_start,
        rpm_obs::now_ns().saturating_sub(parse_start),
    );
    let requests = match parsed {
        Ok(r) => r,
        Err(e) => {
            m.bad_requests.inc();
            return finish_traced(
                &trace,
                TraceOutcome::BadRequest,
                None,
                Response::json(400, proto::format_error("bad_request", &e)),
            );
        }
    };
    let ids: Vec<Option<String>> = requests.iter().map(|r| r.id.clone()).collect();
    let series: Vec<Vec<f64>> = requests.into_iter().map(|r| r.values).collect();

    let (reply_tx, reply_rx) = channel();
    let pending = Pending {
        series,
        enqueued_ns: rpm_obs::now_ns(),
        deadline: started + deadline,
        trace: Arc::clone(&trace),
        reply: reply_tx,
    };
    if queue.try_push(pending).is_err() {
        m.shed.inc();
        return finish_traced(
            &trace,
            TraceOutcome::Shed,
            None,
            Response::json(
                429,
                proto::format_error("overloaded", "queue full; retry after backoff"),
            )
            .with_header("Retry-After", "1"),
        );
    }

    // Small grace over the deadline: the worker-side gate is the real
    // enforcement; the timeout here only backstops a predict call that
    // straddles the deadline (answered 504 all the same).
    let wait = deadline + Duration::from_millis(50);
    let (outcome, response) = match reply_rx.recv_timeout(wait) {
        Ok(Reply::Labels { labels, generation }) => {
            let respond_start = rpm_obs::now_ns();
            let mut body = String::with_capacity(labels.len() * 16);
            for (id, label) in ids.iter().zip(&labels) {
                body.push_str(&proto::format_response_line(id.as_deref(), *label));
                body.push('\n');
            }
            trace.add_span(
                "respond",
                respond_start,
                rpm_obs::now_ns().saturating_sub(respond_start),
            );
            (
                TraceOutcome::Ok,
                Response::json(200, body)
                    .with_content_type("application/jsonl; charset=utf-8")
                    .with_header("X-Model-Generation", generation.to_string()),
            )
        }
        Ok(Reply::DeadlineExceeded) | Err(RecvTimeoutError::Timeout) => {
            m.deadline_exceeded.inc();
            (
                TraceOutcome::Deadline,
                Response::json(
                    504,
                    proto::format_error(
                        "deadline_exceeded",
                        &format!(
                            "{}ms deadline passed before prediction",
                            deadline.as_millis()
                        ),
                    ),
                ),
            )
        }
        Ok(Reply::Failed(msg)) => {
            m.errors.inc();
            (
                TraceOutcome::Error,
                Response::json(500, proto::format_error("internal", &msg)),
            )
        }
        Err(RecvTimeoutError::Disconnected) => {
            m.errors.inc();
            (
                TraceOutcome::Error,
                Response::json(
                    500,
                    proto::format_error("internal", "worker dropped the request"),
                ),
            )
        }
    };
    let latency_ns = started.elapsed().as_nanos() as u64;
    rpm_obs::metrics().serve_latency.observe(latency_ns);
    finish_traced(&trace, outcome, Some(latency_ns), response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpm_core::RpmConfig;
    use rpm_sax::SaxConfig;
    use rpm_ts::Dataset;
    use std::io::Write;
    use std::net::TcpStream;

    /// Two planted-motif classes, the shape the persistence tests use.
    fn dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new("serve-test", Vec::new(), Vec::new());
        for class in 0..2usize {
            for _ in 0..10 {
                let mut s: Vec<f64> = (0..96).map(|_| 0.2 * (rng.gen::<f64>() - 0.5)).collect();
                let at = rng.gen_range(0usize..96 - 20);
                for i in 0..20 {
                    let t = std::f64::consts::TAU * i as f64 / 20.0;
                    s[at + i] += 3.0 * if class == 0 { t.sin() } else { -t.sin() };
                }
                d.push(s, class);
            }
        }
        d
    }

    fn tiny_model() -> RpmClassifier {
        let config = RpmConfig::fixed(SaxConfig::new(20, 4, 4));
        RpmClassifier::train(&dataset(1), &config).unwrap()
    }

    fn post(addr: std::net::SocketAddr, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /classify HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_classify_end_to_end() {
        let model = Arc::new(tiny_model());
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let mut server = Server::start(Arc::clone(&model), &config).unwrap();
        let addr = server.local_addr();

        let series = dataset(2).series.remove(0);
        let rendered: Vec<String> = series.iter().map(|v| format!("{v}")).collect();
        let body = format!("{{\"id\":\"probe\",\"series\":[{}]}}\n", rendered.join(","));
        let response = post(addr, &body);
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        let expected = model.predict_batch(std::slice::from_ref(&series));
        assert!(
            response.contains(&format!("{{\"id\":\"probe\",\"label\":{}}}", expected[0])),
            "{response}"
        );

        // Malformed body → 400 with a line-numbered error.
        let bad = post(addr, "not json\n");
        assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");
        assert!(bad.contains("bad_request"), "{bad}");

        server.shutdown();
    }

    #[test]
    fn drift_monitor_flags_shifted_traffic_but_not_clean_replay() {
        let model = Arc::new(tiny_model());
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            drift: rpm_obs::DriftConfig {
                min_samples: 5,
                warn: 0.05,
                page: 0.2,
                ..rpm_obs::DriftConfig::default()
            },
            ..ServeConfig::default()
        };

        let render = |series: &[f64]| {
            let vals: Vec<String> = series.iter().map(|v| format!("{v}")).collect();
            format!("{{\"series\":[{}]}}\n", vals.join(","))
        };

        // Replaying the training set itself stays quiet: the serve-side
        // transform is bit-identical to training, so the live sketches
        // reproduce the reference exactly (PSI 0 on every metric).
        let mut server = Server::start(Arc::clone(&model), &config).unwrap();
        let addr = server.local_addr();
        for series in &dataset(1).series {
            assert!(post(addr, &render(series)).starts_with("HTTP/1.0 200"));
        }
        let clean = get(addr, "/debug/drift");
        assert!(
            clean.contains("\"status\":\"ok\""),
            "clean replay drifted: {clean}"
        );
        assert!(get(addr, "/healthz").contains("\"status\":\"ok\""));
        server.shutdown();

        // Amplitude-shifted traffic pages within the same window.
        let mut server = Server::start(Arc::clone(&model), &config).unwrap();
        let addr = server.local_addr();
        for series in &dataset(8).series {
            let shifted: Vec<f64> = series.iter().map(|v| v * 3.0 + 10.0).collect();
            assert!(post(addr, &render(&shifted)).starts_with("HTTP/1.0 200"));
        }
        let drifted = get(addr, "/debug/drift");
        assert!(
            drifted.contains("\"status\":\"page\""),
            "shifted replay did not page: {drifted}"
        );
        let health = get(addr, "/healthz");
        assert!(
            health.contains("\"status\":\"degraded\"") && health.starts_with("HTTP/1.0 200"),
            "degraded health keeps liveness: {health}"
        );
        assert!(get(addr, "/metrics").contains("rpm_drift_psi"));
        server.shutdown();

        // A model without a profile serves with drift unavailable.
        let bare = tiny_model();
        let mut buf = Vec::new();
        bare.save_v1(&mut buf).unwrap();
        let (profileless, _) = load_verified(&buf, true).unwrap();
        let mut server = Server::start(Arc::new(profileless), &config).unwrap();
        let addr = server.local_addr();
        assert!(get(addr, "/debug/drift").contains("\"status\":\"unavailable\""));
        assert!(get(addr, "/healthz").contains("\"drift\":\"unavailable\""));
        server.shutdown();
    }

    #[test]
    fn refuses_unverified_v1_models() {
        let model = tiny_model();
        let mut v2 = Vec::new();
        model.save(&mut v2).unwrap();
        let mut v1 = Vec::new();
        model.save_v1(&mut v1).unwrap();

        assert!(load_verified(&v2, false).is_ok());
        match load_verified(&v1, false) {
            Err(ServeError::Unverified(report)) => assert_eq!(report.version, 1),
            other => panic!("expected Unverified, got {:?}", other.map(|_| ())),
        }
        // Explicit opt-in still loads it.
        assert!(load_verified(&v1, true).is_ok());
        // Corruption is refused regardless.
        let mut corrupt = v2.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(matches!(
            load_verified(&corrupt, true),
            Err(ServeError::Verify(_))
        ));
    }
}
