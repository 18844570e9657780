//! Std-only HTTP serving: a reusable method+path router on one hardened
//! connection loop, plus the opt-in `/metrics` + `/healthz` endpoint.
//!
//! A minimal HTTP/1.0-style server: each connection gets its request
//! line and headers read, at most one (bounded) body, one response
//! written, and the socket closed. That is all a Prometheus scraper,
//! `curl`, or a JSONL classify client needs, and it keeps the
//! implementation at a `TcpListener` and a handful of `write_all`
//! calls — no dependencies, no keep-alive state.
//!
//! The connection loop is shared through [`Router`]: consumers register
//! `(method, path) → handler` routes and serve them with
//! [`serve_router`]. The metrics endpoint ([`serve`]) is just the
//! [`metrics_routes`] router on that loop, serving no model, and
//! `rpm-serve` mounts its `/classify` handler on the same loop instead
//! of growing a second hand-rolled HTTP stack. A server hands
//! [`metrics_routes`] a reader of its current model generation, so its
//! `/healthz`, `/debug/drift` and drift gauges describe its own model
//! and no other server's in the same process.
//!
//! Serving hardening ([`ServeLimits`]): every connection is handled on
//! its own thread under a concurrency bound (excess connections get an
//! immediate `503` on the accept thread), with read/write socket
//! timeouts so a stalled peer cannot pin a handler, a request-line /
//! header size cap (`414` past it), and a body size cap (`413` past
//! it) so a hostile client cannot grow a buffer without bound. Framing
//! errors are typed too: a `Content-Length` that is not a decimal
//! `usize`, or two that disagree, gets `400`; headers or a body cut off
//! by a read error get `408`. A rejected request is never dispatched.
//! Each rejection counts once into the `http.rejected` metric, and a handler
//! panic (e.g. an armed `http.conn` fault) is contained per
//! connection — the endpoint itself never goes down.
//!
//! Enabled via [`crate::ObsConfig`] (`http_addr`) or the `RPM_LOG`
//! directive `http=127.0.0.1:9898`; `rpm-cli classify --metrics-addr`
//! wires it up for serving runs. Bind to port 0 to let the OS pick
//! (tests do), and read the actual address back from
//! [`MetricsServer::local_addr`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::drift::DriftReport;

/// Per-connection resource bounds for a served endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeLimits {
    /// Socket read timeout: a peer that connects but never sends a
    /// request is dropped after this long.
    pub read_timeout: Duration,
    /// Socket write timeout: a peer that stops draining the response
    /// is dropped after this long.
    pub write_timeout: Duration,
    /// Connections handled concurrently; arrivals past the bound get
    /// an immediate `503`. `0` rejects everything (used by tests).
    pub max_connections: usize,
    /// Longest request line (and longest single header line) accepted,
    /// in bytes; longer gets `414`.
    pub max_request_bytes: usize,
    /// Largest request body accepted, in bytes; larger gets `413`.
    pub max_body_bytes: usize,
}

impl Default for ServeLimits {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_connections: 32,
            max_request_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request as seen by a [`Router`] handler.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request path with the query string split off (routes match on
    /// this exactly).
    pub path: String,
    /// Raw query string without the leading `?` (empty when absent).
    pub query: String,
    /// Header lines as `(lowercased name, trimmed value)`, in order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless the client sent `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given name (matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First `key=value` pair in the query string with the given key.
    /// Values are returned verbatim (no percent-decoding — the routes
    /// this stack serves only take numbers and identifiers).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// A response a handler hands back to the connection loop.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code (`200`, `429`, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers, e.g. `("Retry-After", "1")`.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// A `200 OK` plain-text response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self::text(200, body)
    }

    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json; charset=utf-8",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Overrides the content type (builder style).
    pub fn with_content_type(mut self, content_type: &'static str) -> Self {
        self.content_type = content_type;
        self
    }

    /// Appends a header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// The standard reason phrase for the status codes this stack emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

/// A method + path → handler table sharing one hardened connection
/// loop. Paths match exactly (no patterns); an unknown path is `404`,
/// a known path with the wrong method `405`.
#[derive(Default)]
pub struct Router {
    routes: Vec<(&'static str, &'static str, Handler)>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `handler` for `method` + `path` (builder style).
    pub fn route(
        mut self,
        method: &'static str,
        path: &'static str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push((method, path, Box::new(handler)));
        self
    }

    /// Resolves one request to a response.
    pub fn dispatch(&self, request: &Request) -> Response {
        let mut path_seen = false;
        for (method, path, handler) in &self.routes {
            if *path != request.path {
                continue;
            }
            path_seen = true;
            if *method == request.method {
                return handler(request);
            }
        }
        if path_seen {
            Response::text(405, "method not allowed\n")
        } else {
            Response::text(404, "not found\n")
        }
    }
}

/// What an endpoint that serves a model reports about it: the model
/// half of `/healthz`, the `/debug/drift` body, and the `rpm_drift_*`
/// gauges on `/metrics`.
#[derive(Clone, Debug)]
pub struct ServingModel {
    /// The served model's fingerprint (the CRC-32 of its file).
    pub fingerprint: String,
    /// The model generation currently serving.
    pub generation: u64,
    /// The serving generation's drift verdict
    /// ([`DriftReport::unavailable`] when it has no monitor).
    pub drift: DriftReport,
}

/// The observability routes: Prometheus text on `GET /metrics`,
/// liveness on `GET /healthz`, the drift report on `GET /debug/drift`,
/// and retained request traces on `GET /debug/traces`. Metrics render
/// from a [`crate::metrics::snapshot`] taken at request time, so scrapes
/// observe but never perturb the run. `serving` is asked on each request
/// for the model this endpoint serves; an endpoint that serves none
/// passes `|| None`. Start from this router to mount additional routes
/// on the same endpoint.
pub fn metrics_routes(
    serving: impl Fn() -> Option<ServingModel> + Send + Sync + 'static,
) -> Router {
    let serving = Arc::new(serving);
    let (for_metrics, for_health) = (Arc::clone(&serving), Arc::clone(&serving));
    Router::new()
        .route("GET", "/metrics", move |_req| {
            let mut body = crate::export::to_prometheus(&crate::metrics::snapshot());
            body.push_str(&crate::export::drift_to_prometheus(
                &drift_of(for_metrics()),
            ));
            Response::ok(body).with_content_type("text/plain; version=0.0.4; charset=utf-8")
        })
        .route("GET", "/healthz", move |_req| {
            Response::json(200, health_json(for_health()))
        })
        .route("GET", "/debug/drift", move |_req| {
            Response::json(200, drift_of(serving()).to_json())
        })
        .route("GET", "/debug/traces", |req| {
            let min_ns = req
                .query_param("min_ms")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
                .saturating_mul(1_000_000);
            let outcome = req.query_param("outcome");
            let mut body = String::new();
            for record in crate::trace::recorder().snapshot() {
                if record.dur_ns < min_ns {
                    continue;
                }
                if outcome.is_some_and(|o| o != record.outcome.as_str()) {
                    continue;
                }
                body.push_str(&record.to_jsonl_line());
                body.push('\n');
            }
            Response::ok(body).with_content_type("application/jsonl; charset=utf-8")
        })
}

fn drift_of(serving: Option<ServingModel>) -> DriftReport {
    serving.map_or_else(DriftReport::unavailable, |s| s.drift)
}

/// The `/healthz` body: liveness plus a summary of the served model.
/// `status` is `degraded` when the serving generation's drift verdict
/// reached the page threshold — the endpoint still answers `200`
/// (liveness is about the process, not the traffic), so orchestrators
/// keep the replica while dashboards and the CLI see the degradation.
/// `model` is the served model's fingerprint, `generation` the model
/// generation serving, and `drift` its verdict
/// (`unavailable`/`warming`/`ok`/`warn`/`page`); an endpoint serving no
/// model answers `null`, `0` and `unavailable`. The counters read from
/// the metrics registry: `reloads`/`rollbacks`/`worker_restarts` count
/// swaps and supervisor respawns, `queue_depth` is the series queued for
/// batching right now.
fn health_json(serving: Option<ServingModel>) -> String {
    let (model, generation, drift) = match serving {
        Some(s) => (format!("\"{}\"", s.fingerprint), s.generation, s.drift),
        None => ("null".to_string(), 0, DriftReport::unavailable()),
    };
    let status = if drift.degraded() { "degraded" } else { "ok" };
    let uptime_secs = crate::now_ns() / 1_000_000_000;
    let m = crate::metrics();
    format!(
        "{{\"status\":\"{status}\",\"model\":{model},\"generation\":{generation},\"reloads\":{},\
         \"rollbacks\":{},\"worker_restarts\":{},\"queue_depth\":{},\"uptime_secs\":{uptime_secs},\
         \"drift\":\"{}\"}}",
        m.serve_reloads.get(),
        m.serve_rollbacks.get(),
        m.serve_worker_restarts.get(),
        m.serve_queue_depth.get(),
        drift.status
    )
}

/// Handle to a running endpoint. Dropping it shuts the server down
/// (the global endpoint started by [`crate::ObsConfig::install`] is
/// intentionally leaked so it lives for the process).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The address actually bound (resolves port 0 to the OS choice).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9898`, port 0 for OS-assigned) and
/// serves `/metrics` and `/healthz` on a background thread with the
/// default [`ServeLimits`] until the returned handle is shut down or
/// dropped.
pub fn serve(addr: &str) -> std::io::Result<MetricsServer> {
    serve_with(addr, ServeLimits::default())
}

/// [`serve`] with explicit per-connection limits.
pub fn serve_with(addr: &str, limits: ServeLimits) -> std::io::Result<MetricsServer> {
    serve_router(addr, limits, metrics_routes(|| None))
}

/// Serves an arbitrary [`Router`] on the shared connection loop. This
/// is the entry point `rpm-serve` mounts `/classify` through.
pub fn serve_router(
    addr: &str,
    limits: ServeLimits,
    router: Router,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let router = Arc::new(router);
    let handle = std::thread::Builder::new()
        .name("rpm-obs-http".to_string())
        .spawn(move || accept_loop(listener, &stop_flag, limits, &router))?;
    Ok(MetricsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Starts the process-global endpoint once; later calls (e.g. a second
/// `ObsConfig::install`) are no-ops. Returns the bound address, or
/// `None` if the bind failed (reported on stderr — observability must
/// not take the pipeline down).
pub fn serve_global(addr: &str) -> Option<SocketAddr> {
    static GLOBAL: OnceLock<Option<SocketAddr>> = OnceLock::new();
    *GLOBAL.get_or_init(|| match serve(addr) {
        Ok(mut server) => {
            let bound = server.local_addr();
            // Detach the thread: the endpoint serves until process exit.
            drop(server.handle.take());
            Some(bound)
        }
        Err(e) => {
            eprintln!("[rpm-obs] failed to bind metrics endpoint {addr}: {e}");
            None
        }
    })
}

fn accept_loop(
    listener: TcpListener,
    stop: &AtomicBool,
    limits: ServeLimits,
    router: &Arc<Router>,
) {
    let in_flight = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(limits.read_timeout));
        let _ = stream.set_write_timeout(Some(limits.write_timeout));
        // Responses are small and written once; Nagle + delayed ACK
        // would park them for ~40 ms on the wire.
        let _ = stream.set_nodelay(true);
        // Admission control happens on the accept thread: claim a slot
        // before spawning so a flood can never pile up handler threads.
        let claimed = in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < limits.max_connections).then_some(n + 1)
            })
            .is_ok();
        if !claimed {
            crate::metrics().http_rejected.inc();
            let _ = write_response(&mut &stream, &Response::text(503, "busy\n"));
            close_gracefully(&stream);
            continue;
        }
        let slots = Arc::clone(&in_flight);
        let conn_router = Arc::clone(router);
        let spawned = std::thread::Builder::new()
            .name("rpm-obs-http-conn".to_string())
            .spawn(move || {
                // One bad connection (I/O error or an injected panic)
                // must not kill the endpoint.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let _ = handle_connection(stream, &limits, &conn_router);
                }));
                slots.fetch_sub(1, Ordering::Relaxed);
            });
        if spawned.is_err() {
            in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Reads one request (bounded), dispatches it, writes one response.
fn handle_connection(
    stream: TcpStream,
    limits: &ServeLimits,
    router: &Router,
) -> std::io::Result<()> {
    if let Err(e) = crate::fault::point("http.conn") {
        crate::metrics().http_rejected.inc();
        return Err(e);
    }
    // Cap how much of the request line + headers we are willing to
    // buffer; a line that fills the cap without a newline is oversized.
    // The cap is re-armed per line, so the header block as a whole is
    // bounded by MAX_HEADER_LINES × max_request_bytes.
    let mut reader = BufReader::new((&stream).take(limits.max_request_bytes as u64));
    let mut request_line = String::new();
    let n = match reader.read_line(&mut request_line) {
        Ok(n) => n,
        Err(e) => {
            // Read timeout or broken peer: drop the connection.
            crate::metrics().http_rejected.inc();
            return Err(e);
        }
    };
    let mut writer = &stream;
    if n >= limits.max_request_bytes && !request_line.ends_with('\n') {
        crate::metrics().http_rejected.inc();
        let result = write_response(&mut writer, &Response::text(414, "request line too long\n"));
        close_gracefully(&stream);
        return result;
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    // Routes match on the bare path; the query string travels
    // separately so handlers can read `?key=value` filters.
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    // Headers: Content-Length drives the body read; the rest are kept
    // for handlers (e.g. `traceparent` on `/classify`). The loop bound
    // also bounds the retained header memory. A framing error stops the
    // read and answers in place of the handler.
    const MAX_HEADER_LINES: usize = 64;
    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut rejection: Option<Response> = None;
    for _ in 0..MAX_HEADER_LINES {
        reader.get_mut().set_limit(limits.max_request_bytes as u64);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: header block ended with the stream.
            Ok(n) if n >= limits.max_request_bytes && !line.ends_with('\n') => {
                rejection = Some(Response::text(414, "header line too long\n"));
                break;
            }
            Ok(_) => {}
            Err(_) => {
                // Read timeout or broken peer mid-headers: the request
                // is incomplete, so it is never dispatched.
                rejection = Some(Response::text(408, "request headers incomplete\n"));
                break;
            }
        }
        let line = line.trim_end();
        if line.is_empty() {
            break; // end of headers
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                let parsed = parse_content_length(&value);
                match (parsed, content_length) {
                    (None, _) => {
                        rejection = Some(Response::text(400, "malformed Content-Length\n"));
                        break;
                    }
                    (Some(n), Some(seen)) if n != seen => {
                        rejection =
                            Some(Response::text(400, "conflicting Content-Length headers\n"));
                        break;
                    }
                    (Some(n), _) => content_length = Some(n),
                }
            }
            headers.push((name, value));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if rejection.is_none() && content_length > limits.max_body_bytes {
        rejection = Some(Response::text(413, "request body too large\n"));
    }

    let response = if let Some(rejection) = rejection {
        crate::metrics().http_rejected.inc();
        rejection
    } else {
        // Part of the body may already sit in the BufReader's buffer;
        // the rest streams through the (re-armed) Take.
        let mut body = vec![0u8; content_length];
        reader.get_mut().set_limit(content_length as u64);
        if reader.read_exact(&mut body).is_err() {
            crate::metrics().http_rejected.inc();
            Response::text(408, "request body incomplete\n")
        } else {
            router.dispatch(&Request {
                method,
                path,
                query,
                headers,
                body,
            })
        }
    };
    let result = write_response(&mut writer, &response);
    close_gracefully(&stream);
    result
}

/// A `Content-Length` value: one or more ASCII digits fitting a `usize`.
/// Anything else (a sign, a list, trailing junk, overflow) is `None`.
fn parse_content_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

/// Orderly close: signal EOF to the peer, then drain (bounded) whatever
/// request bytes it already sent. Closing with unread data in the
/// receive buffer sends an RST that can race ahead of the response;
/// draining first turns the close into a clean FIN. The drain is capped
/// in bytes and by the socket read timeout, so a hostile peer cannot
/// pin the handler.
fn close_gracefully(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = std::io::copy(&mut stream.take(64 * 1024), &mut std::io::sink());
}

fn write_response<W: Write>(stream: &mut W, response: &Response) -> std::io::Result<()> {
    let mut header = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        header.push_str(name);
        header.push_str(": ");
        header.push_str(value);
        header.push_str("\r\n");
    }
    header.push_str("\r\n");
    stream.write_all(header.as_bytes())?;
    stream.write_all(&response.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        let _g = crate::test_lock();
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        assert!(health.contains("application/json"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"model\":null"), "{health}");
        assert!(health.contains("\"uptime_secs\":"), "{health}");
        assert!(health.contains("\"drift\":\"unavailable\""), "{health}");

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    }

    #[test]
    fn drift_endpoints_follow_the_attached_monitor() {
        let _g = crate::test_lock();
        let server = serve("127.0.0.1:0").expect("bind");

        // No monitor: drift is unavailable, health stays ok.
        let body = get(server.local_addr(), "/debug/drift");
        assert!(body.contains("\"status\":\"unavailable\""), "{body}");

        // A paging monitor degrades /healthz (still 200) and scores on
        // /debug/drift and /metrics.
        let mut profile = crate::drift::ReferenceProfile::new();
        for _ in 0..100 {
            profile.observe(&crate::drift::DriftSample {
                class: 0,
                best_distance: 0.5,
                margin: 0.2,
                len: 96,
                mean: 0.0,
                stddev: 1.0,
                z_extreme: 2.0,
            });
        }
        let monitor = crate::drift::DriftMonitor::new(
            &profile,
            crate::drift::DriftConfig {
                min_samples: 1,
                ..crate::drift::DriftConfig::default()
            },
        );
        for _ in 0..10 {
            monitor.observe(&crate::drift::DriftSample {
                class: 0,
                best_distance: 80.0,
                margin: 40.0,
                len: 96,
                mean: 0.0,
                stddev: 1.0,
                z_extreme: 2.0,
            });
        }
        let router = metrics_routes(move || {
            Some(ServingModel {
                fingerprint: "cafebabe".into(),
                generation: 1,
                drift: monitor.report(),
            })
        });
        let served = serve_router("127.0.0.1:0", ServeLimits::default(), router).expect("bind");
        let addr = served.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        assert!(health.contains("\"status\":\"degraded\""), "{health}");
        assert!(health.contains("\"model\":\"cafebabe\""), "{health}");
        assert!(health.contains("\"drift\":\"page\""), "{health}");

        let drift = get(addr, "/debug/drift");
        assert!(drift.contains("\"status\":\"page\""), "{drift}");
        assert!(drift.contains("\"metric\":\"match_distance\""), "{drift}");

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("rpm_drift_psi"), "{metrics}");
        assert!(metrics.contains("rpm_drift_status 4"), "{metrics}");
    }

    #[test]
    fn custom_routes_receive_bodies_and_reject_wrong_methods() {
        let _g = crate::test_lock();
        let router = metrics_routes(|| None).route("POST", "/echo", |req| {
            Response::ok(format!("got {} bytes\n", req.body.len()))
                .with_header("X-Probe", "1".to_string())
        });
        let server = serve_router("127.0.0.1:0", ServeLimits::default(), router).expect("bind");
        let addr = server.local_addr();

        let echoed = post(addr, "/echo", "hello body");
        assert!(echoed.starts_with("HTTP/1.0 200"), "{echoed}");
        assert!(echoed.contains("X-Probe: 1"), "{echoed}");
        assert!(echoed.ends_with("got 10 bytes\n"), "{echoed}");

        // Known path, wrong method.
        let wrong = get(addr, "/echo");
        assert!(wrong.starts_with("HTTP/1.0 405"), "{wrong}");

        // The stock metrics routes still serve on the same loop.
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
    }

    #[test]
    fn queries_and_headers_reach_handlers() {
        let _g = crate::test_lock();
        let router = Router::new().route("GET", "/probe", |req| {
            Response::ok(format!(
                "q={} tp={}\n",
                req.query_param("min_ms").unwrap_or("-"),
                req.header("Traceparent").unwrap_or("-"),
            ))
        });
        let server = serve_router("127.0.0.1:0", ServeLimits::default(), router).expect("bind");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET /probe?min_ms=25&outcome=ok HTTP/1.0\r\nTraceParent: 00-aa-bb-01\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        // The query split off the path (the route still matched), the
        // param parsed, and the header arrived case-insensitively.
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        assert!(response.ends_with("q=25 tp=00-aa-bb-01\n"), "{response}");

        // No query at all still matches.
        let bare = get(addr, "/probe");
        assert!(bare.ends_with("q=- tp=-\n"), "{bare}");
    }

    #[test]
    fn debug_traces_route_serves_retained_traces() {
        // `report::finish` clears the global recorder; serialize with
        // the tests that call it.
        let _g = crate::test_lock();
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        // An error trace is always retained by the global recorder.
        let ctx = crate::trace::TraceCtx::begin(None);
        let id = ctx.trace_id().to_hex();
        crate::trace::recorder().record(ctx.finish(crate::trace::TraceOutcome::Error, 500));

        let all = get(addr, "/debug/traces");
        assert!(all.starts_with("HTTP/1.0 200"), "{all}");
        assert!(all.contains(&id), "{all}");

        let errors = get(addr, "/debug/traces?outcome=error");
        assert!(errors.contains(&id), "{errors}");
        let oks = get(addr, "/debug/traces?outcome=ok");
        assert!(!oks.contains(&id), "{oks}");
        // A fast trace is filtered out by min_ms.
        let slow_only = get(addr, "/debug/traces?min_ms=60000");
        assert!(!slow_only.contains(&id), "{slow_only}");
    }

    #[test]
    fn oversized_bodies_get_413() {
        let _g = crate::test_lock();
        let limits = ServeLimits {
            max_body_bytes: 16,
            ..ServeLimits::default()
        };
        let router = Router::new().route("POST", "/echo", |req| {
            Response::ok(format!("{}\n", req.body.len()))
        });
        let server = serve_router("127.0.0.1:0", limits, router).expect("bind");
        let big = "x".repeat(64);
        let response = post(server.local_addr(), "/echo", &big);
        assert!(response.starts_with("HTTP/1.0 413"), "{response}");
        // Within the cap still works.
        let ok = post(server.local_addr(), "/echo", "small");
        assert!(ok.ends_with("5\n"), "{ok}");
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let mut server = serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        // Idempotent.
        server.shutdown();
        // The port is released; rebinding succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
    }

    #[test]
    fn oversized_request_lines_get_414() {
        let _g = crate::test_lock();
        let limits = ServeLimits {
            max_request_bytes: 64,
            ..ServeLimits::default()
        };
        let server = serve_with("127.0.0.1:0", limits).expect("bind");
        let long_path = "/".repeat(200);
        let response = get(server.local_addr(), &long_path);
        assert!(response.starts_with("HTTP/1.0 414"), "{response}");
        // The endpoint still serves normal requests afterwards.
        let health = get(server.local_addr(), "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
    }

    #[test]
    fn connection_bound_rejects_with_503() {
        let _g = crate::test_lock();
        let limits = ServeLimits {
            max_connections: 0,
            ..ServeLimits::default()
        };
        let server = serve_with("127.0.0.1:0", limits).expect("bind");
        let response = get(server.local_addr(), "/healthz");
        assert!(response.starts_with("HTTP/1.0 503"), "{response}");
    }

    #[test]
    fn silent_peers_time_out_without_pinning_the_endpoint() {
        let _g = crate::test_lock();
        let limits = ServeLimits {
            read_timeout: Duration::from_millis(100),
            max_connections: 1,
            ..ServeLimits::default()
        };
        let server = serve_with("127.0.0.1:0", limits).expect("bind");
        let addr = server.local_addr();
        // A peer that connects and never writes holds the only slot…
        let stuck = TcpStream::connect(addr).expect("connect");
        // …until the read timeout reaps it and the slot frees up.
        std::thread::sleep(Duration::from_millis(300));
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        drop(stuck);
    }

    /// Sends `raw` and reads the response to EOF, with metrics recorded
    /// for the exchange; returns the response and how many rejections
    /// it added to `http.rejected`. Callers hold `crate::test_lock()`.
    fn exchange_counting_rejections(addr: SocketAddr, raw: &str) -> (String, u64) {
        crate::ObsConfig {
            level: crate::ObsLevel::Summary,
            ..crate::ObsConfig::default()
        }
        .install();
        let before = crate::metrics().http_rejected.get();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let rejected = crate::metrics().http_rejected.get() - before;
        crate::ObsConfig::default().install();
        (response, rejected)
    }

    fn body_length_echo() -> Router {
        Router::new().route("POST", "/echo", |req| {
            Response::ok(format!("{}\n", req.body.len()))
        })
    }

    #[test]
    fn malformed_content_length_gets_400() {
        let _g = crate::test_lock();
        let server =
            serve_router("127.0.0.1:0", ServeLimits::default(), body_length_echo()).expect("bind");
        for value in [
            "abc",
            "-1",
            "+5",
            "5, 5",
            "12abc",
            "",
            "99999999999999999999999",
        ] {
            let raw = format!("POST /echo HTTP/1.0\r\nContent-Length: {value}\r\n\r\nhello");
            let (response, rejected) = exchange_counting_rejections(server.local_addr(), &raw);
            assert!(
                response.starts_with("HTTP/1.0 400"),
                "{value:?}: {response}"
            );
            assert!(
                response.ends_with("malformed Content-Length\n"),
                "{response}"
            );
            assert_eq!(rejected, 1, "{value:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_get_400() {
        let _g = crate::test_lock();
        let server =
            serve_router("127.0.0.1:0", ServeLimits::default(), body_length_echo()).expect("bind");
        let raw = "POST /echo HTTP/1.0\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello";
        let (response, rejected) = exchange_counting_rejections(server.local_addr(), raw);
        assert!(response.starts_with("HTTP/1.0 400"), "{response}");
        assert!(
            response.ends_with("conflicting Content-Length headers\n"),
            "{response}"
        );
        assert_eq!(rejected, 1);
        // Repeating the same length is not a conflict.
        let raw = "POST /echo HTTP/1.0\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        let (response, rejected) = exchange_counting_rejections(server.local_addr(), raw);
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        assert!(response.ends_with("5\n"), "{response}");
        assert_eq!(rejected, 0);
    }

    #[test]
    fn stalled_headers_get_408_and_are_not_dispatched() {
        let _g = crate::test_lock();
        let dispatched = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&dispatched);
        let router = Router::new().route("GET", "/probe", move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            Response::ok("probed\n".to_string())
        });
        let limits = ServeLimits {
            read_timeout: Duration::from_millis(100),
            ..ServeLimits::default()
        };
        let server = serve_router("127.0.0.1:0", limits, router).expect("bind");
        // One header line, then the peer stalls without ending the
        // header block (and without closing).
        for raw in [
            "GET /probe HTTP/1.0\r\nHost: x\r\n",
            "GET /probe HTTP/1.0\r\nHost: x",
        ] {
            let (response, rejected) = exchange_counting_rejections(server.local_addr(), raw);
            assert!(response.starts_with("HTTP/1.0 408"), "{raw:?}: {response}");
            assert!(
                response.ends_with("request headers incomplete\n"),
                "{response}"
            );
            assert_eq!(rejected, 1, "{raw:?}");
        }
        assert_eq!(dispatched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn injected_connection_faults_do_not_kill_the_endpoint() {
        let _g = crate::test_lock();
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        crate::fault::install(crate::fault::parse("http.conn:panic:1:0").unwrap());
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = write!(stream, "GET /healthz HTTP/1.0\r\n\r\n");
        let mut sink = String::new();
        // The handler dies before responding; the read observes EOF.
        let _ = stream.read_to_string(&mut sink);
        crate::fault::clear();

        // The accept loop survived the handler panic.
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
    }
}
