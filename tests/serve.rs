//! End-to-end acceptance tests for the classify server: a trained model
//! served over HTTP must answer concurrent clients with predictions
//! bit-identical to the offline `predict_batch` path, enforce request
//! deadlines with the documented `504` error code, shed overload with
//! `429`, refuse unverifiable (v1) models at startup, and survive an
//! armed request-path fault without dying.
//!
//! The fault plan and the serving histograms are process-global: a
//! test that arms the plan or reads a histogram takes [`GATE`]
//! exclusively, and every other test holds it shared, so none of their
//! requests meets an armed fault or lands in another test's reading.

use rpm::core::{RpmClassifier, RpmConfig};
use rpm::data::generate;
use rpm::data::registry::spec_by_name;
use rpm::sax::SaxConfig;
use rpm::serve::{load_verified, LoadConfig, ServeConfig, ServeError, Server};
use rpm::ts::Dataset;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static GATE: RwLock<()> = RwLock::new(());

/// Held by every test that serves without arming a fault.
fn shared() -> RwLockReadGuard<'static, ()> {
    GATE.read().unwrap_or_else(|e| e.into_inner())
}

/// Held by the tests that arm the fault plan or read a histogram.
fn exclusive() -> RwLockWriteGuard<'static, ()> {
    GATE.write().unwrap_or_else(|e| e.into_inner())
}

fn cbf() -> (Dataset, Dataset) {
    let mut spec = spec_by_name("CBF").expect("CBF registered");
    spec.train = 12;
    spec.test = 8;
    generate(&spec, 2016)
}

fn trained() -> (Arc<RpmClassifier>, Dataset) {
    let (train, test) = cbf();
    let config = RpmConfig::fixed(SaxConfig::new(32, 4, 4));
    let model = RpmClassifier::train(&train, &config).expect("train CBF");
    (Arc::new(model), test)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

fn jsonl_body(series: &[f64]) -> String {
    let rendered: Vec<String> = series.iter().map(|v| format!("{v}")).collect();
    format!("[{}]\n", rendered.join(","))
}

fn post(addr: std::net::SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
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

fn post_traced(addr: std::net::SocketAddr, body: &str, traceparent: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /classify HTTP/1.0\r\nTraceparent: {traceparent}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn header_of<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    response.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

/// A sampled (forced-retention) traceparent with a recognizable,
/// per-test-unique trace id.
fn sampled_traceparent(tag: u32) -> (String, String) {
    let trace_hex = format!("{:032x}", 0xfeed_0000_u128 + tag as u128);
    let header = format!("00-{trace_hex}-00f067aa0ba902b7-01");
    (trace_hex, header)
}

/// Polls `ready` every millisecond; panics after ten seconds.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Series queued on the server, as `/healthz` reports them.
fn queue_depth(addr: std::net::SocketAddr) -> usize {
    let health = get(addr, "/healthz");
    health
        .split("\"queue_depth\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no queue_depth in {health}"))
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric queue_depth")
}

/// Holds a one-worker server's worker for `ms` milliseconds, so that
/// the requests sent next queue behind it: arms a `serve.batch` delay
/// fault, which fires after the deadline gate and before predict, posts
/// `body`, and returns once the worker sleeps in the fault. The caller
/// holds [`exclusive`], clears the plan and joins the returned post.
fn hold_the_worker(addr: std::net::SocketAddr, body: String, ms: u64) -> JoinHandle<String> {
    let spec = format!("serve.batch:delay{ms}");
    rpm::obs::fault::install(rpm::obs::fault::parse(&spec).expect("spec"));
    let holder = std::thread::spawn(move || post(addr, &body));
    wait_until("the worker to take the holding request", || {
        rpm::obs::fault::injected_total() == 1
    });
    holder
}

fn label_of(response: &str) -> usize {
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    let tail = response
        .split("\"label\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no label in {response}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric label")
}

#[test]
fn concurrent_clients_match_offline_predictions_bit_for_bit() {
    let _g = shared();
    let (model, test) = trained();
    let mut server = Server::start(Arc::clone(&model), &test_config()).expect("start");
    let addr = server.local_addr();

    let expected = model.predict_batch(&test.series);
    // Every test series from its own client thread, all in flight at
    // once, so replies cross micro-batch boundaries.
    let served: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = test
            .series
            .iter()
            .map(|series| {
                let body = jsonl_body(series);
                scope.spawn(move || label_of(&post(addr, &body)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(served, expected, "served labels must match offline batch");

    // The observability routes share the listener.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut metrics = String::new();
    stream.read_to_string(&mut metrics).unwrap();
    assert!(metrics.contains("rpm_serve_requests_total"), "{metrics}");
    server.shutdown();
}

#[test]
fn multi_series_requests_answer_in_order_with_ids() {
    let _g = shared();
    let (model, test) = trained();
    let mut server = Server::start(Arc::clone(&model), &test_config()).expect("start");
    let addr = server.local_addr();

    let expected = model.predict_batch(&test.series[..3]);
    let body: String = test.series[..3]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let rendered: Vec<String> = s.iter().map(|v| format!("{v}")).collect();
            format!(
                "{{\"id\":\"row-{i}\",\"series\":[{}]}}\n",
                rendered.join(",")
            )
        })
        .collect();
    let response = post(addr, &body);
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    for (i, label) in expected.iter().enumerate() {
        assert!(
            response.contains(&format!("{{\"id\":\"row-{i}\",\"label\":{label}}}")),
            "row {i}: {response}"
        );
    }
    server.shutdown();
}

#[test]
fn expired_deadlines_answer_the_documented_504_code() {
    let _g = shared();
    let (model, test) = trained();
    let config = ServeConfig {
        // A zero deadline has passed by the time a worker's gate checks
        // it.
        deadline: Duration::from_millis(0),
        ..test_config()
    };
    let mut server = Server::start(Arc::clone(&model), &config).expect("start");
    let response = post(server.local_addr(), &jsonl_body(&test.series[0]));
    assert!(response.starts_with("HTTP/1.0 504"), "{response}");
    assert!(response.contains("\"deadline_exceeded\""), "{response}");
    server.shutdown();
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    let _g = shared();
    let (model, test) = trained();
    let config = ServeConfig {
        // One worker taking one series at a time, a one-series queue:
        // of eight concurrent requests, some must shed.
        workers: 1,
        queue_depth: 1,
        max_batch: 1,
        ..test_config()
    };
    let mut server = Server::start(Arc::clone(&model), &config).expect("start");
    let addr = server.local_addr();
    let body = jsonl_body(&test.series[0]);

    // Saturate with concurrent clients; at least one must be shed and
    // sheds must carry Retry-After.
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || post(addr, &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed: Vec<&String> = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.0 429"))
        .collect();
    assert!(!shed.is_empty(), "expected sheds, got: {responses:?}");
    for r in &shed {
        assert!(r.contains("Retry-After: 1"), "{r}");
        assert!(r.contains("\"overloaded\""), "{r}");
        // Even sheds carry the trace identity headers.
        assert!(header_of(r, "X-Request-Id").is_some(), "{r}");
        assert!(header_of(r, "Traceparent").is_some(), "{r}");
    }
    server.shutdown();
}

#[test]
fn v1_models_are_refused_without_allow_unverified() {
    let _g = shared();
    let (model, _) = trained();
    let mut v1 = Vec::new();
    model.save_v1(&mut v1).expect("save v1");
    match load_verified(&v1, false) {
        Err(ServeError::Unverified(report)) => assert_eq!(report.version, 1),
        other => panic!("expected Unverified, got {:?}", other.map(|_| "loaded")),
    }
    let (loaded, report) = load_verified(&v1, true).expect("explicit opt-in loads v1");
    assert_eq!(report.version, 1);
    // The opted-in model still predicts.
    let (_, test) = cbf();
    assert_eq!(
        loaded.predict_batch(&test.series),
        model.predict_batch(&test.series)
    );
}

#[test]
fn armed_request_fault_degrades_to_an_error_response_not_a_crash() {
    let _g = exclusive();
    let (model, test) = trained();
    let mut server = Server::start(Arc::clone(&model), &test_config()).expect("start");
    let addr = server.local_addr();
    let body = jsonl_body(&test.series[0]);

    rpm::obs::fault::install(rpm::obs::fault::parse("serve.request:io:1:0").expect("spec"));
    let faulted = post(addr, &body);
    rpm::obs::fault::clear();
    assert!(faulted.starts_with("HTTP/1.0 500"), "{faulted}");
    assert!(faulted.contains("\"internal\""), "{faulted}");

    // The server survived: the same request now answers normally, and
    // so does the batch-site fault once disarmed.
    let healthy = post(addr, &body);
    assert!(healthy.starts_with("HTTP/1.0 200"), "{healthy}");

    rpm::obs::fault::install(rpm::obs::fault::parse("serve.batch:io:1:0").expect("spec"));
    let faulted = post(addr, &body);
    rpm::obs::fault::clear();
    assert!(faulted.starts_with("HTTP/1.0 500"), "{faulted}");

    let healthy = post(addr, &body);
    assert!(healthy.starts_with("HTTP/1.0 200"), "{healthy}");
    server.shutdown();
}

/// The server's own `requests` counts every classify request on entry,
/// and each exit but a `200` lands in one outcome counter: of a 200, a
/// 400 and a 500, the 400 counts in `bad_requests` and the 500 in
/// `errors`, so the requests less the outcomes are the 200s.
#[test]
fn serve_requests_counts_every_outcome() {
    let _g = exclusive();
    let (model, test) = trained();
    let mut server = Server::start(Arc::clone(&model), &test_config()).expect("start");
    let addr = server.local_addr();

    let ok = post(addr, &jsonl_body(&test.series[0]));
    assert!(ok.starts_with("HTTP/1.0 200"), "{ok}");
    let bad = post(addr, "not json\n");
    assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");
    rpm::obs::fault::install(rpm::obs::fault::parse("serve.request:io:1:0").expect("spec"));
    let faulted = post(addr, &jsonl_body(&test.series[0]));
    rpm::obs::fault::clear();
    assert!(faulted.starts_with("HTTP/1.0 500"), "{faulted}");

    let lifecycle = server.lifecycle();
    let m = lifecycle.metrics();
    assert_eq!(m.requests.get(), 3);
    assert_eq!(m.bad_requests.get(), 1);
    assert_eq!(m.errors.get(), 1);
    assert_eq!(m.shed.get(), 0);
    assert_eq!(m.deadline_exceeded.get(), 0);
    server.shutdown();
}

/// Duration of the named span inside one `/debug/traces` JSONL line.
/// Span objects render `name` before `dur_ns`, so the first `dur_ns`
/// after the name belongs to that span.
fn span_dur(trace_line: &str, name: &str) -> Option<u64> {
    let tail = trace_line.split(&format!("\"name\":\"{name}\"")).nth(1)?;
    let tail = tail.split("\"dur_ns\":").nth(1)?;
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// Wall time of the whole trace (the trace-level `dur_ns`, which
/// renders before the `spans` array).
fn trace_dur(trace_line: &str) -> u64 {
    let head = trace_line.split("\"spans\":[").next().expect("head");
    head.split("\"dur_ns\":")
        .nth(1)
        .expect("trace dur_ns")
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric dur")
}

#[test]
fn deadline_miss_leaves_a_retained_trace_with_queue_wait() {
    let _g = exclusive();
    let (model, test) = trained();
    let config = ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(150),
        ..test_config()
    };
    let mut server = Server::start(Arc::clone(&model), &config).expect("start");
    let addr = server.local_addr();
    let (trace_hex, traceparent) = sampled_traceparent(0x5104);
    let body = jsonl_body(&test.series[0]);

    // The worker is held for deadline + 40 ms, so the traced request's
    // deadline passes while it queues. The worker's gate then answers
    // (pushing the queue_wait span first) before the handler's own
    // timeout (deadline + 50 ms grace) gives up, as long as the request
    // arrived within 40 ms of the hold.
    let holder = hold_the_worker(addr, body.clone(), 190);
    let response = std::thread::scope(|scope| {
        let traced = scope.spawn(|| post_traced(addr, &body, &traceparent));
        wait_until("the traced request to queue", || queue_depth(addr) == 1);
        rpm::obs::fault::clear();
        traced.join().unwrap()
    });
    holder.join().unwrap();
    assert!(response.starts_with("HTTP/1.0 504"), "{response}");
    // The inbound trace identity comes back on the failure response.
    assert_eq!(
        header_of(&response, "X-Request-Id"),
        Some(trace_hex.as_str())
    );
    let echoed = header_of(&response, "Traceparent").expect("traceparent echoed");
    assert!(echoed.starts_with(&format!("00-{trace_hex}-")), "{echoed}");
    assert!(echoed.ends_with("-01"), "sampled flag preserved: {echoed}");

    // The flight recorder retained the trace (deadline outcome and the
    // sampled flag each force retention), and it shows where the time
    // went: waiting in the queue, never reaching predict.
    let traces = get(addr, "/debug/traces?outcome=deadline");
    let line = traces
        .lines()
        .find(|l| l.contains(&trace_hex))
        .unwrap_or_else(|| panic!("no retained trace for {trace_hex} in:\n{traces}"));
    assert!(
        line.contains("\"outcome\":\"deadline\",\"status\":504"),
        "{line}"
    );
    let waited = span_dur(line, "queue_wait").expect("queue_wait span");
    assert!(waited > 0, "queue wait must be nonzero: {line}");
    assert!(waited <= trace_dur(line), "span outlives trace: {line}");
    assert!(
        span_dur(line, "predict").is_none(),
        "an expired request must not reach predict: {line}"
    );
    // The wall-time filter sees the ~150-190 ms the request spent
    // queued.
    assert!(get(addr, "/debug/traces?min_ms=100").contains(&trace_hex));
    assert!(!get(addr, "/debug/traces?min_ms=60000").contains(&trace_hex));
    server.shutdown();
}

#[test]
fn bad_requests_still_carry_trace_identity() {
    let _g = shared();
    let (model, _) = trained();
    let mut server = Server::start(Arc::clone(&model), &test_config()).expect("start");
    let addr = server.local_addr();

    let (trace_hex, traceparent) = sampled_traceparent(0x0bad);
    let response = post_traced(addr, "not json\n", &traceparent);
    assert!(response.starts_with("HTTP/1.0 400"), "{response}");
    assert_eq!(
        header_of(&response, "X-Request-Id"),
        Some(trace_hex.as_str())
    );

    // A malformed traceparent is not an error: the server falls back to
    // a freshly generated id instead of echoing garbage.
    let response = post_traced(addr, "not json\n", "garbage-not-a-traceparent");
    assert!(response.starts_with("HTTP/1.0 400"), "{response}");
    let generated = header_of(&response, "X-Request-Id").expect("generated id");
    assert_eq!(generated.len(), 32, "{generated}");
    assert!(
        generated.chars().all(|c| c.is_ascii_hexdigit()),
        "{generated}"
    );
    server.shutdown();
}

#[test]
fn concurrent_traces_share_a_batch_and_exemplars_resolve() {
    let _g = exclusive();
    let (model, test) = trained();
    let config = ServeConfig {
        workers: 1,
        ..test_config()
    };
    let mut server = Server::start(Arc::clone(&model), &config).expect("start");
    let addr = server.local_addr();

    // The only worker is held while the four concurrent requests queue
    // behind it; once free, it takes all four into one batch.
    let holder = hold_the_worker(addr, jsonl_body(&test.series[4]), 500);
    let parents: Vec<(String, String)> = (0..4).map(|i| sampled_traceparent(0xba7c + i)).collect();
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = parents
            .iter()
            .zip(&test.series)
            .map(|((_, header), series)| {
                let body = jsonl_body(series);
                scope.spawn(move || post_traced(addr, &body, header))
            })
            .collect();
        wait_until("four queued requests", || queue_depth(addr) == 4);
        rpm::obs::fault::clear();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    holder.join().unwrap();
    for (response, (trace_hex, _)) in responses.iter().zip(&parents) {
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        assert_eq!(
            header_of(response, "X-Request-Id"),
            Some(trace_hex.as_str())
        );
    }

    let traces = get(addr, "/debug/traces");
    let lines: Vec<&str> = parents
        .iter()
        .map(|(hex, _)| {
            traces
                .lines()
                .find(|l| l.contains(&format!("\"trace_id\":\"{hex}\"")))
                .unwrap_or_else(|| panic!("sampled trace {hex} not retained in:\n{traces}"))
        })
        .collect();

    // Every request trace carries the full span tree, the spans fit
    // inside the request's wall time, and the kernel counters rode
    // along as predict-span attributes.
    for line in &lines {
        let total = trace_dur(line);
        for span in ["parse", "queue_wait", "batch", "predict", "respond"] {
            let dur = span_dur(line, span).unwrap_or_else(|| panic!("no {span} span in: {line}"));
            assert!(
                dur <= total,
                "{span} ({dur}ns) exceeds trace ({total}ns): {line}"
            );
        }
        let waited = span_dur(line, "queue_wait").unwrap();
        let predicted = span_dur(line, "predict").unwrap();
        assert!(
            waited + predicted <= total,
            "queue_wait + predict ({waited} + {predicted}) exceed wall time {total}: {line}"
        );
        assert!(line.contains("\"searches\":\""), "{line}");
        assert!(line.contains("\"windows\":\""), "{line}");
        assert!(line.contains("\"abandon_rate\":\""), "{line}");
    }

    // The shared batch span makes the causality explicit: the first
    // request's batch span links the sibling traces it was served with.
    let siblings_linked = parents[1..]
        .iter()
        .filter(|(hex, _)| lines[0].contains(hex.as_str()))
        .count();
    assert_eq!(
        siblings_linked, 3,
        "batch span should link the 3 sibling traces: {}",
        lines[0]
    );

    // Exemplar trace ids on /metrics resolve against the recorder: any
    // `# {trace_id="..."}` annotation points at a retained trace.
    let metrics = get(addr, "/metrics");
    let exemplar_ids: Vec<&str> = metrics
        .lines()
        .filter_map(|l| l.split("# {trace_id=\"").nth(1))
        .filter_map(|t| t.split('"').next())
        .collect();
    assert!(
        !exemplar_ids.is_empty(),
        "no exemplars on /metrics:\n{metrics}"
    );
    let all_traces = get(addr, "/debug/traces");
    for id in &exemplar_ids {
        assert!(
            all_traces.contains(*id),
            "exemplar {id} does not resolve against /debug/traces"
        );
    }
    server.shutdown();
}

#[test]
fn loadgen_reports_against_a_live_server() {
    let _g = shared();
    let (model, test) = trained();
    let mut server = Server::start(Arc::clone(&model), &test_config()).expect("start");
    let report = rpm::serve::run_load(&LoadConfig {
        addr: server.local_addr(),
        qps: 40.0,
        duration: Duration::from_millis(500),
        senders: 4,
        bodies: vec![jsonl_body(&test.series[0])],
    });
    assert!(report.sent > 0);
    assert_eq!(
        report.sent,
        report.ok + report.shed + report.deadline + report.errors
    );
    assert!(report.ok > 0, "{report:?}");
    assert!(report.p99_ms >= report.p50_ms, "{report:?}");
    server.shutdown();
}

/// `serve.queue_wait_ns` observes the interval the `queue_wait` span
/// records, from enqueue (after the body is parsed) to the batch start:
/// one multi-series request adds exactly its span's duration to the
/// histogram's sum, however long its body took to parse.
#[test]
fn queue_wait_histogram_observes_the_span_interval() {
    let _g = exclusive();
    let (model, test) = trained();
    let mut server = Server::start(Arc::clone(&model), &test_config()).expect("start");
    let addr = server.local_addr();
    let (trace_hex, traceparent) = sampled_traceparent(0x9a17);
    let body: String = test.series.iter().map(|s| jsonl_body(s)).collect();

    let before = rpm::obs::metrics().serve_queue_wait.snapshot();
    let response = post_traced(addr, &body, &traceparent);
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    let after = rpm::obs::metrics().serve_queue_wait.snapshot();

    assert_eq!(after.count - before.count, 1, "one observation per request");
    let traces = get(addr, "/debug/traces");
    let line = traces
        .lines()
        .find(|l| l.contains(&trace_hex))
        .unwrap_or_else(|| panic!("no retained trace for {trace_hex} in:\n{traces}"));
    let span = span_dur(line, "queue_wait").expect("queue_wait span");
    assert_eq!(after.sum - before.sum, span, "{line}");
    server.shutdown();
}

/// `rpm-cli serve` refuses a flag it does not take (here the removed
/// `--batch-window-ms`), naming it, before it loads the model; every
/// flag it does take still starts a server.
#[test]
fn rpm_cli_serve_refuses_unknown_flags() {
    let dir = std::env::temp_dir().join(format!("rpm-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.rpm");
    let (model, _) = trained();
    model
        .save(std::fs::File::create(&model_path).unwrap())
        .unwrap();
    let serve = |model: &std::path::Path, flags: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_rpm-cli"))
            .arg("serve")
            .arg(model)
            .args(flags)
            .env_remove("RPM_LOG")
            .output()
            .expect("spawn rpm-cli")
    };

    // The model path does not exist: the flag is refused first.
    let missing = dir.join("missing.rpm");
    for flag in ["--batch-window-ms", "--worker"] {
        let out = serve(&missing, &[flag, "2", "--duration-secs", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} accepted: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown flag {flag} ")),
            "{stderr}"
        );
    }

    let out = serve(
        &model_path,
        &[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--batch-max",
            "8",
            "--queue-depth",
            "64",
            "--deadline-ms",
            "500",
            "--threads",
            "1",
            "--allow-unverified",
            "--duration-secs",
            "0",
            "--drift-warn",
            "0.2",
            "--drift-page",
            "0.5",
            "--drift-min-samples",
            "10",
            "--reload-canary",
            "0.5",
            "--probation-secs",
            "0",
            "--max-body-kb",
            "64",
        ],
    );
    assert!(
        out.status.success(),
        "documented flags refused: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
