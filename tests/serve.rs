//! End-to-end acceptance tests for the classify server: a trained model
//! served over HTTP must answer concurrent clients with predictions
//! bit-identical to the offline `predict_batch` path, enforce request
//! deadlines with the documented `504` error code, shed overload with
//! `429`, refuse unverifiable (v1) models at startup, and survive an
//! armed request-path fault without dying.
//!
//! The fault plan is process-global: the fault test arms it under an
//! exclusive hold of [`GATE`], and every other test holds the gate
//! shared, so none of their requests meets an armed fault.

use rpm::core::{RpmClassifier, RpmConfig};
use rpm::data::generate;
use rpm::data::registry::spec_by_name;
use rpm::sax::SaxConfig;
use rpm::serve::{load_verified, LoadConfig, ServeConfig, ServeError, Server};
use rpm::ts::Dataset;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

static GATE: RwLock<()> = RwLock::new(());

/// Held by every test that serves without arming a fault.
fn shared() -> RwLockReadGuard<'static, ()> {
    GATE.read().unwrap_or_else(|e| e.into_inner())
}

/// Held by the test that arms the process-global fault plan.
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
        deadline: Duration::from_millis(0),
        // A wide window holds the batch open past the (zero) deadline,
        // so the worker-side gate is what answers.
        batch_window: Duration::from_millis(150),
        max_batch: 10_000,
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
        // One worker holding batches open, a one-series queue: the
        // second concurrent request must shed.
        workers: 1,
        queue_depth: 1,
        max_batch: 1,
        batch_window: Duration::from_millis(200),
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
    let _g = shared();
    let (model, test) = trained();
    let config = ServeConfig {
        // deadline < batch_window < deadline + 50ms handler grace: the
        // worker-side deadline gate answers (pushing the queue_wait
        // span first) before the handler's own timeout gives up.
        deadline: Duration::from_millis(150),
        batch_window: Duration::from_millis(160),
        max_batch: 10_000,
        ..test_config()
    };
    let mut server = Server::start(Arc::clone(&model), &config).expect("start");
    let addr = server.local_addr();
    let (trace_hex, traceparent) = sampled_traceparent(0x5104);

    let response = post_traced(addr, &jsonl_body(&test.series[0]), &traceparent);
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
    // The wall-time filter sees the ~160ms the request spent queued.
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
    let _g = shared();
    let (model, test) = trained();
    let config = ServeConfig {
        // One worker and a wide window force the concurrent requests
        // into a single micro-batch.
        workers: 1,
        max_batch: 10_000,
        batch_window: Duration::from_millis(300),
        ..test_config()
    };
    let mut server = Server::start(Arc::clone(&model), &config).expect("start");
    let addr = server.local_addr();

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
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
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
    assert!(
        siblings_linked >= 2,
        "batch span should link >=2 sibling traces, linked {siblings_linked}: {}",
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
