//! End-to-end acceptance tests for the model lifecycle: hot reload with
//! canary validation, automatic and manual rollback, crash-only worker
//! supervision, and the `/classify` body cap.
//!
//! The headline property is **zero-downtime reload**: with concurrent
//! traffic in flight across an `/admin/reload`, every request answers
//! `200`, and each response's `X-Model-Generation` header maps its
//! labels bit-identically to the offline predictions of the model that
//! generation serves — no torn batches, no half-swapped state.
//!
//! The fault plan and the metrics registry are process-global, so every
//! test here serializes on [`gate`] like `tests/serve.rs` and
//! `tests/resilience.rs` do.

use rpm::core::{model_fingerprint, RpmClassifier, RpmConfig};
use rpm::data::generate;
use rpm::data::registry::spec_by_name;
use rpm::sax::SaxConfig;
use rpm::serve::proto::quote_json;
use rpm::serve::{load_verified, ReloadPolicy, ServeConfig, Server};
use rpm::ts::Dataset;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn cbf() -> (Dataset, Dataset) {
    let mut spec = spec_by_name("CBF").expect("CBF registered");
    spec.train = 12;
    spec.test = 8;
    generate(&spec, 2016)
}

fn train(dataset: &Dataset, window: usize) -> RpmClassifier {
    let config = RpmConfig::fixed(SaxConfig::new(window, 4, 4));
    RpmClassifier::train(dataset, &config).expect("train")
}

/// Serializes a model and returns (bytes, fingerprint-as-on-healthz).
fn saved(model: &RpmClassifier) -> (Vec<u8>, String) {
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("save");
    let fp = model_fingerprint(&bytes);
    (bytes, fp)
}

/// Writes candidate bytes to a unique temp file and returns its path.
fn temp_model(bytes: &[u8]) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let path = std::env::temp_dir().join(format!(
        "rpm-lifecycle-{}-{}.rpm",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write temp model");
    path
}

/// Starts a server on the saved bytes so `/healthz` reports the exact
/// file fingerprint (the same path `rpm-cli serve` takes).
fn start_on(bytes: &[u8], config: &ServeConfig) -> Server {
    let (model, report) = load_verified(bytes, false).expect("verify");
    Server::start_verified(Arc::new(model), &report, config).expect("start")
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

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn post_classify(addr: std::net::SocketAddr, body: &str) -> String {
    request(addr, "POST", "/classify", body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    request(addr, "GET", path, "")
}

fn reload(addr: std::net::SocketAddr, path: &std::path::Path) -> String {
    request(
        addr,
        "POST",
        "/admin/reload",
        &format!("{{\"path\":\"{}\"}}", path.display()),
    )
}

fn header_of<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    response.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn label_of(response: &str) -> usize {
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    response
        .split("\"label\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no label in {response}"))
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric label")
}

/// The serving fingerprint as `/healthz` reports it.
fn health_fingerprint(addr: std::net::SocketAddr) -> String {
    let health = get(addr, "/healthz");
    health
        .split("\"model\":\"")
        .nth(1)
        .unwrap_or_else(|| panic!("no model fingerprint in {health}"))
        .split('"')
        .next()
        .unwrap()
        .to_string()
}

/// A flat JSON integer field out of `/healthz`.
fn health_field(addr: std::net::SocketAddr, key: &str) -> u64 {
    endpoint_field(addr, "/healthz", key)
}

/// Live samples in the serving generation's drift window.
fn live_samples(addr: std::net::SocketAddr) -> u64 {
    endpoint_field(addr, "/debug/drift", "live_samples")
}

/// A flat JSON integer field out of a `GET` endpoint's body.
fn endpoint_field(addr: std::net::SocketAddr, path: &str, key: &str) -> u64 {
    let body = get(addr, path);
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

#[test]
fn hot_reload_is_zero_downtime_and_generations_label_consistently() {
    let _g = gate();
    let (train_set, test_set) = cbf();
    let model_a = train(&train_set, 32);
    let model_b = train(&train_set, 24);
    let (bytes_a, fp_a) = saved(&model_a);
    let (bytes_b, fp_b) = saved(&model_b);
    assert_ne!(fp_a, fp_b, "distinct models must fingerprint apart");
    let path_b = temp_model(&bytes_b);

    // The tiny CBF reference profile (12 series) makes live PSI noisy
    // enough to page on perfectly healthy traffic; this test is about
    // the swap, not drift, so keep the monitor warming — otherwise the
    // probation watchdog would "rescue" us from the model under test.
    let config = ServeConfig {
        drift: rpm::obs::DriftConfig {
            min_samples: u64::MAX,
            ..rpm::obs::DriftConfig::default()
        },
        ..test_config()
    };
    let mut server = start_on(&bytes_a, &config);
    let addr = server.local_addr();
    assert_eq!(health_fingerprint(addr), fp_a);
    assert_eq!(health_field(addr, "generation"), 1);

    let expected_a = model_a.predict_batch(&test_set.series);
    let expected_b = model_b.predict_batch(&test_set.series);

    // Sustained concurrent traffic across the swap: client threads
    // hammer /classify while the main thread reloads mid-flight.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observations: Vec<(usize, u64, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = test_set
            .series
            .iter()
            .enumerate()
            .map(|(row, series)| {
                let body = jsonl_body(series);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let response = post_classify(addr, &body);
                        assert!(
                            response.starts_with("HTTP/1.0 200"),
                            "non-200 during reload: {response}"
                        );
                        let generation: u64 = header_of(&response, "X-Model-Generation")
                            .expect("generation header")
                            .parse()
                            .expect("numeric generation");
                        seen.push((row, generation, label_of(&response)));
                    }
                    seen
                })
            })
            .collect();

        // Let traffic establish on generation 1, swap, then let it run
        // on generation 2 before stopping the clients. Asserting only
        // after `stop` is raised keeps a failed swap from stranding the
        // client loops (a panic here would block the scope forever).
        std::thread::sleep(Duration::from_millis(150));
        let swapped = reload(addr, &path_b);
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        assert!(swapped.starts_with("HTTP/1.0 200"), "{swapped}");
        assert!(swapped.contains("\"result\":\"swapped\""), "{swapped}");
        assert!(swapped.contains("\"generation\":2"), "{swapped}");
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Every response mapped to the generation that served it must carry
    // that generation's offline prediction, bit for bit.
    let mut gen1 = 0usize;
    let mut gen2 = 0usize;
    for (row, generation, label) in &observations {
        match generation {
            1 => {
                gen1 += 1;
                assert_eq!(
                    *label, expected_a[*row],
                    "generation 1 mislabeled row {row}"
                );
            }
            2 => {
                gen2 += 1;
                assert_eq!(
                    *label, expected_b[*row],
                    "generation 2 mislabeled row {row}"
                );
            }
            other => panic!("unexpected generation {other}"),
        }
    }
    assert!(gen1 > 0, "no traffic observed on the incumbent");
    assert!(gen2 > 0, "no traffic observed on the candidate");

    assert_eq!(health_fingerprint(addr), fp_b);
    assert_eq!(health_field(addr, "generation"), 2);
    let metrics = get(addr, "/metrics");
    assert!(metrics.contains("rpm_serve_generation 2"), "{metrics}");
    assert!(metrics.contains("rpm_serve_reloads_total"), "{metrics}");

    server.shutdown();
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn rejected_candidates_leave_the_serving_generation_untouched() {
    let _g = gate();
    let (train_set, test_set) = cbf();
    let model_a = train(&train_set, 32);
    let (bytes_a, fp_a) = saved(&model_a);

    let mut server = start_on(&bytes_a, &test_config());
    let addr = server.local_addr();
    let generation_before = health_field(addr, "generation");
    let rejected_before = health_field(addr, "reloads");

    // CRC corruption: flip a byte mid-stream.
    let mut corrupt = bytes_a.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let corrupt_path = temp_model(&corrupt);
    let refused = reload(addr, &corrupt_path);
    assert!(refused.starts_with("HTTP/1.0 409"), "{refused}");
    assert!(
        refused.contains("\"reason\":\"verify_failed\""),
        "{refused}"
    );

    // Schema mismatch: a candidate trained without one of the classes
    // changes the /classify label vocabulary.
    let mut two_class = Dataset::new("two-class", Vec::new(), Vec::new());
    for (series, label) in train_set.series.iter().zip(&train_set.labels) {
        if *label < 2 {
            two_class.push(series.clone(), *label);
        }
    }
    let (bytes_narrow, _) = saved(&train(&two_class, 32));
    let narrow_path = temp_model(&bytes_narrow);
    let refused = reload(addr, &narrow_path);
    assert!(refused.starts_with("HTTP/1.0 409"), "{refused}");
    assert!(
        refused.contains("\"reason\":\"schema_mismatch\""),
        "{refused}"
    );

    // A missing candidate file is an I/O rejection, not a crash.
    let refused = reload(addr, std::path::Path::new("/nonexistent/model.rpm"));
    assert!(refused.starts_with("HTTP/1.0 409"), "{refused}");
    assert!(refused.contains("\"reason\":\"io\""), "{refused}");

    // Three rejections later: same generation, same fingerprint, and
    // the incumbent still serves correct labels.
    assert_eq!(health_field(addr, "generation"), generation_before);
    assert_eq!(health_field(addr, "reloads"), rejected_before);
    assert_eq!(health_fingerprint(addr), fp_a);
    let response = post_classify(addr, &jsonl_body(&test_set.series[0]));
    assert_eq!(
        label_of(&response),
        model_a.predict_batch(&test_set.series[..1])[0]
    );

    server.shutdown();
    let _ = std::fs::remove_file(&corrupt_path);
    let _ = std::fs::remove_file(&narrow_path);
}

#[test]
fn canary_gate_rejects_profile_divergent_candidates() {
    let _g = gate();
    let (train_set, _) = cbf();
    let model_a = train(&train_set, 32);
    let (bytes_a, fp_a) = saved(&model_a);

    // A candidate trained on amplitude-shifted data: same classes, same
    // wire schema, but its training-time reference profile diverges —
    // exactly the "retrained on the wrong upstream" incident the canary
    // gate exists for.
    let mut shifted = Dataset::new("shifted", Vec::new(), Vec::new());
    for (series, label) in train_set.series.iter().zip(&train_set.labels) {
        shifted.push(series.iter().map(|v| v * 3.0 + 10.0).collect(), *label);
    }
    let (bytes_shifted, _) = saved(&train(&shifted, 32));
    let shifted_path = temp_model(&bytes_shifted);

    let config = ServeConfig {
        reload: ReloadPolicy {
            canary_psi: 0.2,
            ..ReloadPolicy::default()
        },
        ..test_config()
    };
    let mut server = start_on(&bytes_a, &config);
    let addr = server.local_addr();

    let refused = reload(addr, &shifted_path);
    assert!(refused.starts_with("HTTP/1.0 409"), "{refused}");
    assert!(
        refused.contains("\"reason\":\"profile_divergence\""),
        "{refused}"
    );
    assert_eq!(health_fingerprint(addr), fp_a);
    assert_eq!(health_field(addr, "generation"), 1);

    // The same candidate passes a permissive gate: the threshold is the
    // policy, not the mechanism.
    let permissive = ServeConfig {
        reload: ReloadPolicy {
            canary_psi: f64::INFINITY,
            ..ReloadPolicy::default()
        },
        ..test_config()
    };
    server.shutdown();
    let mut server = start_on(&bytes_a, &permissive);
    let addr = server.local_addr();
    let swapped = reload(addr, &shifted_path);
    assert!(swapped.starts_with("HTTP/1.0 200"), "{swapped}");

    server.shutdown();
    let _ = std::fs::remove_file(&shifted_path);
}

#[test]
fn manual_rollback_is_an_involution_on_the_warm_pair() {
    let _g = gate();
    let (train_set, _) = cbf();
    let (bytes_a, fp_a) = saved(&train(&train_set, 32));
    let (bytes_b, fp_b) = saved(&train(&train_set, 24));
    let path_b = temp_model(&bytes_b);

    let mut server = start_on(&bytes_a, &test_config());
    let addr = server.local_addr();

    // No previous generation yet: rollback refuses.
    let refused = request(addr, "POST", "/admin/rollback", "");
    assert!(refused.starts_with("HTTP/1.0 409"), "{refused}");
    assert!(
        refused.contains("\"reason\":\"no_previous_generation\""),
        "{refused}"
    );

    assert!(reload(addr, &path_b).starts_with("HTTP/1.0 200"));
    assert_eq!(health_fingerprint(addr), fp_b);

    // Rollback restores the prior fingerprint under a fresh generation
    // number (the clock orders swaps; fingerprints carry identity).
    let rolled = request(addr, "POST", "/admin/rollback", "");
    assert!(rolled.starts_with("HTTP/1.0 200"), "{rolled}");
    assert!(rolled.contains("\"result\":\"rolled_back\""), "{rolled}");
    assert_eq!(health_fingerprint(addr), fp_a);
    assert_eq!(health_field(addr, "generation"), 3);
    assert!(health_field(addr, "rollbacks") >= 1);

    // Involution: rolling back the rollback returns to the candidate.
    let rolled = request(addr, "POST", "/admin/rollback", "");
    assert!(rolled.starts_with("HTTP/1.0 200"), "{rolled}");
    assert_eq!(health_fingerprint(addr), fp_b);
    assert_eq!(health_field(addr, "generation"), 4);

    server.shutdown();
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn worker_panics_are_quarantined_and_the_pool_self_heals() {
    let _g = gate();
    let (train_set, test_set) = cbf();
    let (bytes_a, _) = saved(&train(&train_set, 32));
    let mut server = start_on(&bytes_a, &test_config());
    let addr = server.local_addr();
    let body = jsonl_body(&test_set.series[0]);
    let restarts_before = health_field(addr, "worker_restarts");

    // Armed worker fault: the panic fires *outside* process_batch's
    // inner guard, killing the worker thread mid-batch. The request
    // must come back as a typed 500 (quarantined), never a hang.
    rpm::obs::fault::install(rpm::obs::fault::parse("serve.worker:panic:1:0").expect("spec"));
    let quarantined = post_classify(addr, &body);
    rpm::obs::fault::clear();
    assert!(quarantined.starts_with("HTTP/1.0 500"), "{quarantined}");
    assert!(quarantined.contains("quarantined"), "{quarantined}");

    // The supervisor respawns the dead worker; traffic recovers without
    // a restart. Poll: respawn rides an exponential backoff.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = post_classify(addr, &body);
        if response.starts_with("HTTP/1.0 200") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool did not self-heal: {response}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while health_field(addr, "worker_restarts") <= restarts_before {
        assert!(Instant::now() < deadline, "restart counter never moved");
        std::thread::sleep(Duration::from_millis(50));
    }
    let metrics = get(addr, "/metrics");
    assert!(
        metrics.contains("rpm_serve_worker_restarts_total"),
        "{metrics}"
    );
    assert!(metrics.contains("rpm_serve_quarantined_total"), "{metrics}");

    server.shutdown();
}

/// Two servers in one process each report their own model: identity
/// and generation on `/healthz`, and their own traffic in their own
/// drift window. One server's shutdown leaves the other's state alone.
#[test]
fn two_servers_in_one_process_keep_their_own_model_state() {
    let _g = gate();
    let (train_set, test_set) = cbf();
    let (bytes_a, fp_a) = saved(&train(&train_set, 32));
    let (bytes_b, fp_b) = saved(&train(&train_set, 24));
    let mut server_a = start_on(&bytes_a, &test_config());
    let mut server_b = start_on(&bytes_b, &test_config());
    let (addr_a, addr_b) = (server_a.local_addr(), server_b.local_addr());

    assert_eq!(health_fingerprint(addr_a), fp_a);
    assert_eq!(health_fingerprint(addr_b), fp_b);
    assert_eq!(health_field(addr_a, "generation"), 1);
    assert_eq!(health_field(addr_b, "generation"), 1);

    let body = jsonl_body(&test_set.series[0]);
    for _ in 0..3 {
        let response = post_classify(addr_a, &body);
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    }
    assert_eq!(live_samples(addr_a), 3);
    assert_eq!(live_samples(addr_b), 0);

    server_b.shutdown();
    assert_eq!(health_fingerprint(addr_a), fp_a);
    assert_eq!(health_field(addr_a, "generation"), 1);
    let response = post_classify(addr_a, &body);
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    assert_eq!(live_samples(addr_a), 4);

    server_a.shutdown();
}

/// Every swap builds a new generation with a fresh drift monitor: after
/// a reload, and again after a rollback, the live window is empty until
/// the new generation serves traffic.
#[test]
fn reload_and_rollback_each_start_a_fresh_drift_window() {
    let _g = gate();
    let (train_set, test_set) = cbf();
    let (bytes_a, _) = saved(&train(&train_set, 32));
    let (bytes_b, _) = saved(&train(&train_set, 24));
    let path_b = temp_model(&bytes_b);
    let mut server = start_on(&bytes_a, &test_config());
    let addr = server.local_addr();
    let body = jsonl_body(&test_set.series[0]);

    for _ in 0..2 {
        assert!(post_classify(addr, &body).starts_with("HTTP/1.0 200"));
    }
    assert_eq!(live_samples(addr), 2);

    let swapped = reload(addr, &path_b);
    assert!(swapped.starts_with("HTTP/1.0 200"), "{swapped}");
    assert_eq!(live_samples(addr), 0);
    assert!(post_classify(addr, &body).starts_with("HTTP/1.0 200"));
    assert_eq!(live_samples(addr), 1);

    let rolled = request(addr, "POST", "/admin/rollback", "");
    assert!(rolled.starts_with("HTTP/1.0 200"), "{rolled}");
    assert_eq!(live_samples(addr), 0);
    assert!(post_classify(addr, &body).starts_with("HTTP/1.0 200"));
    assert_eq!(live_samples(addr), 1);

    server.shutdown();
    let _ = std::fs::remove_file(&path_b);
}

/// `POST /admin/reload` reads an empty body, `{}` or `{"path": <JSON
/// string>}`. Any other body is refused with `400` and reloads nothing,
/// even when the server has a model path to fall back on; a path holding
/// `"` and `\` reloads through its escaped form.
#[test]
fn reload_bodies_name_a_path_or_nothing() {
    let _g = gate();
    let (train_set, _) = cbf();
    let (bytes_a, fp_a) = saved(&train(&train_set, 32));
    let (bytes_b, fp_b) = saved(&train(&train_set, 24));
    let path_a = temp_model(&bytes_a);
    let path_b = std::env::temp_dir().join(format!(
        "rpm-lifecycle-{}-quote\"back\\slash.rpm",
        std::process::id()
    ));
    std::fs::write(&path_b, &bytes_b).expect("write temp model");
    let config = ServeConfig {
        model_path: Some(path_a.clone()),
        ..test_config()
    };
    let mut server = start_on(&bytes_a, &config);
    let addr = server.local_addr();

    for body in [r#"{"pth":"x"}"#, r#"{"path":123}"#, "not json"] {
        let refused = request(addr, "POST", "/admin/reload", body);
        assert!(refused.starts_with("HTTP/1.0 400"), "{body}: {refused}");
        assert!(refused.contains("\"bad_request\""), "{refused}");
        assert_eq!(health_field(addr, "generation"), 1, "{body}");
    }

    let escaped = format!(
        "{{\"path\":{}}}",
        quote_json(path_b.to_str().expect("UTF-8 temp path"))
    );
    let swapped = request(addr, "POST", "/admin/reload", &escaped);
    assert!(swapped.starts_with("HTTP/1.0 200"), "{swapped}");
    assert_eq!(health_field(addr, "generation"), 2);
    assert_eq!(health_fingerprint(addr), fp_b);

    // `{}` names no path: the server reloads its own model file.
    let own = request(addr, "POST", "/admin/reload", "{}");
    assert!(own.starts_with("HTTP/1.0 200"), "{own}");
    assert_eq!(health_field(addr, "generation"), 3);
    assert_eq!(health_fingerprint(addr), fp_a);

    server.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

/// Serves model A (window 32), then reloads model B (window 24) into a
/// two-minute probation that rolls back at `min_errors` errors above a
/// 10% error rate. Returns the server, A's and B's fingerprints, B's
/// temp file and one classify body.
fn reloaded_into_probation(
    min_errors: u64,
) -> (Server, String, String, std::path::PathBuf, String) {
    let (train_set, test_set) = cbf();
    let (bytes_a, fp_a) = saved(&train(&train_set, 32));
    let (bytes_b, fp_b) = saved(&train(&train_set, 24));
    let path_b = temp_model(&bytes_b);
    let config = ServeConfig {
        reload: ReloadPolicy {
            probation: Duration::from_secs(120),
            probation_min_errors: min_errors,
            probation_error_pct: 0.1,
            ..ReloadPolicy::default()
        },
        ..test_config()
    };
    let server = start_on(&bytes_a, &config);
    assert!(reload(server.local_addr(), &path_b).starts_with("HTTP/1.0 200"));
    assert_eq!(health_fingerprint(server.local_addr()), fp_b);
    (server, fp_a, fp_b, path_b, jsonl_body(&test_set.series[0]))
}

#[test]
fn probation_error_spike_rolls_back_automatically() {
    let _g = gate();
    let (mut server, fp_a, _, path_b, body) = reloaded_into_probation(3);
    let addr = server.local_addr();

    // The new generation starts failing (armed batch fault standing in
    // for a model that predicts garbage): errors spike inside the
    // probation window.
    rpm::obs::fault::install(rpm::obs::fault::parse("serve.batch:io:1:0").expect("spec"));
    for _ in 0..5 {
        let response = post_classify(addr, &body);
        assert!(response.starts_with("HTTP/1.0 500"), "{response}");
    }
    rpm::obs::fault::clear();

    // The supervisor loop ticks probation every ~100ms; driving it
    // directly keeps the test deterministic.
    let outcome = server
        .lifecycle()
        .tick()
        .expect("error spike inside probation must trigger rollback");
    assert_eq!(outcome.fingerprint, fp_a);
    assert_eq!(health_fingerprint(addr), fp_a);
    assert!(health_field(addr, "rollbacks") >= 1);

    // Probation cleared with the rollback: another tick is a no-op.
    assert!(server.lifecycle().tick().is_none());

    server.shutdown();
    let _ = std::fs::remove_file(&path_b);
}

/// A quarantined request answers one `500` and counts once toward
/// probation: below `probation_min_errors`, it must not roll back.
#[test]
fn one_quarantined_request_counts_once_in_probation() {
    let _g = gate();
    let (mut server, _, fp_b, path_b, body) = reloaded_into_probation(2);
    let addr = server.local_addr();

    rpm::obs::fault::install(rpm::obs::fault::parse("serve.worker:panic:1:0").expect("spec"));
    let quarantined = post_classify(addr, &body);
    rpm::obs::fault::clear();
    assert!(quarantined.contains("quarantined"), "{quarantined}");

    assert!(server.lifecycle().tick().is_none(), "one error is below 2");
    assert_eq!(health_fingerprint(addr), fp_b, "the new generation serves");

    server.shutdown();
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn oversized_classify_bodies_are_rejected_with_413() {
    let _g = gate();
    let (train_set, test_set) = cbf();
    let (bytes_a, _) = saved(&train(&train_set, 32));
    let config = ServeConfig {
        limits: rpm::obs::ServeLimits {
            max_body_bytes: 512,
            ..rpm::obs::ServeLimits::default()
        },
        ..test_config()
    };
    let mut server = start_on(&bytes_a, &config);
    let addr = server.local_addr();

    let oversized = jsonl_body(&vec![1.0; 4096]);
    assert!(oversized.len() > 512);
    let refused = post_classify(addr, &oversized);
    assert!(refused.starts_with("HTTP/1.0 413"), "{refused}");

    // Within the cap still serves (CBF series render well under 512
    // bytes only when short; use a tiny synthetic request instead).
    let small = jsonl_body(&test_set.series[0][..8]);
    assert!(small.len() <= 512);
    let response = post_classify(addr, &small);
    // Short series may legitimately 400 (shorter than the SAX window);
    // the point is the cap admitted it to parsing.
    assert!(
        response.starts_with("HTTP/1.0 200") || response.starts_with("HTTP/1.0 400"),
        "{response}"
    );

    server.shutdown();
}
