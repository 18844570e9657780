//! End-to-end acceptance for online drift detection: a model trained on
//! clean CBF data and served over HTTP must flag amplitude/offset-shifted
//! traffic on `/debug/drift` (and degrade `/healthz`) within one epoch
//! window, while a clean replay of the training distribution stays `ok`,
//! and a model persisted without a reference profile must serve with the
//! drift verdict `unavailable` rather than guessing.

use rpm::core::{RpmClassifier, RpmConfig};
use rpm::data::generate;
use rpm::data::registry::spec_by_name;
use rpm::obs::DriftConfig;
use rpm::sax::SaxConfig;
use rpm::serve::{load_verified, ServeConfig, Server};
use rpm::ts::Dataset;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn cbf() -> (Dataset, Dataset) {
    let mut spec = spec_by_name("CBF").expect("CBF registered");
    spec.train = 12;
    spec.test = 8;
    generate(&spec, 2016)
}

fn trained() -> (Arc<RpmClassifier>, Dataset, Dataset) {
    let (train, test) = cbf();
    let config = RpmConfig::fixed(SaxConfig::new(32, 4, 4));
    let model = RpmClassifier::train(&train, &config).expect("train CBF");
    (Arc::new(model), train, test)
}

/// Thresholds scaled down so a handful of requests clears warming and a
/// gross shift pages; the window shape stays at the defaults.
fn drift_config() -> DriftConfig {
    DriftConfig {
        min_samples: 5,
        warn: 0.05,
        page: 0.2,
        ..DriftConfig::default()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        drift: drift_config(),
        ..ServeConfig::default()
    }
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

fn jsonl_body(series: &[f64]) -> String {
    let rendered: Vec<String> = series.iter().map(|v| format!("{v}")).collect();
    format!("[{}]\n", rendered.join(","))
}

/// Pulls a numeric field out of the flat drift JSON.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn clean_replay_stays_ok_while_shifted_traffic_pages() {
    let (model, train, test) = trained();

    // Phase 1: replay the training distribution — the serve transform is
    // bit-identical to training, so the live sketches match the
    // reference and every PSI stays under the warn threshold.
    let mut server = Server::start(Arc::clone(&model), &serve_config()).unwrap();
    let addr = server.local_addr();
    for series in &train.series {
        let r = post(addr, &jsonl_body(series));
        assert!(r.starts_with("HTTP/1.0 200"), "{r}");
    }
    let clean = get(addr, "/debug/drift");
    assert!(
        clean.contains("\"status\":\"ok\""),
        "clean replay drifted: {clean}"
    );
    let health = get(addr, "/healthz");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    server.shutdown();

    // Phase 2: fresh window, amplitude-doubled + mean-offset traffic.
    // Every request lands in the current epoch, so the verdict flips
    // within one epoch window — no waiting on wall-clock rotation.
    let mut server = Server::start(Arc::clone(&model), &serve_config()).unwrap();
    let addr = server.local_addr();
    for series in &test.series {
        let shifted: Vec<f64> = series.iter().map(|v| v * 2.0 + 5.0).collect();
        let r = post(addr, &jsonl_body(&shifted));
        assert!(r.starts_with("HTTP/1.0 200"), "{r}");
    }
    let drifted = get(addr, "/debug/drift");
    assert!(
        drifted.contains("\"status\":\"page\""),
        "shifted traffic did not page: {drifted}"
    );
    // At least one metric's PSI clears the page threshold by inspection,
    // not just via the verdict string.
    let worst = drifted
        .split("\"psi\":")
        .skip(1)
        .filter_map(|s| json_number(&format!("\"psi\":{s}"), "psi"))
        .fold(0.0, f64::max);
    assert!(worst > 0.2, "max psi {worst}: {drifted}");

    // Degraded health payload, liveness intact (HTTP 200).
    let health = get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.0 200"), "{health}");
    assert!(
        health.contains("\"status\":\"degraded\"") && health.contains("\"drift\":\"page\""),
        "{health}"
    );

    // The drift gauges ride the same scrape endpoint.
    let metrics = get(addr, "/metrics");
    assert!(metrics.contains("rpm_drift_status 4"), "{metrics}");
    assert!(
        metrics.contains("rpm_drift_psi{metric=\"mean_abs\"}"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn persisted_profile_survives_the_serve_loader() {
    let (model, train, _) = trained();
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();

    let (loaded, report) = load_verified(&bytes, false).unwrap();
    assert_eq!(report.profile_samples, train.series.len() as u64);
    assert_eq!(report.fingerprint.len(), 8);
    assert_eq!(loaded.reference_profile(), model.reference_profile());

    // The fingerprint of the verified bytes (the CLI path) surfaces on
    // /healthz next to the drift verdict.
    let mut server = Server::start_verified(Arc::new(loaded), &report, &serve_config()).unwrap();
    let addr = server.local_addr();
    let health = get(addr, "/healthz");
    assert!(
        health.contains(&format!("\"model\":\"{}\"", report.fingerprint)),
        "{health}"
    );
    server.shutdown();
}

#[test]
fn profileless_models_serve_with_drift_unavailable() {
    let (model, _, test) = trained();
    // A v1 save carries no profile section — the stand-in for any model
    // persisted before reference profiles existed.
    let mut v1 = Vec::new();
    model.save_v1(&mut v1).unwrap();
    let (profileless, report) = load_verified(&v1, true).unwrap();
    assert_eq!(report.profile_samples, 0);
    assert!(profileless.reference_profile().is_none());

    let mut server = Server::start(Arc::new(profileless), &serve_config()).unwrap();
    let addr = server.local_addr();
    // Traffic flows fine; drift just has no baseline to compare against.
    let r = post(addr, &jsonl_body(&test.series[0]));
    assert!(r.starts_with("HTTP/1.0 200"), "{r}");
    assert!(get(addr, "/debug/drift").contains("\"status\":\"unavailable\""));
    let health = get(addr, "/healthz");
    assert!(
        health.contains("\"status\":\"ok\"") && health.contains("\"drift\":\"unavailable\""),
        "{health}"
    );
    server.shutdown();
}
