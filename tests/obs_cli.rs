//! End-to-end `rpm-cli` observability tests: train a tiny model through
//! the real binary with `RPM_LOG=spans,json=…`, then exercise
//! `obs summary`, `obs diff` (identical reports pass; an injected
//! counter regression fails with a non-zero exit; a report the validator
//! rejects is refused), and `classify --metrics-addr` (scraping
//! `/metrics` from the live process).

use rpm::data::ucr::write_ucr;
use rpm::data::{generate, DatasetSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rpm-cli"))
}

fn run(dir: &Path, env_log: Option<&str>, args: &[&str]) -> std::process::Output {
    let mut cmd = cli();
    cmd.current_dir(dir).args(args).env_remove("RPM_LOG");
    if let Some(log) = env_log {
        cmd.env("RPM_LOG", log);
    }
    cmd.output().expect("spawn rpm-cli")
}

fn assert_success(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Writes a tiny CBF-style train/test pair in UCR format, returning the
/// two paths.
fn write_tiny_dataset(dir: &Path) -> (PathBuf, PathBuf) {
    let spec = DatasetSpec {
        name: "CBF",
        classes: 3,
        train: 9,
        test: 12,
        length: 64,
    };
    let (train, test) = generate(&spec, 7);
    let train_path = dir.join("tiny_TRAIN");
    let test_path = dir.join("tiny_TEST");
    write_ucr(&train, std::fs::File::create(&train_path).unwrap()).unwrap();
    write_ucr(&test, std::fs::File::create(&test_path).unwrap()).unwrap();
    (train_path, test_path)
}

#[test]
fn obs_analytics_and_metrics_endpoint_end_to_end() {
    let dir = std::env::temp_dir().join(format!("rpm-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (train_path, test_path) = write_tiny_dataset(&dir);

    // --- train with a JSONL report (fixed params: fast, deterministic) --
    let out = run(
        &dir,
        Some("spans,json=base.jsonl"),
        &[
            "train",
            train_path.to_str().unwrap(),
            "--model",
            "model.rpm",
            "--window",
            "16",
            "--paa",
            "4",
            "--alpha",
            "4",
        ],
    );
    assert_success(&out, "train");
    let base = dir.join("base.jsonl");
    let report = std::fs::read_to_string(&base).expect("JSONL report written");
    assert!(report.contains("\"type\":\"meta\""), "{report}");

    // --- obs summary renders stages + counters -------------------------
    let out = run(&dir, None, &["obs", "summary", "base.jsonl"]);
    assert_success(&out, "obs summary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stages:"), "{stdout}");
    assert!(stdout.contains("counters:"), "{stdout}");

    // --- obs diff: identical reports pass ------------------------------
    std::fs::copy(&base, dir.join("same.jsonl")).unwrap();
    let out = run(&dir, None, &["obs", "diff", "base.jsonl", "same.jsonl"]);
    assert_success(&out, "obs diff (identical)");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 regression(s)"), "{stdout}");

    // --- obs diff: injected counter regression fails -------------------
    // Triple one deterministic counter's value; drift is way past 20%.
    let needle = "\"type\":\"counter\",\"name\":\"engine.jobs\",\"value\":";
    let line = report
        .lines()
        .find(|l| l.contains(needle))
        .expect("engine.jobs counter in report");
    let value: u64 = line
        .rsplit(':')
        .next()
        .unwrap()
        .trim_end_matches('}')
        .parse()
        .unwrap();
    assert!(value > 0, "engine.jobs should be populated: {line}");
    let broken = report.replace(
        &format!("{needle}{value}}}"),
        &format!("{needle}{}}}", value * 3),
    );
    assert_ne!(broken, report, "injection must change the report");
    std::fs::write(dir.join("regressed.jsonl"), broken).unwrap();
    let out = run(
        &dir,
        None,
        &[
            "obs",
            "diff",
            "base.jsonl",
            "regressed.jsonl",
            "--tolerance",
            "20%",
        ],
    );
    assert!(
        !out.status.success(),
        "diff must fail on injected regression:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("!!"), "regression marker missing: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regression"), "{stderr}");

    // --- classify --metrics-addr: scrape the live process --------------
    let mut child = cli()
        .current_dir(&dir)
        .env_remove("RPM_LOG")
        .args([
            "classify",
            "model.rpm",
            test_path.to_str().unwrap(),
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-linger",
            "30",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn classify");

    // The bound address is announced on stderr before classification.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("read classify stderr");
        assert!(n > 0, "classify exited before announcing /metrics");
        if let Some(rest) = line.trim().strip_prefix("serving /metrics on ") {
            break rest.to_string();
        }
    };

    // Wait for the linger message: classification is done, metrics final.
    loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("read classify stderr");
        assert!(n > 0, "classify exited before lingering");
        if line.contains("lingering") {
            break;
        }
    }

    let mut stream = TcpStream::connect(&addr).expect("connect /metrics");
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    assert!(
        response.contains("# TYPE rpm_predict_series_total counter"),
        "{response}"
    );
    assert!(
        response.contains("rpm_predict_latency_ns_bucket{le=\"+Inf\"}"),
        "{response}"
    );

    child.kill().expect("stop lingering classify");
    child.wait().unwrap();

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn obs_summary_and_diff_refuse_reports_the_validator_rejects() {
    let dir = std::env::temp_dir().join(format!("rpm-obs-cli-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let meta = "{\"type\":\"meta\",\"version\":4,\"wall_ns\":5000,\"level\":\"summary\"}\n";
    let jobs = "{\"type\":\"counter\",\"name\":\"engine.jobs\",\"value\":12}\n";
    std::fs::write(dir.join("good.jsonl"), format!("{meta}{jobs}")).unwrap();
    // Line 3 breaks the cache invariant: 6 hits + 4 misses != 11 lookups.
    let cache = "{\"type\":\"cache\",\"family\":\"frames\",\"hits\":6,\"misses\":4,\
                 \"evictions\":0,\"lookups\":11,\"hit_rate\":0.545455}\n";
    std::fs::write(dir.join("bad.jsonl"), format!("{meta}{jobs}{cache}")).unwrap();

    let out = run(&dir, None, &["obs", "summary", "good.jsonl"]);
    assert_success(&out, "obs summary (valid report)");

    for args in [
        &["obs", "summary", "bad.jsonl"][..],
        &["obs", "diff", "bad.jsonl", "good.jsonl"],
        &["obs", "diff", "good.jsonl", "bad.jsonl"],
    ] {
        let out = run(&dir, None, args);
        assert!(
            !out.status.success(),
            "{args:?} accepted a report the validator rejects:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad.jsonl: line 3: cache invariant broken: 6 + 4 != 11"),
            "{args:?}: {stderr}"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
