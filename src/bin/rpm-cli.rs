//! `rpm-cli` — train, persist, and apply RPM models on UCR-format files.
//!
//! ```text
//! rpm-cli train <TRAIN_FILE> --model <OUT> [--window W --paa P --alpha A]
//!                                          [--direct N] [--gamma G]
//!                                          [--rotation-invariant]
//!         [--checkpoint PATH]              # resume parameter search
//!         [--budget-evals N]               # stop after N fresh evals
//!         [--budget-secs S]                # stop after S seconds
//! rpm-cli classify <MODEL> <TEST_FILE>     # prints predictions + error
//!         [--metrics-addr HOST:PORT]       # serve Prometheus /metrics
//!         [--metrics-linger SECS]          # keep serving after classify
//! rpm-cli model verify <MODEL>             # checksum + structure check
//! rpm-cli serve <MODEL> [--addr HOST:PORT] # HTTP/JSONL classify server
//!         [--workers N] [--batch-max N]    # batch workers; a free one takes
//!                                          # what is queued, ≤N series
//!         [--queue-depth N]                # series queued before 429
//!         [--deadline-ms MS]               # per-request deadline (504)
//!         [--threads N]                    # per-batch predict threads
//!         [--allow-unverified]             # accept v1 (no-checksum) models
//!         [--duration-secs S]              # serve S seconds, then exit
//!         [--drift-warn PSI]               # drift warn threshold
//!         [--drift-page PSI]               # drift page threshold (degraded
//!                                          # /healthz; env RPM_DRIFT_WARN /
//!                                          # RPM_DRIFT_PAGE also accepted)
//!         [--drift-min-samples N]          # live samples before scoring
//!         [--reload-canary PSI]            # canary-gate divergence bound
//!         [--probation-secs S]             # auto-rollback watch window
//!         [--max-body-kb N]                # /classify body cap (413)
//!                                          # any other flag is refused;
//!                                          # SIGHUP hot-reloads the model
//!                                          # file; SIGTERM/SIGINT drain
//! rpm-cli serve reload <ADDR> [--model P]  # hot-reload a running server
//! rpm-cli serve rollback <ADDR>            # swap back to previous model
//! rpm-cli load-gen <ADDR> <TEST_FILE>      # open-loop load generator
//!         [--qps R[,R..]] [--duration-secs S] [--senders N] [--json PATH]
//!         [--amplitude A] [--offset B]     # replay A*x+B shifted series
//!                                          # (drift-sweep traffic)
//! rpm-cli patterns <MODEL>                 # prints the learned patterns
//! rpm-cli motifs <SERIES_FILE> [--window W --paa P --alpha A]
//!                                          # exploratory motifs/discords
//! rpm-cli generate <DATASET> <OUT_PREFIX>  # writes <PREFIX>_TRAIN/_TEST
//! rpm-cli obs summary <RUN.jsonl>          # stage tree + quantiles
//! rpm-cli obs diff <BASE.jsonl> <RUN.jsonl> [--tolerance 20%] [--time-gate]
//!                                          # exit 1 on regression
//! rpm-cli obs traces <ADDR>                # fetch retained request traces
//!         [--min-ms N] [--outcome ok|bad_request|shed|deadline|error]
//! rpm-cli obs drift <ADDR> [--json]        # drift verdict vs the model's
//!                                          # training reference profile
//! ```
//!
//! Files use the UCR archive format: one series per line, class label
//! first, comma- or whitespace-separated; malformed rows (bad labels or
//! values, NaN/Inf, ragged lengths) are quarantined with a summary on
//! stderr rather than failing the command. Run reports are the JSONL
//! files written via `RPM_LOG=spans,json=run.jsonl`.

use rpm::core::{
    discover_motifs, find_discords, ParamSearch, RpmClassifier, RpmConfig, TrainBudget,
};
use rpm::data::registry::spec_by_name;
use rpm::data::ucr::{read_ucr_file, read_ucr_file_lenient, write_ucr, Quarantine};
use rpm::ml::error_rate;
use rpm::obs::{diff_reports, validate_jsonl, DiffOptions};
use rpm::sax::SaxConfig;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    rpm::obs::init_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("model") => cmd_model(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("load-gen") => cmd_load_gen(&args[1..]),
        Some("patterns") => cmd_patterns(&args[1..]),
        Some("motifs") => cmd_motifs(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        _ => {
            eprintln!(
                "usage: rpm-cli <train|classify|model|serve|load-gen|patterns|motifs|generate|obs> ..."
            );
            eprintln!("see the crate docs (src/bin/rpm-cli.rs) for full usage");
            return ExitCode::from(2);
        }
    };
    let code = match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    // Stage tree to stderr + optional JSONL report when RPM_LOG is set.
    rpm::obs::finish();
    code
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Pulls `--flag value` out of the argument list. A flag given more than
/// once, or present without a value (end of args, or followed by another
/// `--flag`), is a usage error rather than a panic or silent pick.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut found: Option<String> = None;
    for (i, a) in args.iter().enumerate() {
        if a != flag {
            continue;
        }
        if found.is_some() {
            return Err(format!("{flag} given more than once"));
        }
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => found = Some(v.clone()),
            _ => return Err(format!("{flag} requires a value")),
        }
    }
    Ok(found)
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn positional(args: &[String], index: usize) -> Result<&String, String> {
    args.iter()
        .enumerate()
        .filter(|(i, a)| {
            // A --flag is not positional, and neither is the value
            // following one.
            !a.starts_with("--") && (*i == 0 || !args[*i - 1].starts_with("--"))
        })
        .map(|(_, a)| a)
        .nth(index)
        .ok_or_else(|| format!("missing positional argument #{index}"))
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(v) => v.parse::<T>().map(Some).map_err(|e| format!("{flag}: {e}")),
    }
}

/// Parses a tolerance given as a percentage (`20%`) or a ratio (`0.2`).
fn parse_tolerance(s: &str) -> Result<f64, String> {
    let (body, scale) = match s.strip_suffix('%') {
        Some(body) => (body, 100.0),
        None => (s, 1.0),
    };
    let v: f64 = body
        .trim()
        .parse()
        .map_err(|e| format!("--tolerance {s:?}: {e}"))?;
    let v = v / scale;
    if !(0.0..=10.0).contains(&v) {
        return Err(format!("--tolerance {s:?} out of range"));
    }
    Ok(v)
}

fn sax_from_flags(args: &[String], default_len: usize) -> Result<SaxConfig, String> {
    let window = parse_flag::<usize>(args, "--window")?.unwrap_or((default_len / 4).max(4));
    let paa = parse_flag::<usize>(args, "--paa")?.unwrap_or(4);
    let alpha = parse_flag::<usize>(args, "--alpha")?.unwrap_or(4);
    Ok(SaxConfig::new(window, paa.min(window), alpha))
}

/// Prints the lenient reader's verdict for a loaded file.
fn report_quarantine(path: &str, q: &Quarantine) {
    if q.is_clean() {
        return;
    }
    eprintln!("warning: {path}: {}", q.summary());
}

fn cmd_train(args: &[String]) -> CliResult {
    let train_path = positional(args, 0)?;
    let model_path = flag_value(args, "--model")?.ok_or("train requires --model <OUT>")?;
    let (train, _, quarantine) = read_ucr_file_lenient(train_path)?;
    report_quarantine(train_path, &quarantine);
    eprintln!("loaded {train}");

    let param_search = if let Some(n) = parse_flag::<usize>(args, "--direct")? {
        ParamSearch::Direct {
            max_evals: n,
            per_class: flag_present(args, "--per-class"),
        }
    } else if flag_present(args, "--window") {
        ParamSearch::Fixed(sax_from_flags(args, train.min_len())?)
    } else {
        ParamSearch::Direct {
            max_evals: 12,
            per_class: false,
        }
    };
    let budget = TrainBudget {
        wall_clock: parse_flag::<u64>(args, "--budget-secs")?.map(std::time::Duration::from_secs),
        max_evals: parse_flag::<usize>(args, "--budget-evals")?,
    };
    let config = RpmConfig {
        param_search,
        gamma: parse_flag::<f64>(args, "--gamma")?.unwrap_or(0.2),
        rotation_invariant: flag_present(args, "--rotation-invariant"),
        budget,
        checkpoint: flag_value(args, "--checkpoint")?.map(std::path::PathBuf::from),
        ..RpmConfig::default()
    };
    let model = RpmClassifier::train(&train, &config)?;
    if model.is_degraded() {
        eprintln!(
            "warning: training budget exhausted before the parameter search \
             finished; the model uses the best parameters found so far"
        );
    }
    eprintln!("learned {} representative patterns", model.patterns().len());
    eprintln!("training cache: {}", model.cache_stats());
    model.save(std::fs::File::create(&model_path)?)?;
    eprintln!("model written to {model_path}");
    Ok(())
}

fn cmd_model(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("verify") => {
            let rest = &args[1..];
            let path = positional(rest, 0)?;
            let report = RpmClassifier::verify(std::fs::File::open(path)?)
                .map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: OK (format v{})", report.version);
            for (name, bytes) in &report.sections {
                println!("  section {name:<9} {bytes} bytes, crc32 verified");
            }
            println!(
                "  {} patterns, {} classes{}",
                report.patterns,
                report.classes,
                if report.degraded {
                    ", trained under an exhausted budget"
                } else {
                    ""
                }
            );
            println!("  fingerprint {}", report.fingerprint);
            if report.profile_samples > 0 {
                println!(
                    "  drift reference profile: {} training samples",
                    report.profile_samples
                );
            } else {
                println!("  no drift reference profile (pre-profile model)");
            }
            Ok(())
        }
        _ => Err("usage: rpm-cli model verify <MODEL>".into()),
    }
}

/// Every flag `rpm-cli serve MODEL` takes.
const SERVE_FLAGS: [&str; 14] = [
    "--addr",
    "--workers",
    "--batch-max",
    "--queue-depth",
    "--deadline-ms",
    "--threads",
    "--allow-unverified",
    "--duration-secs",
    "--drift-warn",
    "--drift-page",
    "--drift-min-samples",
    "--reload-canary",
    "--probation-secs",
    "--max-body-kb",
];

/// `rpm-cli serve MODEL …` — bring up the classify server. Verification
/// is not optional: a model that fails its CRC check (or predates
/// checksums, absent `--allow-unverified`) never reaches the listener.
/// `rpm-cli serve reload|rollback ADDR` are thin clients for the admin
/// endpoints of an already-running server.
fn cmd_serve(args: &[String]) -> CliResult {
    match positional(args, 0).map(String::as_str) {
        Ok("reload") => return cmd_serve_reload(&args[1..]),
        Ok("rollback") => return cmd_serve_rollback(&args[1..]),
        _ => {}
    }
    // Flags are looked up by name, so a misspelt or removed one would
    // otherwise leave its setting at the default without a word.
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !SERVE_FLAGS.contains(&a.as_str()))
    {
        let known = SERVE_FLAGS.join(" ");
        return Err(format!("unknown flag {flag} (known: {known})").into());
    }
    let model_path = positional(args, 0)?;
    let allow_unverified = flag_present(args, "--allow-unverified");
    let (model, report) =
        rpm::serve::load_verified_path(std::path::Path::new(model_path), allow_unverified)
            .map_err(|e| format!("{model_path}: {e}"))?;
    eprintln!(
        "{model_path}: verified format v{}, {} patterns, {} classes, fingerprint {}{}",
        report.version,
        report.patterns,
        report.classes,
        report.fingerprint,
        if report.version < 2 {
            " (UNVERIFIED: v1 carries no checksums)"
        } else {
            ""
        }
    );
    if report.profile_samples > 0 {
        eprintln!(
            "drift reference profile: {} training samples (online drift detection armed)",
            report.profile_samples
        );
    } else {
        eprintln!("model carries no drift reference profile; /debug/drift will report unavailable");
    }

    let config = rpm::serve::ServeConfig {
        addr: flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:9899".to_string()),
        workers: parse_flag::<usize>(args, "--workers")?.unwrap_or(2),
        max_batch: parse_flag::<usize>(args, "--batch-max")?.unwrap_or(32),
        queue_depth: parse_flag::<usize>(args, "--queue-depth")?.unwrap_or(1024),
        deadline: std::time::Duration::from_millis(
            parse_flag::<u64>(args, "--deadline-ms")?.unwrap_or(2000),
        ),
        parallelism: match parse_flag::<usize>(args, "--threads")?.unwrap_or(1) {
            0 | 1 => rpm::core::Parallelism::Serial,
            n => rpm::core::Parallelism::Threads(n),
        },
        limits: rpm::obs::ServeLimits {
            max_body_bytes: parse_flag::<usize>(args, "--max-body-kb")?
                .map(|kb| kb * 1024)
                .unwrap_or(rpm::obs::ServeLimits::default().max_body_bytes),
            ..rpm::obs::ServeLimits::default()
        },
        drift: drift_config_from(args)?,
        reload: {
            let defaults = rpm::serve::ReloadPolicy::default();
            rpm::serve::ReloadPolicy {
                canary_psi: parse_flag::<f64>(args, "--reload-canary")?
                    .unwrap_or(defaults.canary_psi),
                probation: parse_flag::<u64>(args, "--probation-secs")?
                    .map(std::time::Duration::from_secs)
                    .unwrap_or(defaults.probation),
                allow_unverified,
                ..defaults
            }
        },
        supervise: rpm::serve::SuperviseSettings::default(),
        model_path: Some(std::path::PathBuf::from(model_path)),
    };
    let mut server =
        rpm::serve::Server::start_verified(std::sync::Arc::new(model), &report, &config)?;
    eprintln!(
        "serving /classify, /metrics, /healthz, /admin/reload on {} \
         ({} workers, batch ≤{} series)",
        server.local_addr(),
        config.workers,
        config.max_batch
    );

    // The serve loop is signal-driven: SIGHUP hot-reloads the model
    // file through the canary gate, SIGTERM/SIGINT break out into the
    // graceful drain below. `--duration-secs` bounds the loop for
    // smoke tests.
    rpm::serve::signals::reset();
    rpm::serve::signals::install();
    let until = parse_flag::<u64>(args, "--duration-secs")?
        .map(|secs| std::time::Instant::now() + std::time::Duration::from_secs(secs));
    loop {
        if rpm::serve::signals::shutdown_requested() {
            eprintln!("shutdown signal received; draining in-flight requests");
            break;
        }
        if rpm::serve::signals::take_reload() {
            eprintln!("SIGHUP: reloading {model_path} through the canary gate");
            match server
                .lifecycle()
                .reload_from_path(std::path::Path::new(model_path))
            {
                Ok(o) => eprintln!(
                    "reload accepted: generation {} fingerprint {}",
                    o.generation, o.fingerprint
                ),
                Err(e) => eprintln!("reload rejected ({}): {e}", e.code()),
            }
        }
        if until.is_some_and(|t| std::time::Instant::now() >= t) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    server.shutdown();
    Ok(())
}

/// `rpm-cli serve reload ADDR [--model PATH]` — ask a running server to
/// hot-reload (its own model path unless `--model` names another
/// candidate). Exits nonzero when the canary gate rejects it.
fn cmd_serve_reload(args: &[String]) -> CliResult {
    let addr = positional(args, 0)?;
    let body = match flag_value(args, "--model")? {
        Some(path) => format!("{{\"path\":{}}}", rpm::serve::proto::quote_json(&path)),
        None => "{}".to_string(),
    };
    let (status, response) = http_post(addr, "/admin/reload", &body)?;
    print!("{response}");
    if status != 200 {
        return Err(format!("reload refused (HTTP {status})").into());
    }
    Ok(())
}

/// `rpm-cli serve rollback ADDR` — swap a running server back to its
/// warm previous generation.
fn cmd_serve_rollback(args: &[String]) -> CliResult {
    let addr = positional(args, 0)?;
    let (status, response) = http_post(addr, "/admin/rollback", "")?;
    print!("{response}");
    if status != 200 {
        return Err(format!("rollback refused (HTTP {status})").into());
    }
    Ok(())
}

/// Drift thresholds for `rpm-cli serve`: flags win, the `RPM_DRIFT_WARN`
/// / `RPM_DRIFT_PAGE` environment variables are the fleet-config
/// fallback, then the library defaults.
fn drift_config_from(args: &[String]) -> Result<rpm::obs::DriftConfig, String> {
    let env_threshold = |name: &str| -> Result<Option<f64>, String> {
        match std::env::var(name) {
            Ok(v) => v
                .trim()
                .parse::<f64>()
                .map(Some)
                .map_err(|e| format!("{name}={v:?}: {e}")),
            Err(_) => Ok(None),
        }
    };
    let defaults = rpm::obs::DriftConfig::default();
    Ok(rpm::obs::DriftConfig {
        warn: match parse_flag::<f64>(args, "--drift-warn")? {
            Some(v) => v,
            None => env_threshold("RPM_DRIFT_WARN")?.unwrap_or(defaults.warn),
        },
        page: match parse_flag::<f64>(args, "--drift-page")? {
            Some(v) => v,
            None => env_threshold("RPM_DRIFT_PAGE")?.unwrap_or(defaults.page),
        },
        min_samples: parse_flag::<u64>(args, "--drift-min-samples")?
            .unwrap_or(defaults.min_samples),
        ..defaults
    })
}

/// `rpm-cli load-gen ADDR TEST_FILE …` — drive a running server with
/// open-loop traffic at each requested QPS level and print the table.
/// The file's rows are replayed round-robin (optionally `A*x + B`
/// shifted), so the offered traffic carries the file's distribution.
fn cmd_load_gen(args: &[String]) -> CliResult {
    let addr: std::net::SocketAddr = positional(args, 0)?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let test_path = positional(args, 1)?;
    let (test, _, quarantine) = read_ucr_file_lenient(test_path)?;
    report_quarantine(test_path, &quarantine);
    // Optional distribution shift for drift sweeps: replay `A*x + B`
    // instead of the clean series.
    let amplitude = parse_flag::<f64>(args, "--amplitude")?.unwrap_or(1.0);
    let offset = parse_flag::<f64>(args, "--offset")?.unwrap_or(0.0);
    // Every row of the file, cycled round-robin by the generator, so
    // the offered traffic replays the file's distribution rather than
    // hammering one series into a point mass the drift monitor would
    // rightly flag.
    let bodies: Vec<String> = test
        .series
        .iter()
        .map(|series| {
            let rendered: Vec<String> = series
                .iter()
                .map(|v| format!("{}", v * amplitude + offset))
                .collect();
            format!("[{}]\n", rendered.join(","))
        })
        .collect();
    if bodies.is_empty() {
        return Err("test file is empty".into());
    }

    let qps_list: Vec<f64> = match flag_value(args, "--qps")? {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse::<f64>().map_err(|e| format!("--qps: {e}")))
            .collect::<Result<_, _>>()?,
        None => vec![50.0, 200.0, 800.0],
    };
    let duration =
        std::time::Duration::from_secs(parse_flag::<u64>(args, "--duration-secs")?.unwrap_or(5));
    let senders = parse_flag::<usize>(args, "--senders")?.unwrap_or(8);

    println!(
        "| run | offered qps | achieved qps | 200 | 429 | 504 | err | p50 ms | p99 ms | shed p99 ms |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut json_lines = Vec::new();
    for qps in qps_list {
        let report = rpm::serve::run_load(&rpm::serve::LoadConfig {
            addr,
            qps,
            duration,
            senders,
            bodies: bodies.clone(),
        });
        let label = format!("{qps:.0}qps");
        println!("{}", report.markdown_row(&label));
        json_lines.push(report.to_json(&label));
    }
    if let Some(path) = flag_value(args, "--json")? {
        std::fs::write(&path, format!("[{}]\n", json_lines.join(",\n ")))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> CliResult {
    let model_path = positional(args, 0)?;
    let test_path = positional(args, 1)?;
    let metrics_addr = flag_value(args, "--metrics-addr")?;
    let linger = parse_flag::<u64>(args, "--metrics-linger")?.unwrap_or(0);
    let server = match &metrics_addr {
        Some(addr) => {
            if !rpm::obs::enabled() {
                // A scrape endpoint without metric recording would serve
                // an empty page; bump to Summary, keeping any JSONL path
                // RPM_LOG already configured.
                rpm::obs::ObsConfig {
                    level: rpm::obs::ObsLevel::Summary,
                    json_path: rpm::obs::json_path(),
                    http_addr: None,
                }
                .install();
            }
            let server = rpm::obs::serve(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            eprintln!("serving /metrics on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let model = RpmClassifier::load(std::fs::File::open(model_path)?)?;
    if model.is_degraded() {
        eprintln!("note: model was trained under an exhausted budget");
    }
    let (test, _, quarantine) = read_ucr_file_lenient(test_path)?;
    report_quarantine(test_path, &quarantine);
    let preds = model.predict_batch(&test.series);
    for p in &preds {
        println!("{p}");
    }
    eprintln!("error rate: {:.4}", error_rate(&test.labels, &preds));
    if model.usage_observations() > 0 {
        eprint!("{}", model.render_pattern_usage());
    }
    if let Some(server) = server {
        if linger > 0 {
            eprintln!(
                "metrics endpoint lingering {linger}s on {}",
                server.local_addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(linger));
        }
        drop(server);
    }
    Ok(())
}

fn cmd_obs(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("summary") => {
            let rest = &args[1..];
            let path = positional(rest, 0)?;
            let summary = validate_jsonl(path)?;
            print!("{}", summary.render());
            Ok(())
        }
        Some("traces") => {
            let rest = &args[1..];
            let addr = positional(rest, 0)?;
            let mut query = Vec::new();
            if let Some(min_ms) = parse_flag::<u64>(rest, "--min-ms")? {
                query.push(format!("min_ms={min_ms}"));
            }
            if let Some(outcome) = flag_value(rest, "--outcome")? {
                query.push(format!("outcome={outcome}"));
            }
            let path = if query.is_empty() {
                "/debug/traces".to_string()
            } else {
                format!("/debug/traces?{}", query.join("&"))
            };
            print!("{}", http_get(addr, &path)?);
            Ok(())
        }
        Some("drift") => {
            let rest = &args[1..];
            let addr = positional(rest, 0)?;
            let body = http_get(addr, "/debug/drift")?;
            if flag_present(rest, "--json") {
                println!("{}", body.trim_end());
            } else {
                print!("{}", render_drift(&body)?);
            }
            Ok(())
        }
        Some("diff") => {
            let rest = &args[1..];
            let baseline_path = positional(rest, 0)?;
            let current_path = positional(rest, 1)?;
            let tolerance = match flag_value(rest, "--tolerance")? {
                Some(t) => parse_tolerance(&t)?,
                None => 0.0,
            };
            let opts = DiffOptions {
                tolerance,
                time_gate: flag_present(rest, "--time-gate"),
            };
            let baseline = validate_jsonl(baseline_path)?;
            let current = validate_jsonl(current_path)?;
            let diff = diff_reports(&baseline, &current, &opts);
            print!("{}", diff.render());
            if diff.regressions > 0 {
                return Err(format!(
                    "{} regression(s) in {current_path} against {baseline_path}",
                    diff.regressions
                )
                .into());
            }
            Ok(())
        }
        _ => Err(
            "usage: rpm-cli obs <summary RUN.jsonl | diff BASELINE.jsonl RUN.jsonl \
                  [--tolerance 20%] [--time-gate] | traces ADDR [--min-ms N] \
                  [--outcome ok|bad_request|shed|deadline|error] | drift ADDR [--json]>"
                .into(),
        ),
    }
}

/// Pulls a `"key":"value"` string field out of a flat JSON object.
fn json_string(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = json.find(&pat)? + pat.len();
    json[at..].split('"').next().map(str::to_string)
}

/// Pulls a `"key":<number>` field out of a flat JSON object.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Renders the `/debug/drift` JSON as the human-facing drift table.
fn render_drift(body: &str) -> Result<String, Box<dyn std::error::Error>> {
    let status = json_string(body, "status").ok_or("malformed drift report (no status)")?;
    let mut out = format!("drift status: {status}\n");
    if status == "unavailable" {
        out.push_str("the served model carries no training reference profile\n");
        return Ok(out);
    }
    let live = json_number(body, "live_samples").unwrap_or(0.0);
    let reference = json_number(body, "reference_samples").unwrap_or(0.0);
    let window = json_number(body, "window_secs").unwrap_or(0.0);
    let warn = json_number(body, "warn").unwrap_or(0.0);
    let page = json_number(body, "page").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "live window: {live:.0} samples over {window:.0}s (reference {reference:.0}); \
         thresholds warn ≥ {warn} / page ≥ {page}",
    );
    let _ = writeln!(out, "{:<16} {:>9} {:>9}  verdict", "metric", "psi", "ks");
    for block in body.split("{\"metric\":\"").skip(1) {
        let seg = &block[..block.find('}').unwrap_or(block.len())];
        let name = seg.split('"').next().unwrap_or("?");
        let psi = json_number(seg, "psi").unwrap_or(f64::NAN);
        let ks = json_number(seg, "ks");
        let verdict = json_string(seg, "verdict").unwrap_or_else(|| "?".to_string());
        let ks_cell = match ks {
            Some(v) => format!("{v:>9.4}"),
            None => format!("{:>9}", "-"),
        };
        let _ = writeln!(out, "{name:<16} {psi:>9.4} {ks_cell}  {verdict}");
    }
    Ok(out)
}

/// A one-shot HTTP/1.0 GET against a serving endpoint (the flight
/// recorder's `/debug/traces`), returning the body. Std-only — no HTTP
/// client dependency for a line-oriented debug fetch.
fn http_get(addr: &str, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status_line = head.lines().next().unwrap_or_default();
    if !status_line.contains(" 200 ") && !status_line.ends_with(" 200") {
        return Err(format!("{addr}{path}: {status_line}").into());
    }
    Ok(body.to_string())
}

/// One-shot HTTP/1.0 POST; returns (status, body) so admin clients can
/// surface `409 Conflict` bodies instead of erroring on the transport.
fn http_post(
    addr: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), Box<dyn std::error::Error>> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "POST {path} HTTP/1.0\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status_line = head.lines().next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status_line}"))?;
    Ok((status, body.to_string()))
}

fn cmd_patterns(args: &[String]) -> CliResult {
    let model_path = positional(args, 0)?;
    let model = RpmClassifier::load(std::fs::File::open(model_path)?)?;
    println!("class,length,frequency,coverage,window,paa,alphabet");
    for p in model.patterns() {
        println!(
            "{},{},{},{},{},{},{}",
            p.class,
            p.values.len(),
            p.frequency,
            p.coverage,
            p.sax.window,
            p.sax.paa_size,
            p.sax.alphabet
        );
    }
    Ok(())
}

fn cmd_motifs(args: &[String]) -> CliResult {
    let series_path = positional(args, 0)?;
    let (data, _) = read_ucr_file(series_path)?;
    let series = data.series.first().ok_or("series file is empty")?;
    let sax = sax_from_flags(args, series.len())?;
    let motifs = discover_motifs(series, &sax);
    println!("top motifs (count, word length, first occurrences):");
    for m in motifs.iter().take(10) {
        let occ: Vec<String> = m
            .occurrences
            .iter()
            .take(5)
            .map(|(s, e)| format!("[{s},{e})"))
            .collect();
        println!(
            "  x{:<4} {:>3} words  {}",
            m.count(),
            m.rule_words,
            occ.join(" ")
        );
    }
    let discords = find_discords(series, &sax, 3);
    println!("top discords (position, length, coverage):");
    for d in discords {
        println!(
            "  @{:<6} len {:<5} coverage {:.2}",
            d.position, d.length, d.coverage
        );
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> CliResult {
    let name = positional(args, 0)?;
    let prefix = positional(args, 1)?;
    let spec = spec_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = rpm::data::suite().iter().map(|s| s.name).collect();
        format!("unknown dataset {name:?}; available: {}", names.join(", "))
    })?;
    let seed = parse_flag::<u64>(args, "--seed")?.unwrap_or(2016);
    let (train, test) = rpm::data::generate(&spec, seed);
    write_ucr(&train, std::fs::File::create(format!("{prefix}_TRAIN"))?)?;
    write_ucr(&test, std::fs::File::create(format!("{prefix}_TEST"))?)?;
    eprintln!(
        "wrote {prefix}_TRAIN ({}) and {prefix}_TEST ({})",
        train.len(),
        test.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_extracts_and_errors_on_malformed_usage() {
        let ok = argv(&["train", "file", "--model", "out.rpm"]);
        assert_eq!(
            flag_value(&ok, "--model").unwrap().as_deref(),
            Some("out.rpm")
        );
        assert_eq!(flag_value(&ok, "--gamma").unwrap(), None);

        // Flag at the end with no value.
        let dangling = argv(&["train", "file", "--model"]);
        let err = flag_value(&dangling, "--model").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");

        // Flag followed by another flag instead of a value.
        let eaten = argv(&["train", "file", "--model", "--gamma", "0.2"]);
        let err = flag_value(&eaten, "--model").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");

        // Repeated flag.
        let twice = argv(&["--model", "a", "--model", "b"]);
        let err = flag_value(&twice, "--model").unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn positional_skips_flags_and_their_values() {
        let args = argv(&["model.rpm", "--tolerance", "20%", "test.ucr"]);
        assert_eq!(positional(&args, 0).unwrap(), "model.rpm");
        assert_eq!(positional(&args, 1).unwrap(), "test.ucr");
        assert!(positional(&args, 2).is_err());
    }

    #[test]
    fn positional_handles_repeated_values() {
        // The same string as a flag value and a positional must not
        // confuse the index-based scan.
        let args = argv(&["--model", "x", "x"]);
        assert_eq!(positional(&args, 0).unwrap(), "x");
        assert!(positional(&args, 1).is_err());
    }

    #[test]
    fn drift_config_flags_override_defaults() {
        let defaults = rpm::obs::DriftConfig::default();
        let none = drift_config_from(&argv(&["serve", "m.rpm"])).unwrap();
        assert_eq!(none.warn, defaults.warn);
        assert_eq!(none.page, defaults.page);
        let set = drift_config_from(&argv(&[
            "serve",
            "m.rpm",
            "--drift-warn",
            "0.1",
            "--drift-page",
            "0.3",
            "--drift-min-samples",
            "7",
        ]))
        .unwrap();
        assert_eq!(set.warn, 0.1);
        assert_eq!(set.page, 0.3);
        assert_eq!(set.min_samples, 7);
    }

    #[test]
    fn drift_report_renders_as_a_table() {
        let body = "{\"status\":\"warn\",\"live_samples\":120,\"reference_samples\":30,\
                    \"window_secs\":240,\"epoch_secs\":30,\"epochs\":8,\"warn\":0.200000,\
                    \"page\":0.500000,\"metrics\":[\
                    {\"metric\":\"match_distance\",\"psi\":0.312000,\"ks\":0.140000,\"verdict\":\"warn\"},\
                    {\"metric\":\"class_mix\",\"psi\":0.010000,\"ks\":null,\"verdict\":\"ok\"}]}";
        let table = render_drift(body).unwrap();
        assert!(table.contains("drift status: warn"), "{table}");
        assert!(table.contains("match_distance"), "{table}");
        assert!(table.contains("0.3120"), "{table}");
        assert!(table.contains("class_mix"), "{table}");
        // Categorical class mix has no KS column value.
        let mix_line = table.lines().find(|l| l.contains("class_mix")).unwrap();
        assert!(mix_line.contains('-'), "{mix_line}");

        let off = render_drift("{\"status\":\"unavailable\",\"metrics\":[]}").unwrap();
        assert!(off.contains("unavailable"), "{off}");
        assert!(render_drift("{}").is_err());
    }

    #[test]
    fn tolerance_accepts_percent_and_ratio() {
        assert!((parse_tolerance("20%").unwrap() - 0.2).abs() < 1e-12);
        assert!((parse_tolerance("0.2").unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(parse_tolerance("0").unwrap(), 0.0);
        assert!(parse_tolerance("pct").is_err());
        assert!(parse_tolerance("-5%").is_err());
    }
}
