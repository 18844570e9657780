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
//! Each subcommand refuses a flag it does not take, before it reads a
//! file or starts any work. Flags shown without a value
//! (`--per-class`, `--rotation-invariant`, `--allow-unverified`,
//! `--time-gate`, and `--json` of `obs drift`) take none, so the word
//! after them is read as usual.
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

/// One flag a subcommand takes: its name, and whether the next word is
/// its value (`--window 32`) or the flag stands alone (`--json`).
#[derive(Clone, Copy, Debug)]
struct Flag {
    name: &'static str,
    takes_value: bool,
}

const fn value(name: &'static str) -> Flag {
    Flag {
        name,
        takes_value: true,
    }
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        takes_value: false,
    }
}

/// The flags of each subcommand; any other flag is refused.
const TRAIN_FLAGS: &[Flag] = &[
    value("--model"),
    value("--window"),
    value("--paa"),
    value("--alpha"),
    value("--direct"),
    switch("--per-class"),
    value("--gamma"),
    switch("--rotation-invariant"),
    value("--checkpoint"),
    value("--budget-evals"),
    value("--budget-secs"),
];
const CLASSIFY_FLAGS: &[Flag] = &[value("--metrics-addr"), value("--metrics-linger")];
const SERVE_FLAGS: &[Flag] = &[
    value("--addr"),
    value("--workers"),
    value("--batch-max"),
    value("--queue-depth"),
    value("--deadline-ms"),
    value("--threads"),
    switch("--allow-unverified"),
    value("--duration-secs"),
    value("--drift-warn"),
    value("--drift-page"),
    value("--drift-min-samples"),
    value("--reload-canary"),
    value("--probation-secs"),
    value("--max-body-kb"),
];
const SERVE_RELOAD_FLAGS: &[Flag] = &[value("--model")];
const LOAD_GEN_FLAGS: &[Flag] = &[
    value("--qps"),
    value("--duration-secs"),
    value("--senders"),
    value("--json"),
    value("--amplitude"),
    value("--offset"),
];
const MOTIFS_FLAGS: &[Flag] = &[value("--window"), value("--paa"), value("--alpha")];
const GENERATE_FLAGS: &[Flag] = &[value("--seed")];
const OBS_DIFF_FLAGS: &[Flag] = &[value("--tolerance"), switch("--time-gate")];
const OBS_TRACES_FLAGS: &[Flag] = &[value("--min-ms"), value("--outcome")];
const OBS_DRIFT_FLAGS: &[Flag] = &[switch("--json")];
/// `model verify`, `patterns`, `serve rollback` and `obs summary`.
const NO_FLAGS: &[Flag] = &[];

/// One subcommand's arguments, read against its flag table.
struct Args<'a> {
    words: &'a [String],
    flags: &'static [Flag],
}

impl<'a> Args<'a> {
    /// Refuses any `--flag` the table does not name. Flags are looked up
    /// by name, so a misspelt or removed one would otherwise leave its
    /// setting at the default without a word; callers check before any
    /// file is read or any work starts.
    fn new(words: &'a [String], flags: &'static [Flag]) -> Result<Self, String> {
        let args = Self { words, flags };
        if let Some(word) = words
            .iter()
            .find(|w| w.starts_with("--") && args.flag(w).is_none())
        {
            let known: Vec<&str> = flags.iter().map(|f| f.name).collect();
            return Err(if known.is_empty() {
                format!("unknown flag {word} (this command takes none)")
            } else {
                format!("unknown flag {word} (known: {})", known.join(" "))
            });
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// The value of `--flag value`. A flag given more than once, or
    /// present without a value (end of args, or followed by another
    /// `--flag`), is a usage error rather than a panic or silent pick.
    fn flag_value(&self, flag: &str) -> Result<Option<String>, String> {
        debug_assert!(self.flag(flag).is_some_and(|f| f.takes_value), "{flag}");
        let mut found: Option<String> = None;
        for (i, a) in self.words.iter().enumerate() {
            if a != flag {
                continue;
            }
            if found.is_some() {
                return Err(format!("{flag} given more than once"));
            }
            match self.words.get(i + 1) {
                Some(v) if !v.starts_with("--") => found = Some(v.clone()),
                _ => return Err(format!("{flag} requires a value")),
            }
        }
        Ok(found)
    }

    /// Whether the boolean `flag` was given.
    fn flag_present(&self, flag: &str) -> bool {
        debug_assert!(self.flag(flag).is_some_and(|f| !f.takes_value), "{flag}");
        self.words.iter().any(|a| a == flag)
    }

    /// The `index`-th word that is neither a flag nor the value of one;
    /// a boolean flag takes no value, so the word after it counts.
    fn positional(&self, index: usize) -> Result<&'a String, String> {
        let mut words = self.words.iter().peekable();
        let mut seen = 0;
        while let Some(word) = words.next() {
            if word.starts_with("--") {
                if self.flag(word).is_some_and(|f| f.takes_value) {
                    words.next_if(|v| !v.starts_with("--"));
                }
                continue;
            }
            if seen == index {
                return Ok(word);
            }
            seen += 1;
        }
        Err(format!("missing positional argument #{index}"))
    }

    fn parse_flag<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag_value(flag)? {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|e| format!("{flag}: {e}")),
        }
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

fn sax_from_flags(args: &Args<'_>, default_len: usize) -> Result<SaxConfig, String> {
    let window = args
        .parse_flag::<usize>("--window")?
        .unwrap_or((default_len / 4).max(4));
    let paa = args.parse_flag::<usize>("--paa")?.unwrap_or(4);
    let alpha = args.parse_flag::<usize>("--alpha")?.unwrap_or(4);
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
    let args = Args::new(args, TRAIN_FLAGS)?;
    let train_path = args.positional(0)?;
    let model_path = args
        .flag_value("--model")?
        .ok_or("train requires --model <OUT>")?;
    let (train, _, quarantine) = read_ucr_file_lenient(train_path)?;
    report_quarantine(train_path, &quarantine);
    eprintln!("loaded {train}");

    let param_search = if let Some(n) = args.parse_flag::<usize>("--direct")? {
        ParamSearch::Direct {
            max_evals: n,
            per_class: args.flag_present("--per-class"),
        }
    } else if args.flag_value("--window")?.is_some() {
        ParamSearch::Fixed(sax_from_flags(&args, train.min_len())?)
    } else {
        ParamSearch::Direct {
            max_evals: 12,
            per_class: false,
        }
    };
    let budget = TrainBudget {
        wall_clock: args
            .parse_flag::<u64>("--budget-secs")?
            .map(std::time::Duration::from_secs),
        max_evals: args.parse_flag::<usize>("--budget-evals")?,
    };
    let config = RpmConfig {
        param_search,
        gamma: args.parse_flag::<f64>("--gamma")?.unwrap_or(0.2),
        rotation_invariant: args.flag_present("--rotation-invariant"),
        budget,
        checkpoint: args
            .flag_value("--checkpoint")?
            .map(std::path::PathBuf::from),
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
            let path = Args::new(&args[1..], NO_FLAGS)?.positional(0)?;
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

/// `rpm-cli serve MODEL …` — bring up the classify server. Verification
/// is not optional: a model that fails its CRC check (or predates
/// checksums, absent `--allow-unverified`) never reaches the listener.
/// `rpm-cli serve reload|rollback ADDR` are thin clients for the admin
/// endpoints of an already-running server.
fn cmd_serve(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("reload") => return cmd_serve_reload(&args[1..]),
        Some("rollback") => return cmd_serve_rollback(&args[1..]),
        _ => {}
    }
    let args = Args::new(args, SERVE_FLAGS)?;
    let model_path = args.positional(0)?;
    let allow_unverified = args.flag_present("--allow-unverified");
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

    // Every flag left unset keeps the library's default.
    let defaults = rpm::serve::ServeConfig::default();
    let config = rpm::serve::ServeConfig {
        addr: args.flag_value("--addr")?.unwrap_or(defaults.addr),
        workers: args.parse_flag("--workers")?.unwrap_or(defaults.workers),
        max_batch: args
            .parse_flag("--batch-max")?
            .unwrap_or(defaults.max_batch),
        queue_depth: args
            .parse_flag("--queue-depth")?
            .unwrap_or(defaults.queue_depth),
        deadline: args
            .parse_flag("--deadline-ms")?
            .map_or(defaults.deadline, std::time::Duration::from_millis),
        parallelism: match args.parse_flag::<usize>("--threads")? {
            None => defaults.parallelism,
            Some(0 | 1) => rpm::core::Parallelism::Serial,
            Some(n) => rpm::core::Parallelism::Threads(n),
        },
        limits: rpm::obs::ServeLimits {
            max_body_bytes: args
                .parse_flag::<usize>("--max-body-kb")?
                .map_or(defaults.limits.max_body_bytes, |kb| kb * 1024),
            ..defaults.limits
        },
        drift: drift_config_from(&args)?,
        reload: rpm::serve::ReloadPolicy {
            canary_psi: args
                .parse_flag("--reload-canary")?
                .unwrap_or(defaults.reload.canary_psi),
            probation: args
                .parse_flag("--probation-secs")?
                .map_or(defaults.reload.probation, std::time::Duration::from_secs),
            allow_unverified,
            ..defaults.reload
        },
        supervise: defaults.supervise,
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
    let until = args
        .parse_flag::<u64>("--duration-secs")?
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
    let args = Args::new(args, SERVE_RELOAD_FLAGS)?;
    let addr = args.positional(0)?;
    let body = match args.flag_value("--model")? {
        Some(path) => format!("{{\"path\":{}}}", rpm::obs::json::quote(&path)),
        None => "{}".to_string(),
    };
    let (status, response) = http(addr, "POST", "/admin/reload", &body)?;
    print!("{response}");
    if status != 200 {
        return Err(format!("reload refused (HTTP {status})").into());
    }
    Ok(())
}

/// `rpm-cli serve rollback ADDR` — swap a running server back to its
/// warm previous generation.
fn cmd_serve_rollback(args: &[String]) -> CliResult {
    let addr = Args::new(args, NO_FLAGS)?.positional(0)?;
    let (status, response) = http(addr, "POST", "/admin/rollback", "")?;
    print!("{response}");
    if status != 200 {
        return Err(format!("rollback refused (HTTP {status})").into());
    }
    Ok(())
}

/// Drift thresholds for `rpm-cli serve`: flags win, the `RPM_DRIFT_WARN`
/// / `RPM_DRIFT_PAGE` environment variables are the fleet-config
/// fallback, then the library defaults.
fn drift_config_from(args: &Args<'_>) -> Result<rpm::obs::DriftConfig, String> {
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
        warn: match args.parse_flag::<f64>("--drift-warn")? {
            Some(v) => v,
            None => env_threshold("RPM_DRIFT_WARN")?.unwrap_or(defaults.warn),
        },
        page: match args.parse_flag::<f64>("--drift-page")? {
            Some(v) => v,
            None => env_threshold("RPM_DRIFT_PAGE")?.unwrap_or(defaults.page),
        },
        min_samples: args
            .parse_flag::<u64>("--drift-min-samples")?
            .unwrap_or(defaults.min_samples),
        ..defaults
    })
}

/// `rpm-cli load-gen ADDR TEST_FILE …` — drive a running server with
/// open-loop traffic at each requested QPS level and print the table.
/// The file's rows are replayed round-robin (optionally `A*x + B`
/// shifted), so the offered traffic carries the file's distribution.
fn cmd_load_gen(args: &[String]) -> CliResult {
    let args = Args::new(args, LOAD_GEN_FLAGS)?;
    let addr: std::net::SocketAddr = args
        .positional(0)?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let test_path = args.positional(1)?;
    let (test, _, quarantine) = read_ucr_file_lenient(test_path)?;
    report_quarantine(test_path, &quarantine);
    // Optional distribution shift for drift sweeps: replay `A*x + B`
    // instead of the clean series.
    let amplitude = args.parse_flag::<f64>("--amplitude")?.unwrap_or(1.0);
    let offset = args.parse_flag::<f64>("--offset")?.unwrap_or(0.0);
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

    let qps_list: Vec<f64> = match args.flag_value("--qps")? {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse::<f64>().map_err(|e| format!("--qps: {e}")))
            .collect::<Result<_, _>>()?,
        None => vec![50.0, 200.0, 800.0],
    };
    let duration =
        std::time::Duration::from_secs(args.parse_flag::<u64>("--duration-secs")?.unwrap_or(5));
    let senders = args.parse_flag::<usize>("--senders")?.unwrap_or(8);

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
    if let Some(path) = args.flag_value("--json")? {
        std::fs::write(&path, format!("[{}]\n", json_lines.join(",\n ")))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> CliResult {
    let args = Args::new(args, CLASSIFY_FLAGS)?;
    let model_path = args.positional(0)?;
    let test_path = args.positional(1)?;
    let metrics_addr = args.flag_value("--metrics-addr")?;
    let linger = args.parse_flag::<u64>("--metrics-linger")?.unwrap_or(0);
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
            let path = Args::new(&args[1..], NO_FLAGS)?.positional(0)?;
            let summary = validate_jsonl(path)?;
            print!("{}", summary.render());
            Ok(())
        }
        Some("traces") => {
            let rest = Args::new(&args[1..], OBS_TRACES_FLAGS)?;
            let addr = rest.positional(0)?;
            let mut query = Vec::new();
            if let Some(min_ms) = rest.parse_flag::<u64>("--min-ms")? {
                query.push(format!("min_ms={min_ms}"));
            }
            if let Some(outcome) = rest.flag_value("--outcome")? {
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
            let rest = Args::new(&args[1..], OBS_DRIFT_FLAGS)?;
            let addr = rest.positional(0)?;
            let body = http_get(addr, "/debug/drift")?;
            if rest.flag_present("--json") {
                println!("{}", body.trim_end());
            } else {
                print!("{}", render_drift(&body)?);
            }
            Ok(())
        }
        Some("diff") => {
            let rest = Args::new(&args[1..], OBS_DIFF_FLAGS)?;
            let baseline_path = rest.positional(0)?;
            let current_path = rest.positional(1)?;
            let tolerance = match rest.flag_value("--tolerance")? {
                Some(t) => parse_tolerance(&t)?,
                None => 0.0,
            };
            let opts = DiffOptions {
                tolerance,
                time_gate: rest.flag_present("--time-gate"),
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

/// Renders the `/debug/drift` JSON as the human-facing drift table.
fn render_drift(body: &str) -> Result<String, Box<dyn std::error::Error>> {
    use rpm::obs::json::Value;
    let report = rpm::obs::json::parse(body).map_err(|e| format!("malformed drift report: {e}"))?;
    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let status = report
        .get("status")
        .and_then(Value::as_str)
        .ok_or("malformed drift report (no status)")?;
    let mut out = format!("drift status: {status}\n");
    if status == "unavailable" {
        out.push_str("the served model carries no training reference profile\n");
        return Ok(out);
    }
    let live = number(&report, "live_samples").unwrap_or(0.0);
    let reference = number(&report, "reference_samples").unwrap_or(0.0);
    let window = number(&report, "window_secs").unwrap_or(0.0);
    let warn = number(&report, "warn").unwrap_or(0.0);
    let page = number(&report, "page").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "live window: {live:.0} samples over {window:.0}s (reference {reference:.0}); \
         thresholds warn ≥ {warn} / page ≥ {page}",
    );
    let _ = writeln!(out, "{:<16} {:>9} {:>9}  verdict", "metric", "psi", "ks");
    let metrics = report.get("metrics").and_then(Value::as_array);
    for m in metrics.unwrap_or_default() {
        let name = m.get("metric").and_then(Value::as_str).unwrap_or("?");
        let psi = number(m, "psi").unwrap_or(f64::NAN);
        let verdict = m.get("verdict").and_then(Value::as_str).unwrap_or("?");
        let ks_cell = match number(m, "ks") {
            Some(v) => format!("{v:>9.4}"),
            None => format!("{:>9}", "-"),
        };
        let _ = writeln!(out, "{name:<16} {psi:>9.4} {ks_cell}  {verdict}");
    }
    Ok(out)
}

/// A GET that must answer `200` (the flight recorder's
/// `/debug/traces`, the drift verdict), returning the body.
fn http_get(addr: &str, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    match http(addr, "GET", path, "")? {
        (200, body) => Ok(body),
        (status, _) => Err(format!("{addr}{path}: HTTP {status}").into()),
    }
}

/// One-shot HTTP/1.0 request; returns (status, body) so admin clients
/// can surface `409 Conflict` bodies instead of erroring on the
/// transport. Std-only — no HTTP client dependency.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), Box<dyn std::error::Error>> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "{method} {path} HTTP/1.0\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
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
    let model_path = Args::new(args, NO_FLAGS)?.positional(0)?;
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
    let args = Args::new(args, MOTIFS_FLAGS)?;
    let series_path = args.positional(0)?;
    let (data, _) = read_ucr_file(series_path)?;
    let series = data.series.first().ok_or("series file is empty")?;
    let sax = sax_from_flags(&args, series.len())?;
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
    let args = Args::new(args, GENERATE_FLAGS)?;
    let name = args.positional(0)?;
    let prefix = args.positional(1)?;
    let spec = spec_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = rpm::data::suite().iter().map(|s| s.name).collect();
        format!("unknown dataset {name:?}; available: {}", names.join(", "))
    })?;
    let seed = args.parse_flag::<u64>("--seed")?.unwrap_or(2016);
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
        let ok = Args::new(&ok, TRAIN_FLAGS).unwrap();
        assert_eq!(
            ok.flag_value("--model").unwrap().as_deref(),
            Some("out.rpm")
        );
        assert_eq!(ok.flag_value("--gamma").unwrap(), None);

        // Flag at the end with no value.
        let dangling = argv(&["train", "file", "--model"]);
        let err = Args::new(&dangling, TRAIN_FLAGS)
            .unwrap()
            .flag_value("--model")
            .unwrap_err();
        assert!(err.contains("requires a value"), "{err}");

        // Flag followed by another flag instead of a value.
        let eaten = argv(&["train", "file", "--model", "--gamma", "0.2"]);
        let err = Args::new(&eaten, TRAIN_FLAGS)
            .unwrap()
            .flag_value("--model")
            .unwrap_err();
        assert!(err.contains("requires a value"), "{err}");

        // Repeated flag.
        let twice = argv(&["--model", "a", "--model", "b"]);
        let err = Args::new(&twice, TRAIN_FLAGS)
            .unwrap()
            .flag_value("--model")
            .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn positional_skips_flags_and_their_values() {
        let args = argv(&["model.rpm", "--tolerance", "20%", "test.ucr"]);
        let args = Args::new(&args, OBS_DIFF_FLAGS).unwrap();
        assert_eq!(args.positional(0).unwrap(), "model.rpm");
        assert_eq!(args.positional(1).unwrap(), "test.ucr");
        assert!(args.positional(2).is_err());
    }

    #[test]
    fn positional_handles_repeated_values() {
        // The same string as a flag value and a positional must not
        // confuse the scan.
        let args = argv(&["--model", "x", "x"]);
        let args = Args::new(&args, TRAIN_FLAGS).unwrap();
        assert_eq!(args.positional(0).unwrap(), "x");
        assert!(args.positional(1).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let words = argv(&["--rotation-invariant", "cbf_TRAIN", "--model", "m"]);
        let args = Args::new(&words, TRAIN_FLAGS).unwrap();
        assert_eq!(args.positional(0).unwrap(), "cbf_TRAIN");
        assert!(args.flag_present("--rotation-invariant"));
        assert_eq!(args.flag_value("--model").unwrap().as_deref(), Some("m"));

        let words = argv(&["--allow-unverified", "model.rpm", "--addr", "a:1"]);
        let args = Args::new(&words, SERVE_FLAGS).unwrap();
        assert_eq!(args.positional(0).unwrap(), "model.rpm");
        assert!(args.positional(1).is_err());

        // The same word is a value under one table and a switch under
        // another.
        let words = argv(&["--json", "out.json", "addr", "file"]);
        let load_gen = Args::new(&words, LOAD_GEN_FLAGS).unwrap();
        assert_eq!(load_gen.positional(0).unwrap(), "addr");
        let drift = Args::new(&words, OBS_DRIFT_FLAGS).unwrap();
        assert_eq!(drift.positional(0).unwrap(), "out.json");
    }

    #[test]
    fn every_table_refuses_a_flag_it_does_not_name() {
        let tables = [
            TRAIN_FLAGS,
            CLASSIFY_FLAGS,
            SERVE_FLAGS,
            SERVE_RELOAD_FLAGS,
            LOAD_GEN_FLAGS,
            MOTIFS_FLAGS,
            GENERATE_FLAGS,
            OBS_DIFF_FLAGS,
            OBS_TRACES_FLAGS,
            OBS_DRIFT_FLAGS,
            NO_FLAGS,
        ];
        for table in tables {
            let words = argv(&["file", "--windw", "32"]);
            let err = Args::new(&words, table).err().expect("refused");
            assert!(err.starts_with("unknown flag --windw ("), "{err}");
            // Every flag a table names is accepted.
            for flag in table {
                let words = argv(&[flag.name, "1"]);
                assert!(Args::new(&words, table).is_ok(), "{}", flag.name);
            }
        }
    }

    #[test]
    fn drift_config_flags_override_defaults() {
        let defaults = rpm::obs::DriftConfig::default();
        let none = argv(&["m.rpm"]);
        let none = drift_config_from(&Args::new(&none, SERVE_FLAGS).unwrap()).unwrap();
        assert_eq!(none.warn, defaults.warn);
        assert_eq!(none.page, defaults.page);
        let set = argv(&[
            "m.rpm",
            "--drift-warn",
            "0.1",
            "--drift-page",
            "0.3",
            "--drift-min-samples",
            "7",
        ]);
        let set = drift_config_from(&Args::new(&set, SERVE_FLAGS).unwrap()).unwrap();
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
