//! Versioned checkpoint file for the parameter search.
//!
//! Training with `RpmConfig { checkpoint: Some(path) }` appends one
//! line per completed combination evaluation; a later run pointed at
//! the same file preloads those scores into the evaluation cache and
//! re-runs only the missing combinations. Cached scores are pure
//! functions of `(dataset, config, SaxConfig)` and are serialized with
//! shortest-roundtrip float formatting, so a resumed search selects
//! bit-identical parameters to an uninterrupted one.
//!
//! Format (line-oriented text, one fact per line):
//!
//! ```text
//! RPM-CHECKPOINT v1
//! context <fingerprint-hex>
//! eval <window> <paa> <alphabet> none
//! eval <window> <paa> <alphabet> <macro-f> <class>:<f> ...
//! ```
//!
//! The `context` fingerprint hashes the dataset and every config knob
//! that feeds a combination's score (seed, splits, γ, τ, SVM/CFS/bisect
//! settings — *not* the search strategy, so a grid resume can reuse a
//! DIRECT run's scores). Opening a checkpoint written under a different
//! context is refused with [`CheckpointError::Mismatch`] rather than
//! silently producing a model from someone else's scores.
//!
//! Crash safety: entries are appended and flushed as they complete. A
//! process killed mid-append leaves at most one torn final line, which
//! [`Checkpoint::open`] drops (the file is rewritten compacted on open,
//! so the next append starts on a clean line boundary). A checkpoint
//! *write* failure — e.g. a full disk, or an armed `checkpoint.write`
//! fault — degrades to a one-time warning; training itself never fails
//! because progress could not be saved.

use crate::cache::EvalValue;
use crate::config::RpmConfig;
use rpm_sax::SaxConfig;
use rpm_ts::{Dataset, Label};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

const MAGIC: &str = "RPM-CHECKPOINT v1";

/// Why a checkpoint could not be opened or parsed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file exists but is not a readable v1 checkpoint.
    Format(String),
    /// The file is a valid checkpoint for a *different* dataset/config.
    Mismatch {
        /// Fingerprint of the current training context.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::Format(msg) => write!(f, "invalid checkpoint: {msg}"),
            Self::Mismatch { expected, found } => write!(
                f,
                "checkpoint context mismatch: file was written for a different \
                 dataset/config (expected {expected:016x}, found {found:016x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// An open checkpoint file, appended to as evaluations complete.
#[derive(Debug)]
pub struct Checkpoint {
    file: Mutex<File>,
    write_failed: AtomicBool,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path` for the training
    /// context identified by `fingerprint`, returning the completed
    /// evaluations recorded so far. The file is rewritten compacted —
    /// deduplicated, torn tail line dropped — before appending resumes.
    pub(crate) fn open(
        path: &Path,
        fingerprint: u64,
    ) -> Result<(Self, Vec<(SaxConfig, EvalValue)>), CheckpointError> {
        rpm_obs::fault::point("checkpoint.load")?;
        let entries = match std::fs::read_to_string(path) {
            Ok(text) => parse(&text, fingerprint)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut file = File::create(path)?;
        writeln!(file, "{MAGIC}")?;
        writeln!(file, "context {fingerprint:016x}")?;
        for (sax, value) in &entries {
            write_entry(&mut file, sax, value)?;
        }
        file.flush()?;
        Ok((
            Self {
                file: Mutex::new(file),
                write_failed: AtomicBool::new(false),
            },
            entries,
        ))
    }

    /// Appends one completed evaluation. Failures degrade to a one-time
    /// stderr warning — losing checkpoint progress must not fail the
    /// training run that is producing it.
    pub(crate) fn record(&self, sax: &SaxConfig, value: &EvalValue) {
        if let Err(e) = self.try_record(sax, value) {
            if !self.write_failed.swap(true, Ordering::Relaxed) {
                eprintln!("[rpm] checkpoint write failed (training continues): {e}");
            }
        }
    }

    fn try_record(&self, sax: &SaxConfig, value: &EvalValue) -> std::io::Result<()> {
        rpm_obs::fault::point("checkpoint.write")?;
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        write_entry(&mut *file, sax, value)?;
        file.flush()
    }
}

fn write_entry(w: &mut impl Write, sax: &SaxConfig, value: &EvalValue) -> std::io::Result<()> {
    write!(w, "eval {} {} {}", sax.window, sax.paa_size, sax.alphabet)?;
    match value {
        None => writeln!(w, " none"),
        Some((per_class, macro_f)) => {
            write!(w, " {macro_f}")?;
            for (class, f) in per_class {
                write!(w, " {class}:{f}")?;
            }
            writeln!(w)
        }
    }
}

fn parse(text: &str, fingerprint: u64) -> Result<Vec<(SaxConfig, EvalValue)>, CheckpointError> {
    let bad = |msg: String| CheckpointError::Format(msg);
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, MAGIC)) => {}
        Some((_, other)) if other.starts_with("RPM-CHECKPOINT") => {
            return Err(bad(format!("unsupported version {other:?}")))
        }
        _ => return Err(bad("missing RPM-CHECKPOINT header".to_string())),
    }
    let found = match lines.next() {
        Some((_, line)) => line
            .strip_prefix("context ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| bad(format!("bad context line {line:?}")))?,
        None => return Err(bad("missing context line".to_string())),
    };
    if found != fingerprint {
        return Err(CheckpointError::Mismatch {
            expected: fingerprint,
            found,
        });
    }

    let body: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut order: Vec<SaxConfig> = Vec::new();
    let mut values: HashMap<SaxConfig, EvalValue> = HashMap::new();
    for (i, (lineno, line)) in body.iter().enumerate() {
        match parse_entry(line) {
            Ok((sax, value)) => {
                if values.insert(sax, value).is_none() {
                    order.push(sax);
                }
            }
            // A torn final line is the footprint of a crashed append:
            // drop it and resume. Anywhere else it is corruption.
            Err(msg) if i + 1 == body.len() => {
                eprintln!(
                    "[rpm] dropping torn checkpoint tail (line {}): {msg}",
                    lineno + 1
                );
            }
            Err(msg) => return Err(bad(format!("line {}: {msg}", lineno + 1))),
        }
    }
    Ok(order
        .into_iter()
        .map(|sax| {
            let value = values.remove(&sax).unwrap_or(None);
            (sax, value)
        })
        .collect())
}

fn parse_entry(line: &str) -> Result<(SaxConfig, EvalValue), String> {
    let mut fields = line.split_whitespace();
    if fields.next() != Some("eval") {
        return Err(format!("expected an eval line, got {line:?}"));
    }
    let mut dim = || -> Result<usize, String> {
        fields
            .next()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("bad SAX geometry in {line:?}"))
    };
    let (window, paa, alphabet) = (dim()?, dim()?, dim()?);
    let sax = SaxConfig::new(window, paa.min(window), alphabet.clamp(2, 12));
    if sax.window != window || sax.paa_size != paa || sax.alphabet != alphabet {
        return Err(format!("out-of-range SAX geometry in {line:?}"));
    }
    let value = match fields.next() {
        Some("none") => None,
        Some(macro_field) => {
            let macro_f: f64 = macro_field
                .parse()
                .map_err(|_| format!("bad macro F-measure in {line:?}"))?;
            let mut per_class: BTreeMap<Label, f64> = BTreeMap::new();
            for pair in fields.by_ref() {
                let (class, f) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("bad class:score pair {pair:?}"))?;
                let class: Label = class
                    .parse()
                    .map_err(|_| format!("bad class label {class:?}"))?;
                let f: f64 = f.parse().map_err(|_| format!("bad score {f:?}"))?;
                per_class.insert(class, f);
            }
            Some((per_class, macro_f))
        }
        None => return Err(format!("missing score in {line:?}")),
    };
    if fields.next().is_some() {
        return Err(format!("trailing fields in {line:?}"));
    }
    Ok((sax, value))
}

/// Fingerprints everything a combination score depends on: the dataset
/// (labels + exact series bits) and every scoring-relevant config knob.
/// Deliberately excludes the search strategy, thread count, budget,
/// and observability settings — none of them change what a combination
/// scores, so checkpoints stay reusable across them.
pub(crate) fn context_fingerprint(train: &Dataset, config: &RpmConfig) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    mix(config.seed);
    mix(config.n_validation_splits as u64);
    mix(config.validation_train_fraction.to_bits());
    mix(config.gamma.to_bits());
    mix(config.tau_percentile.to_bits());
    mix(u64::from(config.numerosity_reduction));
    mix(u64::from(config.use_medoid));
    mix(u64::from(config.rotation_invariant));
    mix(u64::from(config.early_abandon));
    mix(config.kernel as u64);
    mix(config.max_occurrences_per_rule as u64);
    mix(config.max_candidates as u64);
    mix(config.grammar as u64);
    // Structured sub-configs: their Debug forms list every field, which
    // is exactly the coverage a fingerprint wants.
    for byte in format!("{:?}|{:?}|{:?}", config.bisect, config.svm, config.cfs).into_bytes() {
        mix(u64::from(byte));
    }
    mix(train.series.len() as u64);
    for (series, label) in train.series.iter().zip(&train.labels) {
        mix(*label as u64);
        mix(series.len() as u64);
        for v in series {
            mix(v.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sax(w: usize, p: usize, a: usize) -> SaxConfig {
        SaxConfig::new(w, p, a)
    }

    fn some_value() -> EvalValue {
        let mut per_class = BTreeMap::new();
        per_class.insert(0usize, 0.9375);
        per_class.insert(1usize, 1.0 / 3.0);
        Some((per_class, 0.1 + 0.2)) // deliberately non-terminating bits
    }

    #[test]
    fn round_trips_entries_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("rpm-ckpt-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);

        let (ckpt, entries) = Checkpoint::open(&path, 0xABCD).unwrap();
        assert!(entries.is_empty());
        ckpt.record(&sax(16, 4, 4), &some_value());
        ckpt.record(&sax(24, 6, 5), &None);
        drop(ckpt);

        let (_, restored) = Checkpoint::open(&path, 0xABCD).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[0].0, sax(16, 4, 4));
        let (per_class, macro_f) = restored[0].1.as_ref().expect("scored entry");
        let (want_class, want_macro) = some_value().unwrap();
        assert_eq!(macro_f.to_bits(), want_macro.to_bits(), "bit-exact floats");
        assert_eq!(per_class.len(), want_class.len());
        for (k, v) in per_class {
            assert_eq!(v.to_bits(), want_class[k].to_bits());
        }
        assert_eq!(restored[1], (sax(24, 6, 5), None));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_context_is_refused() {
        let dir = std::env::temp_dir().join(format!("rpm-ckpt-mm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        drop(Checkpoint::open(&path, 1).unwrap());
        let err = Checkpoint::open(&path, 2).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Mismatch {
                expected: 2,
                found: 1
            }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_compacted_away() {
        let dir = std::env::temp_dir().join(format!("rpm-ckpt-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let (ckpt, _) = Checkpoint::open(&path, 7).unwrap();
        ckpt.record(&sax(16, 4, 4), &some_value());
        drop(ckpt);
        // Simulate a crash mid-append: a half-written final line.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "eval 24 6").unwrap();
        drop(f);

        let (_, entries) = Checkpoint::open(&path, 7).unwrap();
        assert_eq!(entries.len(), 1, "torn tail dropped");
        // The rewrite compacted the file: reopening finds no torn line.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "clean line boundary: {text:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_in_the_middle_is_a_format_error() {
        let dir = std::env::temp_dir().join(format!("rpm-ckpt-mid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.ckpt");
        std::fs::write(
            &path,
            format!("{MAGIC}\ncontext 0000000000000007\neval bogus line\neval 16 4 4 none\n"),
        )
        .unwrap();
        let err = Checkpoint::open(&path, 7).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Format(msg) if msg.contains("line 3")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsupported_versions_and_garbage_are_rejected() {
        assert!(matches!(
            parse("RPM-CHECKPOINT v9\ncontext 00\n", 0),
            Err(CheckpointError::Format(msg)) if msg.contains("version")
        ));
        assert!(matches!(
            parse("not a checkpoint", 0),
            Err(CheckpointError::Format(_))
        ));
        assert!(matches!(
            parse(MAGIC, 0),
            Err(CheckpointError::Format(msg)) if msg.contains("context")
        ));
    }

    #[test]
    fn duplicate_entries_keep_the_last_value() {
        let text =
            format!("{MAGIC}\ncontext 0000000000000001\neval 16 4 4 none\neval 16 4 4 0.5 0:0.5\n");
        let entries = parse(&text, 1).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].1.is_some(), "later line wins");
    }

    #[test]
    fn fingerprint_tracks_data_and_scoring_knobs_only() {
        let mut d = Dataset::new("fp", Vec::new(), Vec::new());
        d.push(vec![1.0, 2.0, 3.0], 0);
        d.push(vec![2.0, 1.0, 0.0], 1);
        let config = RpmConfig::default();
        let base = context_fingerprint(&d, &config);
        assert_eq!(base, context_fingerprint(&d, &config), "deterministic");

        let reseeded = RpmConfig {
            seed: 1,
            ..config.clone()
        };
        assert_ne!(base, context_fingerprint(&d, &reseeded));

        let rethreaded = RpmConfig {
            n_threads: 8,
            ..config.clone()
        };
        assert_eq!(
            base,
            context_fingerprint(&d, &rethreaded),
            "execution knobs do not invalidate checkpoints"
        );

        let mut d2 = d.clone();
        d2.series[0][0] += 1e-9;
        assert_ne!(base, context_fingerprint(&d2, &config));
    }
}
