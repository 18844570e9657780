//! Report diffing for CI perf gating (`rpm-cli obs diff`): compares two
//! [`ReportSummary`]s read back by [`crate::report::validate_jsonl`].
//!
//! A diff compares three signal classes with different strictness:
//!
//! * **counters** (jobs, candidates, survivors, …) are deterministic —
//!   any drift beyond the tolerance, or a counter missing from either
//!   side, is a regression;
//! * **cache totals** compare *lookups*, the work a run asked of its
//!   memos;
//! * **wall/stage times** are noisy on shared runners, so they only
//!   count as regressions when `DiffOptions::time_gate` is set (the CI
//!   default leaves them informational). A counter named `*_ns`
//!   (`engine.busy_ns`) holds a time, so it diffs as one.

use crate::report::ReportSummary;
use std::fmt::Write as _;

/// Knobs for [`diff_reports`]; the default is exact matching with no
/// time gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiffOptions {
    /// Allowed relative drift for counters (0.2 = ±20%). Exact matching
    /// is `0.0`.
    pub tolerance: f64,
    /// Whether slower wall/stage times count as regressions (off by
    /// default — shared CI runners are too noisy to gate on time).
    pub time_gate: bool,
}

/// One comparison line in a diff.
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// What was compared (`counter engine.jobs`, `stage train`, …).
    pub what: String,
    /// Baseline value (None = absent from the baseline).
    pub before: Option<u64>,
    /// Current value (None = absent from the current report).
    pub after: Option<u64>,
    /// Whether this line fails the gate.
    pub regression: bool,
}

/// Result of comparing two reports.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// All comparison lines, regressions first.
    pub lines: Vec<DiffLine>,
    /// Number of gating failures.
    pub regressions: usize,
}

impl DiffReport {
    /// Renders the diff as a table; regressions are marked `!!`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.lines.is_empty() {
            let _ = writeln!(out, "reports are identical under the gate");
            return out;
        }
        let what_width = self
            .lines
            .iter()
            .map(|l| l.what.len())
            .max()
            .unwrap_or(0)
            .max(8);
        for l in &self.lines {
            let mark = if l.regression { "!!" } else { "  " };
            let before = l.before.map_or("-".to_string(), |v| v.to_string());
            let after = l.after.map_or("-".to_string(), |v| v.to_string());
            let delta = match (l.before, l.after) {
                (Some(b), Some(a)) if b > 0 => {
                    format!("{:+.1}%", 100.0 * (a as f64 - b as f64) / b as f64)
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "{mark} {:what_width$}  {:>12} -> {:>12}  {delta}",
                l.what, before, after
            );
        }
        let _ = writeln!(
            out,
            "{} comparisons, {} regression(s)",
            self.lines.len(),
            self.regressions
        );
        out
    }
}

/// Compares `current` against `baseline`. Counters (including cache
/// lookup totals) regress when they drift beyond `opts.tolerance` or
/// disappear; times — stage totals, wall time and `*_ns` counters —
/// regress only under `opts.time_gate`, or when they disappear. New counters,
/// cache families and stages (present only in `current`) are reported
/// as `(new)` but never gate — adding instrumentation must not fail CI.
pub fn diff_reports(
    baseline: &ReportSummary,
    current: &ReportSummary,
    opts: &DiffOptions,
) -> DiffReport {
    let drifts = |b: u64, a: u64| -> bool {
        b != a && (b == 0 || (a as f64 - b as f64).abs() / b as f64 > opts.tolerance)
    };
    // Times: gate only when asked, and only on slowdowns.
    let slower = |b: u64, a: u64| -> bool {
        opts.time_gate && a > b && (b == 0 || (a - b) as f64 / b as f64 > opts.tolerance)
    };
    let stages = |s: &ReportSummary| -> Vec<(String, u64)> {
        s.stages
            .iter()
            .map(|s| (s.path.clone(), s.total_ns))
            .collect()
    };
    let mut lines = Vec::new();
    // A counter named `*_ns` holds a time, which no two runs repeat.
    compare(
        &mut lines,
        |name| format!("counter {name}"),
        &baseline.counters,
        &current.counters,
        |name, b, a| {
            if name.ends_with("_ns") {
                a.is_none_or(|a| slower(b, a))
            } else {
                a.is_none_or(|a| drifts(b, a))
            }
        },
    );
    compare(
        &mut lines,
        |family| format!("cache {family} lookups"),
        &baseline.caches,
        &current.caches,
        |_, b, a| a.map_or(b > 0, |a| drifts(b, a)),
    );
    lines.push(DiffLine {
        what: "wall_ns".to_string(),
        before: Some(baseline.wall_ns),
        after: Some(current.wall_ns),
        regression: slower(baseline.wall_ns, current.wall_ns),
    });
    // A stage vanishing entirely is structural, not noise.
    compare(
        &mut lines,
        |path| format!("stage {path} total_ns"),
        &stages(baseline),
        &stages(current),
        |_, b, a| a.is_none_or(|a| slower(b, a)),
    );
    lines.sort_by_key(|l| !l.regression);
    let regressions = lines.iter().filter(|l| l.regression).count();
    DiffReport { lines, regressions }
}

/// Compares one family of named values: each baseline entry against the
/// run's (`regresses` gets the name, the baseline value, and `None` when
/// the run lacks it), then what only the run has, as `(new)` lines that
/// never gate.
fn compare(
    lines: &mut Vec<DiffLine>,
    label: impl Fn(&str) -> String,
    before: &[(String, u64)],
    after: &[(String, u64)],
    regresses: impl Fn(&str, u64, Option<u64>) -> bool,
) {
    let find =
        |list: &[(String, u64)], name: &str| list.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    for (name, b) in before {
        let a = find(after, name);
        lines.push(DiffLine {
            what: label(name),
            before: Some(*b),
            after: a,
            regression: regresses(name, *b, a),
        });
    }
    for (name, a) in after {
        if find(before, name).is_none() {
            lines.push(DiffLine {
                what: format!("{} (new)", label(name)),
                before: None,
                after: Some(*a),
                regression: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{validate_jsonl, StageSummary};

    fn summary(counters: &[(&str, u64)], wall: u64) -> ReportSummary {
        ReportSummary {
            wall_ns: wall,
            level: "spans".to_string(),
            stages: vec![StageSummary {
                path: "train".to_string(),
                calls: 1,
                total_ns: wall / 2,
            }],
            counters: counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            caches: vec![("words".to_string(), 100)],
            ..ReportSummary::default()
        }
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let s = summary(&[("engine.jobs", 10), ("mine.rules", 5)], 1000);
        let d = diff_reports(&s, &s.clone(), &DiffOptions::default());
        assert_eq!(d.regressions, 0, "{}", d.render());
    }

    #[test]
    fn counter_drift_beyond_tolerance_regresses() {
        let base = summary(&[("engine.jobs", 100)], 1000);
        let close = summary(&[("engine.jobs", 110)], 1000);
        let far = summary(&[("engine.jobs", 150)], 1000);
        let opts = DiffOptions {
            tolerance: 0.2,
            time_gate: false,
        };
        assert_eq!(diff_reports(&base, &close, &opts).regressions, 0);
        let d = diff_reports(&base, &far, &opts);
        assert_eq!(d.regressions, 1, "{}", d.render());
        assert!(d.render().contains("!!"), "{}", d.render());
    }

    #[test]
    fn missing_counter_regresses_but_new_counter_does_not() {
        let base = summary(&[("engine.jobs", 10)], 1000);
        let cur = summary(&[("mine.rules", 3)], 1000);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        // engine.jobs vanished (regression); mine.rules is new (not).
        assert_eq!(d.regressions, 1, "{}", d.render());
        assert!(d.render().contains("(new)"), "{}", d.render());
    }

    #[test]
    fn new_stages_and_cache_families_show_but_never_gate() {
        let base = summary(&[], 1000);
        let mut cur = summary(&[], 1000);
        cur.stages.push(StageSummary {
            path: "train/sax".to_string(),
            calls: 3,
            total_ns: 200,
        });
        cur.caches.push(("columns".to_string(), 40));
        let gated = DiffOptions {
            tolerance: 0.0,
            time_gate: true,
        };
        let d = diff_reports(&base, &cur, &gated);
        assert_eq!(d.regressions, 0, "{}", d.render());
        let rendered = d.render();
        assert!(
            rendered.contains("stage train/sax total_ns (new)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("cache columns lookups (new)"),
            "{rendered}"
        );
    }

    #[test]
    fn times_gate_only_when_asked() {
        let base = summary(&[], 1000);
        let slow = summary(&[], 5000);
        assert_eq!(
            diff_reports(&base, &slow, &DiffOptions::default()).regressions,
            0
        );
        let gated = DiffOptions {
            tolerance: 0.2,
            time_gate: true,
        };
        assert!(diff_reports(&base, &slow, &gated).regressions >= 1);
    }

    #[test]
    fn ns_counters_diff_as_times() {
        let base = summary(&[("engine.jobs", 10), ("engine.busy_ns", 0)], 1000);
        let cur = summary(&[("engine.jobs", 10), ("engine.busy_ns", 400_000)], 1000);
        let exact = DiffOptions::default();
        let d = diff_reports(&base, &cur, &exact);
        assert_eq!(d.regressions, 0, "{}", d.render());
        assert!(
            d.render().contains("counter engine.busy_ns"),
            "{}",
            d.render()
        );
        assert!(!d.render().contains("(new)"), "{}", d.render());
        let gated = DiffOptions {
            time_gate: true,
            ..exact
        };
        assert_eq!(diff_reports(&base, &cur, &gated).regressions, 1);
        // Like a stage, a time counter that disappears is structural.
        let gone = summary(&[("engine.jobs", 10)], 1000);
        assert_eq!(diff_reports(&base, &gone, &exact).regressions, 1);
    }

    #[test]
    fn summary_round_trips_through_jsonl_file() {
        let path = std::env::temp_dir().join(format!(
            "rpm_obs_diff_roundtrip_{}.jsonl",
            std::process::id()
        ));
        let text = "{\"type\":\"meta\",\"version\":2,\"wall_ns\":5000,\"level\":\"spans\"}\n\
             {\"type\":\"span\",\"path\":\"train\",\"name\":\"train\",\"depth\":0,\"thread\":0,\"start_ns\":0,\"dur_ns\":4000}\n\
             {\"type\":\"stage\",\"path\":\"train\",\"calls\":1,\"total_ns\":4000}\n\
             {\"type\":\"counter\",\"name\":\"engine.jobs\",\"value\":12}\n\
             {\"type\":\"cache\",\"family\":\"words\",\"hits\":6,\"misses\":4,\"evictions\":0,\"lookups\":10,\"hit_rate\":0.6}\n\
             {\"type\":\"histogram\",\"name\":\"predict.latency_ns\",\"count\":3,\"sum_ns\":2100,\"mean_ns\":700.0,\"p50\":700.0,\"p90\":900.0,\"p99\":990.0,\"buckets\":[[1024,3]]}\n";
        std::fs::write(&path, text).unwrap();
        let s = validate_jsonl(&path.display().to_string()).expect("loads");
        assert_eq!(s.wall_ns, 5000);
        assert_eq!(s.counter("engine.jobs"), Some(12));
        assert_eq!(s.caches, vec![("words".to_string(), 10)]);
        assert_eq!(s.histograms.len(), 1);
        assert!((s.histograms[0].p90 - 900.0).abs() < 1e-9);
        let rendered = s.render();
        assert!(rendered.contains("train"), "{rendered}");
        assert!(rendered.contains("p90 900"), "{rendered}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_reports_without_quantiles_still_load() {
        let path =
            std::env::temp_dir().join(format!("rpm_obs_diff_v1_{}.jsonl", std::process::id()));
        let text = "{\"type\":\"meta\",\"version\":1,\"wall_ns\":100,\"level\":\"summary\"}\n\
             {\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum_ns\":8,\"mean_ns\":8.0,\"buckets\":[[16,1]]}\n";
        std::fs::write(&path, text).unwrap();
        let s = validate_jsonl(&path.display().to_string()).expect("v1 loads");
        assert_eq!(s.histograms[0].p50, 0.0);
        std::fs::remove_file(&path).ok();
    }
}
