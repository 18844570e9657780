//! Run reports: aggregation of spans + metrics + logs into a stage tree,
//! the human-readable stderr summary, the JSONL export, and the reader
//! that validates a saved report and loads it back.
//!
//! ## JSONL schema (one object per line)
//!
//! | `type`      | fields                                                              |
//! |-------------|---------------------------------------------------------------------|
//! | `meta`      | `version`, `wall_ns`, `level`                                       |
//! | `span`      | `path`, `name`, `depth`, `thread`, `start_ns`, `dur_ns`             |
//! | `stage`     | `path`, `calls`, `total_ns` (aggregated over same-path spans)       |
//! | `counter`   | `name`, `value` (includes gauges and labeled counters)              |
//! | `cache`     | `family`, `hits`, `misses`, `evictions`, `lookups`, `hit_rate`      |
//! | `histogram` | `name`, `count`, `sum_ns`, `mean_ns`, `p50`, `p90`, `p99`, `buckets` (`[upper, n]` pairs) |
//! | `log`       | `t_ns`, `level`, `target`, `message`, optional `trace`              |
//! | `trace`     | `trace_id`, `root`, optional `remote_parent`, `outcome`, `status`, `sampled`, `start_ns`, `dur_ns`, `spans` (each `name`, `id`, `parent`, `start_ns`, `dur_ns`, optional `attrs`/`links`) |
//! | `drift`     | `status`, `live_samples`, `reference_samples`, window shape, thresholds, `metrics` (each `metric`, `psi`, `ks` (null for the class mix), `verdict`) |
//!
//! Version history: v1 had no quantile fields on `histogram` lines; v2
//! added `p50`/`p90`/`p99` estimated from the log₂ buckets (see
//! [`crate::metrics::HistogramSnapshot::quantile`] for the
//! interpolation and its error bound); v3 added `trace` lines
//! — the flight recorder's retained request traces, with batch links
//! filtered to traces present in the same report so they always
//! resolve — and the optional `trace` field on `log` lines; v4
//! (current) added the `drift` line, a drift monitor's verdict at report
//! time. No writer emits `drift` lines any more: each monitor belongs to
//! one served model generation, which a run report does not see. Reports
//! that carry them still validate.
//!
//! [`validate_jsonl`] is the one reader: it checks every line and
//! returns the [`ReportSummary`] that [`crate::diff`] and `rpm-cli obs
//! summary` consume. It reads every version above, rejects unknown line
//! types, and ignores unknown fields.

use crate::logger::{self, LogEvent};
use crate::metrics::{self, MetricsSnapshot};
use crate::span::{self, SpanRecord};
use crate::ObsLevel;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Report schema version emitted in the `meta` line.
pub const REPORT_VERSION: u64 = 4;

/// All same-path spans merged into one stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageAgg {
    /// Full `/`-joined stage path.
    pub path: String,
    /// Last path segment.
    pub name: String,
    /// Nesting depth (0 = root stage).
    pub depth: u32,
    /// Spans merged into this stage.
    pub calls: u64,
    /// Summed duration (can exceed wall time when calls overlap across
    /// worker threads).
    pub total_ns: u64,
    /// Earliest start among merged spans.
    pub min_start_ns: u64,
    /// Latest end among merged spans.
    pub max_end_ns: u64,
}

/// Everything one run recorded.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Nanoseconds from the observability epoch to report creation.
    pub wall_ns: u64,
    /// Level the run recorded at.
    pub level: ObsLevel,
    /// Aggregated stages in tree order (parents before children,
    /// siblings by first start).
    pub stages: Vec<StageAgg>,
    /// Raw span records, sorted by start time.
    pub records: Vec<SpanRecord>,
    /// Snapshot of the metrics registry.
    pub metrics: MetricsSnapshot,
    /// Buffered structured log events.
    pub logs: Vec<LogEvent>,
    /// Request traces retained by the flight recorder, newest first,
    /// with batch links filtered to the retained set.
    pub traces: Vec<crate::trace::TraceRecord>,
}

impl RunReport {
    /// Fraction of wall time covered by root stages of the main thread
    /// (the thread that opened the earliest span). The acceptance target
    /// for an instrumented training run is ≥ 0.9.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let main_thread = match self.records.iter().min_by_key(|r| r.start_ns) {
            Some(first) => first.thread,
            None => return 0.0,
        };
        let covered: u64 = self
            .records
            .iter()
            .filter(|r| r.depth == 0 && r.thread == main_thread)
            .map(|r| r.dur_ns)
            .sum();
        covered as f64 / self.wall_ns as f64
    }

    /// The human-readable end-of-run summary: a stage tree with time, %
    /// of wall, and call counts, followed by engine and cache totals.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[rpm-obs] run report — wall {}, level {}",
            fmt_ns(self.wall_ns),
            self.level
        );
        let name_width = self
            .stages
            .iter()
            .map(|s| 2 * s.depth as usize + s.name.len())
            .max()
            .unwrap_or(0)
            .max(12);
        for stage in &self.stages {
            let indent = "  ".repeat(stage.depth as usize);
            let pct = if self.wall_ns > 0 {
                100.0 * stage.total_ns as f64 / self.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:name_width$}  {:>9}  {:5.1}%  {:>6}×",
                format!("{indent}{}", stage.name),
                fmt_ns(stage.total_ns),
                pct,
                stage.calls,
            );
        }
        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "  (root stages cover {:.1}% of wall time)",
                100.0 * self.coverage()
            );
        }
        let jobs = self.metrics.counter("engine.jobs").unwrap_or(0);
        if jobs > 0 {
            let runs = self.metrics.counter("engine.runs").unwrap_or(0);
            match self.metrics.engine_utilization() {
                Some(u) => {
                    let _ = writeln!(
                        out,
                        "  engine: {jobs} jobs / {runs} runs, worker utilization {:.1}%",
                        100.0 * u
                    );
                }
                None => {
                    let _ = writeln!(out, "  engine: {jobs} jobs / {runs} runs (serial)");
                }
            }
        }
        let cache_lines: Vec<String> = self
            .metrics
            .cache
            .iter()
            .filter(|(_, h, m, _)| h + m > 0)
            .map(|(family, h, m, _)| {
                format!(
                    "{family} {:.1}% of {}",
                    100.0 * *h as f64 / (h + m) as f64,
                    h + m
                )
            })
            .collect();
        if !cache_lines.is_empty() {
            let _ = writeln!(out, "  cache hit-rates: {}", cache_lines.join(" | "));
        }
        for (name, h) in &self.metrics.histograms {
            if h.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {name}: {} obs, mean {}, p50 {}, p90 {}, p99 {}",
                h.count,
                fmt_hist_value(name, h.mean()),
                fmt_hist_value(name, h.p50()),
                fmt_hist_value(name, h.p90()),
                fmt_hist_value(name, h.p99()),
            );
        }
        out
    }

    /// Serializes the full report to JSONL (see the module docs for the
    /// schema).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"version\":{REPORT_VERSION},\"wall_ns\":{},\"level\":\"{}\"}}",
            self.wall_ns, self.level
        );
        for r in &self.records {
            out.push_str("{\"type\":\"span\",\"path\":");
            push_json_str(&mut out, &r.path);
            out.push_str(",\"name\":");
            push_json_str(&mut out, r.name);
            let _ = writeln!(
                out,
                ",\"depth\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                r.depth, r.thread, r.start_ns, r.dur_ns
            );
        }
        for s in &self.stages {
            out.push_str("{\"type\":\"stage\",\"path\":");
            push_json_str(&mut out, &s.path);
            let _ = writeln!(out, ",\"calls\":{},\"total_ns\":{}}}", s.calls, s.total_ns);
        }
        let named = self
            .metrics
            .counters
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .chain(self.metrics.gauges.iter().map(|(n, v)| (n.to_string(), *v)))
            .chain(self.metrics.labeled.iter().cloned());
        for (name, value) in named {
            out.push_str("{\"type\":\"counter\",\"name\":");
            push_json_str(&mut out, &name);
            let _ = writeln!(out, ",\"value\":{value}}}");
        }
        for (family, hits, misses, evictions) in &self.metrics.cache {
            let lookups = hits + misses;
            let hit_rate = if lookups > 0 {
                *hits as f64 / lookups as f64
            } else {
                0.0
            };
            out.push_str("{\"type\":\"cache\",\"family\":");
            push_json_str(&mut out, family);
            let _ = writeln!(
                out,
                ",\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\"lookups\":{lookups},\"hit_rate\":{hit_rate:.6}}}"
            );
        }
        for (name, h) in &self.metrics.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            push_json_str(&mut out, name);
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(upper, n)| format!("[{upper},{n}]"))
                .collect();
            let _ = writeln!(
                out,
                ",\"count\":{},\"sum_ns\":{},\"mean_ns\":{:.1},\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"buckets\":[{}]}}",
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                buckets.join(",")
            );
        }
        for event in &self.logs {
            let _ = write!(
                out,
                "{{\"type\":\"log\",\"t_ns\":{},\"level\":\"{}\",\"target\":",
                event.t_ns, event.level
            );
            push_json_str(&mut out, &event.target);
            out.push_str(",\"message\":");
            push_json_str(&mut out, &event.message);
            if let Some(trace) = &event.trace {
                out.push_str(",\"trace\":");
                push_json_str(&mut out, trace);
            }
            out.push_str("}\n");
        }
        for trace in &self.traces {
            out.push_str(&trace.to_jsonl_line());
            out.push('\n');
        }
        out
    }
}

fn build(mut records: Vec<SpanRecord>, logs: Vec<LogEvent>) -> RunReport {
    records.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then_with(|| a.path.cmp(&b.path))
    });
    let mut aggs: BTreeMap<String, StageAgg> = BTreeMap::new();
    for r in &records {
        let agg = aggs.entry(r.path.clone()).or_insert_with(|| StageAgg {
            path: r.path.clone(),
            name: r.name.to_string(),
            depth: r.path.matches('/').count() as u32,
            calls: 0,
            total_ns: 0,
            min_start_ns: u64::MAX,
            max_end_ns: 0,
        });
        agg.calls += 1;
        agg.total_ns += r.dur_ns;
        agg.min_start_ns = agg.min_start_ns.min(r.start_ns);
        agg.max_end_ns = agg.max_end_ns.max(r.end_ns());
    }
    // The retained traces, with each batch span's links narrowed to
    // trace ids that are themselves in the report — the recorder may
    // have dropped a linked sibling, and a link that cannot be followed
    // is noise the validator would (rightly) reject.
    let mut traces = crate::trace::recorder().snapshot();
    let retained: std::collections::HashSet<crate::trace::TraceId> =
        traces.iter().map(|r| r.trace_id).collect();
    for record in &mut traces {
        for span in &mut record.spans {
            span.links.retain(|l| retained.contains(l));
        }
    }
    RunReport {
        wall_ns: crate::now_ns(),
        level: crate::level(),
        stages: tree_order(aggs),
        records,
        metrics: metrics::snapshot(),
        logs,
        traces,
    }
}

/// Orders aggregated stages parents-first, siblings by earliest start.
/// Deterministic for a given record set no matter how worker threads
/// interleaved at run time.
fn tree_order(aggs: BTreeMap<String, StageAgg>) -> Vec<StageAgg> {
    let mut children: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut roots: Vec<String> = Vec::new();
    for path in aggs.keys() {
        let parent = path.rsplit_once('/').map(|(p, _)| p);
        match parent {
            Some(p) if aggs.contains_key(p) => {
                children
                    .entry(p.to_string())
                    .or_default()
                    .push(path.clone());
            }
            _ => roots.push(path.clone()),
        }
    }
    let by_start = |paths: &mut Vec<String>| {
        paths.sort_by_key(|p| (aggs[p].min_start_ns, p.clone()));
    };
    by_start(&mut roots);
    for siblings in children.values_mut() {
        by_start(siblings);
    }
    let mut out = Vec::with_capacity(aggs.len());
    let mut stack: Vec<String> = roots.into_iter().rev().collect();
    while let Some(path) = stack.pop() {
        if let Some(kids) = children.get(&path) {
            stack.extend(kids.iter().rev().cloned());
        }
        out.push(aggs[&path].clone());
    }
    out
}

/// Closes out the run: drains spans and logs, snapshots metrics, prints
/// the stage tree to stderr, writes the JSONL report when a path is
/// configured, and resets the metrics registry for the next run. Returns
/// `None` while observability is off.
pub fn finish() -> Option<RunReport> {
    if !crate::enabled() {
        return None;
    }
    let report = build(span::take_records(), logger::take());
    eprint!("{}", report.render_tree());
    if let Some(path) = crate::json_path() {
        match std::fs::write(&path, report.to_jsonl()) {
            Ok(()) => eprintln!("[rpm-obs] wrote run report to {path}"),
            Err(e) => eprintln!("[rpm-obs] failed to write {path}: {e}"),
        }
    }
    metrics::reset();
    crate::trace::recorder().clear();
    crate::trace::clear_exemplars();
    Some(report)
}

/// A non-destructive [`finish`]: copies the current spans, metrics, and
/// logs without draining or printing anything.
pub fn snapshot() -> RunReport {
    build(span::peek_records(), logger::peek())
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats one histogram statistic for the stderr tree: `*_ns`
/// histograms hold nanoseconds, `*distance*` histograms hold millionths
/// of the unitless match distance, anything else prints raw.
fn fmt_hist_value(name: &str, v: f64) -> String {
    if name.ends_with("_ns") {
        fmt_ns(v as u64)
    } else if name.contains("distance") {
        format!("{:.3}", v / 1e6)
    } else {
        format!("{v:.1}")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// --- Reading a report back ------------------------------------------------
// The reports are emitted by this crate, so a full JSON parser is not
// needed: minimal field extraction over our own single-line objects.

fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let digits: String = line[i..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn f64_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let number: String = line[i..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    number.parse().ok()
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[i..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// One stage aggregate read back from a report.
#[derive(Clone, Debug, PartialEq)]
pub struct StageSummary {
    /// Full `/`-joined stage path.
    pub path: String,
    /// Merged span count.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
}

/// One histogram read back from a report.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Registry name (e.g. `predict.latency_ns`).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum_ns: u64,
    /// Median estimate (0 for v1 reports without quantiles).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// A JSONL run report that passed [`validate_jsonl`], read back into
/// comparable form for [`crate::diff`] and `rpm-cli obs summary`.
#[derive(Clone, Debug, Default)]
pub struct ReportSummary {
    /// Total JSONL lines.
    pub lines: usize,
    /// Total wall time of the run.
    pub wall_ns: u64,
    /// Recording level the run used.
    pub level: String,
    /// Root-stage coverage of wall time (main recording thread).
    pub coverage: f64,
    /// `span` lines (must be > 0 for a spans-level report).
    pub spans: usize,
    /// Stage aggregates in file order (tree order).
    pub stages: Vec<StageSummary>,
    /// Counters (static + gauges + labeled) as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Cache families as `(family, lookups)`, each verified
    /// `hits + misses == lookups`.
    pub caches: Vec<(String, u64)>,
    /// Histograms with their quantile estimates, each verified against
    /// the bucket invariants.
    pub histograms: Vec<HistogramSummary>,
    /// `log` lines.
    pub logs: usize,
    /// `trace` lines (each verified against the span-tree invariants:
    /// well-formed ids, parents resolving within the trace, batch
    /// links resolving to trace lines in the same report).
    pub traces: usize,
    /// `drift` lines (each verified against the score invariants:
    /// known status/verdict names, finite PSI ≥ 0, KS in [0, 1]).
    pub drifts: usize,
}

impl ReportSummary {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the summary as a human-readable table (the `obs summary`
    /// output): stage tree with times, then histograms with quantiles,
    /// then non-zero counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report — wall {}, level {}",
            fmt_ns(self.wall_ns),
            self.level
        );
        if !self.stages.is_empty() {
            let name_width = self
                .stages
                .iter()
                .map(|s| s.path.len())
                .max()
                .unwrap_or(0)
                .max(12);
            let _ = writeln!(out, "stages:");
            for s in &self.stages {
                let pct = if self.wall_ns > 0 {
                    100.0 * s.total_ns as f64 / self.wall_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:name_width$}  {:>9}  {:5.1}%  {:>6}×",
                    s.path,
                    fmt_ns(s.total_ns),
                    pct,
                    s.calls
                );
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {}: {} obs, p50 {:.0}, p90 {:.0}, p99 {:.0}",
                    h.name, h.count, h.p50, h.p90, h.p99
                );
            }
        }
        let nonzero: Vec<&(String, u64)> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !nonzero.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in nonzero {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        for (family, lookups) in &self.caches {
            if *lookups > 0 {
                let _ = writeln!(out, "cache {family}: {lookups} lookups");
            }
        }
        out
    }
}

/// Splits the `"spans":[{…},{…}]` array of a trace line into its
/// top-level `{…}` blocks by brace depth. Sufficient for our own
/// emitter: span names are static identifiers and attribute values are
/// numbers-as-strings, so no brace ever appears inside a JSON string
/// on these lines.
fn trace_span_blocks(line: &str) -> Option<Vec<&str>> {
    array_blocks(line, "spans")
}

/// Splits the `"<key>":[{…},{…}]` array of a line into its top-level
/// `{…}` blocks by brace depth (same emitter caveats as
/// [`trace_span_blocks`]).
fn array_blocks<'a>(line: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let pat = format!("\"{key}\":[");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut blocks = Vec::new();
    let mut depth = 0usize;
    let mut block_start = 0usize;
    for (i, b) in rest.bytes().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    block_start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    blocks.push(&rest[block_start..=i]);
                }
            }
            b']' if depth == 0 => return Some(blocks),
            _ => {}
        }
    }
    None
}

/// Extracts the `"links":["…",…]` ids of one span block (empty when the
/// span has no links).
fn link_ids(block: &str) -> Vec<String> {
    let pat = "\"links\":[";
    let Some(i) = block.find(pat) else {
        return Vec::new();
    };
    let rest = &block[i + pat.len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|s| {
            let s = s.trim().trim_matches('"');
            (!s.is_empty()).then(|| s.to_string())
        })
        .collect()
}

/// Parses the `"buckets":[[upper,n],…]` array of a histogram line.
fn bucket_pairs(line: &str) -> Option<Vec<(u64, u64)>> {
    let pat = "\"buckets\":[";
    let i = line.find(pat)? + pat.len();
    let rest = &line[i..];
    if rest.starts_with(']') {
        return Some(Vec::new());
    }
    let content = &rest[..rest.find("]]")? + 1]; // "[0,1],[4,2]"
    let trimmed = content.trim_start_matches('[').trim_end_matches(']');
    let mut out = Vec::new();
    for pair in trimmed.split("],[") {
        let (a, b) = pair.split_once(',')?;
        out.push((a.trim().parse().ok()?, b.trim().parse().ok()?));
    }
    Some(out)
}

/// Reads a JSONL run report back, the one reader every consumer uses
/// (`obs summary`, `obs diff`, the `validate` example), and checks it on
/// the way: every line has a known `type` and its required fields, a
/// `meta` line exists, spans carry monotone start timestamps and end
/// within wall time (and are present at all for a spans-level report),
/// every cache line satisfies `hits + misses == lookups`, every histogram
/// line satisfies the bucket invariants (`count == Σ bucket counts`,
/// buckets sorted by ascending upper bound, `sum_ns ≤ count × max bucket
/// upper`), trace and drift lines hold their invariants, and the counters
/// reconcile (`match.pruned_envelope + match.abandoned ≤ match.windows`,
/// `cfs.survivors` equals the sum of its `cfs.survivors.class=*` lines).
/// Unknown fields are ignored. Returns the summary, or the first
/// violation prefixed with `<path>: ` (and `line <n>: ` when one line
/// breaks it).
pub fn validate_jsonl(path: &str) -> Result<ReportSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read_report(&text).map_err(|e| format!("{path}: {e}"))
}

fn read_report(text: &str) -> Result<ReportSummary, String> {
    let mut check = ReportSummary::default();
    let mut last_start = 0u64;
    let mut main_thread: Option<u64> = None;
    let mut covered_ns = 0u64;
    let mut trace_ids: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut pending_links: Vec<(usize, String)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        check.lines += 1;
        let kind =
            str_field(line, "type").ok_or_else(|| format!("line {lineno}: no \"type\" field"))?;
        match kind.as_str() {
            "meta" => {
                check.wall_ns = u64_field(line, "wall_ns")
                    .ok_or_else(|| format!("line {lineno}: meta without wall_ns"))?;
                check.level = str_field(line, "level")
                    .ok_or_else(|| format!("line {lineno}: meta without level"))?;
            }
            "span" => {
                let start = u64_field(line, "start_ns")
                    .ok_or_else(|| format!("line {lineno}: span without start_ns"))?;
                let dur = u64_field(line, "dur_ns")
                    .ok_or_else(|| format!("line {lineno}: span without dur_ns"))?;
                let depth = u64_field(line, "depth")
                    .ok_or_else(|| format!("line {lineno}: span without depth"))?;
                let thread = u64_field(line, "thread")
                    .ok_or_else(|| format!("line {lineno}: span without thread"))?;
                if start < last_start {
                    return Err(format!(
                        "line {lineno}: span start_ns {start} < previous {last_start} (not monotone)"
                    ));
                }
                last_start = start;
                if check.wall_ns > 0 && start + dur > check.wall_ns {
                    return Err(format!(
                        "line {lineno}: span ends at {} beyond wall_ns {}",
                        start + dur,
                        check.wall_ns
                    ));
                }
                let main = *main_thread.get_or_insert(thread);
                if depth == 0 && thread == main {
                    covered_ns += dur;
                }
                check.spans += 1;
            }
            "counter" => {
                let name = str_field(line, "name")
                    .ok_or_else(|| format!("line {lineno}: counter without name"))?;
                let value = u64_field(line, "value")
                    .ok_or_else(|| format!("line {lineno}: counter without value"))?;
                check.counters.push((name, value));
            }
            "cache" => {
                let family = str_field(line, "family")
                    .ok_or_else(|| format!("line {lineno}: cache without family"))?;
                let hits = u64_field(line, "hits")
                    .ok_or_else(|| format!("line {lineno}: cache without hits"))?;
                let misses = u64_field(line, "misses")
                    .ok_or_else(|| format!("line {lineno}: cache without misses"))?;
                let lookups = u64_field(line, "lookups")
                    .ok_or_else(|| format!("line {lineno}: cache without lookups"))?;
                if hits + misses != lookups {
                    return Err(format!(
                        "line {lineno}: cache invariant broken: {hits} + {misses} != {lookups}"
                    ));
                }
                check.caches.push((family, lookups));
            }
            "log" => check.logs += 1,
            "stage" => {
                let path = str_field(line, "path")
                    .ok_or_else(|| format!("line {lineno}: stage without path"))?;
                let calls = u64_field(line, "calls")
                    .ok_or_else(|| format!("line {lineno}: stage without calls"))?;
                let total_ns = u64_field(line, "total_ns")
                    .ok_or_else(|| format!("line {lineno}: stage without total_ns"))?;
                if calls == 0 {
                    return Err(format!("line {lineno}: stage aggregate with zero calls"));
                }
                check.stages.push(StageSummary {
                    path,
                    calls,
                    total_ns,
                });
            }
            "histogram" => {
                let name = str_field(line, "name")
                    .ok_or_else(|| format!("line {lineno}: histogram without name"))?;
                let count = u64_field(line, "count")
                    .ok_or_else(|| format!("line {lineno}: histogram without count"))?;
                let sum_ns = u64_field(line, "sum_ns")
                    .ok_or_else(|| format!("line {lineno}: histogram without sum_ns"))?;
                let buckets = bucket_pairs(line)
                    .ok_or_else(|| format!("line {lineno}: histogram without buckets"))?;
                let total: u64 = buckets.iter().map(|(_, n)| n).sum();
                if total != count {
                    return Err(format!(
                        "line {lineno}: histogram {name}: count {count} != sum of bucket counts {total}"
                    ));
                }
                if buckets.windows(2).any(|w| w[0].0 >= w[1].0) {
                    return Err(format!(
                        "line {lineno}: histogram {name}: bucket upper bounds not ascending"
                    ));
                }
                let max_upper = buckets.last().map_or(0, |&(u, _)| u);
                // Every observation is strictly below its bucket's upper
                // bound (bucket 0 holds exactly 0), bounding the sum.
                if sum_ns > count.saturating_mul(max_upper) {
                    return Err(format!(
                        "line {lineno}: histogram {name}: sum_ns {sum_ns} exceeds count {count} × max upper {max_upper}"
                    ));
                }
                check.histograms.push(HistogramSummary {
                    name,
                    count,
                    sum_ns,
                    p50: f64_field(line, "p50").unwrap_or(0.0),
                    p90: f64_field(line, "p90").unwrap_or(0.0),
                    p99: f64_field(line, "p99").unwrap_or(0.0),
                });
            }
            "trace" => {
                let trace_id = str_field(line, "trace_id")
                    .ok_or_else(|| format!("line {lineno}: trace without trace_id"))?;
                if crate::trace::TraceId::from_hex(&trace_id).is_none() {
                    return Err(format!(
                        "line {lineno}: trace_id {trace_id:?} is not 32 lowercase hex digits"
                    ));
                }
                let root = str_field(line, "root")
                    .ok_or_else(|| format!("line {lineno}: trace without root"))?;
                let start = u64_field(line, "start_ns")
                    .ok_or_else(|| format!("line {lineno}: trace without start_ns"))?;
                let dur = u64_field(line, "dur_ns")
                    .ok_or_else(|| format!("line {lineno}: trace without dur_ns"))?;
                str_field(line, "outcome")
                    .ok_or_else(|| format!("line {lineno}: trace without outcome"))?;
                let blocks = trace_span_blocks(line)
                    .ok_or_else(|| format!("line {lineno}: trace without a spans array"))?;
                if blocks.is_empty() {
                    return Err(format!("line {lineno}: trace with no spans"));
                }
                // First pass: collect span ids (and reject duplicates).
                let mut span_ids: std::collections::HashSet<String> =
                    std::collections::HashSet::new();
                for block in &blocks {
                    let id = str_field(block, "id")
                        .ok_or_else(|| format!("line {lineno}: span without id"))?;
                    if crate::trace::SpanId::from_hex(&id).is_none() {
                        return Err(format!(
                            "line {lineno}: span id {id:?} is not 16 lowercase hex digits"
                        ));
                    }
                    if !span_ids.insert(id.clone()) {
                        return Err(format!("line {lineno}: duplicate span id {id}"));
                    }
                }
                // Second pass: parents resolve, the parentless span is
                // the declared root, spans sit inside the trace window,
                // links are well-formed and deferred for resolution.
                for block in &blocks {
                    let id = str_field(block, "id").unwrap_or_default();
                    match str_field(block, "parent") {
                        Some(parent) => {
                            if !span_ids.contains(&parent) {
                                return Err(format!(
                                    "line {lineno}: span {id} has parent {parent} not in the trace"
                                ));
                            }
                        }
                        None => {
                            if id != root {
                                return Err(format!(
                                    "line {lineno}: parentless span {id} is not the root {root}"
                                ));
                            }
                        }
                    }
                    let s_start = u64_field(block, "start_ns")
                        .ok_or_else(|| format!("line {lineno}: span without start_ns"))?;
                    let s_dur = u64_field(block, "dur_ns")
                        .ok_or_else(|| format!("line {lineno}: span without dur_ns"))?;
                    if s_start < start || s_start + s_dur > start + dur {
                        return Err(format!(
                            "line {lineno}: span {id} [{s_start}, {}] outside its trace [{start}, {}]",
                            s_start + s_dur,
                            start + dur
                        ));
                    }
                    for link in link_ids(block) {
                        if crate::trace::TraceId::from_hex(&link).is_none() {
                            return Err(format!(
                                "line {lineno}: link {link:?} is not 32 lowercase hex digits"
                            ));
                        }
                        if link == trace_id {
                            return Err(format!("line {lineno}: span {id} links its own trace"));
                        }
                        pending_links.push((lineno, link));
                    }
                }
                trace_ids.insert(trace_id);
                check.traces += 1;
            }
            "drift" => {
                let status = str_field(line, "status")
                    .ok_or_else(|| format!("line {lineno}: drift without status"))?;
                if crate::drift::DriftStatus::parse(&status).is_none() {
                    return Err(format!("line {lineno}: unknown drift status {status:?}"));
                }
                u64_field(line, "live_samples")
                    .ok_or_else(|| format!("line {lineno}: drift without live_samples"))?;
                let blocks = array_blocks(line, "metrics")
                    .ok_or_else(|| format!("line {lineno}: drift without a metrics array"))?;
                for block in &blocks {
                    let metric = str_field(block, "metric")
                        .ok_or_else(|| format!("line {lineno}: drift metric without a name"))?;
                    let psi = f64_field(block, "psi")
                        .ok_or_else(|| format!("line {lineno}: drift {metric} without psi"))?;
                    if !psi.is_finite() || psi < 0.0 {
                        return Err(format!(
                            "line {lineno}: drift {metric}: psi {psi} not finite and ≥ 0"
                        ));
                    }
                    if !block.contains("\"ks\":null") {
                        let ks = f64_field(block, "ks")
                            .ok_or_else(|| format!("line {lineno}: drift {metric} without ks"))?;
                        if !(0.0..=1.0).contains(&ks) {
                            return Err(format!(
                                "line {lineno}: drift {metric}: ks {ks} outside [0, 1]"
                            ));
                        }
                    }
                    let verdict = str_field(block, "verdict")
                        .ok_or_else(|| format!("line {lineno}: drift {metric} without verdict"))?;
                    if crate::drift::DriftStatus::parse(&verdict).is_none() {
                        return Err(format!("line {lineno}: unknown drift verdict {verdict:?}"));
                    }
                }
                check.drifts += 1;
            }
            other => return Err(format!("line {lineno}: unknown type {other:?}")),
        }
    }
    if check.wall_ns == 0 {
        return Err("no meta line with wall_ns".to_string());
    }
    // Summary-level runs legitimately record no spans; a spans-level
    // report without any is broken.
    if check.spans == 0 && matches!(check.level.as_str(), "spans" | "debug") {
        return Err("no span lines in a spans-level report".to_string());
    }
    // Batch links are only useful if they can be followed: every link
    // must name a trace line present in this report (the report builder
    // guarantees it by filtering to the retained set).
    for (lineno, link) in pending_links {
        if !trace_ids.contains(&link) {
            return Err(format!(
                "line {lineno}: batch link {link} does not resolve to a trace in this report"
            ));
        }
    }
    // Counter reconciliation: a window is pruned or abandoned only after
    // it was counted as scanned, and each CFS survivor counts once in
    // total and once under its class.
    let value = |name: &str| check.counter(name).unwrap_or(0);
    let (windows, pruned, abandoned) = (
        value("match.windows"),
        value("match.pruned_envelope"),
        value("match.abandoned"),
    );
    if pruned.saturating_add(abandoned) > windows {
        return Err(format!(
            "match.pruned_envelope {pruned} + match.abandoned {abandoned} > match.windows {windows}"
        ));
    }
    let survivors = value("cfs.survivors");
    let by_class = check
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("cfs.survivors.class="))
        .fold(0u64, |sum, (_, v)| sum.saturating_add(*v));
    if survivors != by_class {
        return Err(format!(
            "cfs.survivors {survivors} != {by_class} summed over cfs.survivors.class=*"
        ));
    }
    check.coverage = covered_ns as f64 / check.wall_ns as f64;
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, ObsLevel};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rpm_obs_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn finish_aggregates_and_round_trips_through_jsonl() {
        let _g = crate::test_lock();
        let path = temp_path("round_trip");
        ObsConfig {
            level: ObsLevel::Spans,
            json_path: Some(path.display().to_string()),
            http_addr: None,
        }
        .install();
        span::take_records();
        logger::take();
        metrics::reset();

        crate::trace::recorder().clear();

        {
            let _train = crate::span!("train");
            {
                let _mine = crate::span!("mine");
                crate::metrics().mine_rules.add(10);
            }
            let _svm = crate::span!("svm");
            crate::metrics().cache_frames.hits.add(7);
            crate::metrics().cache_frames.misses.add(3);
            crate::info!("test", "stage done");
        }
        // One retained request trace (sampled inbound context forces
        // retention) so the report carries a "trace" line.
        let ctx = crate::trace::TraceCtx::begin(Some(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        ));
        ctx.add_span("queue_wait", ctx.start_ns(), 5);
        crate::trace::recorder().record(ctx.finish(crate::trace::TraceOutcome::Ok, 200));
        let report = finish().expect("enabled");
        assert_eq!(report.level, ObsLevel::Spans);
        let paths: Vec<&str> = report.stages.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["train", "train/mine", "train/svm"]);
        assert_eq!(report.stages[0].depth, 0);
        assert_eq!(report.stages[1].depth, 1);
        assert_eq!(report.metrics.counter("mine.rules"), Some(10));
        assert_eq!(report.logs.len(), 1);
        let tree = report.render_tree();
        assert!(tree.contains("train"), "{tree}");
        assert!(tree.contains("cache hit-rates"), "{tree}");

        assert_eq!(report.traces.len(), 1);
        assert_eq!(
            report.traces[0].trace_id.to_hex(),
            "4bf92f3577b34da6a3ce929d0e0e4736"
        );

        let check = validate_jsonl(&path.display().to_string()).expect("valid report");
        assert_eq!(check.spans, 3);
        assert_eq!(check.caches.len(), 3);
        assert_eq!(check.logs, 1);
        assert_eq!(check.traces, 1);
        assert_eq!(check.counter("mine.rules"), Some(10));
        assert!(check.coverage > 0.0);
        std::fs::remove_file(&path).ok();
        ObsConfig::default().install();
    }

    #[test]
    fn validator_rejects_broken_invariants() {
        let path = temp_path("invalid");
        let bad_cache = "{\"type\":\"meta\",\"version\":1,\"wall_ns\":100,\"level\":\"spans\"}\n\
             {\"type\":\"span\",\"path\":\"a\",\"name\":\"a\",\"depth\":0,\"thread\":0,\"start_ns\":1,\"dur_ns\":2}\n\
             {\"type\":\"cache\",\"family\":\"words\",\"hits\":3,\"misses\":3,\"evictions\":0,\"lookups\":5,\"hit_rate\":0.6}\n";
        std::fs::write(&path, bad_cache).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("cache invariant"), "{err}");

        let non_monotone = "{\"type\":\"meta\",\"version\":1,\"wall_ns\":100,\"level\":\"spans\"}\n\
             {\"type\":\"span\",\"path\":\"a\",\"name\":\"a\",\"depth\":0,\"thread\":0,\"start_ns\":50,\"dur_ns\":2}\n\
             {\"type\":\"span\",\"path\":\"b\",\"name\":\"b\",\"depth\":0,\"thread\":0,\"start_ns\":10,\"dur_ns\":2}\n";
        std::fs::write(&path, non_monotone).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");

        // A spans-level report must contain spans; a summary-level one
        // need not (e.g. an empty run with spans disabled).
        let no_spans = "{\"type\":\"meta\",\"version\":1,\"wall_ns\":100,\"level\":\"spans\"}\n";
        std::fs::write(&path, no_spans).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("no span lines"), "{err}");

        let summary_no_spans =
            "{\"type\":\"meta\",\"version\":1,\"wall_ns\":100,\"level\":\"summary\"}\n";
        std::fs::write(&path, summary_no_spans).unwrap();
        let check =
            validate_jsonl(&path.display().to_string()).expect("summary level needs no spans");
        assert_eq!(check.spans, 0);

        // Counters reconcile: pruned + abandoned windows never exceed the
        // windows scanned ...
        let summary_meta =
            "{\"type\":\"meta\",\"version\":4,\"wall_ns\":100,\"level\":\"summary\"}\n";
        let counter = |name: &str, value: u64| {
            format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n")
        };
        let over_pruned = format!(
            "{summary_meta}{}{}{}",
            counter("match.windows", 100),
            counter("match.abandoned", 30),
            counter("match.pruned_envelope", 71)
        );
        std::fs::write(&path, &over_pruned).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(
            err.contains("match.pruned_envelope 71 + match.abandoned 30"),
            "{err}"
        );

        // ... and the per-class CFS survivors sum to the total.
        let survivors = format!(
            "{summary_meta}{}{}{}",
            counter("cfs.survivors", 13),
            counter("cfs.survivors.class=0", 5),
            counter("cfs.survivors.class=1", 7)
        );
        std::fs::write(&path, &survivors).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("cfs.survivors 13 != 12"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_checks_histogram_invariants() {
        let path = temp_path("hist_invariants");
        let meta = "{\"type\":\"meta\",\"version\":2,\"wall_ns\":100,\"level\":\"summary\"}\n";

        // count != Σ bucket counts
        let bad_count = format!(
            "{meta}{{\"type\":\"histogram\",\"name\":\"h\",\"count\":3,\"sum_ns\":10,\
             \"mean_ns\":3.3,\"p50\":5.0,\"p90\":5.0,\"p99\":5.0,\"buckets\":[[8,2]]}}\n"
        );
        std::fs::write(&path, &bad_count).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("sum of bucket counts"), "{err}");

        // bucket upper bounds out of order
        let unsorted = format!(
            "{meta}{{\"type\":\"histogram\",\"name\":\"h\",\"count\":2,\"sum_ns\":10,\
             \"mean_ns\":5.0,\"p50\":5.0,\"p90\":5.0,\"p99\":5.0,\"buckets\":[[16,1],[8,1]]}}\n"
        );
        std::fs::write(&path, &unsorted).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("not ascending"), "{err}");

        // sum_ns exceeds what the buckets could hold
        let impossible_sum = format!(
            "{meta}{{\"type\":\"histogram\",\"name\":\"h\",\"count\":2,\"sum_ns\":100,\
             \"mean_ns\":50.0,\"p50\":5.0,\"p90\":5.0,\"p99\":5.0,\"buckets\":[[8,2]]}}\n"
        );
        std::fs::write(&path, &impossible_sum).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("exceeds count"), "{err}");

        // A well-formed histogram line passes and is counted.
        let good = format!(
            "{meta}{{\"type\":\"histogram\",\"name\":\"h\",\"count\":3,\"sum_ns\":14,\
             \"mean_ns\":4.7,\"p50\":6.0,\"p90\":7.6,\"p99\":7.9,\"buckets\":[[4,1],[8,2]]}}\n"
        );
        std::fs::write(&path, &good).unwrap();
        let check = validate_jsonl(&path.display().to_string()).expect("valid histogram");
        assert_eq!(check.histograms.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_checks_trace_span_trees_and_links() {
        let path = temp_path("trace_invariants");
        let meta = "{\"type\":\"meta\",\"version\":3,\"wall_ns\":100,\"level\":\"summary\"}\n";
        let tid_a = "4bf92f3577b34da6a3ce929d0e0e4736";
        let tid_b = "0af7651916cd43dd8448eb211c80319c";

        // A well-formed pair of traces whose batch links resolve to each
        // other is accepted and counted.
        let good = format!(
            "{meta}\
             {{\"type\":\"trace\",\"trace_id\":\"{tid_a}\",\"root\":\"00f067aa0ba902b7\",\
             \"outcome\":\"ok\",\"status\":200,\"sampled\":true,\"start_ns\":10,\"dur_ns\":50,\
             \"spans\":[{{\"name\":\"request\",\"id\":\"00f067aa0ba902b7\",\"parent\":null,\
             \"start_ns\":10,\"dur_ns\":50}},{{\"name\":\"batch\",\"id\":\"00f067aa0ba902b8\",\
             \"parent\":\"00f067aa0ba902b7\",\"start_ns\":20,\"dur_ns\":30,\
             \"links\":[\"{tid_b}\"]}}]}}\n\
             {{\"type\":\"trace\",\"trace_id\":\"{tid_b}\",\"root\":\"00f067aa0ba902c1\",\
             \"outcome\":\"deadline\",\"status\":504,\"sampled\":false,\"start_ns\":12,\"dur_ns\":40,\
             \"spans\":[{{\"name\":\"request\",\"id\":\"00f067aa0ba902c1\",\"parent\":null,\
             \"start_ns\":12,\"dur_ns\":40,\"attrs\":{{\"outcome\":\"deadline\"}},\
             \"links\":[\"{tid_a}\"]}}]}}\n"
        );
        std::fs::write(&path, &good).unwrap();
        let check = validate_jsonl(&path.display().to_string()).expect("valid traces");
        assert_eq!(check.traces, 2);

        // A span whose parent is not in the trace is rejected.
        let orphan = format!(
            "{meta}\
             {{\"type\":\"trace\",\"trace_id\":\"{tid_a}\",\"root\":\"00f067aa0ba902b7\",\
             \"outcome\":\"ok\",\"status\":200,\"sampled\":false,\"start_ns\":10,\"dur_ns\":50,\
             \"spans\":[{{\"name\":\"request\",\"id\":\"00f067aa0ba902b7\",\"parent\":null,\
             \"start_ns\":10,\"dur_ns\":50}},{{\"name\":\"predict\",\"id\":\"00f067aa0ba902b8\",\
             \"parent\":\"deadbeefdeadbeef\",\"start_ns\":20,\"dur_ns\":5}}]}}\n"
        );
        std::fs::write(&path, &orphan).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("not in the trace"), "{err}");

        // A batch link naming a trace absent from the report is rejected.
        let dangling = format!(
            "{meta}\
             {{\"type\":\"trace\",\"trace_id\":\"{tid_a}\",\"root\":\"00f067aa0ba902b7\",\
             \"outcome\":\"ok\",\"status\":200,\"sampled\":false,\"start_ns\":10,\"dur_ns\":50,\
             \"spans\":[{{\"name\":\"request\",\"id\":\"00f067aa0ba902b7\",\"parent\":null,\
             \"start_ns\":10,\"dur_ns\":50,\"links\":[\"{tid_b}\"]}}]}}\n"
        );
        std::fs::write(&path, &dangling).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("does not resolve"), "{err}");

        // A span sticking out past the end of its trace is rejected.
        let overhang = format!(
            "{meta}\
             {{\"type\":\"trace\",\"trace_id\":\"{tid_a}\",\"root\":\"00f067aa0ba902b7\",\
             \"outcome\":\"ok\",\"status\":200,\"sampled\":false,\"start_ns\":10,\"dur_ns\":50,\
             \"spans\":[{{\"name\":\"request\",\"id\":\"00f067aa0ba902b7\",\"parent\":null,\
             \"start_ns\":10,\"dur_ns\":500}}]}}\n"
        );
        std::fs::write(&path, &overhang).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("outside its trace"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_checks_drift_invariants() {
        let path = temp_path("drift_invariants");
        let meta = "{\"type\":\"meta\",\"version\":4,\"wall_ns\":100,\"level\":\"summary\"}\n";

        let good = format!(
            "{meta}{{\"type\":\"drift\",\"status\":\"warn\",\"live_samples\":80,\
             \"reference_samples\":200,\"window_secs\":240,\"epoch_secs\":30,\"epochs\":8,\
             \"warn\":0.200000,\"page\":0.500000,\"metrics\":[\
             {{\"metric\":\"match_distance\",\"psi\":0.310000,\"ks\":0.400000,\"verdict\":\"warn\"}},\
             {{\"metric\":\"class_mix\",\"psi\":0.010000,\"ks\":null,\"verdict\":\"ok\"}}]}}\n"
        );
        std::fs::write(&path, &good).unwrap();
        let check = validate_jsonl(&path.display().to_string()).expect("valid drift line");
        assert_eq!(check.drifts, 1);

        let bad_status = good.replace("\"status\":\"warn\"", "\"status\":\"panic\"");
        std::fs::write(&path, &bad_status).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("unknown drift status"), "{err}");

        let bad_psi = good.replace("\"psi\":0.310000", "\"psi\":-0.400000");
        std::fs::write(&path, &bad_psi).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("not finite and ≥ 0"), "{err}");

        let bad_ks = good.replace("\"ks\":0.400000", "\"ks\":1.500000");
        std::fs::write(&path, &bad_ks).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");

        let bad_verdict = good.replace("\"verdict\":\"ok\"", "\"verdict\":\"meh\"");
        std::fs::write(&path, &bad_verdict).unwrap();
        let err = validate_jsonl(&path.display().to_string()).unwrap_err();
        assert!(err.contains("unknown drift verdict"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_run_renders_and_validates_cleanly() {
        let _g = crate::test_lock();
        let path = temp_path("empty_run");
        ObsConfig {
            level: ObsLevel::Summary,
            json_path: Some(path.display().to_string()),
            http_addr: None,
        }
        .install();
        span::take_records();
        logger::take();
        metrics::reset();

        // No spans, no counters, no histograms: the degenerate run.
        let report = finish().expect("enabled");
        assert!(report.stages.is_empty());
        assert!(report.records.is_empty());
        let tree = report.render_tree();
        assert!(tree.contains("run report"), "{tree}");

        let check = validate_jsonl(&path.display().to_string()).expect("empty run is valid");
        assert_eq!(check.spans, 0);
        assert!(check.stages.is_empty());
        std::fs::remove_file(&path).ok();
        ObsConfig::default().install();
    }

    #[test]
    fn coverage_of_zero_duration_run_is_zero() {
        let report = RunReport {
            wall_ns: 0,
            level: ObsLevel::Spans,
            stages: Vec::new(),
            records: Vec::new(),
            metrics: MetricsSnapshot::default(),
            logs: Vec::new(),
            traces: Vec::new(),
        };
        assert_eq!(report.coverage(), 0.0);
        // Rendering a zero-duration report must not divide by zero either.
        let tree = report.render_tree();
        assert!(tree.contains("run report"), "{tree}");
    }

    #[test]
    fn tree_order_is_parents_first_siblings_by_start() {
        let mut aggs = BTreeMap::new();
        for (path, start) in [
            ("train", 0),
            ("train/svm", 900),
            ("train/mine", 10),
            ("predict", 1000),
        ] {
            aggs.insert(
                path.to_string(),
                StageAgg {
                    path: path.to_string(),
                    name: path.rsplit('/').next().unwrap().to_string(),
                    depth: path.matches('/').count() as u32,
                    calls: 1,
                    total_ns: 5,
                    min_start_ns: start,
                    max_end_ns: start + 5,
                },
            );
        }
        let order: Vec<String> = tree_order(aggs).into_iter().map(|s| s.path).collect();
        assert_eq!(order, vec!["train", "train/mine", "train/svm", "predict"]);
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
