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
//! one served model generation, which a run report does not see. They
//! are no longer read either.
//!
//! [`validate_jsonl`] is the one reader: it parses each line with
//! [`crate::json`] (which writes every string here too), so a line that
//! is not exactly one JSON object is refused, checks its fields and
//! returns the [`ReportSummary`] that [`crate::diff`] and `rpm-cli obs
//! summary` consume. It reads every version above, ignores unknown
//! fields, and rejects unknown line types — a v4 `drift` line among
//! them.

use crate::json::{self, Value};
use crate::logger::{self, LogEvent};
use crate::metrics::{self, MetricsSnapshot};
use crate::span::{self, SpanRecord};
use crate::trace::{SpanId, TraceId};
use crate::ObsLevel;
use std::collections::{BTreeMap, HashSet};
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
            json::push_str(&mut out, &r.path);
            out.push_str(",\"name\":");
            json::push_str(&mut out, r.name);
            let _ = writeln!(
                out,
                ",\"depth\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                r.depth, r.thread, r.start_ns, r.dur_ns
            );
        }
        for s in &self.stages {
            out.push_str("{\"type\":\"stage\",\"path\":");
            json::push_str(&mut out, &s.path);
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
            json::push_str(&mut out, &name);
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
            json::push_str(&mut out, family);
            let _ = writeln!(
                out,
                ",\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\"lookups\":{lookups},\"hit_rate\":{hit_rate:.6}}}"
            );
        }
        for (name, h) in &self.metrics.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            json::push_str(&mut out, name);
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
            json::push_str(&mut out, &event.target);
            out.push_str(",\"message\":");
            json::push_str(&mut out, &event.message);
            if let Some(trace) = &event.trace {
                out.push_str(",\"trace\":");
                json::push_str(&mut out, trace);
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

/// Reads a JSONL run report back, the one reader every consumer uses
/// (`obs summary`, `obs diff`, the `validate` example), and checks it on
/// the way: every line is one JSON object with a known `type` and its
/// required fields, a `meta` line exists, spans carry monotone start
/// timestamps and end within wall time (and are present at all for a
/// spans-level report), every cache line satisfies `hits + misses ==
/// lookups`, every histogram line satisfies the bucket invariants
/// (`count == Σ bucket counts`, buckets sorted by ascending upper bound,
/// `sum_ns ≤ count × max bucket upper`), trace lines hold their
/// invariants, and the counters reconcile (`match.pruned_envelope +
/// match.abandoned ≤ match.windows`, `cfs.survivors` equals the sum of
/// its `cfs.survivors.class=*` lines). Unknown fields are ignored. A v4
/// `drift` line is no longer read: it is refused as an unknown type.
/// Returns the summary, or the first violation prefixed with `<path>: `
/// (and `line <n>: ` when one line breaks it).
pub fn validate_jsonl(path: &str) -> Result<ReportSummary, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read_report(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn read_report(bytes: &[u8]) -> Result<ReportSummary, String> {
    let text = json::text(bytes)?;
    let mut reader = Reader::default();
    for (lineno, line) in (1..).zip(text.lines()) {
        if !line.trim().is_empty() {
            reader.summary.lines += 1;
            reader
                .line(lineno, line)
                .map_err(|e| format!("line {lineno}: {e}"))?;
        }
    }
    reader.finish()
}

/// One report line's (or trace span's) kind and fields, read by name.
/// Errors name the kind (`counter without value`).
struct Fields<'a>(&'a str, &'a Value);

impl<'a> Fields<'a> {
    /// The field `key`, which `read` refuses unless it is `what`.
    fn read<T>(
        &self,
        key: &str,
        what: &str,
        read: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let Fields(kind, fields) = self;
        let value = fields
            .get(key)
            .ok_or_else(|| format!("{kind} without {key}"))?;
        read(value).ok_or_else(|| format!("{kind} {key} is not {what}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.read(key, "an unsigned integer", Value::as_u64)
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.read(key, "a number", Value::as_f64)
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.read(key, "a string", Value::as_str)
    }

    fn array(&self, key: &str) -> Result<&'a [Value], String> {
        self.read(key, "an array", Value::as_array)
    }

    /// An optional field: `None` when it is left out or `null`.
    fn optional<T>(
        &self,
        key: &str,
        read: impl Fn(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.1.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => read(self, key).map(Some),
        }
    }
}

/// What the reader carries from one line to the next.
#[derive(Default)]
struct Reader {
    summary: ReportSummary,
    last_start: u64,
    main_thread: Option<u64>,
    covered_ns: u64,
    trace_ids: HashSet<String>,
    /// Batch links as `(line, trace id)`, resolved once every line is read.
    pending_links: Vec<(usize, String)>,
}

impl Reader {
    /// Parses one line and checks the fields and invariants of its type.
    fn line(&mut self, lineno: usize, line: &str) -> Result<(), String> {
        let value = json::parse(line)?;
        let kind = match value.get("type") {
            Some(Value::String(kind)) => kind.as_str(),
            Some(_) => return Err("\"type\" is not a string".to_string()),
            None if matches!(value, Value::Object(_)) => return Err("no \"type\" field".into()),
            None => return Err("not a JSON object".to_string()),
        };
        let f = Fields(kind, &value);
        let check = &mut self.summary;
        match kind {
            "meta" => {
                check.wall_ns = f.u64("wall_ns")?;
                check.level = f.str("level")?.to_string();
            }
            "span" => {
                let start = f.u64("start_ns")?;
                let dur = f.u64("dur_ns")?;
                let depth = f.u64("depth")?;
                let thread = f.u64("thread")?;
                if start < self.last_start {
                    return Err(format!(
                        "span start_ns {start} < previous {} (not monotone)",
                        self.last_start
                    ));
                }
                self.last_start = start;
                let end = start.saturating_add(dur);
                if check.wall_ns > 0 && end > check.wall_ns {
                    return Err(format!(
                        "span ends at {end} beyond wall_ns {}",
                        check.wall_ns
                    ));
                }
                let main = *self.main_thread.get_or_insert(thread);
                if depth == 0 && thread == main {
                    self.covered_ns = self.covered_ns.saturating_add(dur);
                }
                check.spans += 1;
            }
            "counter" => check
                .counters
                .push((f.str("name")?.to_string(), f.u64("value")?)),
            "cache" => {
                let family = f.str("family")?;
                let hits = f.u64("hits")?;
                let misses = f.u64("misses")?;
                let lookups = f.u64("lookups")?;
                if hits.checked_add(misses) != Some(lookups) {
                    return Err(format!(
                        "cache invariant broken: {hits} + {misses} != {lookups}"
                    ));
                }
                check.caches.push((family.to_string(), lookups));
            }
            "log" => check.logs += 1,
            "stage" => {
                let path = f.str("path")?.to_string();
                let calls = f.u64("calls")?;
                let total_ns = f.u64("total_ns")?;
                if calls == 0 {
                    return Err("stage aggregate with zero calls".to_string());
                }
                check.stages.push(StageSummary {
                    path,
                    calls,
                    total_ns,
                });
            }
            "histogram" => check.histograms.push(read_histogram(&f)?),
            "trace" => self.trace(lineno, &f)?,
            other => return Err(format!("unknown type {other:?}")),
        }
        Ok(())
    }

    /// A trace line: well-formed ids, parents inside the trace, the
    /// parentless span as the root, spans inside the trace window.
    fn trace(&mut self, lineno: usize, f: &Fields<'_>) -> Result<(), String> {
        let trace_id = f.str("trace_id")?;
        if TraceId::from_hex(trace_id).is_none() {
            return Err(format!(
                "trace_id {trace_id:?} is not 32 lowercase hex digits"
            ));
        }
        let root = f.str("root")?;
        let start = f.u64("start_ns")?;
        let end = start.saturating_add(f.u64("dur_ns")?);
        f.str("outcome")?;
        let spans = f.array("spans")?;
        if spans.is_empty() {
            return Err("trace with no spans".to_string());
        }
        let mut span_ids = HashSet::new();
        for span in spans.iter().map(|v| Fields("span", v)) {
            let id = span.str("id")?;
            if SpanId::from_hex(id).is_none() {
                return Err(format!("span id {id:?} is not 16 lowercase hex digits"));
            }
            if !span_ids.insert(id) {
                return Err(format!("duplicate span id {id}"));
            }
        }
        for span in spans.iter().map(|v| Fields("span", v)) {
            let id = span.str("id")?;
            match span.optional("parent", Fields::str)? {
                None if id != root => {
                    return Err(format!("parentless span {id} is not the root {root}"));
                }
                Some(parent) if !span_ids.contains(parent) => {
                    return Err(format!("span {id} has parent {parent} not in the trace"));
                }
                _ => {}
            }
            let s_start = span.u64("start_ns")?;
            let s_end = s_start.saturating_add(span.u64("dur_ns")?);
            if s_start < start || s_end > end {
                return Err(format!(
                    "span {id} [{s_start}, {s_end}] outside its trace [{start}, {end}]"
                ));
            }
            for link in span.optional("links", Fields::array)?.unwrap_or_default() {
                let link = link
                    .as_str()
                    .ok_or_else(|| format!("span {id} link is not a string"))?;
                if TraceId::from_hex(link).is_none() {
                    return Err(format!("link {link:?} is not 32 lowercase hex digits"));
                }
                if link == trace_id {
                    return Err(format!("span {id} links its own trace"));
                }
                self.pending_links.push((lineno, link.to_string()));
            }
        }
        self.trace_ids.insert(trace_id.to_string());
        self.summary.traces += 1;
        Ok(())
    }

    /// The checks across lines: a meta line, spans in a spans-level
    /// report, batch links that resolve, and reconciled counters.
    fn finish(self) -> Result<ReportSummary, String> {
        let mut check = self.summary;
        if check.wall_ns == 0 {
            return Err("no meta line with wall_ns".to_string());
        }
        // Summary-level runs legitimately record no spans; a spans-level
        // report without any is broken.
        if check.spans == 0 && matches!(check.level.as_str(), "spans" | "debug") {
            return Err("no span lines in a spans-level report".to_string());
        }
        // Batch links are only useful if they can be followed: every link
        // must name a trace line present in this report (the report
        // builder guarantees it by filtering to the retained set).
        for (lineno, link) in self.pending_links {
            if !self.trace_ids.contains(&link) {
                return Err(format!(
                    "line {lineno}: batch link {link} does not resolve to a trace in this report"
                ));
            }
        }
        // Counter reconciliation: a window is pruned or abandoned only
        // after it was counted as scanned, and each CFS survivor counts
        // once in total and once under its class.
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
        check.coverage = self.covered_ns as f64 / check.wall_ns as f64;
        Ok(check)
    }
}

/// A histogram line, checked against the bucket invariants.
fn read_histogram(f: &Fields<'_>) -> Result<HistogramSummary, String> {
    let name = f.str("name")?;
    let count = f.u64("count")?;
    let sum_ns = f.u64("sum_ns")?;
    let buckets: Vec<(u64, u64)> = f
        .array("buckets")?
        .iter()
        .map(|pair| match pair.as_array()? {
            [upper, n] => Some((upper.as_u64()?, n.as_u64()?)),
            _ => None,
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("histogram {name}: buckets are not [upper, count] pairs"))?;
    let total = buckets
        .iter()
        .fold(0u64, |sum, (_, n)| sum.saturating_add(*n));
    if total != count {
        return Err(format!(
            "histogram {name}: count {count} != sum of bucket counts {total}"
        ));
    }
    if buckets.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(format!(
            "histogram {name}: bucket upper bounds not ascending"
        ));
    }
    let max_upper = buckets.last().map_or(0, |&(u, _)| u);
    // Every observation is strictly below its bucket's upper bound
    // (bucket 0 holds exactly 0), bounding the sum.
    if sum_ns > count.saturating_mul(max_upper) {
        return Err(format!(
            "histogram {name}: sum_ns {sum_ns} exceeds count {count} × max upper {max_upper}"
        ));
    }
    Ok(HistogramSummary {
        name: name.to_string(),
        count,
        sum_ns,
        p50: f.optional("p50", Fields::f64)?.unwrap_or(0.0),
        p90: f.optional("p90", Fields::f64)?.unwrap_or(0.0),
        p99: f.optional("p99", Fields::f64)?.unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, ObsLevel};
    use proptest::prelude::*;

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
    fn validator_refuses_unknown_line_types_by_line() {
        let path = temp_path("unknown_type");
        let meta = "{\"type\":\"meta\",\"version\":4,\"wall_ns\":100,\"level\":\"summary\"}\n";
        std::fs::write(&path, meta).unwrap();
        validate_jsonl(&path.display().to_string()).expect("meta alone is valid");

        // A v4 drift line is no longer read: it is an unknown type like
        // any other, named with its line.
        for (kind, extra) in [
            (
                "drift",
                ",\"status\":\"ok\",\"live_samples\":0,\"metrics\":[]",
            ),
            ("bogus", ""),
        ] {
            std::fs::write(&path, format!("{meta}{{\"type\":\"{kind}\"{extra}}}\n")).unwrap();
            let err = validate_jsonl(&path.display().to_string()).unwrap_err();
            assert!(
                err.ends_with(&format!("line 2: unknown type \"{kind}\"")),
                "{err}"
            );
        }
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

    /// A small report holding one line of each type, with values chosen
    /// so that no single-byte change to one line breaks an invariant
    /// that another line checks (the span ends far below any `wall_ns` a
    /// flip can leave, and only one trace, without links).
    const ONE_OF_EACH: &str = concat!(
        "{\"type\":\"meta\",\"version\":4,\"wall_ns\":900000,\"level\":\"spans\"}\n",
        "{\"type\":\"span\",\"path\":\"train\",\"name\":\"train\",\"depth\":0,\"thread\":3,",
        "\"start_ns\":10,\"dur_ns\":6000}\n",
        "{\"type\":\"stage\",\"path\":\"train\",\"calls\":1,\"total_ns\":6000}\n",
        "{\"type\":\"counter\",\"name\":\"engine.jobs\",\"value\":12}\n",
        "{\"type\":\"cache\",\"family\":\"frames\",\"hits\":6,\"misses\":4,\"evictions\":0,",
        "\"lookups\":10,\"hit_rate\":0.600000}\n",
        "{\"type\":\"histogram\",\"name\":\"predict.latency_ns\",\"count\":3,\"sum_ns\":2100,",
        "\"mean_ns\":700.0,\"p50\":700.0,\"p90\":900.0,\"p99\":990.0,\"buckets\":[[512,1],[1024,2]]}\n",
        "{\"type\":\"log\",\"t_ns\":50,\"level\":\"info\",\"target\":\"test\",",
        "\"message\":\"stage \\\"done\\\"\\n\"}\n",
        "{\"type\":\"trace\",\"trace_id\":\"4bf92f3577b34da6a3ce929d0e0e4736\",",
        "\"root\":\"00f067aa0ba902b7\",\"outcome\":\"ok\",\"status\":200,\"sampled\":true,",
        "\"start_ns\":10,\"dur_ns\":50,\"spans\":[{\"name\":\"request\",\"id\":\"00f067aa0ba902b7\",",
        "\"parent\":null,\"start_ns\":10,\"dur_ns\":50},{\"name\":\"parse\",",
        "\"id\":\"00f067aa0ba902b8\",\"parent\":\"00f067aa0ba902b7\",\"start_ns\":12,",
        "\"dur_ns\":5,\"attrs\":{\"series\":\"3\"}}]}\n",
    );

    #[test]
    fn every_proper_prefix_of_a_line_is_refused_naming_it() {
        let check = read_report(ONE_OF_EACH.as_bytes()).expect("the report itself is valid");
        assert_eq!(check.lines, 8);
        let lines: Vec<&[u8]> = ONE_OF_EACH.as_bytes().split(|&b| b == b'\n').collect();
        for (k, line) in lines.iter().enumerate() {
            for cut in 1..line.len() {
                let mut text = Vec::new();
                for (j, other) in lines.iter().enumerate().filter(|(_, l)| !l.is_empty()) {
                    text.extend_from_slice(if j == k { &line[..cut] } else { other });
                    text.push(b'\n');
                }
                let prefix = String::from_utf8_lossy(&line[..cut]);
                let err = read_report(&text).expect_err(&prefix);
                assert!(
                    err.starts_with(&format!("line {}: ", k + 1)),
                    "{prefix}: {err}"
                );
            }
        }
    }

    #[test]
    fn every_byte_flip_reads_back_or_is_refused_naming_its_line() {
        let bytes = ONE_OF_EACH.as_bytes();
        for (at, &byte) in bytes.iter().enumerate() {
            let line = 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count();
            for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                let mut flipped = bytes.to_vec();
                flipped[at] = byte ^ mask;
                if let Err(err) = read_report(&flipped) {
                    assert!(
                        err.starts_with(&format!("line {line}: ")),
                        "byte {at} ^ {mask:#04x}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn malformed_lines_are_refused_by_line() {
        let meta = "{\"type\":\"meta\",\"version\":4,\"wall_ns\":100,\"level\":\"summary\"}\n";
        let counter = "{\"type\":\"counter\",\"name\":\"engine.jobs\"";
        for (probe, why) in [
            (
                format!("{counter},\"value\":12abc}}"),
                "expected ',' or '}', found 'a'",
            ),
            (
                format!("{counter},\"value\":1e3}}"),
                "counter value is not an unsigned integer",
            ),
            (
                format!("{counter},\"value\":-5}}"),
                "counter value is not an unsigned integer",
            ),
            (
                format!("{counter},\"value\":18446744073709551616}}"),
                "counter value is not an unsigned integer",
            ),
            (
                "{\"type\":\"counter\"\"name\":\"engine.jobs\"\"value\":7}".to_string(),
                "expected ',' or '}', found '\"'",
            ),
            (
                "\"type\":\"counter\",\"name\":\"engine.jobs\",\"value\":5".to_string(),
                "trailing characters after the JSON value",
            ),
            ("[\"counter\",5]".to_string(), "not a JSON object"),
            (
                format!("{counter},\"value\":5}} x"),
                "trailing characters after the JSON value",
            ),
            (
                format!("{counter},\"value\":5,\"value\":6}}"),
                "duplicate key \"value\"",
            ),
            (
                "{\"type\":\"counter\",\"name\":7,\"value\":5}".to_string(),
                "counter name is not a string",
            ),
            ("{\"type\":4}".to_string(), "\"type\" is not a string"),
        ] {
            let err = read_report(format!("{meta}{probe}\n").as_bytes()).unwrap_err();
            assert_eq!(err, format!("line 2: {why}"), "{probe}");
        }
        let not_utf8 = [
            meta.as_bytes(),
            b"{\"type\":\"log\",\"message\":\"\xff\"}\n",
        ]
        .concat();
        assert_eq!(read_report(&not_utf8).unwrap_err(), "line 2: not UTF-8");

        // Escapes decode: a name written with `\n` reads back holding a
        // newline.
        let text = format!("{meta}{{\"type\":\"counter\",\"name\":\"a\\nb\",\"value\":3}}\n");
        let check = read_report(text.as_bytes()).unwrap();
        assert_eq!(check.counters, vec![("a\nb".to_string(), 3)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any counter name, stage path or log message the writer emits
        /// reads back byte-identical, whatever code points it holds.
        #[test]
        fn written_strings_read_back(
            name in proptest::collection::vec(0u32..0x11_0000, 0..40),
            path in proptest::collection::vec(0u32..0x11_0000, 0..40),
            message in proptest::collection::vec(0u32..0x11_0000, 0..40),
        ) {
            let text = |codes: Vec<u32>| -> String {
                codes.into_iter().filter_map(char::from_u32).collect()
            };
            let (name, path, message) = (text(name), text(path), text(message));
            let report = RunReport {
                wall_ns: 1_000,
                level: ObsLevel::Summary,
                stages: vec![StageAgg {
                    path: path.clone(),
                    name: "stage".to_string(),
                    depth: 0,
                    calls: 1,
                    total_ns: 5,
                    min_start_ns: 0,
                    max_end_ns: 5,
                }],
                records: Vec::new(),
                metrics: MetricsSnapshot {
                    labeled: vec![(name.clone(), 7)],
                    ..MetricsSnapshot::default()
                },
                logs: vec![LogEvent {
                    t_ns: 1,
                    level: "info",
                    target: "test".to_string(),
                    message: message.clone(),
                    trace: None,
                }],
                traces: Vec::new(),
            };
            let jsonl = report.to_jsonl();
            let check = read_report(jsonl.as_bytes());
            prop_assert!(check.is_ok(), "{:?}", check);
            let check = check.unwrap();
            prop_assert_eq!(&check.counters, &vec![(name, 7)]);
            prop_assert_eq!(&check.stages[0].path, &path);
            let log = jsonl.lines().find(|l| l.starts_with("{\"type\":\"log\"")).unwrap();
            let log = json::parse(log).unwrap();
            prop_assert_eq!(log.get("message").and_then(Value::as_str), Some(message.as_str()));
        }
    }
}
