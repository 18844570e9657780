//! Request-scoped tracing: W3C `traceparent` ids, per-request span
//! trees, and an in-memory flight recorder for the serving path.
//!
//! The process-global stage timers in [`crate::span`](mod@crate::span)
//! answer "where did the *run* spend its time"; they cannot answer "why
//! was *this* request slow". This module adds the per-request layer:
//! every `/classify` request gets a [`TraceCtx`] carrying a 128-bit trace id
//! (ingested from an inbound `traceparent` header when present,
//! generated otherwise) and an append-only list of [`TraceSpan`]s
//! (parse, queue-wait, batch, predict, respond). When the request is
//! answered, [`TraceCtx::finish`] freezes the tree into a
//! [`TraceRecord`] that the [`FlightRecorder`] retains or drops.
//!
//! # Causality across the micro-batching boundary
//!
//! A micro-batch serves N requests at once, so a naive per-request tree
//! would hide the sharing. Each request's `batch` span therefore
//! carries the dispatch sequence number as an attribute and *links* to
//! the trace ids of the other requests served by the same dispatch —
//! the OpenTelemetry span-link idea, flattened to trace ids. Walking
//! the links from any one slow request reconstructs the whole batch.
//!
//! # Tail-based retention
//!
//! The recorder is two fixed-size rings of `Mutex<Option<TraceRecord>>`
//! slots behind one atomic head each — an insert is one `fetch_add`
//! plus one uncontended slot lock, never a global lock. Retention is
//! decided *after* the outcome is known (tail-based):
//!
//! * non-`ok` outcomes (shed, deadline, parse/internal errors) and
//!   traces whose inbound `traceparent` had the sampled flag set are
//!   always kept (the forensic ring);
//! * traces at least as slow as the running p90 duration estimate are
//!   kept too — "the slowest decile", at log₂-bucket resolution, from
//!   an internal histogram whose threshold is refreshed every
//!   `REFRESH_EVERY` records;
//! * 1 in `SAMPLE_EVERY` of the remaining ok traces lands in a
//!   smaller sampled ring so the recorder always shows some healthy
//!   baseline; the rest are dropped (counted in `trace.dropped`).
//!
//! Retained traces are served as JSONL by `GET /debug/traces`
//! (`?min_ms=`/`?outcome=` filters), embedded in run reports (schema
//! v3 `"trace"` lines), and referenced from `/metrics` histogram
//! buckets as OpenMetrics-style exemplars (`# {trace_id="…"} value`) —
//! an exemplar is recorded only for *retained* traces, so every trace
//! id a scrape shows resolves against the recorder.

use crate::json;
use crate::metrics::{bucket_index, HIST_BUCKETS};
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// 128-bit W3C trace id; the all-zero value is invalid per spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// 64-bit W3C span (parent) id; all-zero is invalid per spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Lowercase 32-hex-digit form used on the wire and in reports.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses exactly 32 lowercase hex digits into a nonzero id.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32
            || !s
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return None;
        }
        let v = u128::from_str_radix(s, 16).ok()?;
        (v != 0).then_some(Self(v))
    }
}

impl SpanId {
    /// Lowercase 16-hex-digit form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses exactly 16 lowercase hex digits into a nonzero id.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16
            || !s
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return None;
        }
        let v = u64::from_str_radix(s, 16).ok()?;
        (v != 0).then_some(Self(v))
    }
}

/// The fields of one parsed W3C `traceparent` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceParent {
    /// The caller's trace id, adopted for the whole request.
    pub trace_id: TraceId,
    /// The caller's span id — our root span's remote parent.
    pub parent: SpanId,
    /// The `sampled` flag (bit 0 of trace-flags). The recorder honors
    /// it: an upstream that asked for sampling always gets its trace
    /// retained, which also makes tests deterministic.
    pub sampled: bool,
}

/// Parses a W3C `traceparent` header (`00-<trace>-<parent>-<flags>`).
///
/// Accepts any non-`ff` version per the spec's forward-compatibility
/// rule, but a version-00 header must have exactly four fields. Ids
/// must be lowercase hex and nonzero. Returns `None` on any violation —
/// a bad header means "start a fresh trace", never an error.
pub fn parse_traceparent(header: &str) -> Option<TraceParent> {
    let mut parts = header.trim().split('-');
    let version = parts.next()?;
    if version.len() != 2
        || !version
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        || version == "ff"
    {
        return None;
    }
    let trace_id = TraceId::from_hex(parts.next()?)?;
    let parent = SpanId::from_hex(parts.next()?)?;
    let flags = parts.next()?;
    if flags.len() != 2
        || !flags
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    {
        return None;
    }
    if version == "00" && parts.next().is_some() {
        return None;
    }
    let sampled = u8::from_str_radix(flags, 16).ok()? & 0x01 != 0;
    Some(TraceParent {
        trace_id,
        parent,
        sampled,
    })
}

/// Renders a version-00 `traceparent` header for `trace_id`/`span`.
pub fn format_traceparent(trace_id: TraceId, span: SpanId, sampled: bool) -> String {
    format!(
        "00-{:032x}-{:016x}-{}",
        trace_id.0,
        span.0,
        if sampled { "01" } else { "00" }
    )
}

/// Draws a fresh nonzero id of up to 128 bits. Std-only entropy: the
/// per-call `RandomState` keys (seeded by the OS) hashed together with
/// a process-global counter and the monotonic clock, so ids are unique
/// within a process and unpredictable enough across processes for
/// correlation ids (they are *not* cryptographic material).
fn random_bits() -> u128 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let lo = {
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(seq);
        h.write_u64(crate::now_ns());
        h.finish()
    };
    let hi = {
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(lo);
        h.write_u64(seq ^ 0x9e37_79b9_7f4a_7c15);
        h.finish()
    };
    (hi as u128) << 64 | lo as u128
}

fn new_trace_id() -> TraceId {
    loop {
        let v = random_bits();
        if v != 0 {
            return TraceId(v);
        }
    }
}

fn new_span_id() -> SpanId {
    loop {
        let v = random_bits() as u64;
        if v != 0 {
            return SpanId(v);
        }
    }
}

/// How one traced request ended, mapped from the HTTP status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered with labels (`200`).
    Ok,
    /// Rejected at parse time (`400`).
    BadRequest,
    /// Shed by the bounded queue (`429`).
    Shed,
    /// Per-request deadline missed (`504`).
    Deadline,
    /// Internal failure — injected fault or engine error (`5xx`).
    Error,
}

impl TraceOutcome {
    /// The wire/report spelling (`ok`, `shed`, `deadline`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::BadRequest => "bad_request",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Deadline => "deadline",
            TraceOutcome::Error => "error",
        }
    }

    /// Inverse of [`TraceOutcome::as_str`] (used by the `?outcome=`
    /// filter).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(TraceOutcome::Ok),
            "bad_request" => Some(TraceOutcome::BadRequest),
            "shed" => Some(TraceOutcome::Shed),
            "deadline" => Some(TraceOutcome::Deadline),
            "error" => Some(TraceOutcome::Error),
            _ => None,
        }
    }
}

/// One completed span inside a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Stage name (`request`, `parse`, `queue_wait`, `batch`,
    /// `predict`, `respond`).
    pub name: &'static str,
    /// This span's id, unique within the trace.
    pub id: SpanId,
    /// Parent span id; `None` only for the root `request` span.
    pub parent: Option<SpanId>,
    /// Start, on the process-wide [`crate::now_ns`] epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Stage-specific key/values (batch sequence, kernel counters, …).
    pub attrs: Vec<(&'static str, String)>,
    /// Trace ids of sibling requests served by the same micro-batch
    /// dispatch (set on `batch` spans only).
    pub links: Vec<TraceId>,
}

/// Live per-request trace state, shared between the connection handler
/// and the batch worker via `Arc`.
#[derive(Debug)]
pub struct TraceCtx {
    trace_id: TraceId,
    root: SpanId,
    remote_parent: Option<SpanId>,
    sampled: bool,
    start_ns: u64,
    spans: Mutex<Vec<TraceSpan>>,
}

impl TraceCtx {
    /// Starts a trace for one request. A parseable `traceparent` header
    /// is adopted (id, remote parent, sampled flag); anything else
    /// starts a fresh unsampled trace.
    pub fn begin(traceparent: Option<&str>) -> Arc<Self> {
        let (trace_id, remote_parent, sampled) = match traceparent.and_then(parse_traceparent) {
            Some(tp) => (tp.trace_id, Some(tp.parent), tp.sampled),
            None => (new_trace_id(), None, false),
        };
        Arc::new(Self {
            trace_id,
            root: new_span_id(),
            remote_parent,
            sampled,
            start_ns: crate::now_ns(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// The trace id every response header and log line carries.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// The root (`request`) span id — the parent of ordinary spans.
    pub fn root_span(&self) -> SpanId {
        self.root
    }

    /// Trace start on the [`crate::now_ns`] epoch.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// The `traceparent` value echoed on responses: our trace id, our
    /// root span as the parent id, the inbound sampled flag preserved.
    pub fn traceparent(&self) -> String {
        format_traceparent(self.trace_id, self.root, self.sampled)
    }

    /// Records a completed child-of-root span. Returns its id so later
    /// spans can nest under it.
    pub fn add_span(&self, name: &'static str, start_ns: u64, dur_ns: u64) -> SpanId {
        self.add_span_with(
            name,
            Some(self.root),
            start_ns,
            dur_ns,
            Vec::new(),
            Vec::new(),
        )
    }

    /// Records a completed span with an explicit parent, attributes,
    /// and batch links.
    pub fn add_span_with(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        dur_ns: u64,
        attrs: Vec<(&'static str, String)>,
        links: Vec<TraceId>,
    ) -> SpanId {
        let id = new_span_id();
        let span = TraceSpan {
            name,
            id,
            parent,
            start_ns,
            dur_ns,
            attrs,
            links,
        };
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
        id
    }

    /// Freezes the trace: synthesizes the root `request` span spanning
    /// the whole request, drains the recorded children, and returns the
    /// immutable record. Spans a worker adds after this point (e.g. a
    /// batch that finishes after the handler already timed the request
    /// out) are lost by design — the record mirrors what the client
    /// experienced.
    pub fn finish(&self, outcome: TraceOutcome, status: u16) -> TraceRecord {
        let dur_ns = crate::now_ns().saturating_sub(self.start_ns);
        let mut spans = self
            .spans
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default();
        spans.sort_by_key(|s| s.start_ns);
        spans.insert(
            0,
            TraceSpan {
                name: "request",
                id: self.root,
                parent: None,
                start_ns: self.start_ns,
                dur_ns,
                attrs: Vec::new(),
                links: Vec::new(),
            },
        );
        TraceRecord {
            trace_id: self.trace_id,
            root: self.root,
            remote_parent: self.remote_parent,
            sampled: self.sampled,
            outcome,
            status,
            start_ns: self.start_ns,
            dur_ns,
            spans,
        }
    }
}

/// One finished, immutable trace as retained by the recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// Root span id.
    pub root: SpanId,
    /// The inbound `traceparent` parent span, when one was supplied.
    pub remote_parent: Option<SpanId>,
    /// Inbound sampled flag (forces retention).
    pub sampled: bool,
    /// How the request ended.
    pub outcome: TraceOutcome,
    /// HTTP status answered.
    pub status: u16,
    /// Trace start on the [`crate::now_ns`] epoch.
    pub start_ns: u64,
    /// End-to-end duration in nanoseconds.
    pub dur_ns: u64,
    /// Root span first, children sorted by start time.
    pub spans: Vec<TraceSpan>,
}

impl TraceRecord {
    /// First span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the record as one `{"type":"trace",…}` JSON line (no
    /// trailing newline) — the shape shared by `/debug/traces`, run
    /// reports, and `rpm-cli obs traces`.
    pub fn to_jsonl_line(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"trace\",\"trace_id\":\"{}\",\"root\":\"{}\"",
            self.trace_id.to_hex(),
            self.root.to_hex()
        );
        if let Some(parent) = self.remote_parent {
            let _ = write!(out, ",\"remote_parent\":\"{}\"", parent.to_hex());
        }
        let _ = write!(
            out,
            ",\"outcome\":\"{}\",\"status\":{},\"sampled\":{},\"start_ns\":{},\"dur_ns\":{},\"spans\":[",
            self.outcome.as_str(),
            self.status,
            self.sampled,
            self.start_ns,
            self.dur_ns
        );
        for (i, span) in self.spans.iter().enumerate() {
            out.push_str(if i > 0 { ",{\"name\":" } else { "{\"name\":" });
            json::push_str(&mut out, span.name);
            let _ = write!(
                out,
                ",\"id\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}",
                span.id.to_hex(),
                span.parent
                    .map_or("null".to_string(), |p| format!("\"{}\"", p.to_hex())),
                span.start_ns,
                span.dur_ns
            );
            let attrs: Vec<String> = span
                .attrs
                .iter()
                .map(|(key, value)| format!("{}:{}", json::quote(key), json::quote(value)))
                .collect();
            if !attrs.is_empty() {
                let _ = write!(out, ",\"attrs\":{{{}}}", attrs.join(","));
            }
            let links: Vec<String> = span
                .links
                .iter()
                .map(|l| format!("\"{}\"", l.to_hex()))
                .collect();
            if !links.is_empty() {
                let _ = write!(out, ",\"links\":[{}]", links.join(","));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Records retained per ring before the oldest is overwritten.
const KEPT_SLOTS: usize = 192;
const SAMPLED_SLOTS: usize = 64;
/// 1 in this many unremarkable ok traces lands in the sampled ring.
const SAMPLE_EVERY: u64 = 16;
/// The slow-trace threshold is re-derived after this many records.
const REFRESH_EVERY: u64 = 32;

/// A fixed-size overwrite-oldest ring of trace records. Lock-light:
/// writers claim a slot with one atomic `fetch_add` and lock only that
/// slot, so two concurrent inserts contend only when the ring wraps
/// onto the same slot.
struct Ring {
    head: AtomicU64,
    slots: Vec<Mutex<Option<TraceRecord>>>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn push(&self, record: TraceRecord) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        if let Ok(mut cell) = self.slots[slot].lock() {
            *cell = Some(record);
        }
    }

    fn collect_into(&self, out: &mut Vec<TraceRecord>) {
        for slot in &self.slots {
            if let Ok(cell) = slot.lock() {
                if let Some(record) = cell.as_ref() {
                    out.push(record.clone());
                }
            }
        }
    }

    fn clear(&self) {
        self.head.store(0, Ordering::Relaxed);
        for slot in &self.slots {
            if let Ok(mut cell) = slot.lock() {
                *cell = None;
            }
        }
    }
}

/// The in-memory flight recorder: tail-based retention over two rings
/// (see the module docs for the policy).
pub struct FlightRecorder {
    kept: Ring,
    sampled: Ring,
    /// log₂ histogram of *all* finished-trace durations (retained or
    /// not), from which the slow threshold is derived.
    durations: [AtomicU64; HIST_BUCKETS],
    observed: AtomicU64,
    /// Durations at or above this are "slowest decile". Starts at
    /// `u64::MAX` (nothing is slow until the first refresh, which the
    /// first record triggers).
    slow_threshold_ns: AtomicU64,
    sample_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with explicit ring capacities (tests size it down to
    /// exercise wrap-around).
    pub fn with_capacity(kept_slots: usize, sampled_slots: usize) -> Self {
        Self {
            kept: Ring::new(kept_slots),
            sampled: Ring::new(sampled_slots),
            durations: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            observed: AtomicU64::new(0),
            slow_threshold_ns: AtomicU64::new(u64::MAX),
            sample_seq: AtomicU64::new(0),
        }
    }

    /// The duration at or above which a trace currently counts as
    /// "slowest decile" (`u64::MAX` until the first record).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Applies the retention policy to one finished trace. Returns
    /// `true` when the trace was retained (callers record exemplars
    /// only for retained traces so exemplar ids always resolve here).
    pub fn record(&self, record: TraceRecord) -> bool {
        let dur = record.dur_ns;
        self.durations[bucket_index(dur)].fetch_add(1, Ordering::Relaxed);
        let total = self.observed.fetch_add(1, Ordering::Relaxed) + 1;
        if total % REFRESH_EVERY == 1 || REFRESH_EVERY == 1 {
            self.refresh_threshold();
        }
        let m = crate::metrics();
        let forensic = record.outcome != TraceOutcome::Ok || record.sampled;
        if forensic || dur >= self.slow_threshold_ns.load(Ordering::Relaxed) {
            m.trace_recorded.inc();
            self.kept.push(record);
            return true;
        }
        if self
            .sample_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            m.trace_recorded.inc();
            self.sampled.push(record);
            return true;
        }
        m.trace_dropped.inc();
        false
    }

    /// Recomputes the slow threshold as the lower bound of the log₂
    /// bucket holding the p90 duration — everything in or above that
    /// bucket is retained, so the policy keeps *at least* the slowest
    /// decile (more when the p90 bucket is wide).
    fn refresh_threshold(&self) {
        let counts: Vec<u64> = self
            .durations
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return;
        }
        let target = (total * 9).div_ceil(10);
        let mut below = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            below += n;
            if below >= target {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                self.slow_threshold_ns.store(lower, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Every retained trace, newest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        self.kept.collect_into(&mut out);
        self.sampled.collect_into(&mut out);
        out.sort_by_key(|r| std::cmp::Reverse(r.start_ns));
        out
    }

    /// Looks up one retained trace by id.
    pub fn find(&self, trace_id: TraceId) -> Option<TraceRecord> {
        self.snapshot().into_iter().find(|r| r.trace_id == trace_id)
    }

    /// Drops every retained trace and resets the retention state
    /// (tests and report boundaries).
    pub fn clear(&self) {
        self.kept.clear();
        self.sampled.clear();
        for b in &self.durations {
            b.store(0, Ordering::Relaxed);
        }
        self.observed.store(0, Ordering::Relaxed);
        self.slow_threshold_ns.store(u64::MAX, Ordering::Relaxed);
        self.sample_seq.store(0, Ordering::Relaxed);
    }
}

/// The process-global flight recorder behind `/debug/traces`.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder::with_capacity(KEPT_SLOTS, SAMPLED_SLOTS))
}

/// One exemplar: the latest retained trace observed in a histogram
/// bucket, with the observed value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The retained trace's id.
    pub trace_id: TraceId,
    /// The observed value (nanoseconds for `*_ns` histograms).
    pub value: u64,
}

/// Histograms that carry exemplars. Fixed at compile time so the store
/// is a flat array without a registry lookup on the hot path.
const EXEMPLAR_HISTOGRAMS: [&str; 2] = ["serve.latency_ns", "serve.queue_wait_ns"];

fn exemplar_store() -> &'static [[Mutex<Option<Exemplar>>; HIST_BUCKETS]; 2] {
    static STORE: OnceLock<[[Mutex<Option<Exemplar>>; HIST_BUCKETS]; 2]> = OnceLock::new();
    STORE.get_or_init(|| std::array::from_fn(|_| std::array::from_fn(|_| Mutex::new(None))))
}

/// Attaches `trace_id` as the exemplar for the bucket of `histogram`
/// that `value` falls into (last write wins). Only call for traces the
/// recorder retained. Unknown histogram names are ignored.
pub fn record_exemplar(histogram: &str, value: u64, trace_id: TraceId) {
    let Some(h) = EXEMPLAR_HISTOGRAMS.iter().position(|n| *n == histogram) else {
        return;
    };
    if let Ok(mut cell) = exemplar_store()[h][bucket_index(value)].lock() {
        *cell = Some(Exemplar { trace_id, value });
    }
}

/// The exemplar for `histogram`'s bucket with the given exclusive
/// upper bound, if one was recorded (`upper` as rendered by
/// [`crate::metrics::HistogramSnapshot`]: 0 for the zero bucket,
/// otherwise a power of two).
pub fn exemplar_for(histogram: &str, upper: u64) -> Option<Exemplar> {
    let h = EXEMPLAR_HISTOGRAMS.iter().position(|n| *n == histogram)?;
    let bucket = if upper == 0 {
        0
    } else if upper.is_power_of_two() {
        (upper.trailing_zeros() as usize).min(HIST_BUCKETS - 1)
    } else {
        return None;
    };
    *exemplar_store()[h][bucket].lock().ok()?
}

/// Clears every recorded exemplar (report boundaries and tests).
pub fn clear_exemplars() {
    for row in exemplar_store() {
        for cell in row {
            if let Ok(mut slot) = cell.lock() {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with(outcome: TraceOutcome, dur_ns: u64, sampled: bool) -> TraceRecord {
        let ctx = TraceCtx::begin(None);
        let mut rec = ctx.finish(outcome, 200);
        rec.dur_ns = dur_ns;
        rec.sampled = sampled;
        rec
    }

    #[test]
    fn traceparent_parses_and_round_trips() {
        let header = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
        let tp = parse_traceparent(header).expect("valid header");
        assert_eq!(tp.trace_id.to_hex(), "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(tp.parent.to_hex(), "00f067aa0ba902b7");
        assert!(tp.sampled);
        assert_eq!(
            format_traceparent(tp.trace_id, tp.parent, tp.sampled),
            header
        );
    }

    #[test]
    fn traceparent_rejects_malformed_headers() {
        for bad in [
            "",
            "00",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
            "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
            "00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01", // short trace id
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 extras
            "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        ] {
            assert!(parse_traceparent(bad).is_none(), "{bad:?} must not parse");
        }
        // A future version may carry extra fields.
        assert!(parse_traceparent(
            "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"
        )
        .is_some());
    }

    #[test]
    fn generated_ids_are_nonzero_and_distinct() {
        let a = TraceCtx::begin(None);
        let b = TraceCtx::begin(None);
        assert_ne!(a.trace_id(), b.trace_id());
        assert_ne!(a.root_span(), b.root_span());
        assert_ne!(a.trace_id().0, 0);
        assert!(TraceId::from_hex(&a.trace_id().to_hex()) == Some(a.trace_id()));
    }

    #[test]
    fn finish_synthesizes_the_root_span_and_sorts_children() {
        let ctx = TraceCtx::begin(None);
        let t0 = ctx.start_ns();
        ctx.add_span("respond", t0 + 100, 5);
        ctx.add_span("parse", t0 + 1, 2);
        let rec = ctx.finish(TraceOutcome::Ok, 200);
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "parse", "respond"]);
        assert_eq!(rec.spans[0].id, rec.root);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(rec.root));
        // Finish drained the spans: a second finish only has the root.
        assert_eq!(ctx.finish(TraceOutcome::Ok, 200).spans.len(), 1);
    }

    #[test]
    fn jsonl_line_carries_ids_attrs_and_links() {
        let ctx = TraceCtx::begin(Some(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        ));
        let other = TraceId(7);
        let batch = ctx.add_span_with(
            "batch",
            Some(ctx.root_span()),
            ctx.start_ns(),
            10,
            vec![("batch", "3".to_string()), ("note", "a\"b".to_string())],
            vec![other],
        );
        ctx.add_span_with(
            "predict",
            Some(batch),
            ctx.start_ns(),
            8,
            Vec::new(),
            Vec::new(),
        );
        let line = ctx.finish(TraceOutcome::Deadline, 504).to_jsonl_line();
        assert!(line.starts_with("{\"type\":\"trace\""), "{line}");
        assert!(
            line.contains("\"trace_id\":\"4bf92f3577b34da6a3ce929d0e0e4736\""),
            "{line}"
        );
        assert!(
            line.contains("\"remote_parent\":\"00f067aa0ba902b7\""),
            "{line}"
        );
        assert!(
            line.contains("\"outcome\":\"deadline\",\"status\":504"),
            "{line}"
        );
        assert!(
            line.contains(&format!("\"links\":[\"{}\"]", other.to_hex())),
            "{line}"
        );
        assert!(
            line.contains("\"attrs\":{\"batch\":\"3\",\"note\":\"a\\\"b\"}"),
            "{line}"
        );
        assert!(line.contains("\"sampled\":true"), "{line}");
    }

    #[test]
    fn retention_keeps_failures_and_the_slow_tail() {
        let rec = FlightRecorder::with_capacity(16, 8);
        // Seed the duration distribution: mostly-fast ok traffic.
        for _ in 0..40 {
            rec.record(record_with(TraceOutcome::Ok, 1_000, false));
        }
        assert!(
            rec.slow_threshold_ns() <= 2048,
            "{}",
            rec.slow_threshold_ns()
        );
        // Failures are always retained, however fast.
        assert!(rec.record(record_with(TraceOutcome::Shed, 10, false)));
        assert!(rec.record(record_with(TraceOutcome::Deadline, 10, false)));
        // Sampled-flag traces are always retained.
        assert!(rec.record(record_with(TraceOutcome::Ok, 10, true)));
        // A slow ok trace is retained.
        assert!(rec.record(record_with(TraceOutcome::Ok, 50_000_000, false)));
        let snap = rec.snapshot();
        assert!(snap.iter().any(|r| r.outcome == TraceOutcome::Shed));
        assert!(snap.iter().any(|r| r.dur_ns == 50_000_000));
    }

    #[test]
    fn ok_traffic_is_sampled_not_stored_wholesale() {
        let rec = FlightRecorder::with_capacity(64, 64);
        // Identical durations: after the first refresh the shared
        // bucket's lower bound is the threshold, so these all count as
        // "slow". Use durations *below* the first bucket's lower bound
        // by spreading: fast ones after a slow seed.
        for _ in 0..32 {
            rec.record(record_with(TraceOutcome::Ok, 1 << 20, false));
        }
        // Threshold now sits near 2^19; these fast traces miss it and
        // only 1 in SAMPLE_EVERY is retained.
        let kept = (0..64)
            .filter(|_| rec.record(record_with(TraceOutcome::Ok, 100, false)))
            .count();
        assert!((2..=8).contains(&kept), "sampled {kept} of 64");
    }

    #[test]
    fn rings_overwrite_oldest_under_contention() {
        let rec = FlightRecorder::with_capacity(8, 4);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..100 {
                        // Errors: always retained, so every push lands
                        // in the kept ring and wrap-around is constant.
                        rec.record(record_with(TraceOutcome::Error, t * 1000 + i, false));
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert!(snap.len() <= 8, "kept ring bounded, got {}", snap.len());
        assert!(!snap.is_empty());
        // Every surviving record is intact (root span present, id well
        // formed) — no torn writes.
        for r in &snap {
            assert_eq!(r.spans[0].name, "request");
            assert_eq!(r.spans[0].id, r.root);
            assert_eq!(r.trace_id.to_hex().len(), 32);
        }
    }

    #[test]
    fn find_and_clear_work() {
        let rec = FlightRecorder::with_capacity(8, 4);
        let record = record_with(TraceOutcome::Error, 42, false);
        let id = record.trace_id;
        rec.record(record);
        assert_eq!(rec.find(id).map(|r| r.dur_ns), Some(42));
        rec.clear();
        assert!(rec.find(id).is_none());
        assert_eq!(rec.slow_threshold_ns(), u64::MAX);
    }

    #[test]
    fn exemplars_land_in_value_buckets_and_clear() {
        let _g = crate::test_lock();
        clear_exemplars();
        let id = TraceId(0xabc);
        record_exemplar("serve.latency_ns", 1500, id);
        // 1500 ∈ [1024, 2048) → upper bound 2048.
        let ex = exemplar_for("serve.latency_ns", 2048).expect("exemplar");
        assert_eq!(ex.trace_id, id);
        assert_eq!(ex.value, 1500);
        assert!(exemplar_for("serve.latency_ns", 4096).is_none());
        assert!(exemplar_for("serve.queue_wait_ns", 2048).is_none());
        assert!(exemplar_for("nope", 2048).is_none());
        // Zero bucket and non-power-of-two uppers.
        record_exemplar("serve.latency_ns", 0, id);
        assert!(exemplar_for("serve.latency_ns", 0).is_some());
        assert!(exemplar_for("serve.latency_ns", 3).is_none());
        clear_exemplars();
        assert!(exemplar_for("serve.latency_ns", 2048).is_none());
    }
}
