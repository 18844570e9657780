//! Prometheus text exposition of the metrics registry.
//!
//! Renders a [`MetricsSnapshot`] in the Prometheus text format
//! (version 0.0.4) for scraping via the [`crate::http`] endpoint or for
//! dumping to a file. Mapping from the internal dotted names:
//!
//! * every metric is prefixed `rpm_` and dots become underscores;
//! * counters gain the conventional `_total` suffix
//!   (`engine.jobs` → `rpm_engine_jobs_total`);
//! * gauges keep their flattened name (`serve.queue_depth` →
//!   `rpm_serve_queue_depth`);
//! * cache families collapse into three labeled counters
//!   (`rpm_cache_hits_total{family="frames"}`, …misses…, …evictions…);
//! * dynamic labeled counters split their trailing `key=value` segment
//!   into a label (`cfs.survivors.class=3` →
//!   `rpm_cfs_survivors_total{class="3"}`); a family that shares a
//!   static counter's name renders right after that counter, so each
//!   name has one `# TYPE` line and one contiguous group;
//! * histograms render the full conventional triple: cumulative
//!   `_bucket{le="…"}` series ending in `le="+Inf"`, plus `_sum` and
//!   `_count`. Bucket bounds are the registry's log₂ upper bounds,
//!   *inclusive* in Prometheus semantics — the internal buckets are
//!   `[2^(i-1), 2^i)`, so `le="2^i - 1"` would be exact; we emit the
//!   power of two itself, which over-covers each bucket by exactly one
//!   nanosecond and keeps the bounds recognizable.
//!
//! The exposition is pull-model and read-only: rendering never mutates
//! the registry, so scrapes cannot perturb a run.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write;

/// Renders `snap` in Prometheus text exposition format 0.0.4.
///
/// Families with zero activity are skipped (except `_count`-bearing
/// histogram triples, which render whenever they have observations), so
/// a fresh process exposes a short page rather than forty zero lines.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    // A labeled family that shares a rendered static counter's name joins
    // that counter's group, under its one TYPE line.
    for &(name, value) in &snap.counters {
        if value == 0 {
            continue;
        }
        let flat = flatten(name);
        let _ = writeln!(out, "# TYPE rpm_{flat}_total counter");
        let _ = writeln!(out, "rpm_{flat}_total {value}");
        for (labeled, value) in &snap.labeled {
            let (family, label) = split_label(labeled);
            if family == name {
                push_labeled(&mut out, &flat, label, *value);
            }
        }
    }

    for &(name, value) in &snap.gauges {
        if value == 0 {
            continue;
        }
        let flat = flatten(name);
        let _ = writeln!(out, "# TYPE rpm_{flat} gauge");
        let _ = writeln!(out, "rpm_{flat} {value}");
    }

    if snap.cache.iter().any(|(_, h, m, e)| h + m + e > 0) {
        for (kind, pick) in [("hits", 0usize), ("misses", 1), ("evictions", 2)] {
            let _ = writeln!(out, "# TYPE rpm_cache_{kind}_total counter");
            for &(family, h, m, e) in &snap.cache {
                if h + m + e == 0 {
                    continue;
                }
                let value = [h, m, e][pick];
                let _ = writeln!(
                    out,
                    "rpm_cache_{kind}_total{{family=\"{}\"}} {value}",
                    escape_label(family)
                );
            }
        }
    }

    // The remaining labeled families, each under one TYPE line (the
    // snapshot is sorted by name, so a family's entries are contiguous).
    let grouped = |family: &str| snap.counters.iter().any(|&(n, v)| v > 0 && n == family);
    let mut last_family = String::new();
    for (name, value) in &snap.labeled {
        let (family, label) = split_label(name);
        if grouped(&family) {
            continue;
        }
        let flat = flatten(&family);
        if family != last_family {
            let _ = writeln!(out, "# TYPE rpm_{flat}_total counter");
            last_family = family;
        }
        push_labeled(&mut out, &flat, label, *value);
    }

    for (name, hist) in &snap.histograms {
        if hist.count == 0 {
            continue;
        }
        push_histogram(&mut out, name, hist);
    }

    out
}

/// One `rpm_<flat>_total` sample of a labeled counter.
fn push_labeled(out: &mut String, flat: &str, label: Option<(String, String)>, value: u64) {
    match label {
        Some((key, val)) => {
            let _ = writeln!(
                out,
                "rpm_{flat}_total{{{key}=\"{}\"}} {value}",
                escape_label(&val)
            );
        }
        None => {
            let _ = writeln!(out, "rpm_{flat}_total {value}");
        }
    }
}

/// Renders a [`crate::drift::DriftReport`] as `rpm_drift_*` gauges for
/// the same exposition page. Scores are float gauges labeled by metric;
/// `rpm_drift_status` encodes the overall verdict ordinally
/// (0 unavailable, 1 warming, 2 ok, 3 warn, 4 page) so a single alert
/// rule (`rpm_drift_status >= 3`) covers every metric. Renders nothing
/// while no monitor is attached — an offline training run's scrape page
/// stays free of serving-only families.
pub fn drift_to_prometheus(report: &crate::drift::DriftReport) -> String {
    use crate::drift::DriftStatus;
    let mut out = String::new();
    if report.status == DriftStatus::Unavailable {
        return out;
    }
    let status_code = match report.status {
        DriftStatus::Unavailable => 0,
        DriftStatus::Warming => 1,
        DriftStatus::Ok => 2,
        DriftStatus::Warn => 3,
        DriftStatus::Page => 4,
    };
    let _ = writeln!(out, "# TYPE rpm_drift_status gauge");
    let _ = writeln!(out, "rpm_drift_status {status_code}");
    let _ = writeln!(out, "# TYPE rpm_drift_samples gauge");
    let _ = writeln!(out, "rpm_drift_samples {}", report.live_samples);
    if !report.metrics.is_empty() {
        let _ = writeln!(out, "# TYPE rpm_drift_psi gauge");
        for m in &report.metrics {
            let _ = writeln!(
                out,
                "rpm_drift_psi{{metric=\"{}\"}} {:.6}",
                escape_label(m.metric),
                m.psi
            );
        }
        let _ = writeln!(out, "# TYPE rpm_drift_ks gauge");
        for m in &report.metrics {
            if let Some(ks) = m.ks {
                let _ = writeln!(
                    out,
                    "rpm_drift_ks{{metric=\"{}\"}} {ks:.6}",
                    escape_label(m.metric)
                );
            }
        }
    }
    out
}

fn push_histogram(out: &mut String, name: &str, hist: &HistogramSnapshot) {
    let flat = flatten(name);
    let _ = writeln!(out, "# TYPE rpm_{flat} histogram");
    let mut cumulative = 0u64;
    for &(upper, n) in &hist.buckets {
        cumulative += n;
        let _ = write!(out, "rpm_{flat}_bucket{{le=\"{upper}\"}} {cumulative}");
        // OpenMetrics-style exemplar: the latest *retained* trace whose
        // observation fell in this bucket, so the id always resolves
        // against the flight recorder (`/debug/traces`).
        if let Some(ex) = crate::trace::exemplar_for(name, upper) {
            let _ = write!(
                out,
                " # {{trace_id=\"{}\"}} {}",
                ex.trace_id.to_hex(),
                ex.value
            );
        }
        out.push('\n');
    }
    let _ = writeln!(out, "rpm_{flat}_bucket{{le=\"+Inf\"}} {}", hist.count);
    let _ = writeln!(out, "rpm_{flat}_sum {}", hist.sum);
    let _ = writeln!(out, "rpm_{flat}_count {}", hist.count);
}

/// `engine.jobs` → `engine_jobs`.
fn flatten(name: &str) -> String {
    name.replace(['.', '-'], "_")
}

/// Splits a labeled-counter name on its trailing `.key=value` segment:
/// `cfs.survivors.class=3` → (`cfs.survivors`, Some(("class", "3"))).
/// Names without a `key=value` tail pass through unlabeled.
fn split_label(name: &str) -> (String, Option<(String, String)>) {
    if let Some(eq) = name.rfind('=') {
        if let Some(dot) = name[..eq].rfind('.') {
            let family = name[..dot].to_string();
            let key = flatten(&name[dot + 1..eq]);
            let value = name[eq + 1..].to_string();
            if !family.is_empty() && !key.is_empty() {
                return (family, Some((key, value)));
            }
        }
    }
    (name.to_string(), None)
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("engine.jobs", 12),
                ("mine.rules", 0),
                ("cfs.survivors", 13),
            ],
            gauges: vec![("serve.queue_depth", 4)],
            cache: vec![("words", 7, 3, 0), ("grammar", 0, 0, 0)],
            histograms: vec![(
                "predict.latency_ns",
                HistogramSnapshot {
                    count: 3,
                    sum: 2100,
                    buckets: vec![(1024, 2), (2048, 1)],
                },
            )],
            labeled: vec![
                ("cfs.survivors.class=0".to_string(), 5),
                ("cfs.survivors.class=1".to_string(), 8),
            ],
        }
    }

    #[test]
    fn counters_gauges_and_caches_render() {
        let text = to_prometheus(&sample_snapshot());
        assert!(
            text.contains("# TYPE rpm_engine_jobs_total counter"),
            "{text}"
        );
        assert!(text.contains("rpm_engine_jobs_total 12"), "{text}");
        // Zero counters and idle cache families are skipped.
        assert!(!text.contains("mine_rules"), "{text}");
        assert!(!text.contains("family=\"grammar\""), "{text}");
        assert!(text.contains("rpm_serve_queue_depth 4"), "{text}");
        assert!(
            text.contains("rpm_cache_hits_total{family=\"words\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("rpm_cache_misses_total{family=\"words\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn labeled_counters_split_into_labels() {
        let text = to_prometheus(&sample_snapshot());
        assert!(
            text.contains("rpm_cfs_survivors_total{class=\"0\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("rpm_cfs_survivors_total{class=\"1\"} 8"),
            "{text}"
        );
        // One TYPE line for the family, not one per label, and none of
        // its own next to the static counter of the same name.
        assert_eq!(
            text.matches("# TYPE rpm_cfs_survivors_total").count(),
            1,
            "{text}"
        );
        // The static counter and its labeled series form one contiguous
        // group right under that TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        let at = lines
            .iter()
            .position(|l| *l == "# TYPE rpm_cfs_survivors_total counter")
            .expect("TYPE line");
        let group: Vec<&str> = lines[at + 1..]
            .iter()
            .take_while(|l| l.starts_with("rpm_cfs_survivors_total"))
            .copied()
            .collect();
        assert_eq!(
            group,
            vec![
                "rpm_cfs_survivors_total 13",
                "rpm_cfs_survivors_total{class=\"0\"} 5",
                "rpm_cfs_survivors_total{class=\"1\"} 8",
            ],
            "{text}"
        );
        let series = lines
            .iter()
            .filter(|l| l.starts_with("rpm_cfs_survivors_total"))
            .count();
        assert_eq!(series, group.len(), "a series outside the group: {text}");
    }

    #[test]
    fn histograms_render_cumulative_buckets_sum_and_count() {
        let text = to_prometheus(&sample_snapshot());
        assert!(
            text.contains("# TYPE rpm_predict_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("rpm_predict_latency_ns_bucket{le=\"1024\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("rpm_predict_latency_ns_bucket{le=\"2048\"} 3"),
            "cumulative, not per-bucket: {text}"
        );
        assert!(
            text.contains("rpm_predict_latency_ns_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("rpm_predict_latency_ns_sum 2100"), "{text}");
        assert!(text.contains("rpm_predict_latency_ns_count 3"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_empty_page() {
        assert_eq!(to_prometheus(&MetricsSnapshot::default()), "");
    }

    #[test]
    fn exemplar_annotations_attach_to_their_bucket() {
        let _g = crate::test_lock();
        crate::trace::clear_exemplars();
        let id = crate::trace::TraceId(0x1234_5678);
        // 5 ns falls in the (4, 8] rendered bucket.
        crate::trace::record_exemplar("serve.latency_ns", 5, id);
        let snap = MetricsSnapshot {
            histograms: vec![(
                "serve.latency_ns",
                HistogramSnapshot {
                    count: 2,
                    sum: 1005,
                    buckets: vec![(8, 1), (1024, 1)],
                },
            )],
            ..MetricsSnapshot::default()
        };
        let text = to_prometheus(&snap);
        assert!(
            text.contains(&format!(
                "rpm_serve_latency_ns_bucket{{le=\"8\"}} 1 # {{trace_id=\"{}\"}} 5",
                id.to_hex()
            )),
            "{text}"
        );
        // The bucket without a recorded exemplar renders bare.
        assert!(
            text.contains("rpm_serve_latency_ns_bucket{le=\"1024\"} 2\n"),
            "{text}"
        );
        crate::trace::clear_exemplars();
    }

    #[test]
    fn drift_reports_render_as_gauges() {
        use crate::drift::{DriftReport, DriftStatus, MetricDrift};
        // Unavailable renders nothing at all.
        assert_eq!(drift_to_prometheus(&DriftReport::unavailable()), "");

        let report = DriftReport {
            status: DriftStatus::Warn,
            live_samples: 120,
            reference_samples: 500,
            window_secs: 240,
            epoch_secs: 30,
            epochs: 8,
            warn: 0.2,
            page: 0.5,
            metrics: vec![
                MetricDrift {
                    metric: "match_distance",
                    psi: 0.31,
                    ks: Some(0.4),
                    verdict: DriftStatus::Warn,
                },
                MetricDrift {
                    metric: "class_mix",
                    psi: 0.01,
                    ks: None,
                    verdict: DriftStatus::Ok,
                },
            ],
        };
        let text = drift_to_prometheus(&report);
        assert!(text.contains("rpm_drift_status 3"), "{text}");
        assert!(text.contains("rpm_drift_samples 120"), "{text}");
        assert!(
            text.contains("rpm_drift_psi{metric=\"match_distance\"} 0.310000"),
            "{text}"
        );
        assert!(
            text.contains("rpm_drift_ks{metric=\"match_distance\"} 0.400000"),
            "{text}"
        );
        // The categorical mix has no KS series.
        assert!(
            !text.contains("rpm_drift_ks{metric=\"class_mix\"}"),
            "{text}"
        );
        assert_eq!(text.matches("# TYPE rpm_drift_psi gauge").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn split_label_handles_plain_names() {
        assert_eq!(
            split_label("plain.counter"),
            ("plain.counter".to_string(), None)
        );
        let (family, label) = split_label("cfs.survivors.class=3");
        assert_eq!(family, "cfs.survivors");
        assert_eq!(label, Some(("class".to_string(), "3".to_string())));
    }
}
