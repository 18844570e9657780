//! Validates a JSONL run report emitted by `rpm_obs::finish()`.
//!
//! Used by CI after running the quickstart example with
//! `RPM_LOG=spans,json=rpm-report.jsonl`:
//!
//! ```sh
//! cargo run --release -p rpm-obs --example validate -- rpm-report.jsonl
//! ```
//!
//! Exits non-zero unless `validate_jsonl` accepts the report (a meta
//! line, non-empty spans with monotone timestamps inside wall time,
//! every cache line satisfying `hits + misses == lookups`, every
//! histogram line satisfying the bucket invariants, reconciled match and
//! CFS counters) and its `engine.jobs` counter is populated.

use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate <report.jsonl>");
        return ExitCode::from(2);
    };
    match rpm_obs::validate_jsonl(&path) {
        Ok(check) => {
            println!(
                "{path}: OK — {} lines, {} spans, {} stages, {} counters, {} cache families, \
                 {} histograms, {} logs, {} traces, wall {:.3}s, root-stage coverage {:.1}%",
                check.lines,
                check.spans,
                check.stages.len(),
                check.counters.len(),
                check.caches.len(),
                check.histograms.len(),
                check.logs,
                check.traces,
                check.wall_ns as f64 / 1e9,
                100.0 * check.coverage,
            );
            if check.traces > 0 {
                println!(
                    "{path}: {} trace(s) passed the span-tree invariants \
                     (parents resolve, batch links resolve, spans inside their trace)",
                    check.traces
                );
            }
            if !check.histograms.is_empty() {
                println!(
                    "{path}: {} histogram(s) passed the bucket invariants \
                     (count == Σ buckets, ascending bounds, bounded sum)",
                    check.histograms.len()
                );
            }
            match check.counter("engine.jobs") {
                Some(jobs) if jobs > 0 => {
                    println!("{path}: engine.jobs = {jobs}");
                    ExitCode::SUCCESS
                }
                other => {
                    eprintln!("{path}: engine.jobs not populated (got {other:?})");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("INVALID — {e}");
            ExitCode::FAILURE
        }
    }
}
