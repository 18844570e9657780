//! Span timers: RAII guards measuring one pipeline stage each.
//!
//! A span is entered with [`enter`] (or the `span!` macro) and recorded
//! when its guard drops. Nesting is tracked per thread: each thread keeps
//! its own stack of open span names, so a stage entered inside another
//! stage records the path `outer/inner`. Finished records accumulate in a
//! per-thread buffer and are flushed to the global collector whenever the
//! thread's stack unwinds to empty — one lock acquisition per top-level
//! stage, never one per span. A worker thread that runs jobs on behalf of
//! another thread [`adopt`]s that thread's [`open_path`], so its spans
//! land under the same paths as the jobs the caller runs itself. The
//! report layer merges records *by path*, which is commutative, so the
//! aggregated stage tree is identical no matter how the scoped worker
//! threads interleave. Spans only observe; they never feed back into the
//! computation, so instrumented training runs stay bit-identical to
//! uninstrumented ones.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Full nesting path, `/`-joined (e.g. `train/params/eval`).
    pub path: String,
    /// The span's own name (last path segment).
    pub name: &'static str,
    /// Nesting depth on its thread (0 = top-level stage).
    pub depth: u32,
    /// Ordinal of the recording thread (0 = first thread that recorded).
    pub thread: u64,
    /// Start, in nanoseconds since the observability epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End timestamp (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

struct ThreadState {
    ordinal: u64,
    stack: Vec<&'static str>,
    done: Vec<SpanRecord>,
}

impl ThreadState {
    fn new() -> Self {
        Self {
            ordinal: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            done: Vec::new(),
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        // A worker thread exiting with buffered records (possible only if
        // a guard was leaked) still contributes them.
        if !self.done.is_empty() {
            flush(&mut self.done);
        }
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static COLLECTOR: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

fn flush(buffer: &mut Vec<SpanRecord>) {
    if let Ok(mut all) = collector().lock() {
        all.append(buffer);
    } else {
        buffer.clear();
    }
}

/// RAII guard for one span; the stage is recorded when it drops. Guards
/// must drop in LIFO order on their thread (the natural order of nested
/// scopes) — do not `mem::forget` one or move it to another thread.
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    active: bool,
}

/// Opens a span named `name`. Returns an inert guard (no clock read, no
/// allocation, no lock) unless span recording is enabled.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::spans_enabled() {
        return SpanGuard {
            name,
            start_ns: 0,
            active: false,
        };
    }
    let start_ns = crate::now_ns();
    STATE.with(|s| s.borrow_mut().stack.push(name));
    SpanGuard {
        name,
        start_ns,
        active: true,
    }
}

/// Opens a span: `let _guard = rpm_obs::span!("stage");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = crate::now_ns();
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            // Unwind to this guard's own frame; intermediate names can
            // only linger if a nested guard was leaked.
            while let Some(top) = st.stack.pop() {
                if top == self.name {
                    break;
                }
            }
            let depth = st.stack.len() as u32;
            let path = if st.stack.is_empty() {
                self.name.to_string()
            } else {
                let mut p = st.stack.join("/");
                p.push('/');
                p.push_str(self.name);
                p
            };
            let record = SpanRecord {
                path,
                name: self.name,
                depth,
                thread: st.ordinal,
                start_ns: self.start_ns,
                dur_ns: end_ns.saturating_sub(self.start_ns),
            };
            st.done.push(record);
            if st.stack.is_empty() {
                let mut drained = std::mem::take(&mut st.done);
                flush(&mut drained);
            }
        });
    }
}

/// The calling thread's open span names, outermost first (empty while
/// span recording is off). Hand it to [`adopt`] on a worker thread.
pub fn open_path() -> Vec<&'static str> {
    if !crate::spans_enabled() {
        return Vec::new();
    }
    STATE.with(|s| s.borrow().stack.clone())
}

/// Continues `path` — another thread's [`open_path`] — on this thread:
/// while the guard lives, spans opened here record under `path`, at the
/// depth they would have on the thread that owns it. The adopted entries
/// themselves record nothing, since their owner records them. Dropping
/// the guard removes them and flushes this thread's finished records, so
/// they reach the collector before a scoped worker is joined.
pub fn adopt(path: &[&'static str]) -> AdoptGuard {
    let base = STATE.with(|s| {
        let mut st = s.borrow_mut();
        let base = st.stack.len();
        st.stack.extend_from_slice(path);
        base
    });
    AdoptGuard { base }
}

/// Guard returned by [`adopt`]; drop it on the thread that adopted.
#[must_use = "the adopted path lasts as long as the guard"]
pub struct AdoptGuard {
    base: usize,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            st.stack.truncate(self.base);
            if st.stack.is_empty() && !st.done.is_empty() {
                let mut drained = std::mem::take(&mut st.done);
                flush(&mut drained);
            }
        });
    }
}

/// Copies every recorded span without draining (used by
/// `report::snapshot`).
pub fn peek_records() -> Vec<SpanRecord> {
    let mut out = collector().lock().map(|v| v.clone()).unwrap_or_default();
    STATE.with(|s| {
        out.extend(s.borrow().done.iter().cloned());
    });
    out
}

/// Drains every recorded span: the global collector plus the calling
/// thread's unflushed buffer (useful when the caller still holds open
/// spans). Called by `report::finish`.
pub fn take_records() -> Vec<SpanRecord> {
    let mut out = collector()
        .lock()
        .map(|mut v| std::mem::take(&mut *v))
        .unwrap_or_default();
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        out.append(&mut st.done);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, ObsLevel};

    fn with_spans_on<T>(f: impl FnOnce() -> T) -> T {
        // Tests in this crate share the global level; serialize them.
        let _g = crate::test_lock();
        ObsConfig {
            level: ObsLevel::Spans,
            json_path: None,
            http_addr: None,
        }
        .install();
        take_records(); // drop stale records from other tests
        let out = f();
        ObsConfig::default().install();
        out
    }

    #[test]
    fn nested_spans_record_paths_and_order() {
        let records = with_spans_on(|| {
            {
                let _a = enter("outer");
                {
                    let _b = enter("inner");
                    let _c = enter("leaf");
                }
                let _d = enter("sibling");
            }
            take_records()
        });
        let paths: Vec<&str> = records.iter().map(|r| r.path.as_str()).collect();
        // Completion (drop) order: leaf, inner, sibling, outer.
        assert_eq!(
            paths,
            vec!["outer/inner/leaf", "outer/inner", "outer/sibling", "outer"]
        );
        let outer = records.last().unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(records[0].depth, 2);
        // A parent starts no later and ends no earlier than its children.
        for child in &records[..3] {
            assert!(outer.start_ns <= child.start_ns, "{child:?}");
            assert!(outer.end_ns() >= child.end_ns(), "{child:?}");
            assert_eq!(child.thread, outer.thread);
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // Default level is Off in this scope.
        let records = with_spans_on(|| {
            ObsConfig::default().install();
            {
                let _a = enter("ghost");
            }
            take_records()
        });
        assert!(records.is_empty(), "{records:?}");
    }

    #[test]
    fn worker_threads_record_independent_stacks() {
        let records = with_spans_on(|| {
            let _root = enter("root");
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _w = enter("worker");
                        let _j = enter("job");
                    });
                }
            });
            drop(_root);
            take_records()
        });
        // Worker spans are their own roots — thread stacks are private.
        let workers = records.iter().filter(|r| r.path == "worker").count();
        let jobs = records.iter().filter(|r| r.path == "worker/job").count();
        assert_eq!(workers, 4);
        assert_eq!(jobs, 4);
        assert!(records.iter().any(|r| r.path == "root" && r.depth == 0));
        // Per-thread ordinals distinguish the four workers.
        let threads: std::collections::BTreeSet<u64> = records
            .iter()
            .filter(|r| r.path == "worker")
            .map(|r| r.thread)
            .collect();
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn adopted_paths_nest_worker_spans_under_the_caller() {
        let records = with_spans_on(|| {
            let _root = enter("root");
            let _stage = enter("stage");
            let path = open_path();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _adopted = adopt(&path);
                        let _j = enter("job");
                    });
                }
            });
            {
                let _j = enter("job");
            }
            drop(_stage);
            drop(_root);
            take_records()
        });
        let paths: Vec<&str> = records.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths.iter().filter(|p| **p == "root/stage/job").count(),
            3,
            "{paths:?}"
        );
        assert!(records.iter().all(|r| r.path != "job"), "{paths:?}");
        // The adopted entries record nothing: one root, one stage.
        assert_eq!(paths.iter().filter(|p| **p == "root").count(), 1);
        assert_eq!(paths.iter().filter(|p| **p == "root/stage").count(), 1);
        for r in records.iter().filter(|r| r.name == "job") {
            assert_eq!(r.depth, 2, "{r:?}");
        }
    }

    #[test]
    fn durations_are_monotone_and_bounded() {
        let records = with_spans_on(|| {
            {
                let _a = enter("timed");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            take_records()
        });
        assert_eq!(records.len(), 1);
        assert!(records[0].dur_ns >= 1_000_000, "{:?}", records[0]);
    }
}
