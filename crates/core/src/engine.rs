//! The shared training engine: a scoped work-stealing thread pool used by
//! every parallel stage of RPM training — per-class parameter search,
//! grid/DIRECT evaluations, validation splits, candidate mining, and
//! batch transforms.
//!
//! Design constraints (DESIGN.md §5, engineering guards):
//!
//! * **Bit-identical results.** Jobs are pure functions of their index;
//!   results are merged *by index*, never by completion order, so a run
//!   with `n` workers produces exactly the serial output. Reductions over
//!   engine output happen in index order in the callers.
//! * **No panicking joins.** A worker panic is caught and surfaced as an
//!   [`EngineError`] instead of poisoning the process (the seed code
//!   `expect`ed on crossbeam joins; that path is gone).
//! * **Std-only.** The caller and `std::thread::scope` threads pull job
//!   indices from a shared atomic counter — dynamic (work-stealing-like)
//!   scheduling without any external dependency, because the build
//!   environment is offline.
//! * **The caller is a worker.** A run with `n` workers spawns `n − 1`
//!   threads and runs jobs on the calling thread as well, which would
//!   otherwise only wait. Each spawned thread allocates from its own
//!   malloc arena, so a thread not spawned is memory not held (DESIGN.md
//!   §5 gives the peak-RSS measurement).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Failure inside an engine worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A job panicked; the payload message is preserved.
    WorkerPanicked(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerPanicked(msg) => write!(f, "engine worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Handle configuring how much parallelism a training stage may use.
///
/// The engine is a *policy*, not a persistent pool: each [`Engine::run`]
/// call runs jobs on the calling thread and on scoped threads it spawns
/// for its own job set, and joins them before returning, so borrowed
/// data flows into jobs freely. An engine with `n_threads <= 1` executes
/// jobs inline (and is what nested stages receive, so parallelism is
/// spent once, at the outermost stage that fans out).
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    n_threads: usize,
}

impl Engine {
    /// An engine using `n_threads` workers; `0` means one worker per
    /// available CPU.
    pub fn new(n_threads: usize) -> Self {
        let n = if n_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            n_threads
        };
        Self { n_threads: n }
    }

    /// The single-worker engine: jobs run inline on the caller's thread.
    pub fn serial() -> Self {
        Self { n_threads: 1 }
    }

    /// Number of workers this engine spends.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Whether [`Engine::run`] will spawn threads.
    pub fn is_parallel(&self) -> bool {
        self.n_threads > 1
    }

    /// Executes `job(0..n_jobs)` and returns the results in index order.
    ///
    /// With one worker (or fewer than two jobs) everything runs inline;
    /// otherwise the caller and `min(n_threads, n_jobs) − 1` scoped
    /// workers pull indices from a shared counter. Either way a panicking
    /// job yields `Err(EngineError::WorkerPanicked)` and the remaining
    /// jobs are abandoned.
    pub fn run<T, F>(&self, n_jobs: usize, job: F) -> Result<Vec<T>, EngineError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // Observability only reads clocks and bumps atomic counters; it
        // never influences scheduling, so instrumented runs return the
        // same bytes as uninstrumented ones.
        let obs = rpm_obs::enabled();
        if obs {
            rpm_obs::metrics().engine_runs.inc();
            rpm_obs::metrics().engine_jobs.add(n_jobs as u64);
        }
        // Fault site `engine.job`: an injected failure lands inside the
        // unwind boundary, so it surfaces as the same typed EngineError a
        // real job panic would.
        let guarded = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                rpm_obs::fault::fire("engine.job");
                job(i)
            }))
            .map_err(panic_error)
        };
        let n_workers = self.n_threads.min(n_jobs);
        if n_workers <= 1 {
            let t0 = obs.then(rpm_obs::now_ns);
            let out = (0..n_jobs).map(guarded).collect::<Result<Vec<T>, _>>()?;
            if let Some(t0) = t0 {
                rpm_obs::metrics()
                    .engine_drain
                    .observe(rpm_obs::now_ns().saturating_sub(t0));
            }
            return Ok(out);
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
        let failure: Mutex<Option<EngineError>> = Mutex::new(None);
        // One worker's loop; the caller runs it too.
        let work = || {
            let mut busy_ns = 0u64;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_jobs {
                    break;
                }
                if failure.lock().is_ok_and(|f| f.is_some()) {
                    break; // a sibling already failed; stop early
                }
                let job_t0 = obs.then(rpm_obs::now_ns);
                let outcome = guarded(i);
                if let Some(job_t0) = job_t0 {
                    busy_ns += rpm_obs::now_ns().saturating_sub(job_t0);
                }
                match outcome {
                    Ok(v) => {
                        if let Ok(mut slot) = slots[i].lock() {
                            *slot = Some(v);
                        }
                    }
                    Err(e) => {
                        if let Ok(mut f) = failure.lock() {
                            f.get_or_insert(e);
                        }
                        break;
                    }
                }
            }
            if busy_ns > 0 {
                rpm_obs::metrics().engine_busy_ns.add(busy_ns);
            }
        };

        let t0 = obs.then(rpm_obs::now_ns);
        // Spawned workers continue the caller's open span path, so a
        // job's stages land under the same paths wherever it runs.
        let path = rpm_obs::span::open_path();
        std::thread::scope(|scope| {
            for _ in 1..n_workers {
                scope.spawn(|| {
                    let _path = rpm_obs::span::adopt(&path);
                    work();
                });
            }
            work();
        });
        if let Some(t0) = t0 {
            let drain_ns = rpm_obs::now_ns().saturating_sub(t0);
            let m = rpm_obs::metrics();
            m.engine_drain.observe(drain_ns);
            // Utilization denominator: workers × fan-out wall time.
            m.engine_span_ns.add(drain_ns * n_workers as u64);
        }

        if let Ok(mut f) = failure.lock() {
            if let Some(err) = f.take() {
                return Err(err);
            }
        }
        let mut out = Vec::with_capacity(n_jobs);
        for slot in slots {
            match slot.into_inner() {
                Ok(Some(v)) => out.push(v),
                // Unreachable: every index below n_jobs is claimed by
                // exactly one worker and filled unless a failure was
                // recorded above.
                _ => {
                    return Err(EngineError::WorkerPanicked(
                        "worker exited without producing a result".into(),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// [`Engine::run`] over a slice: `job(index, &items[index])`.
    pub fn map<I, T, F>(&self, items: &[I], job: F) -> Result<Vec<T>, EngineError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run(items.len(), |i| job(i, &items[i]))
    }
}

/// Hands the heap memory a parallel training freed back to the operating
/// system. Each spawned engine thread allocates from its own malloc
/// arena, and a chunk freed into one arena serves only that arena's
/// later allocations, so over many trainings each arena held on to the
/// most that any one training had put in it (chiefly memo entries):
/// peak RSS grew by the sum of those maxima rather than by their
/// largest. Call it once a training has dropped its memo. A no-op
/// outside glibc.
pub(crate) fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` accepts any padding, is
        // thread-safe, and releases only pages the allocator holds free,
        // so no live allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A caught panic's payload as a typed error, keeping its message.
pub(crate) fn panic_error(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    EngineError::WorkerPanicked(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1usize, 2, 4, 16] {
            let engine = Engine::new(threads);
            let out = engine.run(100, |i| i * i).unwrap();
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn the_caller_runs_jobs_too() {
        // Each job holds its thread at a barrier until all three jobs
        // run, so each of three workers runs exactly one: the caller and
        // two spawned threads.
        let barrier = std::sync::Barrier::new(3);
        let caller = std::thread::current().id();
        let ran_on = Engine::new(3)
            .run(3, |_| {
                barrier.wait();
                std::thread::current().id()
            })
            .unwrap();
        assert!(ran_on.contains(&caller), "{ran_on:?}");
        let distinct: std::collections::HashSet<_> = ran_on.into_iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn zero_threads_means_auto() {
        let engine = Engine::new(0);
        assert!(engine.n_threads() >= 1);
    }

    #[test]
    fn empty_job_set_is_fine() {
        let out: Vec<usize> = Engine::new(4).run(0, |i| i).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn map_passes_items() {
        let items = vec!["a", "bb", "ccc"];
        let out = Engine::new(2).map(&items, |i, s| (i, s.len())).unwrap();
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn panics_become_errors_serial() {
        let err = Engine::serial()
            .run(3, |i| if i == 1 { panic!("boom {i}") } else { i })
            .unwrap_err();
        assert_eq!(err, EngineError::WorkerPanicked("boom 1".into()));
    }

    #[test]
    fn panics_become_errors_parallel() {
        let err = Engine::new(4)
            .run(64, |i| {
                if i == 40 {
                    panic!("kaput");
                }
                i
            })
            .unwrap_err();
        assert_eq!(err, EngineError::WorkerPanicked("kaput".into()));
    }

    #[test]
    fn parallel_matches_serial_on_float_reduction() {
        // The engine itself never reduces; this guards the contract that
        // index-ordered merging keeps downstream float folds identical.
        let serial: Vec<f64> = Engine::serial().run(37, |i| (i as f64).sqrt()).unwrap();
        let parallel = Engine::new(8).run(37, |i| (i as f64).sqrt()).unwrap();
        assert_eq!(serial, parallel);
        let s1: f64 = serial.iter().sum();
        let s2: f64 = parallel.iter().sum();
        assert_eq!(s1.to_bits(), s2.to_bits());
    }
}
