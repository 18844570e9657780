//! Zero-downtime model lifecycle: the serving generation, the
//! canary-gated reload path, and probation-window rollback.
//!
//! A server's model lives in a [`ModelGeneration`], which owns
//! everything the server reports about it: the model, its generation
//! number and fingerprint, and the drift monitor that scores its
//! traffic.
//! [`Lifecycle`] holds the current generation in a `Mutex<Arc<_>>`.
//! Each worker clones that `Arc` once per batch, and `/healthz`,
//! `/debug/drift`, the drift gauges and the probation watchdog read the
//! same generation, so two servers in one process never see each
//! other's model. A batch that popped before a swap finishes on the
//! generation it started with — its `Arc` pins the old model until the
//! last in-flight batch drops it. Every swap builds a new generation,
//! so each reload and each rollback starts a fresh drift window.
//!
//! Reloads go through a **canary gate** before any traffic sees the
//! candidate:
//!
//! 1. CRC verification via [`crate::load_verified`] (v1 streams refused
//!    unless the policy opts in);
//! 2. schema compatibility ([`rpm_core::ModelSchema::check_compat`]) —
//!    the class vocabulary is part of the `/classify` contract;
//! 3. reference-profile divergence: PSI between the incumbent's and the
//!    candidate's training profiles, per drift metric, capped by
//!    [`ReloadPolicy::canary_psi`];
//! 4. live replay: a sampled ring of recent request series is predicted
//!    through the candidate (panic or error rejects it), and the
//!    resulting drift samples are scored against the candidate's own
//!    profile — a candidate that would page on today's traffic never
//!    gets swapped in.
//!
//! An accepted swap keeps the previous generation warm and opens a
//! **probation window**: if the post-swap error rate spikes or the
//! drift monitor pages before the window closes, [`Lifecycle::tick`]
//! rolls back automatically. `POST /admin/rollback` does the same on
//! demand. Rollback is an involution — the rolled-back-from model
//! becomes the new warm "previous", so a mistaken rollback can itself
//! be rolled back.
//!
//! ```text
//!                    reload(candidate)
//!        ┌───────┐  ──────────────────▶  ┌────────┐ reject (CRC/schema/
//!        │serving│                       │ canary │ drift/replay)
//!        │ gen N │  ◀──────────────────  │  gate  │───▶ 409, gen N intact
//!        └───────┘      swap: gen N+1    └────────┘
//!            ▲          (gen N kept warm)
//!            │ auto-rollback (error spike | drift page, within
//!            │ probation) or POST /admin/rollback: swap back, gen N+2
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rpm_core::{PersistError, PredictOptions, RpmClassifier, SchemaMismatch, VerifyReport};
use rpm_obs::drift::{psi, ReferenceProfile, DRIFT_METRIC_NAMES};
use rpm_obs::{DriftConfig, DriftMonitor, DriftReport};

use crate::batch::Pending;
use crate::ServeError;

/// Recent request series kept for canary replay (one sampled per
/// dispatched batch, ring-buffered).
const CANARY_RING: usize = 64;

/// Below this many ringed series the replay drift score is noise and
/// only the panic/error check runs.
const MIN_REPLAY_SCORE: usize = 8;

/// Reload, canary, and probation knobs.
#[derive(Clone, Copy, Debug)]
pub struct ReloadPolicy {
    /// Canary gate threshold: a candidate whose training profile
    /// diverges from the incumbent's (or whose replay of live traffic
    /// diverges from its own profile) beyond this PSI on any drift
    /// metric is rejected. `f64::INFINITY` disables the drift gates.
    pub canary_psi: f64,
    /// Post-swap observation window; zero disables auto-rollback.
    pub probation: Duration,
    /// Auto-rollback when post-swap errors exceed this fraction of
    /// post-swap requests (and `probation_min_errors` is met).
    pub probation_error_pct: f64,
    /// Minimum post-swap errors before the rate triggers — a lone 500
    /// against two requests is not a signal.
    pub probation_min_errors: u64,
    /// Accept v1 (checksum-free) candidate streams.
    pub allow_unverified: bool,
}

impl Default for ReloadPolicy {
    fn default() -> Self {
        Self {
            canary_psi: 1.0,
            probation: Duration::from_secs(60),
            probation_error_pct: 0.2,
            probation_min_errors: 5,
            allow_unverified: false,
        }
    }
}

/// One immutable model generation: what a worker pins for the lifetime
/// of a batch, and what the server reports about its model.
pub struct ModelGeneration {
    /// The model itself, shared immutably.
    pub model: Arc<RpmClassifier>,
    /// 1-based logical clock; every swap (reloads *and* rollbacks)
    /// takes the next value, so `generation` on a response header
    /// always identifies which swap served it.
    pub generation: u64,
    /// CRC-32 identity of the model's serialized stream, as on
    /// `/healthz`.
    pub fingerprint: String,
    /// Scores this generation's traffic against the model's training
    /// profile; `None` when the model carries no non-empty profile.
    pub drift: Option<DriftMonitor>,
}

impl ModelGeneration {
    /// Builds a generation, arming its drift monitor when the model
    /// carries a non-empty reference profile.
    fn new(
        model: Arc<RpmClassifier>,
        generation: u64,
        fingerprint: String,
        drift: DriftConfig,
    ) -> Self {
        let drift = model
            .reference_profile()
            .filter(|p| !p.is_empty())
            .map(|profile| DriftMonitor::new(profile, drift));
        Self {
            model,
            generation,
            fingerprint,
            drift,
        }
    }

    /// The drift verdict on this generation's traffic so far
    /// ([`DriftReport::unavailable`] without a monitor).
    pub fn drift_report(&self) -> DriftReport {
        self.drift
            .as_ref()
            .map_or_else(DriftReport::unavailable, DriftMonitor::report)
    }
}

/// Why a reload or rollback was refused. The serving generation is
/// untouched in every case.
#[derive(Debug)]
pub enum ReloadError {
    /// An armed `serve.reload` fault or candidate-file I/O failure.
    Io(std::io::Error),
    /// The candidate stream failed CRC verification.
    Verify(PersistError),
    /// The candidate is a v1 stream and the policy does not allow
    /// unverified models.
    Unverified(VerifyReport),
    /// The candidate's class vocabulary differs from the incumbent's.
    Schema(SchemaMismatch),
    /// The candidate's training profile diverges from the incumbent's
    /// beyond the canary threshold.
    ProfileDivergence {
        /// Drift metric with the worst divergence.
        metric: &'static str,
        /// Its PSI score.
        psi: f64,
        /// The policy threshold it exceeded.
        threshold: f64,
    },
    /// The candidate panicked or errored replaying recent live traffic.
    Replay(String),
    /// The candidate's replay of recent live traffic drifts from its
    /// own training profile beyond the canary threshold.
    ReplayDrift {
        /// Drift metric with the worst divergence.
        metric: &'static str,
        /// Its PSI score.
        psi: f64,
        /// The policy threshold it exceeded.
        threshold: f64,
    },
    /// Rollback requested with no warm previous generation.
    NoPrevious,
}

impl ReloadError {
    /// Stable machine-readable code for admin responses and logs.
    pub fn code(&self) -> &'static str {
        match self {
            Self::Io(_) => "io",
            Self::Verify(_) => "verify_failed",
            Self::Unverified(_) => "unverified",
            Self::Schema(_) => "schema_mismatch",
            Self::ProfileDivergence { .. } => "profile_divergence",
            Self::Replay(_) => "replay_failed",
            Self::ReplayDrift { .. } => "replay_drift",
            Self::NoPrevious => "no_previous_generation",
        }
    }
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "candidate I/O failed: {e}"),
            Self::Verify(e) => write!(f, "candidate failed verification: {e}"),
            Self::Unverified(report) => write!(
                f,
                "candidate is format v{} without checksums (policy refuses unverified models)",
                report.version
            ),
            Self::Schema(e) => write!(f, "candidate is wire-incompatible: {e}"),
            Self::ProfileDivergence {
                metric,
                psi,
                threshold,
            } => write!(
                f,
                "candidate training profile diverges on {metric}: psi {psi:.4} > {threshold}"
            ),
            Self::Replay(e) => write!(f, "candidate failed live-traffic replay: {e}"),
            Self::ReplayDrift {
                metric,
                psi,
                threshold,
            } => write!(
                f,
                "candidate drifts on live traffic ({metric}): psi {psi:.4} > {threshold}"
            ),
            Self::NoPrevious => write!(f, "no previous generation to roll back to"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// What an accepted swap (reload or rollback) produced.
#[derive(Clone, Debug)]
pub struct ReloadOutcome {
    /// The generation now serving.
    pub generation: u64,
    /// Its fingerprint.
    pub fingerprint: String,
    /// Fingerprint of the generation it displaced (kept warm).
    pub displaced: String,
}

/// Post-swap observation state.
struct Probation {
    until: Instant,
    errors_at_swap: u64,
    requests_at_swap: u64,
}

/// The model lifecycle: owns the serving generation, the warm previous
/// generation, the canary ring, and the probation window.
pub struct Lifecycle {
    current: Mutex<Arc<ModelGeneration>>,
    previous: Mutex<Option<Arc<ModelGeneration>>>,
    probation: Mutex<Option<Probation>>,
    /// Serializes reload/rollback; the hot path never takes it.
    admin_gate: Mutex<()>,
    next_generation: AtomicU64,
    canary: Mutex<VecDeque<Vec<f64>>>,
    policy: ReloadPolicy,
    drift: DriftConfig,
}

impl Lifecycle {
    /// Installs the initial generation (generation 1) and sets the
    /// generation gauge.
    pub(crate) fn new(
        model: Arc<RpmClassifier>,
        fingerprint: String,
        policy: ReloadPolicy,
        drift: DriftConfig,
    ) -> Self {
        rpm_obs::metrics().serve_generation.set(1);
        Self {
            current: Mutex::new(Arc::new(ModelGeneration::new(model, 1, fingerprint, drift))),
            previous: Mutex::new(None),
            probation: Mutex::new(None),
            admin_gate: Mutex::new(()),
            next_generation: AtomicU64::new(2),
            canary: Mutex::new(VecDeque::with_capacity(CANARY_RING)),
            policy,
            drift,
        }
    }

    /// The generation currently serving.
    pub fn current(&self) -> Arc<ModelGeneration> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The reload/probation policy this lifecycle runs under.
    pub fn policy(&self) -> ReloadPolicy {
        self.policy
    }

    /// Samples one series of a dispatched batch into the canary ring.
    /// `try_lock` keeps the worker hot path from ever blocking on an
    /// in-progress reload (which holds the ring while replaying).
    pub(crate) fn offer_canary(&self, batch: &[Pending]) {
        let Some(series) = batch.iter().find_map(|p| p.series.first()) else {
            return;
        };
        if let Ok(mut ring) = self.canary.try_lock() {
            if ring.len() == CANARY_RING {
                ring.pop_front();
            }
            ring.push_back(series.clone());
        }
    }

    /// Reloads from a candidate model file.
    pub fn reload_from_path(&self, path: &Path) -> Result<ReloadOutcome, ReloadError> {
        let bytes = std::fs::read(path).map_err(ReloadError::Io)?;
        self.reload_from_bytes(&bytes)
    }

    /// Runs the candidate through the canary gate and, if it passes,
    /// swaps it in atomically, keeping the displaced generation warm
    /// and opening the probation window. On any error the serving
    /// generation is untouched — there is no half-swapped state: the
    /// swap at the end is the only mutation.
    pub fn reload_from_bytes(&self, bytes: &[u8]) -> Result<ReloadOutcome, ReloadError> {
        let _gate = self.admin_gate.lock().unwrap_or_else(|e| e.into_inner());
        let _span = rpm_obs::enter("serve.reload");
        let m = rpm_obs::metrics();
        let result = self.canary_and_swap(bytes);
        match &result {
            Ok(outcome) => {
                m.serve_reloads.inc();
                rpm_obs::logger::log(
                    "info",
                    "serve.reload",
                    format!(
                        "reload accepted: generation {} fingerprint {} (displaced {} kept warm)",
                        outcome.generation, outcome.fingerprint, outcome.displaced
                    ),
                );
            }
            Err(e) => {
                m.serve_reload_rejected.inc();
                rpm_obs::logger::log(
                    "warn",
                    "serve.reload",
                    format!("reload rejected ({}): {e}", e.code()),
                );
            }
        }
        result
    }

    fn canary_and_swap(&self, bytes: &[u8]) -> Result<ReloadOutcome, ReloadError> {
        // The chaos hook: an armed serve.reload fault fails the reload
        // as a typed error before the candidate is even parsed.
        rpm_obs::fault::point("serve.reload").map_err(ReloadError::Io)?;

        // Gate 1: CRC verification (and the v1 opt-in).
        let (candidate, report) = crate::load_verified(bytes, self.policy.allow_unverified)
            .map_err(|e| match e {
                ServeError::Verify(e) => ReloadError::Verify(e),
                ServeError::Unverified(report) => ReloadError::Unverified(report),
                ServeError::Io(e) => ReloadError::Io(e),
            })?;

        let incumbent = self.current();

        // Gate 2: wire compatibility.
        incumbent
            .model
            .schema()
            .check_compat(&candidate.schema())
            .map_err(ReloadError::Schema)?;

        // Gate 3: training-profile divergence, incumbent vs candidate.
        // Cross-model comparison only makes sense for the metrics that
        // describe the *data* (length, mean_abs, stddev, z_extreme,
        // class mix): the model-derived metrics (match_distance,
        // margin) shift wholesale under any legitimate retrain and are
        // covered by the replay gate instead.
        if let (Some(a), Some(b)) = (
            incumbent
                .model
                .reference_profile()
                .filter(|p| !p.is_empty()),
            candidate.reference_profile().filter(|p| !p.is_empty()),
        ) {
            if let Some((metric, score)) = worst_divergence(a, b) {
                if score > self.policy.canary_psi {
                    return Err(ReloadError::ProfileDivergence {
                        metric,
                        psi: score,
                        threshold: self.policy.canary_psi,
                    });
                }
            }
        }

        // Gate 4: live replay through the candidate.
        self.replay_gate(&candidate)?;

        let outcome = self.swap_in(Arc::new(candidate), report.fingerprint);
        self.open_probation();
        Ok(outcome)
    }

    /// Replays the canary ring through the candidate: a panic or engine
    /// error rejects it outright; with enough samples, the replay's
    /// drift samples are scored against the candidate's own training
    /// profile so a candidate that would page on current traffic is
    /// refused before it serves.
    fn replay_gate(&self, candidate: &RpmClassifier) -> Result<(), ReloadError> {
        let replay: Vec<Vec<f64>> = {
            let ring = self.canary.lock().unwrap_or_else(|e| e.into_inner());
            ring.iter().cloned().collect()
        };
        if replay.is_empty() {
            return Ok(());
        }
        // Scoring needs the candidate's own training profile and enough
        // samples; otherwise the replay only has to survive.
        let monitor = candidate
            .reference_profile()
            .filter(|p| !p.is_empty() && replay.len() >= MIN_REPLAY_SCORE)
            .map(|profile| DriftMonitor::new(profile, self.drift));
        let refs: Vec<&[f64]> = replay.iter().map(Vec::as_slice).collect();
        let options = PredictOptions {
            drift: monitor.as_ref(),
            ..PredictOptions::default()
        };
        catch_unwind(AssertUnwindSafe(|| {
            candidate.predict_batch_with(&refs, options)
        }))
        .map_err(|_| ReloadError::Replay("candidate panicked on live traffic".to_string()))?
        .map_err(|e| ReloadError::Replay(e.to_string()))?;

        if let Some(monitor) = monitor {
            // Scored with the same drift machinery the live monitor uses
            // (its min-sample gating and page thresholds are tuned for
            // small windows): a candidate whose monitor would already
            // page on today's traffic is refused before it serves.
            let report = monitor.report();
            if report.degraded() {
                let worst = report.metrics.iter().max_by(|a, b| a.psi.total_cmp(&b.psi));
                return Err(ReloadError::ReplayDrift {
                    metric: worst.map_or("unknown", |m| m.metric),
                    psi: worst.map_or(0.0, |m| m.psi),
                    threshold: report.page,
                });
            }
        }
        Ok(())
    }

    /// The single mutation of a swap (reload or rollback): take the next
    /// generation number, make a new generation of `model` (with a fresh
    /// drift monitor) the serving one, keep the displaced generation
    /// warm, and set the generation gauge.
    fn swap_in(&self, model: Arc<RpmClassifier>, fingerprint: String) -> ReloadOutcome {
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        let next = Arc::new(ModelGeneration::new(
            model,
            generation,
            fingerprint,
            self.drift,
        ));
        let displaced = std::mem::replace(
            &mut *self.current.lock().unwrap_or_else(|e| e.into_inner()),
            Arc::clone(&next),
        );
        rpm_obs::metrics().serve_generation.set(generation);
        let outcome = ReloadOutcome {
            generation,
            fingerprint: next.fingerprint.clone(),
            displaced: displaced.fingerprint.clone(),
        };
        *self.previous.lock().unwrap_or_else(|e| e.into_inner()) = Some(displaced);
        outcome
    }

    /// Swaps back to the warm previous generation (manual or probation
    /// triggered). Involution: the rolled-back-from generation becomes
    /// the new warm "previous". The restored model gets a *new*
    /// generation number — the clock orders swaps, fingerprints carry
    /// identity.
    pub fn rollback(&self, reason: &str) -> Result<ReloadOutcome, ReloadError> {
        let _gate = self.admin_gate.lock().unwrap_or_else(|e| e.into_inner());
        let prior = self
            .previous
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .ok_or(ReloadError::NoPrevious)?;
        let outcome = self.swap_in(Arc::clone(&prior.model), prior.fingerprint.clone());
        *self.probation.lock().unwrap_or_else(|e| e.into_inner()) = None;
        rpm_obs::metrics().serve_rollbacks.inc();
        rpm_obs::logger::log(
            "warn",
            "serve.reload",
            format!(
                "rolled back ({reason}): generation {} restores fingerprint {} \
                 (displacing {})",
                outcome.generation, outcome.fingerprint, outcome.displaced
            ),
        );
        Ok(outcome)
    }

    /// Probation watchdog, called periodically by the supervisor: rolls
    /// back automatically when the post-swap error rate spikes or the
    /// drift monitor pages inside the window. Returns the rollback
    /// outcome when one fired.
    pub fn tick(&self) -> Option<ReloadOutcome> {
        let reason = {
            let mut slot = self.probation.lock().unwrap_or_else(|e| e.into_inner());
            let p = slot.as_ref()?;
            if Instant::now() >= p.until {
                rpm_obs::logger::log(
                    "info",
                    "serve.reload",
                    "probation window passed; swap is permanent".to_string(),
                );
                *slot = None;
                return None;
            }
            // `serve.errors` already counts each quarantined request's
            // `500`; adding `serve.quarantined` would count it twice.
            let m = rpm_obs::metrics();
            let errors = m.serve_errors.get().saturating_sub(p.errors_at_swap);
            let requests = m.serve_requests.get().saturating_sub(p.requests_at_swap);
            let error_spike = errors >= self.policy.probation_min_errors
                && errors as f64 > self.policy.probation_error_pct * requests.max(1) as f64;
            if error_spike {
                Some(format!(
                    "{errors} errors over {requests} requests in probation"
                ))
            } else if self.current().drift_report().degraded() {
                Some("drift paged in probation".to_string())
            } else {
                None
            }
        }?;
        self.rollback(&reason).ok()
    }

    fn open_probation(&self) {
        let mut slot = self.probation.lock().unwrap_or_else(|e| e.into_inner());
        *slot = if self.policy.probation.is_zero() {
            None
        } else {
            let m = rpm_obs::metrics();
            Some(Probation {
                until: Instant::now() + self.policy.probation,
                errors_at_swap: m.serve_errors.get(),
                requests_at_swap: m.serve_requests.get(),
            })
        };
    }
}

/// The worst PSI between two training profiles across the drift
/// metrics that describe the data (plus the class mix, when both
/// profiles cover the same label set). The model-derived metrics (match
/// distance, SVM margin) are skipped — they only compare meaningfully
/// when both profiles came from the *same* model, as in the replay gate.
fn worst_divergence(a: &ReferenceProfile, b: &ReferenceProfile) -> Option<(&'static str, f64)> {
    const MODEL_METRICS: [&str; 2] = ["match_distance", "margin"];
    let mut worst: Option<(&'static str, f64)> = None;
    let mut consider = |name: &'static str, score: f64| {
        if worst.is_none_or(|(_, w)| score > w) {
            worst = Some((name, score));
        }
    };
    for (metric, name) in DRIFT_METRIC_NAMES.iter().enumerate() {
        if MODEL_METRICS.contains(name) {
            continue;
        }
        consider(name, psi(&a.global_hist(metric), &b.global_hist(metric)));
    }
    if a.class_labels() == b.class_labels() {
        consider("class_mix", psi(&a.class_mix(), &b.class_mix()));
    }
    worst
}

/// Async-signal-safe process signal flags: SIGHUP requests a reload,
/// SIGTERM/SIGINT request a graceful drain. The handler only stores
/// atomics; the serve loop polls [`signals::take_reload`] and
/// [`signals::shutdown_requested`] and does the actual work on a normal
/// thread. Std-only: the handler registers through the C `signal` entry
/// point std already links.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RELOAD: AtomicBool = AtomicBool::new(false);
    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    const SIGHUP: i32 = 1;
    #[cfg(unix)]
    const SIGINT: i32 = 2;
    #[cfg(unix)]
    const SIGTERM: i32 = 15;

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    #[cfg(unix)]
    extern "C" fn on_signal(signum: i32) {
        // Only async-signal-safe operations here: two atomic stores.
        match signum {
            SIGHUP => RELOAD.store(true, Ordering::Relaxed),
            SIGINT | SIGTERM => SHUTDOWN.store(true, Ordering::Relaxed),
            _ => {}
        }
    }

    /// Installs the SIGHUP/SIGINT/SIGTERM hooks (no-op off unix).
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            let handler = on_signal as *const () as usize;
            signal(SIGHUP, handler);
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Consumes a pending reload request (SIGHUP since the last call).
    pub fn take_reload() -> bool {
        RELOAD.swap(false, Ordering::Relaxed)
    }

    /// Whether a drain was requested (SIGTERM/SIGINT). Sticky.
    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::Relaxed)
    }

    /// Raises the reload flag programmatically (tests, non-unix).
    pub fn request_reload() {
        RELOAD.store(true, Ordering::Relaxed);
    }

    /// Raises the drain flag programmatically (tests, non-unix).
    pub fn request_shutdown() {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Clears both flags (tests reuse the process-global state).
    pub fn reset() {
        RELOAD.store(false, Ordering::Relaxed);
        SHUTDOWN.store(false, Ordering::Relaxed);
    }
}
