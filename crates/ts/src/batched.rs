//! Batched pattern-set × series closest-match kernel with one admissible
//! lower bound.
//!
//! The per-pattern kernels in [`crate::matching`] rebuild the same
//! [`RollingStats`] for every pattern matched against a series, and run
//! the exact distance loop at every window they cannot abandon.
//! [`BatchedMatch`] restructures the search around the *series*:
//! statistics are built once per (series, pattern length), and every
//! window is priced by a lower bound before the exact loop may run.
//!
//! # The bound
//!
//! For a z-normalized pattern `zp` of length `n` and a window `x` of the
//! centered series (window mean `μ`, `inv = 1/σ`), `inv²·Σ(xᵢ−μ)² = n`
//! turns the squared distance into
//!
//! ```text
//! d² = Σ(zpᵢ − (xᵢ−μ)·inv)² = Σzp² + n − 2·inv·(qt − μ·Σzp),   qt = Σ zpᵢ·xᵢ
//! ```
//!
//! The sliding dot products `qt` of one member against every window come
//! from one dense pass over the series (`sliding_dot`): no gather, no
//! branch, blocked so it vectorizes. The expanded form cancels hard at
//! d ≈ 0, which is why the exact loop never uses it. Here it only has to
//! bound `d²` from below, so an explicit rounding margin is subtracted
//! (see `Windows`; the derivation is in DESIGN.md, "Batched match
//! kernel").
//!
//! # The scan
//!
//! Per member, the exact loop runs once at the window with the smallest
//! bound (the approximate argmin), so best-so-far is tight from the
//! start. The sweep then visits positions in increasing order and prunes
//! a window when its bound exceeds best-so-far. Survivors run the rolling
//! kernel's own `MatchPlan::fused_early_abandon` /
//! `MatchPlan::fused_exhaustive` against best-so-far.
//!
//! # Bit-identity with the rolling kernel
//!
//! The rolling kernel returns the first position minimizing the exact
//! loop's float `d²`: its updates are strict (`<`), and a minimizing
//! window is never abandoned, because partial sums of non-negative terms
//! never exceed the full sum. The batched scan returns the same position
//! and the same float:
//!
//! * A pruned window has `lb > best_sq`, and the margin and deflation
//!   make `lb` no larger than the window's float `d²`, so it is not a
//!   minimizer.
//! * Every minimizer therefore reaches the exact loop, with a cutoff no
//!   smaller than its distance, and is evaluated by the same code on the
//!   same floats as in the rolling scan.
//! * The seed is a true window distance, evaluated out of order. Equal
//!   distances resolve to the earliest position through an explicit
//!   tie-break, the winner of the in-order rolling scan.
//!
//! `tests/kernel_diff.rs` pins this differentially;
//! `tests/lb_admissibility.rs` property-tests the bound through
//! [`BatchedMatch::audit`], which reports the production bound.

use crate::matching::{BestMatch, MatchKernel, MatchPlan, ScanCounters};
use crate::norm::ZNORM_EPSILON;
use crate::stats::{CompensatedSum, RollingStats, VAR_REL_ERR};
use std::sync::atomic::Ordering;

/// Window starts per register block of [`sliding_dot`]: independent
/// accumulators keep the adds pipelined and fill whole vector registers.
const LANES: usize = 8;

/// Plans of one shared length, with the per-member sums the bound needs.
#[derive(Clone, Debug)]
struct LengthGroup {
    /// Pattern length.
    n: usize,
    /// Index of each member in the original plan slice.
    idx: Vec<u32>,
    /// The member plans (the exact loop, and `sq_norm` for σ = 0 windows).
    plans: Vec<MatchPlan>,
    /// `Σzp² + n` per member, compensated.
    base: Vec<f64>,
    /// `Σzp` per member, compensated.
    sum: Vec<f64>,
    /// Largest member `‖zp‖`, rounded up; sizes the rounding margin.
    zp_norm: f64,
}

/// A pattern set prepared for batched closest-match scans. Build once
/// (from the same [`MatchPlan`]s the per-pattern path uses), then call
/// [`match_all`](Self::match_all) per series. Owns its data — `Send +
/// Sync`, shareable across batch workers.
#[derive(Clone, Debug)]
pub struct BatchedMatch {
    groups: Vec<LengthGroup>,
    /// (original index, plan) pairs the bound cannot serve — degenerate
    /// (constant) patterns and plans pinned to the `Naive` kernel —
    /// scanned per-pattern through `best_match_counted` so their
    /// semantics (naive tie-breaking) are preserved exactly.
    fallback: Vec<(u32, MatchPlan)>,
    /// Total patterns (group members + fallbacks).
    count: usize,
}

/// One (pattern, window) observation from [`BatchedMatch::audit`] — the
/// raw material of the admissibility property tests.
#[derive(Clone, Copy, Debug)]
pub struct LbAudit {
    /// Pattern index in the original plan slice.
    pub pattern: usize,
    /// Window start position.
    pub position: usize,
    /// The squared (un-normalized) bound the scan prunes with: a window
    /// is skipped when `lb` exceeds the pattern's best-so-far.
    pub lb: f64,
    /// The exact squared distance (exhaustive fused accumulation).
    pub exact: f64,
}

impl BatchedMatch {
    /// Prepares `plans` for batched scans.
    pub fn new(plans: &[MatchPlan]) -> Self {
        let mut groups: Vec<LengthGroup> = Vec::new();
        let mut fallback = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if plan.is_empty() {
                continue; // matches per-pattern behavior: None at call time
            }
            if plan.degenerate || plan.kernel() == MatchKernel::Naive {
                fallback.push((i as u32, plan.clone()));
                continue;
            }
            let n = plan.len();
            let group = match groups.iter_mut().find(|g| g.n == n) {
                Some(g) => g,
                None => {
                    groups.push(LengthGroup::empty(n));
                    groups.last_mut().expect("just pushed")
                }
            };
            group.push(i as u32, plan);
        }
        Self {
            groups,
            fallback,
            count: plans.len(),
        }
    }

    /// Number of patterns the set was built from (including empty and
    /// fallback patterns).
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finds the closest match of every pattern inside `series` in one
    /// pass per pattern length. The result is indexed like the plan
    /// slice the set was built from; an entry is `None` exactly when
    /// the per-pattern kernel would return `None` (empty pattern, or
    /// pattern longer than the series).
    ///
    /// Bit-identical to calling
    /// [`MatchPlan::best_match`](crate::matching::MatchPlan::best_match)
    /// per pattern: the rolling scan, or the naive one for degenerate /
    /// `Naive`-pinned plans.
    pub fn match_all(
        &self,
        series: &[f64],
        early_abandon: bool,
        counters: Option<&ScanCounters>,
    ) -> Vec<Option<BestMatch>> {
        let mut out: Vec<Option<BestMatch>> = vec![None; self.count];
        for (idx, plan) in &self.fallback {
            out[*idx as usize] = plan.best_match_counted(series, early_abandon, counters);
        }
        let started = counters.map(|_| std::time::Instant::now());
        let mut tally = Tally::default();
        for group in &self.groups {
            group.scan(series, early_abandon, &mut tally, &mut out);
        }
        tally.publish(counters, started);
        out
    }

    /// Reports the bound the scan prunes with alongside the exhaustive
    /// exact distance, for every (grouped pattern, window) pair with
    /// σ > 0 (the scan decides σ = 0 windows exactly). The bounds come
    /// from the production code path, so the admissibility property
    /// tests exercise the scan's own arithmetic. Fallback patterns have
    /// no bound and are omitted.
    pub fn audit(&self, series: &[f64]) -> Vec<LbAudit> {
        let mut rows = Vec::new();
        for group in &self.groups {
            if group.n > series.len() {
                continue;
            }
            let stats = RollingStats::new(series, group.n).expect("bounds checked above");
            let windows = Windows::new(&stats, group.zp_norm);
            let mut lb = vec![0.0; stats.count()];
            for (k, plan) in group.plans.iter().enumerate() {
                group.bound(k, &windows, &mut lb);
                for (p, &l) in lb.iter().enumerate() {
                    if stats.std(p) < ZNORM_EPSILON {
                        continue;
                    }
                    let w = &stats.centered()[p..p + group.n];
                    rows.push(LbAudit {
                        pattern: group.idx[k] as usize,
                        position: p,
                        lb: l,
                        exact: plan.fused_exhaustive(w, stats.mean_centered(p), windows.inv[p]),
                    });
                }
            }
        }
        rows
    }
}

/// Scan-local counter accumulation, published once per `match_all`.
#[derive(Default)]
struct Tally {
    searches: u64,
    windows: u64,
    abandoned: u64,
    pruned: u64,
    stats_builds: u64,
}

impl Tally {
    fn publish(&self, counters: Option<&ScanCounters>, started: Option<std::time::Instant>) {
        let m = rpm_obs::metrics();
        m.match_searches.add(self.searches);
        m.match_windows.add(self.windows);
        m.match_abandoned.add(self.abandoned);
        m.match_pruned_envelope.add(self.pruned);
        m.match_stats_builds.add(self.stats_builds);
        if let (Some(c), Some(t0)) = (counters, started) {
            c.searches.fetch_add(self.searches, Ordering::Relaxed);
            c.windows.fetch_add(self.windows, Ordering::Relaxed);
            c.abandoned.fetch_add(self.abandoned, Ordering::Relaxed);
            c.pruned_envelope.fetch_add(self.pruned, Ordering::Relaxed);
            c.stats_builds
                .fetch_add(self.stats_builds, Ordering::Relaxed);
            c.match_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Per-window quantities every member of a length group shares: the
/// exact loop's `inv` and the bound's rounding margin. At a window with
/// `r = μ·inv` the scan prunes against
/// `lb = (approx − fixed − dot·(1 + 2|r|)) · deflate`, where `approx` is
/// the float evaluation of the expanded `d²`. DESIGN.md ("Batched match
/// kernel") derives each term; each is at least twice its derivation.
struct Windows<'a> {
    stats: &'a RollingStats,
    /// `1/σ`, the exact loop's inverse deviation; 0 for σ = 0 windows.
    inv: Vec<f64>,
    /// `fixed + dot·(1 + 2|r|)` at each window; +∞ where the bound does
    /// not apply (σ = 0, or statistics that overflowed).
    margin: Vec<f64>,
    /// Positions of σ = 0 windows, whose distance is the member's
    /// `sq_norm` (the `crate::norm` convention).
    constant: Vec<usize>,
    /// Covers the exact loop's relative rounding: its float `d²` is at
    /// least `deflate` times the real one, less an absolute part that
    /// `fixed` covers.
    deflate: f64,
}

impl<'a> Windows<'a> {
    /// The windows of `stats` for members whose `‖zp‖` is at most
    /// `zp_norm`.
    fn new(stats: &'a RollingStats, zp_norm: f64) -> Self {
        let nf = stats.window() as f64;
        let u = f64::EPSILON / 2.0;
        let gamma = (nf + 2.0) * u / (1.0 - (nf + 2.0) * u);
        // Window-independent: `RollingStats`' variance error (the
        // expansion takes `inv²·Σ(xᵢ−μ)² = n`), the rounding of `inv` and
        // of assembling `approx`, and the exact loop's absolute error at
        // d ≈ 0.
        let fixed = 2.0 * nf * (VAR_REL_ERR + 32.0 * u);
        // The dot products' `γ·‖zp‖·‖x‖` error and `μ·Σzp`'s, per unit of
        // `1 + 2|r|`, since `inv·‖x‖ ≤ √n·(1 + |r|)`.
        let dot = 4.0 * gamma * zp_norm * nf.sqrt();
        let count = stats.count();
        let mut inv = Vec::with_capacity(count);
        let mut margin = Vec::with_capacity(count);
        let mut constant = Vec::new();
        for (p, (&sd, &mu)) in stats.stds().iter().zip(stats.means_centered()).enumerate() {
            if sd < ZNORM_EPSILON {
                constant.push(p);
                inv.push(0.0);
                margin.push(f64::INFINITY);
                continue;
            }
            let i = 1.0 / sd;
            let r = (mu * i).abs();
            inv.push(i);
            margin.push(if sd.is_finite() && r.is_finite() {
                fixed + dot * (1.0 + 2.0 * r)
            } else {
                f64::INFINITY
            });
        }
        Self {
            stats,
            inv,
            margin,
            constant,
            deflate: 1.0 - 2.0 * (nf + 4.0) * f64::EPSILON,
        }
    }
}

impl LengthGroup {
    fn empty(n: usize) -> Self {
        Self {
            n,
            idx: Vec::new(),
            plans: Vec::new(),
            base: Vec::new(),
            sum: Vec::new(),
            zp_norm: 0.0,
        }
    }

    fn push(&mut self, idx: u32, plan: &MatchPlan) {
        let mut sq = CompensatedSum::new();
        let mut sum = CompensatedSum::new();
        for &z in plan.znormed() {
            sq.add(z * z);
            sum.add(z);
        }
        self.idx.push(idx);
        self.base.push(sq.value() + self.n as f64);
        self.sum.push(sum.value());
        self.zp_norm = self.zp_norm.max(sq.value().sqrt() * (1.0 + 1e-6));
        self.plans.push(plan.clone());
    }

    /// Member `k`'s bound at every window of `w`, into `lb`: the
    /// expanded `d²` less the margin, deflated, and `sq_norm` exactly at
    /// σ = 0 windows.
    fn bound(&self, k: usize, w: &Windows, lb: &mut [f64]) {
        sliding_dot(self.plans[k].znormed(), w.stats.centered(), lb);
        let (base, sum, deflate) = (self.base[k], self.sum[k], w.deflate);
        for (((l, &inv), &mu), &margin) in lb
            .iter_mut()
            .zip(&w.inv)
            .zip(w.stats.means_centered())
            .zip(&w.margin)
        {
            *l = (base - 2.0 * inv * (*l - mu * sum) - margin) * deflate;
        }
        for &p in &w.constant {
            lb[p] = self.plans[k].sq_norm;
        }
    }

    /// The scan: one `RollingStats` build, then per member a dense bound
    /// pass, one exact seed at its smallest bound, and the pruned sweep.
    fn scan(
        &self,
        series: &[f64],
        early_abandon: bool,
        tally: &mut Tally,
        out: &mut [Option<BestMatch>],
    ) {
        let n = self.n;
        if n > series.len() {
            return; // per-pattern kernels return None here; `out` stays None
        }
        let stats = RollingStats::new(series, n).expect("bounds checked above");
        let count = stats.count();
        tally.stats_builds += 1;
        tally.searches += self.plans.len() as u64;
        tally.windows += (self.plans.len() * count) as u64;
        let windows = Windows::new(&stats, self.zp_norm);
        let mut lb = vec![0.0; count];
        for (k, plan) in self.plans.iter().enumerate() {
            self.bound(k, &windows, &mut lb);
            let exact = |p: usize, cutoff: f64| {
                if stats.std(p) < ZNORM_EPSILON {
                    return Some(plan.sq_norm);
                }
                let (w, mu, inv) = (
                    &stats.centered()[p..p + n],
                    stats.mean_centered(p),
                    windows.inv[p],
                );
                if early_abandon {
                    plan.fused_early_abandon(w, mu, inv, cutoff)
                } else {
                    Some(plan.fused_exhaustive(w, mu, inv))
                }
            };
            let seed = argmin(&lb);
            let mut best_sq = f64::INFINITY;
            let mut best_pos = 0;
            if let Some(d) = exact(seed, f64::INFINITY) {
                if d < best_sq {
                    best_sq = d;
                    best_pos = seed;
                }
            }
            for p in (0..seed).chain(seed + 1..count) {
                if lb[p] > best_sq {
                    tally.pruned += 1;
                    continue;
                }
                match exact(p, best_sq) {
                    None => tally.abandoned += 1,
                    // The position tie-break only fires against the seed:
                    // the sweep itself visits positions in increasing
                    // order.
                    Some(d) if d < best_sq || (d == best_sq && p < best_pos) => {
                        best_sq = d;
                        best_pos = p;
                    }
                    Some(_) => {}
                }
            }
            out[self.idx[k] as usize] = Some(BestMatch {
                position: best_pos,
                distance: (best_sq.max(0.0) / n as f64).sqrt(),
            });
        }
    }
}

/// `out[p] = Σᵢ zp[i]·xc[p + i]` for every window start `p < out.len()`,
/// accumulated in registers over blocks of [`LANES`] starts. Any
/// summation order meets the `γ·Σ|zpᵢ·xᵢ|` error the margin budgets for.
fn sliding_dot(zp: &[f64], xc: &[f64], out: &mut [f64]) {
    let n = zp.len();
    let start = out.len() - out.len() % LANES;
    let mut blocks = out.chunks_exact_mut(LANES);
    for (b, block) in (&mut blocks).enumerate() {
        let span = &xc[b * LANES..b * LANES + n + LANES - 1];
        let mut acc = [0.0; LANES];
        for (x, &z) in span.windows(LANES).zip(zp) {
            for (a, &v) in acc.iter_mut().zip(x) {
                *a += z * v;
            }
        }
        block.copy_from_slice(&acc);
    }
    for (p, o) in (start..).zip(blocks.into_remainder()) {
        *o = zp.iter().zip(&xc[p..p + n]).map(|(z, x)| z * x).sum();
    }
}

/// First position of the smallest value (NaNs never win).
fn argmin(v: &[f64]) -> usize {
    let mut best = (0, f64::INFINITY);
    for (p, &x) in v.iter().enumerate() {
        if x < best.1 {
            best = (p, x);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::prepare_pattern;

    fn pseudo_random_series(len: usize, mut state: u64) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push(((state >> 33) as f64) / (u32::MAX as f64) - 0.5);
        }
        out
    }

    fn plans_from(series: &[f64], spans: &[(usize, usize)]) -> Vec<MatchPlan> {
        spans
            .iter()
            .map(|&(s, l)| prepare_pattern(&series[s..s + l]))
            .collect()
    }

    #[test]
    fn batched_is_bit_identical_to_per_pattern_rolling() {
        let series = pseudo_random_series(600, 0xD1CE);
        let plans = plans_from(&series, &[(10, 32), (100, 32), (250, 64), (400, 17)]);
        let batched = BatchedMatch::new(&plans);
        for ea in [true, false] {
            let got = batched.match_all(&series, ea, None);
            for (plan, got) in plans.iter().zip(&got) {
                let want = plan.best_match(&series, ea).unwrap();
                assert_eq!(Some(want), *got, "ea={ea}");
            }
        }
    }

    #[test]
    fn duplicate_and_degenerate_patterns_resolve_like_their_plans() {
        let series = pseudo_random_series(300, 7);
        let mut plans = plans_from(&series, &[(50, 24), (50, 24)]);
        plans.push(prepare_pattern(&[3.3; 24])); // degenerate → naive fallback
        plans.push(MatchPlan::with_kernel(&series[80..104], MatchKernel::Naive));
        let batched = BatchedMatch::new(&plans);
        let got = batched.match_all(&series, true, None);
        for (plan, got) in plans.iter().zip(&got) {
            assert_eq!(plan.best_match(&series, true), *got);
        }
        assert_eq!(got[0], got[1], "duplicates share a result");
    }

    #[test]
    fn oversized_and_empty_patterns_yield_none() {
        let series = pseudo_random_series(40, 9);
        let plans = vec![
            prepare_pattern(&pseudo_random_series(64, 10)), // longer than series
            prepare_pattern(&[]),
            prepare_pattern(&series[5..25]),
        ];
        let batched = BatchedMatch::new(&plans);
        assert_eq!(batched.len(), 3);
        assert!(!batched.is_empty());
        let got = batched.match_all(&series, true, None);
        assert_eq!(got[0], None);
        assert_eq!(got[1], None);
        assert_eq!(got[2], plans[2].best_match(&series, true));
    }

    #[test]
    fn counters_account_for_the_whole_set() {
        let series = pseudo_random_series(500, 0xBEE);
        let plans = plans_from(&series, &[(0, 40), (60, 40), (200, 40), (300, 80)]);
        let batched = BatchedMatch::new(&plans);
        let counters = ScanCounters::new();
        let got = batched.match_all(&series, true, Some(&counters));
        assert!(got.iter().all(Option::is_some));
        let stats = counters.snapshot();
        assert_eq!(stats.searches, 4);
        let expected_windows = 3 * (500 - 40 + 1) + (500 - 80 + 1);
        assert_eq!(stats.windows, expected_windows as u64);
        assert_eq!(stats.stats_builds, 2, "one RollingStats per length group");
        // Every pattern occurs in the series, and each seed lands on its
        // occurrence: the bound leaves the exact loop little else.
        let decided_exactly = stats.windows - stats.pruned_envelope;
        assert!(decided_exactly < 8 * stats.searches, "{stats:?}");
        assert!(stats.prune_rate() > 0.9 && stats.prune_rate() < 1.0);
        assert!(stats.match_ns > 0);
    }

    #[test]
    fn sliding_dot_matches_direct_sums() {
        let xc = pseudo_random_series(100, 3);
        for n in [1usize, 7, 8, 9, 33, 100] {
            let zp = pseudo_random_series(n, n as u64);
            let mut out = vec![0.0; xc.len() - n + 1];
            sliding_dot(&zp, &xc, &mut out);
            for (p, &got) in out.iter().enumerate() {
                let want: f64 = zp.iter().zip(&xc[p..p + n]).map(|(z, x)| z * x).sum();
                assert!((got - want).abs() <= 1e-12, "n={n} p={p}: {got} vs {want}");
            }
        }
    }
}
