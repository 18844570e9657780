//! Distinct-pattern selection — Algorithm 2 (`FindDistinct`).
//!
//! Three steps: (1) compute the similarity threshold τ as a percentile of
//! the intra-cluster pairwise distances collected during refinement;
//! (2) deduplicate the candidate pool, keeping the more frequent of any
//! pair closer than τ; (3) transform the training data into the candidate
//! feature space and run CFS — the surviving features are the
//! representative patterns.

use crate::cache::{Ctx, SaxCache};
use crate::candidates::Candidate;
use crate::config::RpmConfig;
use crate::engine::{Engine, EngineError};
use crate::transform::{pattern_distance_plans, transform_set_ctx};
use rpm_ml::cfs_select;
use rpm_ts::{percentile, Label, MatchKernel, MatchPlan};

/// The τ similarity threshold: the configured percentile of the pooled
/// intra-cluster distances. Returns 0.0 when the pool is empty (no
/// dedup pressure — every candidate is kept).
pub fn compute_tau(intra_cluster_distances: &[f64], tau_percentile: f64) -> f64 {
    if intra_cluster_distances.is_empty() {
        0.0
    } else {
        percentile(intra_cluster_distances, tau_percentile)
    }
}

/// Removes near-duplicate candidates (Algorithm 2 lines 5-18): processing
/// in descending frequency order, a candidate within τ of an already-kept
/// one is dropped — equivalent to the paper's replace-if-more-frequent
/// bookkeeping, without the in-place swaps.
pub fn remove_similar(candidates: Vec<Candidate>, tau: f64, early_abandon: bool) -> Vec<Candidate> {
    remove_similar_kernel(candidates, tau, early_abandon, MatchKernel::default())
}

/// [`remove_similar`] with an explicit closest-match kernel. Each
/// candidate's match plan is prepared once up front; the O(pool²) dedup
/// scan then reuses them for every pairwise comparison.
pub fn remove_similar_kernel(
    mut candidates: Vec<Candidate>,
    tau: f64,
    early_abandon: bool,
    kernel: MatchKernel,
) -> Vec<Candidate> {
    candidates.sort_by_key(|c| std::cmp::Reverse(c.frequency));
    let mut kept: Vec<Candidate> = Vec::new();
    let mut kept_plans: Vec<MatchPlan> = Vec::new();
    for c in candidates {
        let plan = MatchPlan::with_kernel(&c.values, kernel);
        let similar = kept_plans
            .iter()
            .any(|k| pattern_distance_plans(&plan, k, early_abandon) < tau);
        if !similar {
            kept.push(c);
            kept_plans.push(plan);
        }
    }
    kept
}

/// Full Algorithm 2: τ, dedup, transform, CFS. Returns the selected
/// candidates (the representative patterns) in their post-dedup order.
///
/// `train`/`labels` are the raw training series and their labels.
pub fn select_representative(
    candidates: Vec<Candidate>,
    intra_cluster_distances: &[f64],
    train: &[Vec<f64>],
    labels: &[Label],
    config: &RpmConfig,
) -> Vec<Candidate> {
    let cache = SaxCache::disabled();
    let ctx = Ctx::new(Engine::serial(), &cache);
    select_representative_ctx(
        candidates,
        intra_cluster_distances,
        train,
        labels,
        config,
        &ctx,
    )
    .expect("serial selection cannot fail")
}

/// [`select_representative`] inside a training run: the CFS transform
/// runs on the shared engine and its per-candidate columns are memoized,
/// so the final SVM transform reuses every selected candidate's column.
pub(crate) fn select_representative_ctx(
    candidates: Vec<Candidate>,
    intra_cluster_distances: &[f64],
    train: &[Vec<f64>],
    labels: &[Label],
    config: &RpmConfig,
    ctx: &Ctx<'_>,
) -> Result<Vec<Candidate>, EngineError> {
    let _span = rpm_obs::span!("select");
    if candidates.is_empty() {
        return Ok(candidates);
    }
    rpm_obs::metrics()
        .prune_pool_in
        .add(candidates.len() as u64);
    let tau = compute_tau(intra_cluster_distances, config.tau_percentile);
    let dedup_span = rpm_obs::span!("dedup");
    let mut deduped = remove_similar_kernel(candidates, tau, config.early_abandon, config.kernel);
    if deduped.len() > config.max_candidates {
        // Keep the candidates covering the most training instances (ties
        // broken by raw frequency); the transform below is the training
        // bottleneck and scales linearly in this pool.
        deduped.sort_by_key(|c| std::cmp::Reverse((c.coverage, c.frequency)));
        deduped.truncate(config.max_candidates);
    }
    drop(dedup_span);
    rpm_obs::metrics().prune_kept.add(deduped.len() as u64);
    if deduped.len() <= 1 {
        return Ok(deduped);
    }
    // Transform the training set into the candidate-distance space.
    let pattern_values: Vec<Vec<f64>> = deduped.iter().map(|c| c.values.clone()).collect();
    let rows = transform_set_ctx(
        train,
        &pattern_values,
        config.early_abandon,
        config.kernel,
        ctx,
    )?;
    let cfs_span = rpm_obs::span!("cfs");
    rpm_obs::metrics().cfs_features_in.add(deduped.len() as u64);
    let selected = cfs_select(&rows, labels, &config.cfs);
    drop(cfs_span);
    let mut keep = vec![false; deduped.len()];
    for idx in selected {
        keep[idx] = true;
    }
    let kept: Vec<Candidate> = deduped
        .into_iter()
        .zip(keep)
        .filter_map(|(c, k)| k.then_some(c))
        .collect();
    if rpm_obs::enabled() {
        rpm_obs::metrics().cfs_survivors.add(kept.len() as u64);
        let mut per_class: std::collections::BTreeMap<Label, u64> =
            std::collections::BTreeMap::new();
        for c in &kept {
            *per_class.entry(c.class).or_insert(0) += 1;
        }
        for (class, n) in per_class {
            rpm_obs::metrics::labeled_add(&format!("cfs.survivors.class={class}"), n);
        }
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_sax::SaxConfig;

    fn cand(class: Label, values: Vec<f64>, frequency: usize) -> Candidate {
        Candidate {
            class,
            values,
            frequency,
            coverage: frequency,
            sax: SaxConfig::new(8, 4, 4),
        }
    }

    fn wave(phase: f64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (std::f64::consts::TAU * i as f64 / len as f64 + phase).sin())
            .collect()
    }

    #[test]
    fn tau_is_the_percentile() {
        let dists = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!((compute_tau(&dists, 30.0) - 3.0).abs() < 1e-12);
        assert_eq!(compute_tau(&[], 30.0), 0.0);
    }

    #[test]
    fn near_duplicates_collapse_to_the_more_frequent() {
        let a = cand(0, wave(0.0, 24), 10);
        let b = cand(0, wave(0.02, 24), 3); // nearly identical shape
        let c = cand(1, wave(1.5, 24), 5); // different phase
        let kept = remove_similar(vec![a, b, c], 0.3, true);
        assert_eq!(
            kept.len(),
            2,
            "{:?}",
            kept.iter().map(|k| k.frequency).collect::<Vec<_>>()
        );
        assert_eq!(kept[0].frequency, 10, "most frequent survives");
        assert!(kept.iter().any(|k| k.frequency == 5));
    }

    #[test]
    fn zero_tau_keeps_everything() {
        let cands = vec![cand(0, wave(0.0, 24), 4), cand(0, wave(0.001, 24), 3)];
        let kept = remove_similar(cands, 0.0, true);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn selection_prefers_the_discriminative_pattern() {
        // Two classes: class 0 contains an up-bump, class 1 a down-bump.
        // Candidate A matches class 0's bump; candidate B is uninformative
        // (present in both); CFS must keep a discriminative one.
        let up: Vec<f64> = (0..16).map(|i| ((i as f64) * 0.4).sin()).collect();
        let down: Vec<f64> = up.iter().map(|v| -v).collect();
        let mut train = Vec::new();
        let mut labels = Vec::new();
        for k in 0..12 {
            let mut s = vec![0.0; 64];
            let at = 8 + (k % 5) * 8;
            let src = if k % 2 == 0 { &up } else { &down };
            for i in 0..16 {
                s[at + i] = src[i] * 3.0;
            }
            // Slight per-instance jitter so features are not constant.
            s[0] = (k as f64) * 0.01;
            train.push(s);
            labels.push(k % 2);
        }
        let cands = vec![
            cand(0, up.clone(), 6),
            cand(1, down.clone(), 6),
            cand(0, vec![0.0; 16], 2), // flat, matches everything equally
        ];
        let selected = select_representative(
            cands,
            &[0.1, 0.2, 0.3],
            &train,
            &labels,
            &RpmConfig::default(),
        );
        assert!(!selected.is_empty());
        // The flat candidate must not be the only survivor.
        assert!(
            selected.iter().any(|c| c.values == up || c.values == down),
            "no discriminative pattern kept"
        );
    }

    #[test]
    fn empty_candidates_pass_through() {
        let selected = select_representative(Vec::new(), &[], &[], &[], &RpmConfig::default());
        assert!(selected.is_empty());
    }

    #[test]
    fn single_candidate_skips_selection() {
        let c = cand(0, wave(0.0, 16), 4);
        let train = vec![vec![0.0; 32]];
        let labels = vec![0];
        let selected =
            select_representative(vec![c], &[0.5], &train, &labels, &RpmConfig::default());
        assert_eq!(selected.len(), 1);
    }
}
