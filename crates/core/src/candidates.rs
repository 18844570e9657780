//! Candidate generation — Algorithm 1 (`FindCandidates`).
//!
//! Per class: discretize every training series with SAX (+ numerosity
//! reduction), feed the word stream into Sequitur with unique sentinel
//! tokens at the series junctions (so no rule ever spans a junction — the
//! paper's Fig. 4 note), map every rule occurrence back to its raw
//! subsequence via the retained word offsets, refine each rule's
//! occurrence set with iterative bisection clustering, and keep the
//! representatives of clusters covering at least `γ` of the class's
//! training instances.

use crate::cache::{Ctx, SaxCache};
use crate::config::GrammarAlgorithm;
use crate::config::RpmConfig;
use crate::engine::Engine;
use crate::transform::pattern_distance_plans;
use rpm_cluster::{bisect_refine, centroid, medoid};
use rpm_grammar::{infer_repair, Sequitur, Token};
use rpm_sax::{SaxConfig, SaxWord};
use rpm_ts::{znorm, Label, MatchPlan};
use std::collections::HashMap;

/// A candidate representative pattern for one class.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The class this candidate represents.
    pub class: Label,
    /// Pattern values (z-normalized domain; centroid or medoid of its
    /// cluster).
    pub values: Vec<f64>,
    /// Total subsequence occurrences in the cluster — the frequency
    /// Algorithm 2 uses to break similarity ties ("the frequency in the
    /// concatenated TS").
    pub frequency: usize,
    /// Distinct training instances covered (the γ test is on this).
    pub coverage: usize,
    /// SAX configuration the candidate was mined with.
    pub sax: SaxConfig,
}

/// Output of candidate generation for one class.
#[derive(Clone, Debug, Default)]
pub struct CandidateSet {
    /// Candidates that passed the γ filter.
    pub candidates: Vec<Candidate>,
    /// Pairwise subsequence distances inside the refined clusters — the
    /// pool the τ threshold percentile is taken from (§3.2.3).
    pub intra_cluster_distances: Vec<f64>,
    /// Number of grammar rules inspected (diagnostics / the paper's
    /// `|rules|` complexity term).
    pub rules_inspected: usize,
}

/// One rule occurrence mapped back to raw coordinates.
#[derive(Clone, Copy, Debug)]
struct Occurrence {
    instance: usize,
    start: usize,
    end: usize, // exclusive
}

/// Runs Algorithm 1 for a single class.
///
/// `members` are the class's training series; `class` is its label;
/// `sax` the discretization granularity. Returns an empty set when the
/// series are shorter than the window or nothing repeats.
pub fn find_candidates_for_class(
    members: &[&[f64]],
    class: Label,
    sax: &SaxConfig,
    config: &RpmConfig,
) -> CandidateSet {
    let cache = SaxCache::disabled();
    let ctx = Ctx::new(Engine::serial(), &cache);
    find_candidates_for_class_ctx(members, class, sax, config, &ctx)
}

/// [`find_candidates_for_class`] inside a training run: discretizations
/// come from the run's cache (keyed by the context's set identity), so
/// parameter-search neighbours sharing a `(window, paa)` or a full
/// `SaxConfig` never re-pay the SAX pass.
pub(crate) fn find_candidates_for_class_ctx(
    members: &[&[f64]],
    class: Label,
    sax: &SaxConfig,
    config: &RpmConfig,
    ctx: &Ctx<'_>,
) -> CandidateSet {
    // Runs on an engine worker when classes fan out, so this span roots
    // its own per-thread stage ("mine_class") in the run report.
    let _span = rpm_obs::span!("mine_class");
    let mut out = CandidateSet::default();
    if members.is_empty() {
        return out;
    }

    // --- Discretize each member separately; windows therefore never cross
    //     junctions, and sentinels below keep the grammar from joining
    //     words across them.
    let all_words = ctx
        .cache
        .words(ctx.set, class, sax, config.numerosity_reduction, members);
    let mut interner: HashMap<SaxWord, Token> = HashMap::new();
    let mut tokens: Vec<Token> = Vec::new();
    // origin[i] = Some((instance, window offset)) for word tokens.
    let mut origin: Vec<Option<(usize, usize)>> = Vec::new();
    let mut next_token: Token = 0;
    let mut sentinel_base: Token = Token::MAX;

    for (inst, words) in all_words.iter().enumerate() {
        for w in words {
            let t = *interner.entry(w.word.clone()).or_insert_with(|| {
                let t = next_token;
                next_token += 1;
                t
            });
            tokens.push(t);
            origin.push(Some((inst, w.offset)));
        }
        // Unique junction sentinel (counted down from Token::MAX so word
        // tokens and sentinels can never collide).
        if inst + 1 < members.len() {
            tokens.push(sentinel_base);
            origin.push(None);
            sentinel_base -= 1;
        }
    }
    if tokens.is_empty() {
        return out;
    }

    // --- Grammar induction over the junction-guarded stream.
    let grammar = match config.grammar {
        GrammarAlgorithm::Sequitur => {
            let mut seq = Sequitur::new();
            for &t in &tokens {
                seq.push(t);
            }
            seq.into_grammar()
        }
        GrammarAlgorithm::RePair => infer_repair(&tokens),
    };

    let min_coverage = ((config.gamma * members.len() as f64).ceil() as usize).max(2);

    for (_, rule) in grammar.repeated_rules() {
        out.rules_inspected += 1;
        // Map occurrences to raw subsequences. Rules cannot contain
        // sentinels (each sentinel occurs once), so every token in the
        // span has an origin.
        let mut occs: Vec<Occurrence> = Vec::with_capacity(rule.occurrences.len());
        for span in &rule.occurrences {
            let (inst, start) = match origin[span.start] {
                Some(o) => o,
                None => continue, // defensive; cannot happen for rules
            };
            let (last_inst, last_off) = match origin[span.end - 1] {
                Some(o) => o,
                None => continue,
            };
            if last_inst != inst {
                continue; // defensive junction guard
            }
            let end = (last_off + sax.window).min(members[inst].len());
            if end > start {
                occs.push(Occurrence {
                    instance: inst,
                    start,
                    end,
                });
            }
        }
        if occs.len() < 2 {
            continue;
        }
        // Cap the O(u³) clustering input (uniform subsample, documented in
        // DESIGN.md).
        if occs.len() > config.max_occurrences_per_rule {
            let step = occs.len() as f64 / config.max_occurrences_per_rule as f64;
            occs = (0..config.max_occurrences_per_rule)
                .map(|i| occs[(i as f64 * step) as usize])
                .collect();
        }

        // Materialize the subsequences once, and a match plan per
        // subsequence: refinement, the τ pool, and medoid selection all
        // compare the same O(u) subsequences O(u²) times, so the per-
        // pattern preparation (z-normalization + |zp| sort) is paid once
        // here instead of once per pair.
        let subs: Vec<&[f64]> = occs
            .iter()
            .map(|o| &members[o.instance][o.start..o.end])
            .collect();
        let plans: Vec<MatchPlan> = subs
            .iter()
            .map(|s| MatchPlan::with_kernel(s, config.kernel))
            .collect();

        // The full u×u distance matrix is filled up front; refinement, the
        // τ pool, and medoid selection then read the matrix instead of
        // re-scanning.
        let matrix = pairwise_matrix(&plans, config.early_abandon);
        let dist = |i: usize, j: usize| matrix[i * plans.len() + j];

        // --- Refinement: iterative bisection with complete linkage over
        //     closest-match distances.
        let clusters = bisect_refine(subs.len(), &dist, &config.bisect);

        for cluster in clusters {
            // γ filter on distinct instance coverage.
            let mut insts: Vec<usize> = cluster.iter().map(|&i| occs[i].instance).collect();
            insts.sort_unstable();
            insts.dedup();
            if insts.len() < min_coverage {
                continue;
            }
            // Record the τ pool.
            for (a, &i) in cluster.iter().enumerate() {
                for &j in &cluster[a + 1..] {
                    out.intra_cluster_distances.push(dist(i, j));
                }
            }
            let members_refs: Vec<&[f64]> = cluster.iter().map(|&i| subs[i]).collect();
            let values = if config.use_medoid {
                let cluster_refs: Vec<&usize> = cluster.iter().collect();
                let m = medoid(&cluster_refs, |&a, &b| dist(a, b)).expect("cluster is non-empty");
                znorm(members_refs[m])
            } else {
                centroid(&members_refs).expect("cluster is non-empty")
            };
            out.candidates.push(Candidate {
                class,
                values,
                frequency: cluster.len(),
                coverage: insts.len(),
                sax: *sax,
            });
        }
    }
    let m = rpm_obs::metrics();
    m.mine_rules.add(out.rules_inspected as u64);
    m.mine_candidates.add(out.candidates.len() as u64);
    out
}

/// Full u×u pairwise closest-match distance matrix (row-major): cell
/// `(i, j)` holds [`pattern_distance_plans`]`(plans[i], plans[j])`.
/// Pairs of different lengths are symmetric and scanned once; on equal
/// lengths the first argument slides, so each order gets its own scan.
/// Occurrences of one rule have near-equal lengths, so each cell is a
/// scan of a window or two, too short for a pattern-set scan to repay
/// building its set. The diagonal is left 0.0 and never queried (both
/// `bisect_refine` and `medoid` skip self-pairs).
fn pairwise_matrix(plans: &[MatchPlan], early_abandon: bool) -> Vec<f64> {
    let u = plans.len();
    let mut m = vec![0.0; u * u];
    for (i, a) in plans.iter().enumerate() {
        for (j, b) in plans.iter().enumerate() {
            if i == j || a.len() > b.len() {
                continue;
            }
            let d = pattern_distance_plans(a, b, early_abandon);
            m[i * u + j] = d;
            if a.len() < b.len() {
                m[j * u + i] = d;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::pattern_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a class whose members share a planted sine motif at random
    /// positions over a noisy baseline.
    fn planted_class(n: usize, len: usize, motif_len: usize, seed: u64) -> Vec<Vec<f64>> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut s: Vec<f64> = (0..len).map(|_| 0.3 * (rng.gen::<f64>() - 0.5)).collect();
                let at = rng.gen_range(0..len - motif_len);
                for i in 0..motif_len {
                    s[at + i] += 3.0 * (std::f64::consts::TAU * i as f64 / motif_len as f64).sin();
                }
                s
            })
            .collect()
    }

    fn cfg() -> RpmConfig {
        RpmConfig::default()
    }

    #[test]
    fn planted_motif_is_discovered() {
        let class = planted_class(10, 120, 24, 1);
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let sax = SaxConfig::new(24, 4, 4);
        let set = find_candidates_for_class(&members, 0, &sax, &cfg());
        assert!(!set.candidates.is_empty(), "no candidates found");
        assert!(set.rules_inspected > 0);
        // At least one candidate should match the planted sine closely.
        let template: Vec<f64> = (0..24)
            .map(|i| (std::f64::consts::TAU * i as f64 / 24.0).sin())
            .collect();
        let best = set
            .candidates
            .iter()
            .map(|c| pattern_distance(&c.values, &template, true))
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.5, "closest candidate distance {best}");
    }

    #[test]
    fn gamma_filter_enforces_coverage() {
        let class = planted_class(10, 120, 24, 2);
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let sax = SaxConfig::new(24, 4, 4);
        let set = find_candidates_for_class(&members, 0, &sax, &cfg());
        let min_cov = ((0.2f64 * 10.0).ceil() as usize).max(2);
        for c in &set.candidates {
            assert!(c.coverage >= min_cov, "coverage {} < {min_cov}", c.coverage);
            assert!(c.frequency >= c.coverage);
        }
    }

    #[test]
    fn pure_noise_yields_few_or_no_candidates() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        let class: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..100).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        // Fine granularity: random windows rarely share words.
        let sax = SaxConfig::new(20, 8, 8);
        let set = find_candidates_for_class(&members, 0, &sax, &cfg());
        assert!(
            set.candidates.len() <= 2,
            "noise produced {} candidates",
            set.candidates.len()
        );
    }

    #[test]
    fn window_longer_than_series_yields_nothing() {
        let class = planted_class(5, 50, 10, 4);
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let sax = SaxConfig::new(64, 4, 4);
        let set = find_candidates_for_class(&members, 0, &sax, &cfg());
        assert!(set.candidates.is_empty());
        assert_eq!(set.rules_inspected, 0);
    }

    #[test]
    fn empty_class_yields_nothing() {
        let set = find_candidates_for_class(&[], 0, &SaxConfig::new(8, 4, 4), &cfg());
        assert!(set.candidates.is_empty());
    }

    #[test]
    fn candidate_values_are_znormalized() {
        let class = planted_class(10, 120, 24, 5);
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let set = find_candidates_for_class(&members, 0, &SaxConfig::new(24, 4, 4), &cfg());
        for c in &set.candidates {
            let mean = c.values.iter().sum::<f64>() / c.values.len() as f64;
            assert!(mean.abs() < 0.5, "centroid mean {mean} far from 0");
        }
    }

    #[test]
    fn medoid_option_returns_an_actual_member_shape() {
        let class = planted_class(10, 120, 24, 6);
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let mut config = cfg();
        config.use_medoid = true;
        let set = find_candidates_for_class(&members, 0, &SaxConfig::new(24, 4, 4), &config);
        assert!(!set.candidates.is_empty());
        for c in &set.candidates {
            // Medoids are z-normalized raw members: mean ~0, sd ~1.
            let mean = c.values.iter().sum::<f64>() / c.values.len() as f64;
            let sd = (c
                .values
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f64>()
                / c.values.len() as f64)
                .sqrt();
            assert!(mean.abs() < 1e-9);
            assert!((sd - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn occurrence_cap_is_respected() {
        // A long, strongly periodic class yields rules with many
        // occurrences; the pool must still be bounded.
        let class: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..400).map(|i| ((i + k) as f64 * 0.3).sin()).collect())
            .collect();
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let mut config = cfg();
        config.max_occurrences_per_rule = 16;
        let set = find_candidates_for_class(&members, 0, &SaxConfig::new(20, 4, 4), &config);
        for c in &set.candidates {
            assert!(c.frequency <= 16, "frequency {} exceeds cap", c.frequency);
        }
    }

    #[test]
    fn repair_also_discovers_the_planted_motif() {
        let class = planted_class(10, 120, 24, 8);
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let mut config = cfg();
        config.grammar = crate::config::GrammarAlgorithm::RePair;
        let set = find_candidates_for_class(&members, 0, &SaxConfig::new(24, 4, 4), &config);
        assert!(!set.candidates.is_empty(), "Re-Pair found no candidates");
        let template: Vec<f64> = (0..24)
            .map(|i| (std::f64::consts::TAU * i as f64 / 24.0).sin())
            .collect();
        let best = set
            .candidates
            .iter()
            .map(|c| pattern_distance(&c.values, &template, true))
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.5, "closest Re-Pair candidate distance {best}");
    }

    #[test]
    fn intra_cluster_distances_are_finite_and_nonnegative() {
        let class = planted_class(10, 120, 24, 7);
        let members: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
        let set = find_candidates_for_class(&members, 0, &SaxConfig::new(24, 4, 4), &cfg());
        assert!(!set.intra_cluster_distances.is_empty());
        for &d in &set.intra_cluster_distances {
            assert!(d.is_finite() && d >= 0.0);
        }
    }
}
