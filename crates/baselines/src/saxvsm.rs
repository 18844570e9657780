//! SAX-VSM (Senin & Malinchik, ICDM 2013).
//!
//! Each class becomes one tf-idf-weighted bag of SAX words built from all
//! of its training series (sliding window + numerosity reduction); an
//! unlabeled series is classified by cosine similarity between its term-
//! frequency vector and the class weight vectors. The paper positions
//! SAX-VSM as the closest relative of RPM: its "patterns" all share the
//! sliding-window length and nothing prunes them (§2.2), which is exactly
//! what RPM improves on.

use crate::Classifier;
use rpm_sax::{BagOfWords, SaxConfig, SaxWord};
use rpm_ts::{Dataset, Label};
use std::collections::{BTreeMap, HashMap};

/// Hyper-parameters for [`SaxVsm`].
#[derive(Clone, Debug)]
pub struct SaxVsmParams {
    /// Candidate SAX configurations; the constructor keeps the one with
    /// the best leave-split-out training accuracy (SAX-VSM's own parameter
    /// selection is DIRECT over the same space; a small candidate set
    /// keeps the baseline cheap without changing its character).
    pub configs: Vec<SaxConfig>,
    /// Fraction of the training data used for fitting during config
    /// selection.
    pub train_fraction: f64,
    /// RNG seed for the selection split.
    pub seed: u64,
}

impl SaxVsmParams {
    /// A sensible candidate set for series of length `m`.
    pub fn for_length(m: usize) -> Self {
        let mut configs = Vec::new();
        for frac in [4usize, 6, 8] {
            let w = (m / frac).max(4);
            for paa in [4usize, 6] {
                for alpha in [3usize, 4] {
                    configs.push(SaxConfig::new(w, paa.min(w), alpha));
                }
            }
        }
        Self {
            configs,
            train_fraction: 0.7,
            seed: 0x5a5a,
        }
    }
}

/// Trained SAX-VSM model.
#[derive(Clone, Debug)]
pub struct SaxVsm {
    sax: SaxConfig,
    /// Class -> (word -> tf-idf weight).
    weights: BTreeMap<Label, HashMap<SaxWord, f64>>,
    /// Class -> L2 norm of the weight vector.
    norms: BTreeMap<Label, f64>,
}

fn class_bags(data: &Dataset, sax: &SaxConfig) -> BTreeMap<Label, BagOfWords> {
    let mut bags: BTreeMap<Label, BagOfWords> = BTreeMap::new();
    for (series, label) in data.iter() {
        let bag = BagOfWords::from_series(series, sax);
        bags.entry(label).or_default().merge(&bag);
    }
    bags
}

fn fit_weights(data: &Dataset, sax: &SaxConfig) -> SaxVsm {
    let bags = class_bags(data, sax);
    let n_classes = bags.len() as f64;
    // Document frequency of each word across class bags.
    let mut df: HashMap<SaxWord, usize> = HashMap::new();
    for bag in bags.values() {
        for (w, _) in bag.iter() {
            *df.entry(w.clone()).or_insert(0) += 1;
        }
    }
    let mut weights: BTreeMap<Label, HashMap<SaxWord, f64>> = BTreeMap::new();
    let mut norms: BTreeMap<Label, f64> = BTreeMap::new();
    for (&label, bag) in &bags {
        let mut wv: HashMap<SaxWord, f64> = HashMap::new();
        for (word, count) in bag.iter() {
            let d = df[word] as f64;
            if d >= n_classes {
                continue; // appears in every class: idf = 0
            }
            let tf = 1.0 + (count as f64).ln();
            let idf = (n_classes / d).log10();
            let w = tf * idf;
            if w > 0.0 {
                wv.insert(word.clone(), w);
            }
        }
        let norm = wv.values().map(|v| v * v).sum::<f64>().sqrt();
        weights.insert(label, wv);
        norms.insert(label, norm);
    }
    SaxVsm {
        sax: *sax,
        weights,
        norms,
    }
}

impl SaxVsm {
    /// Trains with config selection over `params.configs`.
    ///
    /// # Panics
    /// Panics on an empty training set or an empty config list.
    pub fn train(data: &Dataset, params: &SaxVsmParams) -> Self {
        assert!(!data.is_empty(), "SAX-VSM needs training data");
        assert!(!params.configs.is_empty(), "no candidate configs");
        if params.configs.len() == 1 {
            return fit_weights(data, &params.configs[0]);
        }
        let (tr_idx, va_idx) =
            rpm_ml::shuffled_stratified_split(&data.labels, params.train_fraction, params.seed);
        let sub = data.subset(&tr_idx);
        let val = data.subset(&va_idx);
        let mut best: Option<(usize, SaxConfig)> = None;
        for cfg in &params.configs {
            if cfg.window > sub.min_len() {
                continue;
            }
            let model = fit_weights(&sub, cfg);
            let correct = val.iter().filter(|(s, l)| model.predict(s) == *l).count();
            if best.is_none_or(|(c, _)| correct > c) {
                best = Some((correct, *cfg));
            }
        }
        let chosen = best.map(|(_, c)| c).unwrap_or(params.configs[0]);
        fit_weights(data, &chosen)
    }

    /// Trains with the *original* SAX-VSM protocol: DIRECT optimization of
    /// (window, PAA, alphabet) against validation accuracy (Senin &
    /// Malinchik use exactly this optimizer), then a final fit on the full
    /// training set. Costlier than the candidate-list constructor but
    /// closer to the published method.
    pub fn train_with_direct(data: &Dataset, max_evals: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "SAX-VSM needs training data");
        let (tr_idx, va_idx) = rpm_ml::shuffled_stratified_split(&data.labels, 0.7, seed);
        let sub = data.subset(&tr_idx);
        let val = data.subset(&va_idx);
        let min_len = sub.min_len().max(8) as i64;
        let lo = [(min_len / 8).clamp(4, min_len / 2), 3, 3];
        let hi = [(min_len / 2).max(lo[0]), 8, 8];
        let error = |p: &[i64]| {
            let window = p[0].max(2) as usize;
            if window > sub.min_len() {
                return 1.0;
            }
            let cfg = SaxConfig::new(
                window,
                (p[1].max(2) as usize).min(window),
                p[2].clamp(2, 12) as usize,
            );
            let model = fit_weights(&sub, &cfg);
            let correct = val.iter().filter(|(s, l)| model.predict(s) == *l).count();
            1.0 - correct as f64 / val.len().max(1) as f64
        };
        let (point, _err, _n) = rpm_opt::direct_minimize_integer(
            |batch| batch.iter().map(|p| error(p)).collect(),
            &lo,
            &hi,
            &rpm_opt::DirectParams {
                max_evals: max_evals * 2,
                max_iters: 40,
                ..rpm_opt::DirectParams::default()
            },
        );
        let window = (point[0].max(2) as usize).min(data.min_len());
        let cfg = SaxConfig::new(
            window,
            (point[1].max(2) as usize).min(window),
            point[2].clamp(2, 12) as usize,
        );
        fit_weights(data, &cfg)
    }

    /// The selected SAX configuration.
    pub fn sax_config(&self) -> &SaxConfig {
        &self.sax
    }

    /// Cosine similarity of a series's term-frequency vector against each
    /// class, ordered by label.
    pub fn similarities(&self, series: &[f64]) -> BTreeMap<Label, f64> {
        let bag = BagOfWords::from_series(series, &self.sax);
        // Term-frequency vector of the query.
        let mut q: HashMap<&SaxWord, f64> = HashMap::new();
        for (w, c) in bag.iter() {
            q.insert(w, 1.0 + (c as f64).ln());
        }
        let q_norm = q.values().map(|v| v * v).sum::<f64>().sqrt();
        let mut sims = BTreeMap::new();
        for (&label, wv) in &self.weights {
            let mut dot = 0.0;
            for (word, tfq) in &q {
                if let Some(w) = wv.get(*word) {
                    dot += tfq * w;
                }
            }
            let denom = q_norm * self.norms[&label];
            sims.insert(label, if denom > 0.0 { dot / denom } else { 0.0 });
        }
        sims
    }
}

impl Classifier for SaxVsm {
    fn predict(&self, series: &[f64]) -> Label {
        let sims = self.similarities(series);
        sims.into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, _)| l)
            .expect("model has classes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn sine_vs_square(n_per_class: usize, len: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new("sv", Vec::new(), Vec::new());
        for class in 0..2usize {
            for _ in 0..n_per_class {
                let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let s: Vec<f64> = (0..len)
                    .map(|i| {
                        let x = (i as f64 * 0.4 + phase).sin();
                        let v = if class == 0 { x } else { x.signum() };
                        v + 0.1 * (rng.gen::<f64>() - 0.5)
                    })
                    .collect();
                d.push(s, class);
            }
        }
        d
    }

    #[test]
    fn separates_waveform_families() {
        let train = sine_vs_square(15, 96, 1);
        let test = sine_vs_square(10, 96, 2);
        let m = SaxVsm::train(&train, &SaxVsmParams::for_length(96));
        let preds = m.predict_batch(&test.series);
        let errs = preds
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p != l)
            .count();
        assert!(errs <= 4, "{errs} errors of {}", preds.len());
    }

    #[test]
    fn similarities_cover_all_classes() {
        let train = sine_vs_square(8, 96, 3);
        let m = SaxVsm::train(&train, &SaxVsmParams::for_length(96));
        let sims = m.similarities(&train.series[0]);
        assert_eq!(sims.len(), 2);
        for v in sims.values() {
            assert!((-1.0..=1.0).contains(v));
        }
    }

    #[test]
    fn words_present_in_all_classes_get_zero_weight() {
        // Both classes identical => every word shared => all weights zero.
        let mut d = Dataset::new("same", Vec::new(), Vec::new());
        let s: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        for class in 0..2usize {
            for _ in 0..3 {
                d.push(s.clone(), class);
            }
        }
        let m = SaxVsm::train(
            &d,
            &SaxVsmParams {
                configs: vec![SaxConfig::new(16, 4, 4)],
                train_fraction: 0.7,
                seed: 0,
            },
        );
        for wv in m.weights.values() {
            assert!(wv.is_empty(), "shared words must vanish");
        }
    }

    #[test]
    fn single_config_skips_selection() {
        let train = sine_vs_square(6, 64, 4);
        let params = SaxVsmParams {
            configs: vec![SaxConfig::new(16, 4, 3)],
            train_fraction: 0.7,
            seed: 1,
        };
        let m = SaxVsm::train(&train, &params);
        assert_eq!(m.sax_config().window, 16);
    }

    #[test]
    fn direct_protocol_trains_and_classifies() {
        let train = sine_vs_square(12, 96, 6);
        let test = sine_vs_square(8, 96, 7);
        let m = SaxVsm::train_with_direct(&train, 6, 1);
        let errs = m
            .predict_batch(&test.series)
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p != l)
            .count();
        assert!(errs <= 4, "{errs} errors of {}", test.len());
        assert!(m.sax_config().window <= 96);
    }

    #[test]
    #[should_panic(expected = "needs training data")]
    fn empty_training_panics() {
        SaxVsm::train(&Dataset::default(), &SaxVsmParams::for_length(64));
    }
}
