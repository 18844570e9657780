//! Subsequence and sliding-window discretization (§3.2.1).

use crate::breakpoints::{breakpoints, MAX_ALPHABET, MIN_ALPHABET};
use crate::word::SaxWord;
use rpm_ts::stats::VAR_REL_ERR;
use rpm_ts::{paa, znorm, znorm_into, CompensatedSum, RollingStats, ZNORM_EPSILON};
use std::sync::OnceLock;

/// The three SAX granularity parameters the paper optimizes per class
/// (Algorithm 3): sliding window length, PAA size, alphabet size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SaxConfig {
    /// Sliding-window length in points.
    pub window: usize,
    /// Number of PAA segments per window (word length).
    pub paa_size: usize,
    /// Alphabet size.
    pub alphabet: usize,
}

impl SaxConfig {
    /// Creates a config, validating basic sanity.
    ///
    /// # Panics
    /// Panics when `window == 0`, `paa_size == 0`, or the alphabet is out
    /// of the supported range.
    pub fn new(window: usize, paa_size: usize, alphabet: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(paa_size > 0, "paa_size must be positive");
        // Validates alphabet bounds as a side effect.
        let _ = breakpoints(alphabet);
        Self {
            window,
            paa_size,
            alphabet,
        }
    }
}

/// A SAX word tagged with the offset of the subsequence it encodes —
/// the `word_position` pairs the paper threads through grammar induction so
/// rules can be mapped back to raw subsequences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaxWordAt {
    /// Start offset of the window in the source series.
    pub offset: usize,
    /// The discretized window.
    pub word: SaxWord,
}

/// Converts symbols from PAA values given precomputed ascending breakpoints.
fn symbolize(paa_values: &[f64], cuts: &[f64]) -> SaxWord {
    SaxWord::new(
        paa_values
            .iter()
            .map(|&v| cuts.partition_point(|&c| c <= v) as u8)
            .collect(),
    )
}

/// Discretizes a single subsequence: z-normalize, PAA to `cfg.paa_size`
/// segments, then map each segment mean to a symbol.
///
/// `cfg.window` is ignored here (the subsequence *is* the window).
pub fn sax_word(subsequence: &[f64], cfg: &SaxConfig) -> SaxWord {
    let cuts = breakpoints(cfg.alphabet);
    let z = znorm(subsequence);
    let p = paa(&z, cfg.paa_size);
    symbolize(&p, &cuts)
}

/// Discretizes every sliding window of `series`, optionally applying
/// numerosity reduction (keep only the first of a run of identical
/// consecutive words, §3.2.1).
///
/// Returns words in offset order. A series shorter than the window yields
/// an empty vector — the caller (parameter search) treats that as an
/// infeasible configuration. Word `i` (before numerosity reduction) equals
/// [`sax_word`] of the window at offset `i`.
pub fn discretize(series: &[f64], cfg: &SaxConfig, numerosity_reduction: bool) -> Vec<SaxWordAt> {
    words_from_frames(
        &paa_frames(series, cfg.window, cfg.paa_size),
        cfg.alphabet,
        numerosity_reduction,
    )
}

/// The alphabet-independent half of discretization for one series: the
/// PAA values of every z-normalized sliding window, stored flat (window
/// `i` starts at offset `i`). Parameter-search grids vary the alphabet
/// far more cheaply than the window/PAA pair, so `rpm-core` memoizes
/// these frames per `(series, window, paa)` and derives words for every
/// alphabet from the same frames (see `rpm_core::cache`).
///
/// Frames are *symbol-equivalent* to the two-pass z-normalize + PAA of
/// each window, not bit-equal: under every alphabet from
/// [`MIN_ALPHABET`] to [`MAX_ALPHABET`], each value falls in the same
/// bin as the two-pass value (see [`paa_frames`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PaaFrames {
    /// PAA segments per window: the PAA size, clamped to the window.
    width: usize,
    values: Vec<f64>,
}

impl PaaFrames {
    /// Number of windows (`series.len() - window + 1`, or 0).
    pub fn count(&self) -> usize {
        self.values.len() / self.width
    }

    /// The PAA values of the window starting at `offset`.
    ///
    /// # Panics
    /// Panics when `offset >= self.count()`.
    pub fn frame(&self, offset: usize) -> &[f64] {
        &self.values[offset * self.width..(offset + 1) * self.width]
    }

    /// Every window's PAA values, in offset order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.values.chunks_exact(self.width)
    }
}

/// Unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// A window whose rounding margin exceeds this is recomputed the
/// two-pass way outright: near-constant windows of a wide-ranging series
/// would otherwise fail the breakpoint test value by value.
const LOOSEST_MARGIN: f64 = 1e-6;

/// Every distinct breakpoint of every supported alphabet, ascending.
fn all_cuts() -> &'static [f64] {
    static CUTS: OnceLock<Vec<f64>> = OnceLock::new();
    CUTS.get_or_init(|| {
        let mut cuts: Vec<f64> = (MIN_ALPHABET..=MAX_ALPHABET)
            .flat_map(breakpoints)
            .collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        cuts
    })
}

/// True when `v` is finite and no breakpoint of any alphabet lies
/// within `margin` of it, boundary included (a value equal to a cut goes
/// to the upper bin, so a cut at distance exactly `margin` could still
/// separate `v` from a value `margin` away).
fn clear_of_cuts(v: f64, margin: f64) -> bool {
    let cuts = all_cuts();
    let first = cuts.partition_point(|&c| c < v - margin);
    v.is_finite() && (first == cuts.len() || cuts[first] > v + margin)
}

/// Where one PAA segment reads its points, relative to the window start:
/// the points it covers whole, and the partly covered points at either
/// end with their weights (the fractional scheme of [`rpm_ts::paa()`]).
struct Segment {
    full: std::ops::Range<usize>,
    head: Option<(usize, f64)>,
    tail: Option<(usize, f64)>,
}

/// The `width` segments of a length-`n` window. Segment `s` spans
/// `[s·n/width, (s+1)·n/width)` in point units; integer arithmetic puts
/// its ends exactly.
fn segments(n: usize, width: usize) -> Vec<Segment> {
    (0..width)
        .map(|s| {
            let (a, ra) = (s * n / width, s * n % width);
            let (b, rb) = ((s + 1) * n / width, (s + 1) * n % width);
            let w = width as f64;
            Segment {
                full: a + usize::from(ra > 0)..b,
                head: (ra > 0).then(|| (a, (width - ra) as f64 / w)),
                tail: (rb > 0).then(|| (b, rb as f64 / w)),
            }
        })
        .collect()
}

/// Computes the [`PaaFrames`] of every sliding window of `series`: the
/// z-normalize + PAA stage of [`discretize`], with symbolization and
/// numerosity reduction deferred to [`words_from_frames`]. A window costs
/// O(paa), not O(window).
///
/// Z-normalization is affine, so PAA segment `s` of a z-normalized
/// window is `(m_s − μ)/σ`, with `m_s` the segment's (weighted) mean.
/// `μ` and `σ` come from [`RollingStats`]; segment means come from
/// compensated prefix sums of its centred series. Each value carries an
/// explicit rounding margin that bounds its distance from the two-pass
/// value (DESIGN.md, "Candidate mining"). A window is recomputed the
/// two-pass way (`znorm_into` + `paa`) when a value lies within its
/// margin of any breakpoint of any alphabet, when `σ` lies within its
/// error of [`ZNORM_EPSILON`], or when the margin exceeds
/// `LOOSEST_MARGIN`. Every other window yields the two-pass symbols
/// under every alphabet.
///
/// # Panics
/// Panics when `paa_size == 0`.
pub fn paa_frames(series: &[f64], window: usize, paa_size: usize) -> PaaFrames {
    assert!(paa_size > 0, "PAA segment count must be positive");
    let width = paa_size.min(window).max(1);
    let Some(stats) = RollingStats::new(series, window) else {
        return PaaFrames {
            width,
            values: Vec::new(),
        };
    };
    let centered = stats.centered();
    let mut prefix = Vec::with_capacity(centered.len() + 1);
    let mut acc = CompensatedSum::new();
    prefix.push(0.0);
    for &v in centered {
        acc.add(v);
        prefix.push(acc.value());
    }
    let max_abs = |x: &[f64]| x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let n = window as f64;
    let scale = width as f64 / n;
    // Absolute error scales (DESIGN.md derives each): `spread` bounds the
    // window mean, σ and the centring; `seg` a segment mean read off the
    // prefix sums; `fixed` the two-pass PAA sums; `rel` σ's relative error.
    let spread = 16.0 * U * (2.0 * max_abs(centered) + stats.shift().abs());
    let seg = 16.0 * U * max_abs(&prefix) * scale;
    let fixed = 32.0 * U * n * n.sqrt();
    let rel = VAR_REL_ERR + 16.0 * U;

    let segments = segments(window, width);
    let mut values = vec![0.0; stats.count() * width];
    let mut zbuf = vec![0.0; window];
    for (p, frame) in values.chunks_exact_mut(width).enumerate() {
        let sigma = stats.std(p);
        let sigma_err = 2.0 * (sigma * rel + spread);
        if sigma < ZNORM_EPSILON - sigma_err {
            // Z-normalizes to all zeros (the σ = 0 convention of
            // `rpm_ts::norm`); the frame already holds them.
            continue;
        }
        let base = 2.0 * ((seg + spread) / sigma + fixed);
        if sigma > ZNORM_EPSILON + sigma_err && base <= LOOSEST_MARGIN {
            let mu = stats.mean_centered(p);
            let x = &centered[p..p + window];
            let fast = frame.iter_mut().zip(&segments).all(|(out, s)| {
                let mut sum = prefix[p + s.full.end] - prefix[p + s.full.start];
                if let Some((i, w)) = s.head {
                    sum += w * x[i];
                }
                if let Some((i, w)) = s.tail {
                    sum += w * x[i];
                }
                *out = (sum * scale - mu) / sigma;
                clear_of_cuts(*out, base * (1.0 + out.abs()) + 2.0 * rel * out.abs())
            });
            if fast {
                continue;
            }
        }
        znorm_into(&series[p..p + window], &mut zbuf);
        frame.copy_from_slice(&paa(&zbuf, width));
    }
    PaaFrames { width, values }
}

/// Completes discretization from precomputed frames: symbolize each frame
/// with the `alphabet` breakpoints and optionally apply numerosity
/// reduction. `words_from_frames(&paa_frames(s, w, p), a, nr)` is
/// [`discretize`]`(s, &SaxConfig::new(w, p, a), nr)`.
///
/// # Panics
/// Panics when `alphabet` is outside the supported range.
pub fn words_from_frames(
    frames: &PaaFrames,
    alphabet: usize,
    numerosity_reduction: bool,
) -> Vec<SaxWordAt> {
    let cuts = breakpoints(alphabet);
    let mut out: Vec<SaxWordAt> = Vec::new();
    for (offset, frame) in frames.iter().enumerate() {
        let word = symbolize(frame, &cuts);
        if numerosity_reduction {
            if let Some(last) = out.last() {
                if last.word == word {
                    continue;
                }
            }
        }
        out.push(SaxWordAt { offset, word });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: usize, paa: usize, alpha: usize) -> SaxConfig {
        SaxConfig::new(window, paa, alpha)
    }

    #[test]
    fn ramp_maps_to_ascending_symbols() {
        let ramp: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let w = sax_word(&ramp, &cfg(12, 4, 4));
        // A rising ramp must produce non-decreasing symbols spanning the
        // alphabet ends.
        let s = w.symbols();
        assert!(s.windows(2).all(|p| p[0] <= p[1]), "{w}");
        assert_eq!(s[0], 0);
        assert_eq!(s[3], 3);
    }

    #[test]
    fn constant_window_maps_to_middle_symbols() {
        // znorm of a constant window is all zeros; with alpha=4 zero sits
        // exactly on the middle breakpoint, landing in the upper-middle bin.
        let w = sax_word(&[5.0; 8], &cfg(8, 4, 4));
        assert!(w.symbols().iter().all(|&s| s == 1 || s == 2), "{w}");
    }

    #[test]
    fn symbolize_respects_breakpoints() {
        // alpha=3 cuts at ±0.4307.
        let cuts = breakpoints(3);
        let w = symbolize(&[-1.0, 0.0, 1.0], &cuts);
        assert_eq!(w.letters(), "abc");
    }

    #[test]
    fn value_on_breakpoint_goes_to_upper_bin() {
        let cuts = vec![0.0];
        let w = symbolize(&[0.0], &cuts);
        assert_eq!(w.symbols(), &[1]);
    }

    #[test]
    fn discretize_yields_one_word_per_position_without_nr() {
        let s: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin()).collect();
        let words = discretize(&s, &cfg(8, 4, 4), false);
        assert_eq!(words.len(), 20 - 8 + 1);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.offset, i);
        }
    }

    #[test]
    fn numerosity_reduction_collapses_runs() {
        // A slowly varying series produces runs of identical words.
        let s: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        let all = discretize(&s, &cfg(16, 4, 3), false);
        let reduced = discretize(&s, &cfg(16, 4, 3), true);
        assert!(
            reduced.len() < all.len(),
            "{} vs {}",
            reduced.len(),
            all.len()
        );
        // No two consecutive identical words remain.
        for pair in reduced.windows(2) {
            assert_ne!(pair[0].word, pair[1].word);
        }
        // The first occurrence of each run is kept.
        assert_eq!(reduced[0].offset, 0);
    }

    #[test]
    fn numerosity_reduction_keeps_nonconsecutive_duplicates() {
        // The paper's example: S1 = aba bac bac bac cab acc bac bac cab
        // becomes aba bac cab acc bac cab — "bac" reappears after "acc".
        // We emulate by hand-rolling words through the same filter logic.
        let s: Vec<f64> = (0..60)
            .map(|i| {
                if (i / 10) % 2 == 0 {
                    (i % 10) as f64
                } else {
                    (9 - i % 10) as f64
                }
            })
            .collect();
        let reduced = discretize(&s, &cfg(10, 5, 4), true);
        let letters: Vec<String> = reduced.iter().map(|w| w.word.letters()).collect();
        // The zig-zag series must alternate between at least two words and
        // revisit earlier words.
        let unique: std::collections::BTreeSet<_> = letters.iter().collect();
        assert!(
            unique.len() < letters.len(),
            "repeats must survive: {letters:?}"
        );
    }

    #[test]
    fn short_series_yields_nothing() {
        let words = discretize(&[1.0, 2.0], &cfg(8, 4, 4), true);
        assert!(words.is_empty());
    }

    #[test]
    fn word_length_clamps_to_window() {
        // paa_size > window clamps to window length (rpm-ts::paa behaviour).
        let w = sax_word(&[0.0, 1.0], &cfg(2, 8, 4));
        assert_eq!(w.len(), 2);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        SaxConfig::new(0, 4, 4);
    }

    #[test]
    fn frames_then_words_equals_discretize() {
        let s: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.23).sin() + (i as f64 * 0.05).cos())
            .collect();
        for (w, p) in [(8usize, 4usize), (16, 4), (16, 8), (24, 6), (10, 4), (3, 5)] {
            let frames = paa_frames(&s, w, p);
            assert_eq!(frames.count(), s.len() - w + 1);
            for a in [3usize, 4, 6, 8] {
                let cfg = SaxConfig::new(w, p, a);
                for (i, word) in words_from_frames(&frames, a, false).iter().enumerate() {
                    assert_eq!(word.word, sax_word(&s[i..i + w], &cfg), "w={w} p={p} a={a}");
                }
                for nr in [false, true] {
                    assert_eq!(
                        words_from_frames(&frames, a, nr),
                        discretize(&s, &cfg, nr),
                        "w={w} p={p} a={a} nr={nr}"
                    );
                }
            }
        }
    }

    #[test]
    fn frames_of_short_series_are_empty() {
        let frames = paa_frames(&[1.0, 2.0], 8, 4);
        assert_eq!(frames.count(), 0);
        assert!(words_from_frames(&frames, 4, true).is_empty());
    }
}
