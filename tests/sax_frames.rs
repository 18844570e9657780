//! Property suite for the O(paa) SAX frames.
//!
//! `paa_frames` computes each window's PAA values from rolling window
//! statistics and prefix sums instead of z-normalizing the window, so its
//! values are not bit-equal to the two-pass path. They must give the same
//! symbols: word `i` of `words_from_frames(&paa_frames(s, w, p), a, false)`
//! equals `sax_word(&s[i..i + w], …)` (z-normalize, PAA, symbolize — the
//! two-pass oracle) for every series, window, PAA size and alphabet, and
//! with numerosity reduction the words are that reduction of the same
//! per-window words. The inputs include the cases the rounding margin
//! exists for: σ = 0 plateaus (on large baselines too), windows whose σ
//! sits near `ZNORM_EPSILON`, ±10⁶ offsets, and alternating windows whose
//! z-PAA values are exactly 0.0 — a breakpoint of every even alphabet.
//!
//! Case count is read from `PROPTEST_CASES` (default 256 — the PR-gate
//! budget); the nightly CI sweep runs with `PROPTEST_CASES=2048`.

use proptest::prelude::*;
use rpm::sax::{paa_frames, sax_word, words_from_frames, SaxConfig, SaxWord};
use rpm::ts::ZNORM_EPSILON;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Asserts that the fast frames of `series` give the two-pass words
/// under each of `alphabets`, with and without numerosity reduction.
fn assert_two_pass_symbols(series: &[f64], window: usize, paa: usize, alphabets: &[usize]) {
    let frames = paa_frames(series, window, paa);
    let count = (series.len() + 1).saturating_sub(window);
    assert_eq!(frames.count(), count, "window {window} of {}", series.len());
    for &alphabet in alphabets {
        let cfg = SaxConfig::new(window, paa, alphabet);
        let oracle: Vec<SaxWord> = (0..count)
            .map(|i| sax_word(&series[i..i + window], &cfg))
            .collect();
        let words = words_from_frames(&frames, alphabet, false);
        assert_eq!(words.len(), count);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.offset, i);
            assert_eq!(
                w.word,
                oracle[i],
                "window {i} (w={window} p={paa} a={alphabet}): frame {:?}, two-pass {:?}",
                frames.frame(i),
                rpm::ts::paa(&rpm::ts::znorm(&series[i..i + window]), paa)
            );
        }
        let reduced: Vec<(usize, &SaxWord)> = oracle
            .iter()
            .enumerate()
            .filter(|&(i, w)| i == 0 || oracle[i - 1] != *w)
            .collect();
        let got = words_from_frames(&frames, alphabet, true);
        assert_eq!(got.len(), reduced.len(), "w={window} p={paa} a={alphabet}");
        for (g, (offset, word)) in got.iter().zip(reduced) {
            assert_eq!((g.offset, &g.word), (offset, word));
        }
    }
}

/// Every supported alphabet.
const ALL_ALPHABETS: [usize; 19] = [
    2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
];

/// A window length in `1..=len`, and a PAA size of one of four shapes:
/// dividing the window, fractional, equal to it, or larger than it.
fn window_and_paa(len: usize, wpick: f64, shape: u32, ppick: usize) -> (usize, usize) {
    let window = 1 + ((len as f64 * wpick) as usize).min(len - 1);
    let paa = match shape {
        0 => {
            let divisors: Vec<usize> = (1..=window).filter(|&d| window.is_multiple_of(d)).collect();
            divisors[ppick % divisors.len()]
        }
        1 => 1 + ppick % window,
        2 => window,
        _ => window + 1 + ppick % 8,
    };
    (window, paa)
}

/// Random-walk series generator (realistic autocorrelation).
fn random_walk(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, len).prop_map(|steps| {
        let mut acc = 0.0;
        steps
            .into_iter()
            .map(|s| {
                acc += s;
                acc
            })
            .collect()
    })
}

/// Coin-flip strategy (the vendored proptest shim has no `any::<bool>()`).
fn coin() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|b| b == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random walks of 2–400 points under every window shape, one
    /// alphabet per case.
    #[test]
    fn random_walks_give_two_pass_symbols(
        series in random_walk(2..400),
        wpick in 0.0f64..1.0,
        shape in 0u32..4,
        ppick in 0usize..64,
        alphabet in 2usize..21,
    ) {
        let (window, paa) = window_and_paa(series.len(), wpick, shape, ppick);
        assert_two_pass_symbols(&series, window, paa, &[alphabet]);
    }

    /// Shorter walks, checked under every alphabet at once: a frame is
    /// cached across alphabets, so one frame must serve all of them.
    #[test]
    fn every_alphabet_shares_one_frame(
        series in random_walk(2..96),
        wpick in 0.0f64..0.5,
        shape in 0u32..4,
        ppick in 0usize..64,
    ) {
        let (window, paa) = window_and_paa(series.len(), wpick, shape, ppick);
        assert_two_pass_symbols(&series, window, paa, &ALL_ALPHABETS);
    }

    /// Constant series and constant plateaus spliced into a walk: σ = 0
    /// windows map to all zeros on both paths, whatever the level.
    #[test]
    fn plateaus_give_two_pass_symbols(
        series in random_walk(24..200),
        start in 0usize..120,
        run in 2usize..64,
        level in -2.0e6f64..2.0e6,
        constant in coin(),
        wpick in 0.0f64..0.4,
        shape in 0u32..4,
        ppick in 0usize..64,
    ) {
        let mut series = series;
        if constant {
            series.fill(level);
        } else {
            let begin = start.min(series.len());
            let end = (start + run).min(series.len());
            series[begin..end].fill(level);
        }
        let (window, paa) = window_and_paa(series.len(), wpick, shape, ppick);
        assert_two_pass_symbols(&series, window, paa, &ALL_ALPHABETS);
    }

    /// Near-constant series: ripples of 10⁻¹² to 10⁻⁸ put window σ on
    /// both sides of `ZNORM_EPSILON`.
    #[test]
    fn near_constant_windows_give_two_pass_symbols(
        noise in proptest::collection::vec(-1.0f64..1.0, 8..160),
        exponent in -12.0f64..-8.0,
        level in -10.0f64..10.0,
        wpick in 0.0f64..0.5,
        shape in 0u32..4,
        ppick in 0usize..64,
    ) {
        let amplitude = 10f64.powf(exponent);
        let series: Vec<f64> = noise.iter().map(|e| level + amplitude * e).collect();
        let (window, paa) = window_and_paa(series.len(), wpick, shape, ppick);
        assert_two_pass_symbols(&series, window, paa, &ALL_ALPHABETS);
    }

    /// Walks riding a ±10⁵..10⁶ baseline.
    #[test]
    fn large_offsets_give_two_pass_symbols(
        series in random_walk(2..300),
        magnitude in 1.0e5f64..1.0e6,
        negative in coin(),
        wpick in 0.0f64..1.0,
        shape in 0u32..4,
        ppick in 0usize..64,
        alphabet in 2usize..21,
    ) {
        let offset = if negative { -magnitude } else { magnitude };
        let shifted: Vec<f64> = series.iter().map(|x| x + offset).collect();
        let (window, paa) = window_and_paa(shifted.len(), wpick, shape, ppick);
        assert_two_pass_symbols(&shifted, window, paa, &[alphabet]);
    }

    /// Alternating series `[a, b, a, b, …]`: any even-length segment of an
    /// even-length window has z-PAA value exactly 0.0, the middle
    /// breakpoint of every even alphabet, so the fast value must defer to
    /// the two-pass one.
    #[test]
    fn alternating_windows_give_two_pass_symbols(
        a in -1.0e3f64..1.0e3,
        b in -1.0e3f64..1.0e3,
        len in 2usize..200,
        wpick in 0.0f64..0.5,
        shape in 0u32..4,
        ppick in 0usize..64,
    ) {
        let series: Vec<f64> = (0..len).map(|i| if i % 2 == 0 { a } else { b }).collect();
        let (window, paa) = window_and_paa(len, wpick, shape, ppick);
        assert_two_pass_symbols(&series, window, paa, &ALL_ALPHABETS);
        // The even case on purpose: window 2k, PAA dividing it into pairs.
        let pairs = (window / 2).max(1);
        if 2 * pairs <= len {
            assert_two_pass_symbols(&series, 2 * pairs, pairs, &ALL_ALPHABETS);
        }
    }
}

/// The plateau whose two-pass mean rounds: 23 copies of this value sum to
/// a number that rounds, so the two-pass σ is an ulp above
/// `ZNORM_EPSILON` unless the exact-constancy check catches it. Spliced
/// into a walk on the same large baseline, every window, the plateau
/// itself included, must give the two-pass symbols.
#[test]
fn rounding_plateau_on_a_large_baseline() {
    let level = 954897.5017767096;
    let mut series: Vec<f64> = (0..120)
        .map(|i| level + 3.0 * (i as f64 * 0.37).sin())
        .collect();
    series[40..63].fill(level);
    for (window, paa) in [(23, 23), (23, 4), (23, 5), (10, 5), (30, 7), (23, 30)] {
        assert_two_pass_symbols(&series, window, paa, &ALL_ALPHABETS);
    }
    assert_two_pass_symbols(&[level; 23], 23, 4, &ALL_ALPHABETS);
}

/// Windows whose σ lands within a factor of two of `ZNORM_EPSILON`.
#[test]
fn sigma_at_the_epsilon_threshold() {
    for scale in [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0] {
        let step = scale * ZNORM_EPSILON;
        let series: Vec<f64> = (0..64)
            .map(|i| 1.0 + step * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        for (window, paa) in [(8, 4), (8, 3), (9, 4), (16, 16)] {
            assert_two_pass_symbols(&series, window, paa, &ALL_ALPHABETS);
        }
    }
}

/// One-ulp bumps on a 1.5·10⁶ baseline (ulp 2⁻³² ≈ 2.3·10⁻¹⁰), three in
/// every 16 points: each length-16 window has σ ≈ 0.91·`ZNORM_EPSILON`,
/// but the two-pass mean rounds to the baseline, which lifts its σ to
/// ≈ 1.01·`ZNORM_EPSILON`, so the two-pass path z-normalizes the window
/// instead of mapping it to zeros. The fast path must notice that σ is
/// within its error of the threshold and defer.
#[test]
fn sigma_straddles_the_epsilon_on_a_large_baseline() {
    let level: f64 = 1.5e6;
    let bumped = f64::from_bits(level.to_bits() + 1);
    let series: Vec<f64> = (0..64)
        .map(|i| {
            if [0, 5, 10].contains(&(i % 16)) {
                bumped
            } else {
                level
            }
        })
        .collect();
    for (window, paa) in [(16, 4), (16, 16), (16, 3)] {
        assert_two_pass_symbols(&series, window, paa, &ALL_ALPHABETS);
    }
}
