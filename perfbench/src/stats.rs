//! Order statistics behind every timing the benchmark reports.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice: the
/// smallest sample with at least `q * n` samples at or below it.
/// Returns `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median by nearest rank; `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5).unwrap_or(0.0)
}

/// An ascending copy (NaN-free input assumed: every value is a measured
/// duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples above
/// it, with the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 * rank / n`.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The tail of an ascending slice: rank `n - 10`, so exactly ten samples
/// lie beyond it. `None` when there are too few samples for any
/// percentile to have ten beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// How late an open-loop generator sent its ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lateness {
    /// Median lateness over all sent ticks, ms.
    pub p50_ms: f64,
    /// Tail lateness by the [`tail`] rule (the maximum when there are
    /// too few ticks), ms.
    pub tail_ms: f64,
    /// The generator fell further behind as the rung went on: the
    /// median lateness of the last quarter of ticks exceeds that of the
    /// first quarter by more than a quarter of the latency limit.
    pub growing: bool,
}

/// Summarises per-tick lateness given in tick (schedule) order.
pub fn lateness(late_ms: &[f64], limit_ms: f64) -> Lateness {
    let all = sorted(late_ms);
    let quarter = late_ms.len() / 4;
    let growing = quarter > 0 && {
        let first = median(&late_ms[..quarter]);
        let last = median(&late_ms[late_ms.len() - quarter..]);
        last - first > limit_ms / 4.0
    };
    Lateness {
        p50_ms: nearest_rank(&all, 0.5).unwrap_or(0.0),
        tail_ms: tail(&all)
            .map(|t| t.value)
            .or_else(|| all.last().copied())
            .unwrap_or(0.0),
        growing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_q() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.991), Some(100.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.5], 0.01), Some(7.5));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Odd count: the middle sample, no interpolation.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 290.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 100.0 * 290.0 / 300.0).abs() < 1e-12);
        assert_eq!(t.samples, 300);

        let few: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&few).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!(tail(&few[..10]).is_none(), "ten samples leave no tail");
    }

    #[test]
    fn lateness_flags_a_generator_falling_behind() {
        // Steady jitter: never growing.
        let steady: Vec<f64> = (0..100).map(|i| (i % 3) as f64 * 0.1).collect();
        let l = lateness(&steady, 20.0);
        assert!(!l.growing);
        assert_eq!(l.p50_ms, 0.1);
        assert_eq!(l.tail_ms, 0.2);

        // Lateness that climbs 0.2 ms per tick: the last quarter is ~15 ms
        // later than the first, beyond a quarter of a 20 ms limit.
        let climbing: Vec<f64> = (0..100).map(|i| i as f64 * 0.2).collect();
        let l = lateness(&climbing, 20.0);
        assert!(l.growing);
        assert_eq!(l.tail_ms, 89.0 * 0.2);

        // The same climb is tolerated under a limit four times larger
        // than the drift.
        assert!(!lateness(&climbing, 80.0).growing);

        // Too few ticks for a quarter: never growing, tail is the max.
        let l = lateness(&[5.0, 1.0, 3.0], 1.0);
        assert!(!l.growing);
        assert_eq!(l.tail_ms, 5.0);
        assert_eq!(lateness(&[], 1.0).p50_ms, 0.0);
    }
}
