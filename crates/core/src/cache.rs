//! Training-time memoization (the second half of the shared engine).
//!
//! One [`SaxCache`] lives for the duration of a single
//! `RpmClassifier::train` call and is shared by every stage that call
//! fans out — the parameter search, its validation splits, candidate
//! mining, and the feature transforms. It memoizes the four artifacts the
//! serial pipeline recomputes most:
//!
//! * **PAA frames** — the alphabet-independent half of discretization,
//!   keyed by `(set, class, window, paa)`. Grid/DIRECT neighbours that
//!   differ only in alphabet size re-derive their words from the same
//!   frames instead of re-running z-normalize + PAA over every window.
//! * **Word sequences** — full discretizations, keyed by
//!   `(set, class, SaxConfig, numerosity reduction)`.
//! * **Combination scores** — the cross-validated objective of one
//!   [`SaxConfig`] (Algorithm 3's inner loop). Per-class DIRECT runs
//!   probe heavily overlapping point sets; each distinct combination is
//!   scored once per `train` call.
//! * **Transform columns** — the distance of every series in a set to one
//!   pattern, keyed by `(set, pattern fingerprint)`. Both transforms that
//!   fill it (CFS selection and the final SVM fit) scan the plain view
//!   with the run's one config, so the key needs nothing else; they
//!   share their columns for every pattern that survives selection.
//!
//! All maps sit behind `std::sync::Mutex` (guarded locks; values are
//! `Arc`-shared) so engine workers can hit the cache concurrently.
//! Cached values are pure functions of their keys, so a racy double
//! compute inserts the same value twice — correctness never depends on
//! scheduling, which is what keeps parallel training bit-identical to
//! serial (see DESIGN.md §5).

use crate::engine::Engine;
use rpm_sax::{paa_frames, words_from_frames, PaaFrame, SaxConfig, SaxWordAt};
use rpm_ts::Label;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Identifies which series collection a cached artifact was computed
/// from. Validation subsets are fully determined by the split seed (the
/// stratified shuffle is deterministic), so the seed *is* the identity —
/// every parameter combination probing the same split shares entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetId {
    /// The full training set of the current `train` call.
    FullTrain,
    /// The training half of the validation split drawn with this seed.
    Split(u64),
}

/// Hit/miss counters of one [`SaxCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: usize,
    /// Lookups that had to compute.
    pub misses: usize,
}

impl CacheStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from memory (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}% hit rate)",
            self.hits,
            self.lookups(),
            100.0 * self.hit_rate()
        )
    }
}

/// Which memoization map a lookup went to; routes the lookup to the
/// matching per-family counters in the global metrics registry.
#[derive(Clone, Copy, Debug)]
enum Family {
    Frames,
    Words,
    Evals,
    Columns,
}

type FramesKey = (SetId, Label, usize, usize);
type WordsKey = (SetId, Label, SaxConfig, bool);
pub(crate) type EvalValue = Option<(BTreeMap<Label, f64>, f64)>;
type ColumnKey = (SetId, u64);

/// The per-training-run memoization cache. Construct one per
/// `RpmClassifier::train` call (`RpmConfig::cache` gates it); a disabled
/// cache computes everything on demand and stores nothing.
#[derive(Debug, Default)]
pub struct SaxCache {
    enabled: bool,
    frames: Mutex<HashMap<FramesKey, Arc<Vec<Vec<PaaFrame>>>>>,
    words: Mutex<HashMap<WordsKey, Arc<Vec<Vec<SaxWordAt>>>>>,
    evals: Mutex<HashMap<SaxConfig, EvalValue>>,
    columns: Mutex<HashMap<ColumnKey, Arc<Vec<f64>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SaxCache {
    /// A cache that memoizes iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// A pass-through cache: every lookup computes, nothing is stored.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether lookups are memoized.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn record(&self, family: Family, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if rpm_obs::enabled() {
            let m = rpm_obs::metrics();
            let fam = match family {
                Family::Frames => &m.cache_frames,
                Family::Words => &m.cache_words,
                Family::Evals => &m.cache_evals,
                Family::Columns => &m.cache_columns,
            };
            if hit {
                fam.hits.inc();
            } else {
                fam.misses.inc();
            }
        }
    }

    /// PAA frames of every member of `(set, class)` under
    /// `(window, paa)` — the alphabet-independent discretization stage.
    pub fn frames(
        &self,
        set: SetId,
        class: Label,
        window: usize,
        paa_size: usize,
        members: &[&[f64]],
    ) -> Arc<Vec<Vec<PaaFrame>>> {
        let compute = || {
            Arc::new(
                members
                    .iter()
                    .map(|s| paa_frames(s, window, paa_size))
                    .collect::<Vec<_>>(),
            )
        };
        if !self.enabled {
            return compute();
        }
        let key = (set, class, window, paa_size);
        if let Some(v) = self.frames.lock().ok().and_then(|m| m.get(&key).cloned()) {
            self.record(Family::Frames, true);
            return v;
        }
        self.record(Family::Frames, false);
        let v = compute();
        if let Ok(mut m) = self.frames.lock() {
            return m.entry(key).or_insert(v).clone();
        }
        v
    }

    /// Discretized word sequences of every member of `(set, class)` under
    /// `sax`, derived from the cached frames. Identical to calling
    /// `rpm_sax::discretize` per member.
    pub fn words(
        &self,
        set: SetId,
        class: Label,
        sax: &SaxConfig,
        numerosity_reduction: bool,
        members: &[&[f64]],
    ) -> Arc<Vec<Vec<SaxWordAt>>> {
        let key = (set, class, *sax, numerosity_reduction);
        if self.enabled {
            if let Some(v) = self.words.lock().ok().and_then(|m| m.get(&key).cloned()) {
                self.record(Family::Words, true);
                return v;
            }
            self.record(Family::Words, false);
        }
        let frames = self.frames(set, class, sax.window, sax.paa_size, members);
        let v = Arc::new(
            frames
                .iter()
                .map(|f| words_from_frames(f, sax.alphabet, numerosity_reduction))
                .collect::<Vec<_>>(),
        );
        if !self.enabled {
            return v;
        }
        if let Ok(mut m) = self.words.lock() {
            return m.entry(key).or_insert(v).clone();
        }
        v
    }

    /// Seeds the evaluation map with an already-known combination score
    /// (checkpoint resume). Counts as neither hit nor miss; a no-op on
    /// a disabled cache.
    pub(crate) fn preload_eval(&self, sax: SaxConfig, value: EvalValue) {
        if !self.enabled {
            return;
        }
        if let Ok(mut m) = self.evals.lock() {
            m.insert(sax, value);
        }
    }

    /// Memoized cross-validation score of one parameter combination
    /// (Algorithm 3's objective). The combination is always scored
    /// against the full training set with splits derived from the config
    /// seed, so the [`SaxConfig`] alone identifies the result.
    pub fn eval(&self, sax: &SaxConfig, compute: impl FnOnce() -> EvalValue) -> EvalValue {
        if !self.enabled {
            return compute();
        }
        if let Some(v) = self.evals.lock().ok().and_then(|m| m.get(sax).cloned()) {
            self.record(Family::Evals, true);
            return v;
        }
        self.record(Family::Evals, false);
        let v = compute();
        if let Ok(mut m) = self.evals.lock() {
            return m.entry(*sax).or_insert(v).clone();
        }
        v
    }

    /// Memoized transform column: the distance of every series in `set`
    /// to `pattern`, or `None` when it must be computed. Keyed by a
    /// fingerprint of the pattern's exact bits, so any pattern
    /// reappearing between the CFS transform and the final SVM transform
    /// reuses its column. Records a hit or miss per call; always a
    /// recorded miss on a disabled cache.
    pub(crate) fn try_column(&self, set: SetId, pattern: &[f64]) -> Option<Arc<Vec<f64>>> {
        if !self.enabled {
            self.record(Family::Columns, false);
            return None;
        }
        let key = (set, fingerprint(pattern));
        let found = self.columns.lock().ok().and_then(|m| m.get(&key).cloned());
        self.record(Family::Columns, found.is_some());
        found
    }

    /// Stores a column computed after a [`try_column`](Self::try_column)
    /// miss (no hit/miss accounting — the miss was already recorded).
    /// First write wins.
    pub(crate) fn store_column(
        &self,
        set: SetId,
        pattern: &[f64],
        value: Arc<Vec<f64>>,
    ) -> Arc<Vec<f64>> {
        if !self.enabled {
            return value;
        }
        if let Ok(mut m) = self.columns.lock() {
            return m
                .entry((set, fingerprint(pattern)))
                .or_insert(value)
                .clone();
        }
        value
    }
}

/// FNV-1a over the pattern's length and exact f64 bit patterns. Patterns
/// are identical-by-construction when reused (clones of the same
/// candidate values), so bit equality is the right notion.
fn fingerprint(pattern: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    mix(pattern.len() as u64);
    for &v in pattern {
        mix(v.to_bits());
    }
    h
}

/// Everything a training stage needs: its parallelism budget, the shared
/// cache, and the identity of the series collection it operates on.
/// Fan-out stages hand nested stages a [`Ctx::serial`] child so
/// parallelism is spent exactly once, at the outermost stage.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ctx<'a> {
    pub engine: Engine,
    pub cache: &'a SaxCache,
    pub set: SetId,
    /// Parameter-search budget; `None` = unlimited (the default).
    pub budget: Option<&'a crate::budget::BudgetState>,
    /// Open checkpoint receiving completed combination scores.
    pub checkpoint: Option<&'a crate::checkpoint::Checkpoint>,
}

impl<'a> Ctx<'a> {
    /// Root context over the full training set.
    pub fn new(engine: Engine, cache: &'a SaxCache) -> Self {
        Self {
            engine,
            cache,
            set: SetId::FullTrain,
            budget: None,
            checkpoint: None,
        }
    }

    /// This context with a search budget attached.
    pub fn with_budget(&self, budget: &'a crate::budget::BudgetState) -> Self {
        Self {
            budget: Some(budget),
            ..*self
        }
    }

    /// This context with an open checkpoint attached.
    pub fn with_checkpoint(&self, checkpoint: Option<&'a crate::checkpoint::Checkpoint>) -> Self {
        Self {
            checkpoint,
            ..*self
        }
    }

    /// This context with the parallelism budget already spent.
    pub fn serial(&self) -> Self {
        Self {
            engine: Engine::serial(),
            ..*self
        }
    }

    /// This context, rebound to another series collection.
    pub fn with_set(&self, set: SetId) -> Self {
        Self { set, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_sax::discretize;

    fn series(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|k| {
                (0..len)
                    .map(|i| ((i + 7 * k) as f64 * 0.31).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn words_match_direct_discretization() {
        let data = series(3, 80);
        let members: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let cache = SaxCache::new(true);
        for alphabet in [3usize, 5, 8] {
            let sax = SaxConfig::new(16, 4, alphabet);
            let words = cache.words(SetId::FullTrain, 0, &sax, true, &members);
            for (w, s) in words.iter().zip(&members) {
                assert_eq!(*w, discretize(s, &sax, true));
            }
        }
    }

    #[test]
    fn alphabet_neighbours_share_frames() {
        let data = series(4, 60);
        let members: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let cache = SaxCache::new(true);
        // First alphabet: words miss, frames miss.
        cache.words(
            SetId::FullTrain,
            1,
            &SaxConfig::new(16, 4, 3),
            true,
            &members,
        );
        let after_first = cache.stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 2, "words + frames miss");
        // Second alphabet, same (window, paa): words miss, frames HIT.
        cache.words(
            SetId::FullTrain,
            1,
            &SaxConfig::new(16, 4, 6),
            true,
            &members,
        );
        let after_second = cache.stats();
        assert_eq!(after_second.hits, 1, "frames reused across alphabets");
        assert_eq!(after_second.misses, 3);
        // Exact repeat: words HIT, frames untouched.
        cache.words(
            SetId::FullTrain,
            1,
            &SaxConfig::new(16, 4, 6),
            true,
            &members,
        );
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn interleaved_configs_and_sets_do_not_collide() {
        let a = series(3, 64);
        let b = series(5, 64);
        let ma: Vec<&[f64]> = a.iter().map(Vec::as_slice).collect();
        let mb: Vec<&[f64]> = b.iter().map(Vec::as_slice).collect();
        let cache = SaxCache::new(true);
        let s1 = SaxConfig::new(16, 4, 4);
        let s2 = SaxConfig::new(24, 6, 4);
        // Interleave two configs across two sets; every answer must match
        // a fresh computation regardless of what is already cached.
        for _ in 0..2 {
            for (set, members, data) in [(SetId::FullTrain, &ma, &a), (SetId::Split(42), &mb, &b)] {
                for sax in [&s1, &s2] {
                    let got = cache.words(set, 0, sax, true, members);
                    for (w, s) in got.iter().zip(data) {
                        assert_eq!(*w, discretize(s, sax, true), "{set:?} {sax:?}");
                    }
                }
            }
        }
        // First sweep: 4 distinct word keys + 4 distinct frame keys, all
        // misses. Second sweep: 4 word hits (frames never consulted).
        assert_eq!(cache.stats(), CacheStats { hits: 4, misses: 8 });
    }

    #[test]
    fn disabled_cache_computes_and_stores_nothing() {
        let data = series(2, 48);
        let members: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let cache = SaxCache::disabled();
        let sax = SaxConfig::new(12, 4, 4);
        let w1 = cache.words(SetId::FullTrain, 0, &sax, true, &members);
        let w2 = cache.words(SetId::FullTrain, 0, &sax, true, &members);
        assert_eq!(w1, w2);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn eval_memoizes_including_none() {
        let cache = SaxCache::new(true);
        let sax = SaxConfig::new(8, 4, 4);
        let mut calls = 0usize;
        let v1 = cache.eval(&sax, || {
            calls += 1;
            None
        });
        let v2 = cache.eval(&sax, || {
            calls += 1;
            Some((BTreeMap::new(), 0.5))
        });
        assert_eq!(calls, 1, "second lookup must not recompute");
        assert!(
            v1.is_none() && v2.is_none(),
            "first (None) answer is sticky"
        );
    }

    #[test]
    fn column_fingerprints_distinguish_patterns() {
        let cache = SaxCache::new(true);
        let p1 = vec![1.0, 2.0, 3.0];
        let p2 = vec![1.0, 2.0, 3.0 + 1e-12];
        assert!(cache.try_column(SetId::FullTrain, &p1).is_none());
        cache.store_column(SetId::FullTrain, &p1, Arc::new(vec![0.1]));
        assert!(
            cache.try_column(SetId::FullTrain, &p2).is_none(),
            "bit-different patterns get their own column"
        );
        cache.store_column(SetId::FullTrain, &p2, Arc::new(vec![0.2]));
        let first_wins = cache.store_column(SetId::FullTrain, &p1, Arc::new(vec![9.9]));
        assert_eq!(*first_wins, vec![0.1]);
        assert_eq!(
            cache.try_column(SetId::FullTrain, &p1).as_deref(),
            Some(&vec![0.1]),
            "exact repeat is served from memory"
        );
        assert!(
            cache.try_column(SetId::Split(7), &p1).is_none(),
            "sets get separate columns"
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 3 });
    }

    #[test]
    fn concurrent_lookups_agree() {
        let data = series(6, 96);
        let members: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let cache = SaxCache::new(true);
        let sax = SaxConfig::new(16, 4, 5);
        let reference = cache.words(SetId::FullTrain, 0, &sax, true, &members);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let got = cache.words(SetId::FullTrain, 0, &sax, true, &members);
                    assert_eq!(got, reference);
                });
            }
        });
    }
}
