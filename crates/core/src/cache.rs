//! Training-time memoization (the second half of the shared engine).
//!
//! One [`SaxCache`] lives for the duration of a single
//! `RpmClassifier::train` call and is shared by every stage that call
//! fans out — the parameter search, its validation splits, candidate
//! mining, and the feature transforms. It memoizes the three artifacts
//! the serial pipeline recomputes most, each in one family:
//!
//! * **PAA frames** — the alphabet-independent half of discretization,
//!   keyed by `(series, window, paa)`. A frame is a pure function of one
//!   series' values, so the full training set, every validation split and
//!   the final fit share the frames of the series they have in common,
//!   and grid/DIRECT neighbours that differ only in alphabet size
//!   re-derive their words from the same frames. A series is identified
//!   by content: each distinct series is interned to an id the first time
//!   it is seen, and a fingerprint match is confirmed bit for bit before
//!   the id is reused. Words themselves are not memoized: the full
//!   `SaxConfig` that keys them is scored once per `train` call, so they
//!   could never hit.
//! * **Combination scores** — the cross-validated objective of one
//!   [`SaxConfig`] (Algorithm 3's inner loop). Per-class DIRECT runs
//!   probe heavily overlapping point sets; each distinct combination is
//!   scored once per `train` call. Only the searching thread looks
//!   combinations up.
//! * **Transform columns** — the distance of every series in a set to one
//!   pattern, keyed by `(set, pattern fingerprint)`. Both transforms that
//!   fill it (CFS selection and the final SVM fit) scan the plain view
//!   with the run's one config, so the key needs nothing else; they
//!   share their columns for every pattern that survives selection. A
//!   validation split's set names its combination too, so each fold
//!   model reads only the columns it computed itself (see [`SetId`]).
//!
//! Every family is one private `Memo`: a map from key to a
//! [`OnceLock`] cell, behind a `std::sync::Mutex` (values are
//! `Arc`-shared or small) so engine workers can share the cache. Each
//! key is computed once: the first lookup counts a miss and computes,
//! and a lookup that arrives meanwhile counts a hit and waits for that
//! value. So the hit/miss split is the same at any thread count, and
//! cached values — pure functions of their keys — keep parallel training
//! bit-identical to serial (see DESIGN.md §5). A computation that
//! unwinds leaves its key empty; the next lookup computes it.

use crate::engine::Engine;
use rpm_obs::CacheFamilyMetrics;
use rpm_sax::{paa_frames, PaaFrames, SaxConfig};
use rpm_ts::Label;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Identifies which series collection a transform column was computed
/// from, and for whom. Validation subsets are fully determined by the
/// split seed (the stratified shuffle is deterministic), so the seed
/// identifies the series. A split's columns are also keyed by the
/// combination whose fold model scans them: the folds of a search run
/// side by side, and a column computed in another fold's scan would
/// change how this fold's scan groups its patterns by length, so its
/// kernel counters would follow scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetId {
    /// The full training set of the current `train` call.
    FullTrain,
    /// The training half of the validation split drawn with this seed,
    /// scanned by the fold model of this combination.
    Split(u64, SaxConfig),
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

/// `(series id, window, paa)`; see [`SeriesInterner`].
type FramesKey = (usize, usize, usize);
pub(crate) type EvalValue = Option<(BTreeMap<Label, f64>, f64)>;
type ColumnKey = (SetId, u64);

/// One memo family: its map of compute-once cells, its own hit/miss
/// counts, and the global metrics family it reports to.
#[derive(Debug)]
struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    family: &'static CacheFamilyMetrics,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new(family: &'static CacheFamilyMetrics) -> Self {
        Self {
            map: Mutex::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            family,
        }
    }

    /// The map. Every update is one whole-cell insert, and no value is
    /// computed under the lock, so a poisoned lock still guards a valid
    /// map.
    fn map(&self) -> MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cell of `key`, inserted empty when the key is new.
    fn cell(&self, key: K) -> Arc<OnceLock<V>> {
        Arc::clone(self.map().entry(key).or_default())
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.family.hits.inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.family.misses.inc();
        }
    }

    /// The stored value for `key`, recording a hit or a miss. For
    /// families whose caller computes a miss itself and then
    /// [`insert`](Self::insert)s it.
    fn lookup(&self, key: &K) -> Option<V> {
        let found = self.map().get(key).and_then(|cell| cell.get().cloned());
        self.count(found.is_some());
        found
    }

    /// Stores `value` unless `key` already has one; returns the stored
    /// value (first write wins). Records neither hit nor miss.
    fn insert(&self, key: K, value: V) -> V {
        self.cell(key).get_or_init(|| value).clone()
    }

    /// The value of `key`, computed once. The first lookup counts a miss
    /// and runs `compute`; a lookup arriving while it runs counts a hit
    /// and waits for its value. A `compute` that unwinds leaves the key
    /// empty, and the next lookup computes it.
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let cell = self.cell(key);
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                self.count(false);
                compute()
            })
            .clone();
        if !computed {
            self.count(true);
        }
        value
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Gives each distinct series (by exact bits) a dense id. A fingerprint
/// picks the candidates and bit equality confirms the match, so two
/// different series never share an id, whatever their fingerprints.
#[derive(Debug, Default)]
struct SeriesInterner {
    by_fingerprint: HashMap<u64, Vec<usize>>,
    series: Vec<Box<[f64]>>,
}

impl SeriesInterner {
    fn id(&mut self, series: &[f64]) -> usize {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let ids = self.by_fingerprint.entry(fingerprint(series)).or_default();
        if let Some(&id) = ids.iter().find(|&&id| same(&self.series[id], series)) {
            return id;
        }
        let id = self.series.len();
        self.series.push(series.into());
        ids.push(id);
        id
    }
}

/// The per-training-run memoization cache. Construct one per
/// `RpmClassifier::train` call.
#[derive(Debug)]
pub struct SaxCache {
    series: Mutex<SeriesInterner>,
    frames: Memo<FramesKey, Arc<PaaFrames>>,
    evals: Memo<SaxConfig, EvalValue>,
    columns: Memo<ColumnKey, Arc<Vec<f64>>>,
}

impl Default for SaxCache {
    fn default() -> Self {
        Self {
            series: Mutex::default(),
            frames: Memo::new(&rpm_obs::metrics().cache_frames),
            evals: Memo::new(&rpm_obs::metrics().cache_evals),
            columns: Memo::new(&rpm_obs::metrics().cache_columns),
        }
    }
}

impl SaxCache {
    /// Hit/miss counters summed over every family.
    pub fn stats(&self) -> CacheStats {
        let families = [
            self.frames.stats(),
            self.evals.stats(),
            self.columns.stats(),
        ];
        CacheStats {
            hits: families.iter().map(|s| s.hits).sum(),
            misses: families.iter().map(|s| s.misses).sum(),
        }
    }

    /// PAA frames of `series` under `(window, paa)` — the
    /// alphabet-independent discretization stage. One lookup per call.
    pub fn frames(&self, series: &[f64], window: usize, paa_size: usize) -> Arc<PaaFrames> {
        // A panicking worker cannot leave the interner half-updated: its
        // only mutations are whole pushes.
        let id = self
            .series
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .id(series);
        self.frames.get_or_insert_with((id, window, paa_size), || {
            Arc::new(paa_frames(series, window, paa_size))
        })
    }

    /// The memoized cross-validation score of one parameter combination
    /// (Algorithm 3's objective), recording a hit or a miss. The
    /// combination is always scored against the full training set with
    /// splits derived from the config seed, so the [`SaxConfig`] alone
    /// identifies the result.
    pub(crate) fn lookup_eval(&self, sax: &SaxConfig) -> Option<EvalValue> {
        self.evals.lookup(sax)
    }

    /// Stores a combination's score: one scored after a
    /// [`lookup_eval`](Self::lookup_eval) miss, or one restored from a
    /// checkpoint. Counts as neither hit nor miss; first write wins.
    pub(crate) fn store_eval(&self, sax: SaxConfig, value: EvalValue) {
        self.evals.insert(sax, value);
    }

    /// Memoized transform column: the distance of every series in `set`
    /// to `pattern`, or `None` when it must be computed. Keyed by a
    /// fingerprint of the pattern's exact bits, so any pattern
    /// reappearing between the CFS transform and the final SVM transform
    /// reuses its column. Records a hit or miss per call.
    pub(crate) fn try_column(&self, set: SetId, pattern: &[f64]) -> Option<Arc<Vec<f64>>> {
        self.columns.lookup(&(set, fingerprint(pattern)))
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
        self.columns.insert((set, fingerprint(pattern)), value)
    }
}

/// FNV-1a over a slice's length and exact f64 bit patterns. Patterns
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
    fn interleaved_configs_and_series_do_not_collide() {
        // Two overlapping collections (a full set and a split) share two
        // series; a third series differs from one of them in a single bit.
        let base = series(5, 64);
        let mut flipped = base[0].clone();
        flipped[10] = f64::from_bits(flipped[10].to_bits() ^ 1);
        let full: Vec<&[f64]> = base.iter().map(Vec::as_slice).collect();
        let split: Vec<&[f64]> = vec![&base[1], &base[3], &flipped];
        let cache = SaxCache::default();
        // Interleave two (window, paa) keys across both collections; every
        // answer must match a fresh computation regardless of what is
        // cached.
        for _ in 0..2 {
            for members in [&full, &split] {
                for (window, paa) in [(16, 4), (24, 6)] {
                    for s in members.iter() {
                        let got = cache.frames(s, window, paa);
                        assert_eq!(*got, paa_frames(s, window, paa), "{window} {paa}");
                    }
                }
            }
        }
        // 6 distinct series (5 + the flipped one) × 2 configs = 12 misses;
        // the other 2 × 2 × 8 − 12 = 20 lookups hit.
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 20,
                misses: 12
            }
        );
    }

    #[test]
    fn eval_memoizes_including_none() {
        let cache = SaxCache::default();
        let sax = SaxConfig::new(8, 4, 4);
        assert_eq!(cache.lookup_eval(&sax), None, "unscored: a miss");
        cache.store_eval(sax, None);
        cache.store_eval(sax, Some((BTreeMap::new(), 0.5)));
        assert_eq!(
            cache.lookup_eval(&sax),
            Some(None),
            "the first (None) score is sticky"
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn column_fingerprints_distinguish_patterns() {
        let cache = SaxCache::default();
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
        let (a, b) = (SaxConfig::new(8, 4, 4), SaxConfig::new(8, 4, 5));
        assert!(
            cache.try_column(SetId::Split(7, a), &p1).is_none(),
            "sets get separate columns"
        );
        cache.store_column(SetId::Split(7, a), &p1, Arc::new(vec![0.3]));
        assert!(
            cache.try_column(SetId::Split(7, b), &p1).is_none(),
            "each combination's fold scans its own columns"
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 4 });
    }

    #[test]
    fn concurrent_lookups_agree() {
        let data = series(6, 96);
        let cache = SaxCache::default();
        let reference: Vec<_> = data.iter().map(|s| paa_frames(s, 16, 4)).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for (s, want) in data.iter().zip(&reference) {
                        assert_eq!(*cache.frames(s, 16, 4), *want);
                    }
                });
            }
        });
        // Each series' frames are computed once, whoever looks first;
        // every other lookup is a hit.
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 7 * 6,
                misses: 6
            }
        );
    }

    fn frames_memo() -> Memo<FramesKey, Arc<PaaFrames>> {
        Memo::new(&rpm_obs::metrics().cache_frames)
    }

    #[test]
    fn a_lookup_during_a_computation_waits_for_it_and_hits() {
        let memo = frames_memo();
        let data = series(1, 64);
        let want = paa_frames(&data[0], 16, 4);
        let key = (0, 16, 4);
        let computations = AtomicUsize::new(0);
        let (started, wait) = std::sync::mpsc::channel();
        let compute = || {
            computations.fetch_add(1, Ordering::Relaxed);
            Arc::new(paa_frames(&data[0], 16, 4))
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                memo.get_or_insert_with(key, || {
                    started.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    compute()
                })
            });
            wait.recv().unwrap();
            // A holds the key: B must neither compute nor miss.
            let b = memo.get_or_insert_with(key, compute);
            (a.join().unwrap(), b)
        });
        assert_eq!((*a == want, *b == want), (true, true));
        assert_eq!(computations.load(Ordering::Relaxed), 1);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn a_computation_that_unwinds_leaves_the_key_empty() {
        let memo = frames_memo();
        let data = series(1, 64);
        let key = (0, 16, 4);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_insert_with(key, || panic!("injected"))
        }));
        assert!(unwound.is_err());
        assert!(memo.lookup(&key).is_none(), "no value was stored");
        let got = memo.get_or_insert_with(key, || Arc::new(paa_frames(&data[0], 16, 4)));
        assert_eq!(*got, paa_frames(&data[0], 16, 4));
        // The unwound lookup, the plain lookup and the recomputing one
        // each missed.
        assert_eq!(memo.stats(), CacheStats { hits: 0, misses: 3 });
        assert_eq!(memo.get_or_insert_with(key, || unreachable!()), got);
    }
}
