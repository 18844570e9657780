//! # rpm-ts — time series primitives for the RPM reproduction
//!
//! Foundation crate for the reproduction of *RPM: Representative Pattern
//! Mining for Efficient Time Series Classification* (EDBT 2016). It provides
//! the vocabulary types and numeric kernels every other crate builds on:
//!
//! * [`Dataset`] — a labeled collection of univariate time series,
//! * z-normalization ([`znorm`], [`znorm_into`]),
//! * Piecewise Aggregate Approximation ([`paa()`]),
//! * Euclidean distances with early abandoning ([`dist`]),
//! * sliding-window subsequence extraction ([`windows`]),
//! * closest-match subsequence search ([`matching`]), and the batched
//!   pattern-set × series kernel with its lower bound ([`batched`]),
//! * rotation/shift corruption used by the paper's §6.1 case study
//!   ([`rotate()`]),
//! * small statistics helpers ([`stats`]).
//!
//! All series are `f64` slices; no external numeric dependencies are used.

pub mod batched;
pub mod classifier;
pub mod dataset;
pub mod dist;
pub mod matching;
pub mod norm;
pub mod paa;
pub mod rotate;
pub mod stats;
pub mod windows;

pub use batched::{BatchedMatch, LbAudit};
pub use classifier::{Classifier, Parallelism};
pub use dataset::{ClassView, Dataset, Label};
pub use dist::{euclidean, euclidean_early_abandon, sq_euclidean, sq_euclidean_early_abandon};
pub use matching::{
    best_match, best_match_naive, closest_match_distance, prepare_pattern, BestMatch, MatchKernel,
    MatchPlan, ScanCounters, ScanStats,
};
pub use norm::{znorm, znorm_in_place, znorm_into, ZNORM_EPSILON};
pub use paa::paa;
pub use rotate::{rotate, rotate_half};
pub use stats::{
    compensated_mean, compensated_sum, mean, percentile, std_dev, CompensatedSum, RollingStats,
};
pub use windows::sliding_windows;
