//! # rpm-sax — Symbolic Aggregate approXimation
//!
//! SAX discretization as used by the RPM pipeline (§3.2.1) and by the
//! SAX-VSM / Fast Shapelets baselines:
//!
//! * Gaussian equiprobable breakpoints for any alphabet size
//!   ([`breakpoints()`]),
//! * single-subsequence discretization (z-normalize → PAA → symbols,
//!   [`sax_word`]),
//! * sliding-window discretization of a whole series with optional
//!   **numerosity reduction** ([`discretize()`]),
//! * per-class bag-of-words construction ([`bag::BagOfWords`]).

pub mod bag;
pub mod breakpoints;
pub mod discretize;
pub mod word;

pub use bag::BagOfWords;
pub use breakpoints::{breakpoints, inv_norm_cdf, MAX_ALPHABET, MIN_ALPHABET};
pub use discretize::{
    discretize, paa_frames, sax_word, words_from_frames, PaaFrames, SaxConfig, SaxWordAt,
};
pub use word::SaxWord;
