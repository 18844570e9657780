//! # rpm-opt — derivative-free optimization for SAX parameter selection
//!
//! §4 of the paper selects the per-class SAX parameters (window, PAA size,
//! alphabet) either by exhaustive grid search (Algorithm 3) or with the
//! **DIRECT** (DIviding RECTangles) global optimizer of Jones, Perttunen &
//! Stuckman (1993). This crate implements both:
//!
//! * [`direct_minimize`] — DIRECT over a continuous box,
//! * [`direct_minimize_integer`] — the paper's integer variant: DIRECT
//!   proposals are rounded to integer grid points and cached so repeated
//!   roundings never re-pay the (expensive, cross-validated) objective,
//! * [`grid_points`] — the exhaustive integer grid of Algorithm 3.
//!
//! Both DIRECT entry points take a *batch* objective: each iteration's
//! samples arrive in one call, in the order a point-at-a-time loop would
//! score them, and the caller decides how to score them — serially, or
//! fanned out as RPM's parameter search does. The crate starts no thread.

pub mod direct;
pub mod grid;

pub use direct::{direct_minimize, direct_minimize_integer, DirectParams, DirectResult};
pub use grid::{grid_points, IntRange};
