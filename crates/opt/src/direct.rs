//! The DIRECT (DIviding RECTangles) global optimizer.
//!
//! DIRECT normalizes the search domain to the unit hypercube, keeps a pool
//! of hyper-rectangles (center sample + per-dimension trisection level),
//! and on every iteration divides the *potentially optimal* rectangles —
//! those on the lower-right convex hull of the (size, f) scatter, with the
//! classic ε-improvement condition. It is deterministic and converges to a
//! global optimum of a continuous objective as iterations → ∞ (§4.2).
//!
//! The objective scores a batch of points. Each iteration first plans the
//! samples of every selected rectangle, then scores them all in one call,
//! then divides the rectangles in selection order. A rectangle's samples
//! depend only on its own centre, its levels and the evaluation count,
//! never on values scored in the same iteration, so the trajectory —
//! every division, every level update, the final result — is the one a
//! loop scoring point by point would follow. The optimizer starts no
//! thread: how a batch is scored is the caller's choice (RPM's parameter
//! search runs each batch on its training engine).

/// Knobs for the DIRECT runs.
#[derive(Clone, Copy, Debug)]
pub struct DirectParams {
    /// Hard budget of objective evaluations.
    pub max_evals: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// The Jones ε in the potential-optimality test (typical: 1e-4).
    pub eps: f64,
    /// Wall-clock deadline for the whole run (`None` = unbounded).
    /// Checked between iterations, so the optimizer stops at a division
    /// boundary with the best point found so far — a deadline never
    /// produces a torn division. Note that a deadline makes the search
    /// trajectory depend on machine speed; leave it `None` when
    /// reproducibility across runs matters more than bounded latency.
    pub wall_clock: Option<std::time::Duration>,
}

impl Default for DirectParams {
    fn default() -> Self {
        Self {
            max_evals: 200,
            max_iters: 50,
            eps: 1e-4,
            wall_clock: None,
        }
    }
}

/// Result of a DIRECT run.
#[derive(Clone, Debug)]
pub struct DirectResult {
    /// Best point found, in original (un-normalized) coordinates.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
    /// Objective evaluations spent.
    pub evaluations: usize,
}

#[derive(Clone, Debug)]
struct Rect {
    center: Vec<f64>, // unit-cube coordinates
    levels: Vec<u32>, // trisection count per dimension
    f: f64,
}

impl Rect {
    /// Size measure: half the diagonal of the rectangle.
    fn size(&self) -> f64 {
        let s: f64 = self
            .levels
            .iter()
            .map(|&l| {
                let side = 3f64.powi(-(l as i32));
                side * side
            })
            .sum();
        0.5 * s.sqrt()
    }

    /// The dimensions this rectangle divides along: its longest sides
    /// (minimal trisection level), with the sampling offset δ.
    fn long_dims(&self) -> (Vec<usize>, f64) {
        let min_level = *self.levels.iter().min().expect("at least one dimension");
        let dims = (0..self.levels.len())
            .filter(|&d| self.levels[d] == min_level)
            .collect();
        (dims, 3f64.powi(-(min_level as i32)) / 3.0)
    }
}

/// The two scored samples `c ± δ e_d` of one division direction `d`.
struct DimSample {
    d: usize,
    plus: Vec<f64>,
    minus: Vec<f64>,
    f_plus: f64,
    f_minus: f64,
}

/// Minimizes `f` over the box `lo[i] ..= hi[i]`. `f` scores a batch of
/// points and returns one value per point, in order.
///
/// # Panics
/// Panics when the bounds are empty, mismatched, or inverted, or when
/// `f` returns a different number of values than it was given points.
pub fn direct_minimize(
    mut f: impl FnMut(&[Vec<f64>]) -> Vec<f64>,
    lo: &[f64],
    hi: &[f64],
    params: &DirectParams,
) -> DirectResult {
    assert!(!lo.is_empty(), "DIRECT needs at least one dimension");
    assert_eq!(lo.len(), hi.len(), "bound length mismatch");
    assert!(lo.iter().zip(hi).all(|(a, b)| a <= b), "inverted bounds");
    let denorm = |u: &[f64]| -> Vec<f64> {
        u.iter()
            .zip(lo.iter().zip(hi))
            .map(|(v, (a, b))| a + v * (b - a))
            .collect()
    };
    let mut score = |points: &[Vec<f64>]| -> Vec<f64> {
        let denormed: Vec<Vec<f64>> = points.iter().map(|u| denorm(u)).collect();
        let values = f(&denormed);
        assert_eq!(
            values.len(),
            points.len(),
            "the objective must score every point of its batch"
        );
        values
    };

    let center = vec![0.5; lo.len()];
    let f0 = score(std::slice::from_ref(&center))[0];
    let mut evals = 1usize;
    let mut rects = vec![Rect {
        center,
        levels: vec![0; lo.len()],
        f: f0,
    }];
    let mut best_idx = 0usize;

    let deadline = params
        .wall_clock
        .and_then(|d| std::time::Instant::now().checked_add(d));
    for _ in 0..params.max_iters {
        if params.max_evals.saturating_sub(evals) < 2 {
            break; // not even one more pair of samples fits the budget
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break; // deadline: return the best division completed so far
        }
        let selected = potentially_optimal(&rects, rects[best_idx].f, params.eps);
        if selected.is_empty() {
            break;
        }

        // Plan: sample c ± δ e_d along each long dimension of every
        // selected rectangle, in selection order, while pairs fit the
        // remaining budget.
        let mut plans: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut points: Vec<Vec<f64>> = Vec::new();
        for &ri in &selected {
            let planned = evals + points.len();
            if planned >= params.max_evals {
                break;
            }
            let (mut dims, delta) = rects[ri].long_dims();
            dims.truncate((params.max_evals - planned) / 2);
            for &d in &dims {
                let mut plus = rects[ri].center.clone();
                plus[d] = (plus[d] + delta).min(1.0);
                let mut minus = rects[ri].center.clone();
                minus[d] = (minus[d] - delta).max(0.0);
                points.push(plus);
                points.push(minus);
            }
            plans.push((ri, dims));
        }
        if points.is_empty() {
            break;
        }

        // Score: the whole iteration in one call.
        let fvals = score(&points);
        evals += points.len();
        rpm_obs::metrics().opt_direct_evals.add(points.len() as u64);

        // Divide, in the order the rectangles were planned.
        let mut scored = points.into_iter().zip(fvals);
        let mut next = || scored.next().expect("one value per planned point");
        let mut new_rects: Vec<Rect> = Vec::new();
        for (ri, dims) in plans {
            if dims.is_empty() {
                continue;
            }
            rpm_obs::metrics().opt_direct_splits.add(dims.len() as u64);
            let mut samples: Vec<DimSample> = dims
                .into_iter()
                .map(|d| {
                    let (plus, f_plus) = next();
                    let (minus, f_minus) = next();
                    DimSample {
                        d,
                        plus,
                        minus,
                        f_plus,
                        f_minus,
                    }
                })
                .collect();
            // Divide in ascending order of the better child value so the
            // best-looking dimension keeps the largest children.
            samples.sort_by(|a, b| a.f_plus.min(a.f_minus).total_cmp(&b.f_plus.min(b.f_minus)));
            let mut levels = rects[ri].levels.clone();
            for s in samples {
                levels[s.d] += 1;
                new_rects.push(Rect {
                    center: s.plus,
                    levels: levels.clone(),
                    f: s.f_plus,
                });
                new_rects.push(Rect {
                    center: s.minus,
                    levels: levels.clone(),
                    f: s.f_minus,
                });
            }
            rects[ri].levels = levels;
        }
        rects.extend(new_rects);
        best_idx = (0..rects.len())
            .min_by(|&a, &b| rects[a].f.total_cmp(&rects[b].f))
            .unwrap();
    }

    let best = &rects[best_idx];
    DirectResult {
        x: denorm(&best.center),
        f: best.f,
        evaluations: evals,
    }
}

/// Indices of the potentially optimal rectangles: for some K > 0 the
/// rectangle minimizes `f - K·size`, and beats `f_min` by at least
/// `eps·|f_min|`. Computed as the lower-right convex hull of the
/// (size, f) point set.
fn potentially_optimal(rects: &[Rect], f_min: f64, eps: f64) -> Vec<usize> {
    // Best rectangle per distinct size.
    let mut pts: Vec<(f64, f64, usize)> = Vec::new(); // (size, f, idx)
    for (i, r) in rects.iter().enumerate() {
        pts.push((r.size(), r.f, i));
    }
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut best_per_size: Vec<(f64, f64, usize)> = Vec::new();
    for p in pts {
        match best_per_size.last() {
            Some(last) if (last.0 - p.0).abs() < 1e-15 => {} // same size, worse f
            _ => best_per_size.push(p),
        }
    }
    // Lower convex hull over (size, f), scanning from small to large size.
    let mut hull: Vec<(f64, f64, usize)> = Vec::new();
    for p in best_per_size {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // b must lie below segment a->p; otherwise pop.
            let cross = (b.0 - a.0) * (p.1 - a.1) - (p.0 - a.0) * (b.1 - a.1);
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    // Keep only the descending-f tail ending at the largest size, and apply
    // the ε condition relative to the incumbent.
    let mut out = Vec::new();
    for (i, &(size, f, idx)) in hull.iter().enumerate() {
        // Rectangles on the hull with a larger-size successor of lower f
        // are dominated for every K; the hull construction already removed
        // those. Apply Jones' ε test with the slope toward the next point.
        let improvement_ok = if i + 1 < hull.len() {
            let (s2, f2, _) = hull[i + 1];
            let k = (f2 - f) / (s2 - size).max(1e-15);
            // Value achievable within this rect at slope k:
            f - k * size <= f_min - eps * f_min.abs()
        } else {
            true // largest rectangle always survives
        };
        if improvement_ok || f <= f_min {
            out.push(idx);
        }
    }
    if out.is_empty() {
        // Always divide at least the incumbent's rectangle.
        if let Some((_, _, idx)) = hull.last() {
            out.push(*idx);
        }
    }
    out
}

/// Integer-rounded DIRECT (§4.2): every proposal is rounded to the nearest
/// integer vector and the objective is memoized on those integer points, so
/// the expensive cross-validation objective runs once per distinct integer
/// combination. Each batch `f` receives holds only points new to the run,
/// each once, in the order DIRECT proposed them; a batch whose points were
/// all scored before never reaches `f`, so `f` never sees an empty batch.
/// The returned count is the *distinct* integer evaluations — the `R` of
/// the paper's complexity analysis.
pub fn direct_minimize_integer(
    mut f: impl FnMut(&[Vec<i64>]) -> Vec<f64>,
    lo: &[i64],
    hi: &[i64],
    params: &DirectParams,
) -> (Vec<i64>, f64, usize) {
    use std::collections::HashMap;

    let mut scored: HashMap<Vec<i64>, f64> = HashMap::new();
    let lo_f: Vec<f64> = lo.iter().map(|&v| v as f64).collect();
    let hi_f: Vec<f64> = hi.iter().map(|&v| v as f64).collect();
    let round = |x: &[f64]| -> Vec<i64> {
        x.iter()
            .zip(lo.iter().zip(hi))
            .map(|(&v, (&a, &b))| (v.round() as i64).clamp(a, b))
            .collect()
    };
    let result = direct_minimize(
        |batch| {
            let rounded: Vec<Vec<i64>> = batch.iter().map(|x| round(x)).collect();
            let mut fresh: Vec<Vec<i64>> = Vec::new();
            for xi in &rounded {
                if !scored.contains_key(xi) && !fresh.contains(xi) {
                    fresh.push(xi.clone());
                }
            }
            if !fresh.is_empty() {
                let values = f(&fresh);
                assert_eq!(
                    values.len(),
                    fresh.len(),
                    "the objective must score every point of its batch"
                );
                scored.extend(fresh.into_iter().zip(values));
            }
            rounded.iter().map(|xi| scored[xi]).collect()
        },
        &lo_f,
        &hi_f,
        params,
    );
    let xi = round(&result.x);
    let best_f = scored.get(&xi).copied().unwrap_or(result.f);
    (xi, best_f, scored.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch objective scoring `g` point by point.
    fn each(g: impl Fn(&[f64]) -> f64) -> impl FnMut(&[Vec<f64>]) -> Vec<f64> {
        move |batch| batch.iter().map(|x| g(x)).collect()
    }

    /// DIRECT as a loop that scores one point at a time and divides each
    /// rectangle as soon as its samples are scored — the reference the
    /// batched iteration must follow bit for bit. Returns the result and
    /// every point scored, in order.
    fn point_at_a_time(
        g: impl Fn(&[f64]) -> f64,
        lo: &[f64],
        hi: &[f64],
        params: &DirectParams,
    ) -> (DirectResult, Vec<Vec<f64>>) {
        let mut seen = Vec::new();
        let denorm = |u: &[f64]| -> Vec<f64> {
            u.iter()
                .zip(lo.iter().zip(hi))
                .map(|(v, (a, b))| a + v * (b - a))
                .collect()
        };
        let mut score = |u: &[f64]| {
            let x = denorm(u);
            let v = g(&x);
            seen.push(x);
            v
        };
        let center = vec![0.5; lo.len()];
        let f0 = score(&center);
        let mut evals = 1;
        let mut rects = vec![Rect {
            center,
            levels: vec![0; lo.len()],
            f: f0,
        }];
        let mut best_idx = 0;
        for _ in 0..params.max_iters {
            if evals >= params.max_evals {
                break;
            }
            let selected = potentially_optimal(&rects, rects[best_idx].f, params.eps);
            let mut new_rects = Vec::new();
            for &ri in &selected {
                if evals >= params.max_evals {
                    break;
                }
                let (mut dims, delta) = rects[ri].long_dims();
                dims.truncate((params.max_evals - evals) / 2);
                let mut pairs = Vec::new();
                for &d in &dims {
                    let mut plus = rects[ri].center.clone();
                    plus[d] = (plus[d] + delta).min(1.0);
                    let mut minus = rects[ri].center.clone();
                    minus[d] = (minus[d] - delta).max(0.0);
                    let (f_plus, f_minus) = (score(&plus), score(&minus));
                    evals += 2;
                    pairs.push((d, plus, f_plus, minus, f_minus));
                }
                pairs.sort_by(|a, b| a.2.min(a.4).total_cmp(&b.2.min(b.4)));
                let mut levels = rects[ri].levels.clone();
                for (d, plus, f_plus, minus, f_minus) in pairs {
                    levels[d] += 1;
                    for (center, f) in [(plus, f_plus), (minus, f_minus)] {
                        new_rects.push(Rect {
                            center,
                            levels: levels.clone(),
                            f,
                        });
                    }
                }
                rects[ri].levels = levels;
            }
            rects.extend(new_rects);
            best_idx = (0..rects.len())
                .min_by(|&a, &b| rects[a].f.total_cmp(&rects[b].f))
                .unwrap();
        }
        let best = &rects[best_idx];
        let result = DirectResult {
            x: denorm(&best.center),
            f: best.f,
            evaluations: evals,
        };
        (result, seen)
    }

    #[test]
    fn minimizes_shifted_sphere() {
        let target = [0.3, -0.7];
        let r = direct_minimize(
            each(|x| x.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum()),
            &[-2.0, -2.0],
            &[2.0, 2.0],
            &DirectParams {
                max_evals: 600,
                max_iters: 60,
                ..DirectParams::default()
            },
        );
        assert!(r.f < 1e-3, "f = {}", r.f);
        assert!((r.x[0] - 0.3).abs() < 0.1, "{:?}", r.x);
        assert!((r.x[1] + 0.7).abs() < 0.1, "{:?}", r.x);
    }

    #[test]
    fn minimizes_1d_absolute_value() {
        let r = direct_minimize(
            each(|x| (x[0] - 1.5).abs()),
            &[0.0],
            &[10.0],
            &DirectParams::default(),
        );
        assert!(r.f < 0.05, "f = {}", r.f);
    }

    #[test]
    fn respects_evaluation_budget() {
        let budget = 37;
        let mut spent = 0;
        let r = direct_minimize(
            |batch| {
                spent += batch.len();
                batch.iter().map(|x| x[0] * x[0] + x[1] * x[1]).collect()
            },
            &[-1.0, -1.0],
            &[1.0, 1.0],
            &DirectParams {
                max_evals: budget,
                max_iters: 1000,
                ..DirectParams::default()
            },
        );
        assert!(spent <= budget, "spent {spent} > {budget}");
        assert_eq!(r.evaluations, spent);
    }

    #[test]
    fn deterministic() {
        let obj = |x: &[f64]| (x[0] - 0.2).powi(2) + (x[1] + 0.4).powi(2);
        let p = DirectParams::default();
        let a = direct_minimize(each(obj), &[-1.0, -1.0], &[1.0, 1.0], &p);
        let b = direct_minimize(each(obj), &[-1.0, -1.0], &[1.0, 1.0], &p);
        assert_eq!(a.x, b.x);
        assert_eq!(a.f, b.f);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn batched_iterations_follow_the_point_at_a_time_trajectory() {
        let obj = |x: &[f64]| (x[0] - 0.37).powi(2) + (x[1] + 0.81).powi(2) + (x[0] * x[1]).sin();
        let obj3 = |x: &[f64]| (x[0] - 1.1).abs() + (x[1] * x[2]).cos() + 0.1 * x[2];
        for (g, dim, max_evals) in [
            (&obj as &dyn Fn(&[f64]) -> f64, 2, 500),
            (&obj, 2, 37),
            (&obj3, 3, 301),
            (&obj3, 3, 48),
        ] {
            let (lo, hi) = (vec![-2.0; dim], vec![2.0; dim]);
            let params = DirectParams {
                max_evals,
                max_iters: 80,
                ..DirectParams::default()
            };
            let (reference, order) = point_at_a_time(g, &lo, &hi, &params);
            let mut batches: Vec<Vec<Vec<f64>>> = Vec::new();
            let batched = direct_minimize(
                |batch| {
                    batches.push(batch.to_vec());
                    batch.iter().map(|x| g(x)).collect()
                },
                &lo,
                &hi,
                &params,
            );
            let flat: Vec<Vec<f64>> = batches.iter().flatten().cloned().collect();
            assert_eq!(flat, order, "same points in the same order ({max_evals})");
            assert!(batches.len() > 2, "iterations score in batches");
            assert_eq!(reference.x, batched.x);
            assert_eq!(reference.f.to_bits(), batched.f.to_bits());
            assert_eq!(reference.evaluations, batched.evaluations);
        }
    }

    #[test]
    fn integer_batches_are_new_distinct_and_never_empty() {
        let obj = |xi: &[i64]| ((xi[0] - 11) * (xi[0] - 11) + (xi[1] - 5) * (xi[1] - 5)) as f64;
        let mut batches: Vec<Vec<Vec<i64>>> = Vec::new();
        let (x, f, distinct) = direct_minimize_integer(
            |batch| {
                batches.push(batch.to_vec());
                batch.iter().map(|xi| obj(xi)).collect()
            },
            &[0, 0],
            &[30, 30],
            &DirectParams {
                max_evals: 300,
                max_iters: 50,
                ..DirectParams::default()
            },
        );
        assert!(batches.iter().all(|b| !b.is_empty()), "an empty batch");
        let all: Vec<&Vec<i64>> = batches.iter().flatten().collect();
        let unique: std::collections::HashSet<&Vec<i64>> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a point was passed twice");
        assert_eq!(distinct, all.len());
        assert_eq!((x, f), (vec![11, 5], 0.0));

        // Point by point, the same search scores the same points in the
        // same order.
        let mut order: Vec<Vec<i64>> = Vec::new();
        let again = direct_minimize_integer(
            |batch| {
                batch
                    .iter()
                    .map(|xi| {
                        order.push(xi.clone());
                        obj(xi)
                    })
                    .collect()
            },
            &[0, 0],
            &[30, 30],
            &DirectParams {
                max_evals: 300,
                max_iters: 50,
                ..DirectParams::default()
            },
        );
        assert_eq!(order, all.into_iter().cloned().collect::<Vec<_>>());
        assert_eq!(again, (vec![11, 5], 0.0, distinct));
    }

    #[test]
    fn escapes_local_minimum() {
        // Two-well function: local minimum at x=-0.5 (f=0.1), global at
        // x=0.75 (f=0). A purely local method started at the center finds
        // the wrong well; DIRECT's global division must find the right one.
        let obj = |x: &[f64]| {
            let a = (x[0] + 0.5) * (x[0] + 0.5) + 0.1;
            let b = 4.0 * (x[0] - 0.75) * (x[0] - 0.75);
            a.min(b)
        };
        let r = direct_minimize(
            each(obj),
            &[-1.0],
            &[1.0],
            &DirectParams {
                max_evals: 300,
                max_iters: 60,
                ..DirectParams::default()
            },
        );
        assert!((r.x[0] - 0.75).abs() < 0.05, "stuck at {:?}", r.x);
    }

    #[test]
    fn stays_inside_bounds() {
        let r = direct_minimize(
            each(|x| {
                assert!((-3.0..=5.0).contains(&x[0]), "x out of bounds: {}", x[0]);
                -x[0]
            }),
            &[-3.0],
            &[5.0],
            &DirectParams::default(),
        );
        assert!(
            r.x[0] > 4.0,
            "should push toward the upper bound: {:?}",
            r.x
        );
    }

    #[test]
    fn integer_variant_caches_roundings() {
        let mut evals = 0;
        let (x, f, distinct) = direct_minimize_integer(
            |batch| {
                evals += batch.len();
                batch
                    .iter()
                    .map(|xi| ((xi[0] - 7) * (xi[0] - 7) + (xi[1] - 3) * (xi[1] - 3)) as f64)
                    .collect()
            },
            &[0, 0],
            &[20, 20],
            &DirectParams {
                max_evals: 400,
                max_iters: 60,
                ..DirectParams::default()
            },
        );
        assert_eq!(evals, distinct, "objective must only see distinct points");
        assert!(distinct < 400, "cache must dedupe roundings: {distinct}");
        assert_eq!(f, 0.0, "best = {x:?}");
        assert_eq!(x, vec![7, 3]);
    }

    #[test]
    fn integer_variant_single_point_domain() {
        let mut calls = 0;
        let (x, f, distinct) = direct_minimize_integer(
            |batch| {
                calls += 1;
                batch.iter().map(|xi| xi[0] as f64).collect()
            },
            &[4],
            &[4],
            &DirectParams::default(),
        );
        assert_eq!(x, vec![4]);
        assert_eq!(f, 4.0);
        assert_eq!(distinct, 1);
        assert_eq!(
            calls, 1,
            "every later proposal rounds onto the scored point"
        );
    }

    #[test]
    #[should_panic(expected = "score every point")]
    fn a_short_batch_answer_panics() {
        direct_minimize(|_| Vec::new(), &[0.0], &[1.0], &DirectParams::default());
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_panic() {
        direct_minimize(each(|_| 0.0), &[1.0], &[0.0], &DirectParams::default());
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_bounds_panic() {
        direct_minimize(each(|_| 0.0), &[], &[], &DirectParams::default());
    }
}
