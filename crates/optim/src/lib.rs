//! # uniq-optim
//!
//! Optimization routines used by UNIQ's diffraction-aware sensor fusion
//! (Eq. 2 of the paper) and its calibration steps.
//!
//! * [`nelder_mead`] — the simplex method, used to minimize the head-
//!   parameter mismatch `Σ (α_i − θ_i(E))²` over `E = (a, b, c)`. That
//!   objective steps whenever a stop's localization changes branch or
//!   fails, so it is minimized without derivatives.
//! * [`golden_section`] — derivative-free 1-D bracketing line search (the
//!   radius ablation).
//! * [`solve_2d`] — damped Gauss–Newton for 2-D root finding (iso-delay
//!   curve intersection, Fig 10(b)). The caller supplies the Jacobian:
//!   a wrap-path length's gradient is a unit vector the path query
//!   already has, so a step costs one residual call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Options for [`nelder_mead`].
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of simplex iterations.
    pub max_iter: usize,
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex collapses below this size.
    pub x_tol: f64,
    /// Relative size of the initial simplex (per coordinate).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_iter: 400,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a minimization.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Minimizer found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether a tolerance criterion (rather than the iteration cap) fired.
    pub converged: bool,
}

/// Why [`nelder_mead`] stopped without a minimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// The objective returned NaN, which orders against no value, so the
    /// simplex cannot rank its vertices.
    NanObjective {
        /// The point the objective was evaluated at.
        x: Vec<f64>,
    },
}

impl std::fmt::Display for OptimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimError::NanObjective { x } => write!(f, "objective returned NaN at {x:?}"),
        }
    }
}

impl std::error::Error for OptimError {}

/// Minimizes `f` with the Nelder–Mead simplex method starting from `x0`.
///
/// ```
/// use uniq_optim::{nelder_mead, NelderMeadOptions};
/// let r = nelder_mead(|x| (x[0] - 2.0).powi(2) + x[1].powi(2), &[0.0, 1.0],
///                     &NelderMeadOptions::default()).unwrap();
/// assert!((r.x[0] - 2.0).abs() < 1e-3 && r.x[1].abs() < 1e-3);
/// ```
///
/// Objective values may be `INFINITY` to mark infeasible regions; the
/// simplex will move away from them.
///
/// # Errors
/// Returns [`OptimError::NanObjective`] as soon as `f` returns NaN.
///
/// # Panics
/// Panics if `x0` is empty.
pub fn nelder_mead(
    f: impl Fn(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> Result<OptimResult, OptimError> {
    assert!(!x0.is_empty(), "nelder_mead: empty start point");
    let n = x0.len();
    let eval = |x: &[f64]| -> Result<f64, OptimError> {
        let v = f(x);
        if v.is_nan() {
            // uniq-analyzer: allow(hot-path-alloc) — the optimizer allocates a handful of n-element points (n = 3 head parameters) per iteration, once per fusion solve, and this error copies one point once — not in the per-sample path
            return Err(OptimError::NanObjective { x: x.to_vec() });
        }
        Ok(v)
    };

    // Initial simplex: x0 plus a perturbed point per coordinate. The step
    // is relative to the coordinate, but floored against the problem's
    // overall scale — a coordinate that happens to start near zero must
    // not get a degenerate (needle-thin) simplex, or the search crawls.
    let scale = x0.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let floor = opts.initial_step * 0.05 * (1.0 + scale);
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    simplex.push((x0.to_vec(), eval(x0)?));
    for i in 0..n {
        let mut x = x0.to_vec();
        let step = (x[i].abs() * opts.initial_step).max(floor);
        x[i] += step;
        let fx = eval(&x)?;
        simplex.push((x, fx));
    }

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..opts.max_iter {
        iterations = it + 1;
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));

        // Convergence checks.
        let best = simplex[0].1;
        let worst = simplex[n].1;
        let spread = (worst - best).abs();
        let size: f64 = (0..n)
            .map(|i| {
                let lo = simplex
                    .iter()
                    .map(|(x, _)| x[i])
                    .fold(f64::INFINITY, f64::min);
                let hi = simplex
                    .iter()
                    .map(|(x, _)| x[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .fold(0.0, f64::max);
        if (spread < opts.f_tol && best.is_finite()) || size < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let centroid: Vec<f64> = (0..n)
            .map(|i| simplex[..n].iter().map(|(x, _)| x[i]).sum::<f64>() / n as f64)
            .collect();
        let worst_x = simplex[n].0.clone();
        let blend = |t: f64| -> Vec<f64> {
            (0..n)
                .map(|i| centroid[i] + t * (centroid[i] - worst_x[i]))
                .collect()
        };

        // Reflection.
        let xr = blend(alpha);
        let fr = eval(&xr)?;
        if fr < simplex[0].1 {
            // Expansion.
            let xe = blend(gamma);
            let fe = eval(&xe)?;
            simplex[n] = if fe < fr { (xe, fe) } else { (xr, fr) };
            continue;
        }
        if fr < simplex[n - 1].1 {
            simplex[n] = (xr, fr);
            continue;
        }
        // Contraction (outside if reflected better than worst, else inside).
        let (xc, fc) = if fr < simplex[n].1 {
            let x = blend(rho);
            let fx = eval(&x)?;
            (x, fx)
        } else {
            let x = blend(-rho);
            let fx = eval(&x)?;
            (x, fx)
        };
        if fc < simplex[n].1.min(fr) {
            simplex[n] = (xc, fc);
            continue;
        }
        // Shrink toward the best vertex.
        let best_x = simplex[0].0.clone();
        for entry in simplex.iter_mut().skip(1) {
            let x: Vec<f64> = entry
                .0
                .iter()
                .zip(&best_x)
                .map(|(&xi, &bi)| bi + sigma * (xi - bi))
                .collect();
            let fx = eval(&x)?;
            *entry = (x, fx);
        }
    }

    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (x, fx) = simplex.swap_remove(0);
    Ok(OptimResult {
        x,
        fx,
        iterations,
        converged,
    })
}

/// Minimizes a 1-D unimodal function on `[lo, hi]` by golden-section
/// search; returns `(x_min, f_min)`.
///
/// # Panics
/// Panics unless `lo < hi` and `tol > 0`.
pub fn golden_section(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> (f64, f64) {
    assert!(lo < hi, "golden_section: empty interval");
    assert!(tol > 0.0, "golden_section: tolerance must be positive");
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let x = (a + b) / 2.0;
    (x, f(x))
}

/// Result of [`solve_2d`].
#[derive(Debug, Clone, Copy)]
pub struct Root2d {
    /// Best point found.
    pub x: [f64; 2],
    /// Residual norm at `x`; callers check it against their own tolerance.
    pub residual: f64,
    /// Gauss–Newton steps solved (each one 2×2 solve and its line search).
    pub iterations: usize,
}

/// Solves the 2-D system `r(x) = 0` by damped Gauss–Newton, starting from
/// `x0`. `r` returns the residual and its Jacobian, `j[i][k] = ∂r_i/∂x_k`.
///
/// Each step solves `J·dx = −r` and halves it until the residual norm
/// falls; the accepted point's Jacobian feeds the next step, so a step
/// taken at full length costs one call of `r`. The solve stops at a
/// residual norm below 1e-12, a singular Jacobian, a step no halving
/// improves, or `max_iter` steps. Used to intersect the two iso-delay
/// trajectories of Fig 10(b).
///
/// ```
/// use uniq_optim::solve_2d;
/// // x + y = 3, x − y = 1.
/// let root = solve_2d(|x| ([x[0] + x[1] - 3.0, x[0] - x[1] - 1.0],
///                          [[1.0, 1.0], [1.0, -1.0]]), [0.0, 0.0], 10);
/// assert_eq!((root.x, root.iterations), ([2.0, 1.0], 1));
/// ```
pub fn solve_2d(
    r: impl Fn([f64; 2]) -> ([f64; 2], [[f64; 2]; 2]),
    x0: [f64; 2],
    max_iter: usize,
) -> Root2d {
    let norm = |v: [f64; 2]| (v[0] * v[0] + v[1] * v[1]).sqrt();
    let mut x = x0;
    let (mut fx, mut j) = r(x);
    let mut iterations = 0;
    for _ in 0..max_iter {
        let res = norm(fx);
        if res < 1e-12 {
            break;
        }
        let det = j[0][0] * j[1][1] - j[0][1] * j[1][0];
        if det.abs() < 1e-18 {
            break; // singular; give up at current point
        }
        iterations += 1;
        // Newton step: solve J·dx = -f.
        let dx = [
            (-fx[0] * j[1][1] + fx[1] * j[0][1]) / det,
            (-fx[1] * j[0][0] + fx[0] * j[1][0]) / det,
        ];
        // Damped line search: halve until the residual decreases.
        let mut t = 1.0;
        let mut accepted = false;
        for _ in 0..20 {
            let cand = [x[0] + t * dx[0], x[1] + t * dx[1]];
            let (fc, jc) = r(cand);
            if norm(fc) < res {
                x = cand;
                fx = fc;
                j = jc;
                accepted = true;
                break;
            }
            t *= 0.5;
        }
        if !accepted {
            break; // stuck — return best so far
        }
    }
    Root2d {
        x,
        residual: norm(fx),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let r = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default()).unwrap();
        assert!(r.converged);
        assert!((r.x[0] - 3.0).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "x1 = {}", r.x[1]);
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions {
            max_iter: 5000,
            ..Default::default()
        };
        let r = nelder_mead(f, &[-1.2, 1.0], &opts).unwrap();
        assert!(r.fx < 1e-8, "fx = {}", r.fx);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn nelder_mead_handles_infinity_walls() {
        // Minimum at 2, infeasible below 1.
        let f = |x: &[f64]| {
            if x[0] < 1.0 {
                f64::INFINITY
            } else {
                (x[0] - 2.0).powi(2)
            }
        };
        let r = nelder_mead(f, &[1.5], &NelderMeadOptions::default()).unwrap();
        assert!((r.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_3d() {
        let f = |x: &[f64]| (x[0] - 0.08).powi(2) + (x[1] - 0.10).powi(2) + (x[2] - 0.09).powi(2);
        let r = nelder_mead(f, &[0.075, 0.095, 0.085], &NelderMeadOptions::default()).unwrap();
        assert!(r.fx < 1e-10);
    }

    #[test]
    #[should_panic(expected = "empty start")]
    fn nelder_mead_empty_start_panics() {
        let _ = nelder_mead(|_| 0.0, &[], &NelderMeadOptions::default());
    }

    #[test]
    fn nelder_mead_nan_objective_is_a_typed_error() {
        // NaN at the start point, and NaN only once the simplex wanders
        // past x = 1 on its way to the minimum at 3.
        let r = nelder_mead(|_| f64::NAN, &[0.5, 0.5], &NelderMeadOptions::default());
        assert_eq!(
            r.unwrap_err(),
            OptimError::NanObjective { x: vec![0.5, 0.5] }
        );
        let f = |x: &[f64]| {
            if x[0] > 1.0 {
                f64::NAN
            } else {
                (x[0] - 3.0).powi(2)
            }
        };
        match nelder_mead(f, &[0.0], &NelderMeadOptions::default()) {
            Err(OptimError::NanObjective { x }) => assert!(x[0] > 1.0, "NaN reported at {x:?}"),
            Ok(r) => panic!("a NaN objective produced a result at {:?}", r.x),
        }
    }

    #[test]
    fn golden_section_parabola() {
        let (x, fx) = golden_section(|x| (x - 1.25).powi(2), -10.0, 10.0, 1e-8);
        assert!((x - 1.25).abs() < 1e-6);
        assert!(fx < 1e-10);
    }

    #[test]
    fn golden_section_asymmetric() {
        let (x, _) = golden_section(|x| (x - 0.1).abs() + 0.5 * x, 0.0, 1.0, 1e-9);
        assert!((x - 0.1).abs() < 1e-6);
    }

    #[test]
    fn solve_2d_linear_system() {
        // x + y = 3, x - y = 1 → (2, 1): one exact Newton step.
        let r = solve_2d(
            |x| {
                (
                    [x[0] + x[1] - 3.0, x[0] - x[1] - 1.0],
                    [[1.0, 1.0], [1.0, -1.0]],
                )
            },
            [0.0, 0.0],
            50,
        );
        assert!(r.residual < 1e-12);
        assert_eq!(r.x, [2.0, 1.0]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn solve_2d_circle_intersection() {
        // Two circles: centred (0,0) r=5 and (6,0) r=5 → intersection (3, ±4).
        let r = solve_2d(
            |x| {
                (
                    [
                        x[0] * x[0] + x[1] * x[1] - 25.0,
                        (x[0] - 6.0).powi(2) + x[1] * x[1] - 25.0,
                    ],
                    [[2.0 * x[0], 2.0 * x[1]], [2.0 * (x[0] - 6.0), 2.0 * x[1]]],
                )
            },
            [2.0, 2.0],
            100,
        );
        assert!(r.residual < 1e-8, "residual {}", r.residual);
        assert!((r.x[0] - 3.0).abs() < 1e-9);
        assert!((r.x[1].abs() - 4.0).abs() < 1e-9);
        // Newton converges quadratically from this start.
        assert!(r.iterations <= 8, "{} iterations", r.iterations);
    }

    #[test]
    fn solve_2d_stops_at_a_singular_jacobian() {
        // Parallel lines: J is singular everywhere, so no step is taken.
        let calls = std::cell::Cell::new(0);
        let r = solve_2d(
            |x| {
                calls.set(calls.get() + 1);
                (
                    [x[0] + x[1] - 1.0, x[0] + x[1] - 2.0],
                    [[1.0, 1.0], [1.0, 1.0]],
                )
            },
            [0.0, 0.0],
            50,
        );
        assert_eq!((r.x, r.iterations, calls.get()), ([0.0, 0.0], 0, 1));
        assert!((r.residual - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_2d_accepted_full_steps_cost_one_call_each() {
        // A smooth system whose full Newton steps all reduce the residual:
        // one call for x0 plus one per iteration.
        let calls = std::cell::Cell::new(0);
        let r = solve_2d(
            |x| {
                calls.set(calls.get() + 1);
                (
                    [x[0].exp() - 2.0, x[1] + 0.1 * x[1].powi(3) - 1.0],
                    [[x[0].exp(), 0.0], [0.0, 1.0 + 0.3 * x[1] * x[1]]],
                )
            },
            [0.5, 0.5],
            50,
        );
        assert!(r.residual < 1e-12, "residual {}", r.residual);
        assert!((r.x[0] - 2f64.ln()).abs() < 1e-12);
        assert_eq!(calls.get(), r.iterations + 1);
    }
}
