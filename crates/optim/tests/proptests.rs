//! Property-based tests for the optimization routines.

use proptest::prelude::*;
use uniq_optim::{golden_section, nelder_mead, solve_2d, NelderMeadOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nelder_mead_finds_random_quadratic_minimum(
        cx in -5.0..5.0f64, cy in -5.0..5.0f64,
        sx in 0.5..4.0f64, sy in 0.5..4.0f64,
        x0 in -8.0..8.0f64, y0 in -8.0..8.0f64,
    ) {
        let f = |x: &[f64]| sx * (x[0] - cx).powi(2) + sy * (x[1] - cy).powi(2);
        let opts = NelderMeadOptions { max_iter: 1000, ..Default::default() };
        let r = nelder_mead(f, &[x0, y0], &opts);
        prop_assert!((r.x[0] - cx).abs() < 1e-3, "x: {} vs {cx}", r.x[0]);
        prop_assert!((r.x[1] - cy).abs() < 1e-3, "y: {} vs {cy}", r.x[1]);
    }

    #[test]
    fn nelder_mead_never_worse_than_start(
        coeffs in prop::collection::vec(-2.0..2.0f64, 3),
        x0 in -3.0..3.0f64,
    ) {
        // Arbitrary smooth 1-D objective (bounded below on the tested range).
        let f = move |x: &[f64]| {
            let t = x[0];
            coeffs[0] * t.sin() + coeffs[1] * (0.5 * t).cos() + coeffs[2] * 0.01 * t * t + t * t * 0.1
        };
        let start = f(&[x0]);
        let r = nelder_mead(f, &[x0], &NelderMeadOptions::default());
        prop_assert!(r.fx <= start + 1e-12);
    }

    #[test]
    fn golden_section_brackets_quadratic(c in -4.0..4.0f64, scale in 0.1..5.0f64) {
        let (x, fx) = golden_section(|x| scale * (x - c).powi(2), -10.0, 10.0, 1e-7);
        prop_assert!((x - c).abs() < 1e-4);
        prop_assert!(fx >= 0.0);
    }

    #[test]
    fn solve_2d_random_linear_systems(
        a in 0.5..3.0f64, b in -2.0..2.0f64,
        c in -2.0..2.0f64, d in 0.5..3.0f64,
        r1 in -5.0..5.0f64, r2 in -5.0..5.0f64,
    ) {
        // Diagonally dominant → invertible.
        let (sol, res) = solve_2d(
            move |x| [a * x[0] + 0.3 * b * x[1] - r1, 0.3 * c * x[0] + d * x[1] - r2],
            [0.0, 0.0],
            80,
        );
        prop_assert!(res < 1e-8, "residual {res}");
        // Verify against the analytic solution.
        let det = a * d - 0.09 * b * c;
        let x = (r1 * d - 0.3 * b * r2) / det;
        let y = (a * r2 - 0.3 * c * r1) / det;
        prop_assert!((sol[0] - x).abs() < 1e-5);
        prop_assert!((sol[1] - y).abs() < 1e-5);
    }
}
