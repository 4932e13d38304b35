//! Property-based tests for UNIQ core invariants.

use proptest::prelude::*;
use std::sync::OnceLock;
use uniq_core::aoa::is_front;
use uniq_core::config::UniqConfig;
use uniq_core::fusion::{circular_blend, localize_phone};
use uniq_geometry::diffraction::path_to_ear;
use uniq_geometry::vec2::{angle_diff_deg, unit_from_theta};
use uniq_geometry::{Ear, HeadBoundary, HeadParams};

fn boundary() -> &'static HeadBoundary {
    static B: OnceLock<HeadBoundary> = OnceLock::new();
    B.get_or_init(|| HeadBoundary::new(HeadParams::average_adult(), 512))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn circular_blend_on_short_arc(a in 0.0..360.0f64, b in 0.0..360.0f64, t in 0.0..1.0f64) {
        let m = circular_blend(a, b, t);
        prop_assert!((0.0..360.0).contains(&m));
        // The blend never leaves the short arc between a and b.
        let arc = angle_diff_deg(a, b);
        prop_assert!(angle_diff_deg(m, a) <= arc + 1e-9);
        prop_assert!(angle_diff_deg(m, b) <= arc + 1e-9);
    }

    #[test]
    fn circular_blend_endpoints(a in 0.0..360.0f64, b in 0.0..360.0f64) {
        prop_assert!(angle_diff_deg(circular_blend(a, b, 0.0), a) < 1e-9);
        prop_assert!(angle_diff_deg(circular_blend(a, b, 1.0), b) < 1e-9);
    }

    #[test]
    fn localization_inverts_forward_geometry(theta in 5.0..175.0f64, r in 0.3..0.8f64) {
        // Clean forward→inverse roundtrip at any angle/radius. Near 90°
        // the two iso-delay curves intersect tangentially (the phone sits
        // on the ear axis), so the angular conditioning degrades there —
        // the same effect behind the paper's Fig 18 dip near 90°.
        let pos = unit_from_theta(theta) * r;
        let dl = path_to_ear(boundary(), pos, Ear::Left).unwrap().length;
        let dr = path_to_ear(boundary(), pos, Ear::Right).unwrap().length;
        let loc = localize_phone(boundary(), dl, dr, theta + 3.0);
        prop_assert!(loc.is_some(), "no solution at θ={theta} r={r}");
        let loc = loc.unwrap();
        let tol = if angle_diff_deg(theta, 90.0) < 15.0 { 6.0 } else { 2.0 };
        prop_assert!(angle_diff_deg(loc.theta_deg, theta) < tol,
            "θ={theta}: got {}", loc.theta_deg);
        prop_assert!((loc.radius_m - r).abs() < 0.03,
            "r={r}: got {}", loc.radius_m);
        // The sharp invariant: the solution reproduces the measured path
        // lengths regardless of conditioning.
        let est = unit_from_theta(loc.theta_deg) * loc.radius_m;
        let dl2 = path_to_ear(boundary(), est, Ear::Left).unwrap().length;
        let dr2 = path_to_ear(boundary(), est, Ear::Right).unwrap().length;
        prop_assert!((dl2 - dl).abs() < 0.012, "left path mismatch");
        prop_assert!((dr2 - dr).abs() < 0.012, "right path mismatch");
    }

    #[test]
    fn is_front_consistent_with_mirror(theta in 0.0..90.0f64) {
        prop_assert!(is_front(theta));
        prop_assert!(!is_front(180.0 - theta + 0.001));
        prop_assert!(is_front(360.0 - theta - 0.001) || theta < 0.002);
    }

    #[test]
    fn tap_to_metres_linear(t1 in 50.0..500.0f64, dt in 1.0..100.0f64) {
        use uniq_core::channel::EstimatedChannel;
        let cfg = UniqConfig::default();
        let a = EstimatedChannel::tap_to_metres(t1, &cfg);
        let b = EstimatedChannel::tap_to_metres(t1 + dt, &cfg);
        let expect = dt / cfg.render.sample_rate * uniq_dsp::SPEED_OF_SOUND;
        prop_assert!((b - a - expect).abs() < 1e-9);
    }

    #[test]
    fn output_grid_sorted_and_bounded(step in 0.5..30.0f64) {
        let cfg = UniqConfig { grid_step_deg: step, ..UniqConfig::default() };
        let g = cfg.output_grid();
        prop_assert!(!g.is_empty());
        prop_assert_eq!(g[0], 0.0);
        prop_assert!(*g.last().unwrap() <= 180.0);
        for w in g.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }
}
