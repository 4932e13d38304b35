//! Property-based tests for the forward acoustic simulator.

use proptest::prelude::*;
use std::sync::OnceLock;
use uniq_acoustics::pinna::PinnaModel;
use uniq_acoustics::render::Renderer;
use uniq_acoustics::shadow::{shadow_fir, shadow_magnitude};
use uniq_acoustics::types::RenderConfig;
use uniq_geometry::vec2::unit_from_theta;
use uniq_geometry::{HeadBoundary, HeadParams};

fn renderer() -> &'static Renderer {
    static R: OnceLock<Renderer> = OnceLock::new();
    R.get_or_init(|| {
        Renderer::new(
            HeadBoundary::new(HeadParams::average_adult(), 512),
            PinnaModel::from_seed(7001),
            PinnaModel::from_seed(7002),
            RenderConfig::default(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rendered_irs_finite_and_nonzero(theta in 0.0..360.0f64, r in 0.3..1.5f64) {
        let ir = renderer().render_point(unit_from_theta(theta) * r).unwrap();
        let e: f64 = ir.left.iter().chain(&ir.right).map(|v| v * v).sum();
        prop_assert!(e.is_finite() && e > 0.0);
    }

    #[test]
    fn closer_sources_are_louder(theta in 0.0..360.0f64) {
        let near = renderer().render_point(unit_from_theta(theta) * 0.3).unwrap();
        let far = renderer().render_point(unit_from_theta(theta) * 1.2).unwrap();
        let e = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        prop_assert!(e(&near.left) + e(&near.right) > e(&far.left) + e(&far.right));
    }

    #[test]
    fn pinna_response_energy_bounded(
        seed in 0u64..500,
        angle in -std::f64::consts::PI..std::f64::consts::PI,
    ) {
        let p = PinnaModel::from_seed(seed);
        let ir = p.response(angle, 48_000.0, 256);
        let e: f64 = ir.iter().map(|v| v * v).sum();
        // Direct tap energy 1 plus up to 8 echoes of gain ≤ 0.65·1.8.
        prop_assert!(e >= 0.9 && e < 1.0 + 8.0 * 1.4_f64.powi(2), "energy {e}");
    }

    #[test]
    fn pinna_angle_continuity(seed in 0u64..100, angle in -3.0..3.0f64) {
        let p = PinnaModel::from_seed(seed);
        let a = p.response(angle, 48_000.0, 128);
        let b = p.response(angle + 0.01, 48_000.0, 128);
        let sim = uniq_dsp::xcorr::peak_normalized_xcorr(&a, &b);
        // 0.01 rad steps: a micro-echo with a large delay modulation can
        // sweep across samples, so demand smoothness, not identity.
        prop_assert!(sim > 0.95, "discontinuous pinna at {angle}: {sim}");
    }

    #[test]
    fn shadow_magnitude_in_unit_interval(f in 0.0..24_000.0f64, wrap in 0.0..3.0f64) {
        let m = shadow_magnitude(f, wrap);
        prop_assert!((0.0..=1.0).contains(&m));
    }

    #[test]
    fn shadow_fir_dc_is_unity(wrap in 0.01..3.0f64) {
        let taps = shadow_fir(wrap, 48_000.0).unwrap();
        let dc: f64 = taps.iter().sum();
        prop_assert!((dc - 1.0).abs() < 1e-9, "dc = {dc}");
    }

    #[test]
    fn plane_renders_differ_across_angles(t1 in 0.0..180.0f64, delta in 15.0..90.0f64) {
        let t2 = (t1 + delta).min(180.0);
        prop_assume!(t2 - t1 > 10.0);
        let a = renderer().render_plane(t1);
        let b = renderer().render_plane(t2);
        let (sim, _) = a.similarity(&b);
        prop_assert!(sim < 0.9999, "θ {t1} vs {t2}: {sim}");
    }
}
