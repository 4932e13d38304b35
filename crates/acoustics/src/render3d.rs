//! 3-D binaural rendering — forward model for the §7 "3D HRTF" extension.
//!
//! Mirrors [`crate::render`] one dimension up: wrap delays come from the
//! plane-section geodesics of `uniq_geometry::elevation`, and pinna
//! multipath gains its elevation dependence through
//! [`PinnaModel::response_3d`].

use crate::pinna::PinnaModel;
use crate::render::add_arrival;
use crate::types::{BinauralIr, RenderConfig};
use uniq_geometry::elevation::{path_to_ear_3d, Head3, Vec3};
use uniq_geometry::Ear;

/// A subject-specific 3-D renderer.
#[derive(Debug, Clone)]
pub struct Renderer3 {
    cfg: RenderConfig,
    head: Head3,
    pinna_left: PinnaModel,
    pinna_right: PinnaModel,
}

impl Renderer3 {
    /// Builds a 3-D renderer.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(
        head: Head3,
        pinna_left: PinnaModel,
        pinna_right: PinnaModel,
        cfg: RenderConfig,
    ) -> Self {
        cfg.validate();
        Renderer3 {
            cfg,
            head,
            pinna_left,
            pinna_right,
        }
    }

    /// The head model.
    pub fn head(&self) -> &Head3 {
        &self.head
    }

    /// The render configuration.
    pub fn config(&self) -> &RenderConfig {
        &self.cfg
    }

    /// Renders a point source at `src` (head frame, metres). Returns
    /// `None` when the source is inside the head.
    pub fn render_point(&self, src: Vec3) -> Option<BinauralIr> {
        let left = path_to_ear_3d(&self.head, src, Ear::Left)?;
        let right = path_to_ear_3d(&self.head, src, Ear::Right)?;
        let mut out = BinauralIr::zeros(self.cfg.ir_len);
        for (ear, path, ir) in [
            (Ear::Left, left, &mut out.left),
            (Ear::Right, right, &mut out.right),
        ] {
            let gain = 1.0 / path.length.max(0.05);
            self.add_arrival(ir, src, path.length, path.wrap_angle, gain, ear);
        }
        Some(out)
    }

    /// Renders a far-field plane wave from `(azimuth, elevation)` degrees.
    pub fn render_plane(&self, theta_deg: f64, elevation_deg: f64) -> BinauralIr {
        const FAR: f64 = 100.0;
        let src = Vec3::from_angles(theta_deg, elevation_deg).scale(FAR);
        let mut out = BinauralIr::zeros(self.cfg.ir_len);
        for (ear, ir) in [(Ear::Left, &mut out.left), (Ear::Right, &mut out.right)] {
            // uniq-analyzer: allow(panic-safety) — the source sits 100 m out; no head model approaches that radius
            let path = path_to_ear_3d(&self.head, src, ear).expect("far source outside the head");
            let excess = path.length - FAR;
            self.add_arrival(ir, src, excess, path.wrap_angle, 1.0, ear);
        }
        out
    }

    /// Adds one arrival into an ear IR with the pinna response for its
    /// local azimuth and elevation (see [`add_arrival`]).
    fn add_arrival(
        &self,
        out: &mut [f64],
        src: Vec3,
        path_metres: f64,
        wrap_angle: f64,
        gain: f64,
        ear: Ear,
    ) {
        let cfg = &self.cfg;
        // Local arrival angles: the horizontal component reuses the 2-D
        // convention; elevation is the ray's angle above the horizon.
        let horiz = uniq_geometry::Vec2::new(src.x, src.y);
        let local_az = if horiz.norm() > 1e-9 {
            crate::render::local_arrival_angle(-horiz.normalized(), ear)
        } else {
            0.0
        };
        let elevation = src.z.atan2(horiz.norm());

        let pinna = match ear {
            Ear::Left => &self.pinna_left,
            Ear::Right => &self.pinna_right,
        };
        let pinna_ir = pinna.response_3d(
            local_az,
            elevation,
            cfg.sample_rate,
            pinna.required_len(cfg.sample_rate),
        );
        add_arrival(out, cfg, path_metres, wrap_angle, gain, &pinna_ir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::oracle;
    use uniq_dsp::peaks::first_tap;

    fn renderer() -> Renderer3 {
        Renderer3::new(
            Head3::average_adult(),
            PinnaModel::from_seed(901),
            PinnaModel::from_seed(902),
            RenderConfig::default(),
        )
    }

    #[test]
    fn horizontal_plane_matches_2d_first_taps() {
        // At zero elevation the 3-D renderer's interaural delay must match
        // the 2-D renderer's (same planar head).
        let r3 = renderer();
        let r2 = crate::render::Renderer::new(
            uniq_geometry::HeadBoundary::new(r3.head().planar, 2048),
            PinnaModel::from_seed(901),
            PinnaModel::from_seed(902),
            RenderConfig::default(),
        );
        for theta in [30.0, 70.0, 120.0] {
            let ir3 = r3.render_plane(theta, 0.0);
            let ir2 = r2.render_plane(theta);
            let tdoa = |ir: &BinauralIr| {
                first_tap(&ir.right, 0.3).unwrap().position
                    - first_tap(&ir.left, 0.3).unwrap().position
            };
            assert!(
                (tdoa(&ir3) - tdoa(&ir2)).abs() < 1.0,
                "θ={theta}: 3D TDoA {} vs 2D {}",
                tdoa(&ir3),
                tdoa(&ir2)
            );
        }
    }

    #[test]
    fn elevation_shrinks_tdoa() {
        let r = renderer();
        let tdoa = |el: f64| {
            let ir = r.render_plane(90.0, el);
            first_tap(&ir.right, 0.3).unwrap().position - first_tap(&ir.left, 0.3).unwrap().position
        };
        assert!(tdoa(45.0) < tdoa(0.0) - 3.0);
        assert!(tdoa(75.0) < tdoa(45.0));
    }

    #[test]
    fn elevation_changes_hrir_beyond_delay() {
        // Same azimuth, different elevations: the pinna structure must
        // differ (the cue that breaks the cone of confusion).
        let r = renderer();
        let a = r.render_plane(45.0, 0.0);
        let b = r.render_plane(45.0, 50.0);
        let (sim, _) = a.similarity(&b);
        assert!(sim < 0.995, "elevation invisible in HRIR: {sim}");
    }

    #[test]
    fn point_source_inside_rejected() {
        assert!(renderer()
            .render_point(Vec3::new(0.0, 0.02, 0.02))
            .is_none());
    }

    #[test]
    fn overhead_source_balanced() {
        let r = renderer();
        let ir = r.render_plane(0.0, 85.0);
        let tl = first_tap(&ir.left, 0.3).unwrap().position;
        let tr = first_tap(&ir.right, 0.3).unwrap().position;
        assert!((tl - tr).abs() < 1.0, "overhead TDoA {}", tl - tr);
    }

    #[test]
    fn near_point_source_renders() {
        let r = renderer();
        let ir = r
            .render_point(Vec3::new(-0.3, 0.1, 0.2))
            .expect("outside the head");
        let e: f64 = ir.left.iter().map(|v| v * v).sum();
        assert!(e.is_finite() && e > 0.0);
    }

    /// The 3-D renderer with every arrival through the long-buffer FFT
    /// oracle: `(left, right)` for a source at `src`, `excess` metres
    /// subtracted from each path (the plane-wave reference).
    fn oracle_render(
        r: &Renderer3,
        src: Vec3,
        excess: f64,
        gain: impl Fn(f64) -> f64,
    ) -> BinauralIr {
        let cfg = r.config();
        let horiz = uniq_geometry::Vec2::new(src.x, src.y);
        let elevation = src.z.atan2(horiz.norm());
        let ear = |ear, pinna: &PinnaModel| {
            let path = path_to_ear_3d(r.head(), src, ear).expect("outside the head");
            let local_az = crate::render::local_arrival_angle(-horiz.normalized(), ear);
            let need = pinna.required_len(cfg.sample_rate);
            let pinna_ir = pinna.response_3d(local_az, elevation, cfg.sample_rate, need);
            let len = path.length - excess;
            oracle::arrival_fft(
                cfg.ir_len,
                cfg,
                len,
                path.wrap_angle,
                gain(path.length),
                &pinna_ir,
            )
        };
        BinauralIr::new(
            ear(Ear::Left, &r.pinna_left),
            ear(Ear::Right, &r.pinna_right),
        )
    }

    #[test]
    fn renderer_matches_the_fft_oracle_for_points_and_planes() {
        for ir_len in [512, 4096] {
            let r = Renderer3::new(
                Head3::average_adult(),
                PinnaModel::from_seed(901),
                PinnaModel::from_seed(902),
                RenderConfig {
                    ir_len,
                    ..RenderConfig::default()
                },
            );
            for k in 0..24 {
                let theta = k as f64 * 15.0 + 2.5;
                for el in [-40.0, 0.0, 35.0, 70.0] {
                    let what = format!("plane {theta}/{el} ir_len {ir_len}");
                    let want =
                        oracle_render(&r, Vec3::from_angles(theta, el).scale(100.0), 100.0, |_| {
                            1.0
                        });
                    oracle::assert_close(&r.render_plane(theta, el), &want, &what);
                    for radius in [0.2, 0.6] {
                        let src = Vec3::from_angles(theta, el).scale(radius);
                        let what = format!("point {theta}/{el} r {radius} ir_len {ir_len}");
                        let want = oracle_render(&r, src, 0.0, |len| 1.0 / len.max(0.05));
                        let got = r.render_point(src).expect("outside the head");
                        oracle::assert_close(&got, &want, &what);
                    }
                }
            }
        }
    }
}
