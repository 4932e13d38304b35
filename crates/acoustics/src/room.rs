//! Image-source shoebox reverberation.
//!
//! Home users measure in echoic rooms (§4.6 of the paper). We model a
//! rectangular room around the listener with the classic image-source
//! method: each wall reflection is an *image* of the true source, mirrored
//! across the wall and attenuated by the wall reflectivity. Every image is
//! then rendered through the same diffraction renderer as the true source,
//! so room echoes acquire correct head geometry too.
//!
//! For a seated listener away from walls, every image path is longer than
//! any head/pinna path — exactly the property UNIQ's time-gating
//! pre-processing relies on.

use crate::render::Renderer;
use crate::types::BinauralIr;
use uniq_geometry::Vec2;

/// A rectangular room in the head frame (the head centre is the origin and
/// must be inside the room).
#[derive(Debug, Clone, Copy)]
pub struct Shoebox {
    /// Wall at `x = x_min` (metres, negative).
    pub x_min: f64,
    /// Wall at `x = x_max`.
    pub x_max: f64,
    /// Wall at `y = y_min`.
    pub y_min: f64,
    /// Wall at `y = y_max`.
    pub y_max: f64,
    /// Amplitude reflectivity per bounce, in `(0, 1)`.
    pub reflectivity: f64,
    /// Maximum reflection order (1 = first bounces only).
    pub max_order: usize,
}

impl Shoebox {
    /// A typical 4 m × 5 m living room with the listener slightly
    /// off-centre and moderately absorbing walls.
    pub fn typical_living_room() -> Self {
        Shoebox {
            x_min: -1.8,
            x_max: 2.2,
            y_min: -2.3,
            y_max: 2.7,
            reflectivity: 0.5,
            max_order: 2,
        }
    }

    /// Validates the geometry.
    ///
    /// # Panics
    /// Panics if the origin is not strictly inside, reflectivity is not in
    /// `(0, 1)`, or `max_order == 0`.
    pub fn validate(&self) {
        assert!(
            self.x_min < 0.0 && self.x_max > 0.0 && self.y_min < 0.0 && self.y_max > 0.0,
            "head (origin) must be inside the room"
        );
        assert!(
            self.reflectivity > 0.0 && self.reflectivity < 1.0,
            "reflectivity must be in (0, 1)"
        );
        assert!(self.max_order >= 1, "max_order must be at least 1");
    }

    /// Shortest distance from the origin (head) to any wall.
    pub fn min_wall_distance(&self) -> f64 {
        (-self.x_min)
            .min(self.x_max)
            .min(-self.y_min)
            .min(self.y_max)
    }

    /// Enumerates image sources for a true source at `src`, excluding the
    /// direct (order-0) source itself. Returns `(position, gain)` pairs.
    ///
    /// The standard 2-D image lattice: reflections are indexed by `(m, n)`;
    /// image `x` alternates between translated copies of `src.x` and its
    /// mirror, likewise in `y`; the bounce count is `|m| + |n|`.
    pub fn image_sources(&self, src: Vec2) -> Vec<(Vec2, f64)> {
        self.validate();
        let lx = self.x_max - self.x_min;
        let ly = self.y_max - self.y_min;
        let order = self.max_order as i64;
        let mut out = Vec::new();
        for m in -order..=order {
            for n in -order..=order {
                let bounces = (m.abs() + n.abs()) as usize;
                if bounces == 0 || bounces > self.max_order {
                    continue;
                }
                let ix = image_coord(src.x, self.x_min, lx, m);
                let iy = image_coord(src.y, self.y_min, ly, n);
                let gain = self.reflectivity.powi(bounces as i32);
                out.push((Vec2::new(ix, iy), gain));
            }
        }
        out
    }

    /// Renders the full echoic binaural response of a point source: direct
    /// sound plus all image sources, each passed through the diffraction
    /// renderer and added into one `ir_len`-sample response. Returns `None`
    /// if the true source is inside the head.
    ///
    /// `ir_len` may exceed the renderer's configured head-IR length to
    /// capture late echoes.
    pub fn render_echoic(
        &self,
        renderer: &Renderer,
        src: Vec2,
        ir_len: usize,
    ) -> Option<BinauralIr> {
        self.validate();
        let mut total = BinauralIr::zeros(ir_len);
        renderer.add_point(&mut total, src, 1.0)?;
        for (img, gain) in self.image_sources(src) {
            // An image inside the head contributes nothing.
            let _ = renderer.add_point(&mut total, img, gain);
        }
        Some(total)
    }
}

/// Image coordinate along one axis after `k` mirror translations.
///
/// `w` is the low wall coordinate, `l` the room length on that axis. Even
/// `k` translates the source; odd `k` translates its mirror across the low
/// wall.
fn image_coord(s: f64, w: f64, l: f64, k: i64) -> f64 {
    // Reflections generate positions: ..., 2w - s - 2l, s - 2l, 2w - s, s,
    // 2w - s + 2l, s + 2l, ... — i.e. for index k:
    //   k even: s + k·l
    //   k odd:  2w - s + (k+1)·l
    if k.rem_euclid(2) == 0 {
        s + k as f64 * l
    } else {
        2.0 * w - s + (k + 1) as f64 * l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinna::PinnaModel;
    use crate::render::oracle;
    use crate::types::RenderConfig;
    use uniq_dsp::peaks::first_tap;
    use uniq_geometry::{HeadBoundary, HeadParams};

    fn room() -> Shoebox {
        Shoebox::typical_living_room()
    }

    fn renderer() -> Renderer {
        Renderer::new(
            HeadBoundary::new(HeadParams::average_adult(), 512),
            PinnaModel::from_seed(5),
            PinnaModel::from_seed(6),
            RenderConfig::default(),
        )
    }

    #[test]
    fn image_count_matches_orders() {
        // Order ≤ 2 in 2-D: 4 first-order + 8 second-order = 12 images.
        let imgs = room().image_sources(Vec2::new(0.3, 0.2));
        assert_eq!(imgs.len(), 12);
        let first: Vec<_> = imgs
            .iter()
            .filter(|(_, g)| (*g - 0.5).abs() < 1e-12)
            .collect();
        assert_eq!(first.len(), 4);
    }

    #[test]
    fn first_order_images_mirror_across_walls() {
        let r = room();
        let src = Vec2::new(0.3, 0.2);
        let imgs = r.image_sources(src);
        // Mirror across x_max: x → 2·x_max − x.
        let expect_x = 2.0 * r.x_max - src.x;
        assert!(
            imgs.iter()
                .any(|(p, _)| (p.x - expect_x).abs() < 1e-9 && (p.y - src.y).abs() < 1e-9),
            "missing east-wall image"
        );
        // Mirror across y_min: y → 2·y_min − y.
        let expect_y = 2.0 * r.y_min - src.y;
        assert!(
            imgs.iter()
                .any(|(p, _)| (p.y - expect_y).abs() < 1e-9 && (p.x - src.x).abs() < 1e-9),
            "missing south-wall image"
        );
    }

    #[test]
    fn images_farther_than_source() {
        let r = room();
        let src = Vec2::new(0.25, 0.3);
        // Every image is at least one mirror away: ≥ 2·(nearest wall) − |src|.
        let bound = 2.0 * r.min_wall_distance() - src.norm();
        for (img, _) in r.image_sources(src) {
            assert!(
                img.norm() >= bound - 1e-9,
                "image {img:?} closer than the geometric bound {bound}"
            );
        }
    }

    #[test]
    fn second_order_weaker_gain() {
        let imgs = room().image_sources(Vec2::new(0.1, 0.1));
        for (_, g) in imgs {
            assert!((g - 0.5).abs() < 1e-12 || (g - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn echoic_render_adds_late_energy() {
        let rend = renderer();
        let src = Vec2::new(-0.35, 0.1);
        let dry = rend.render_point(src).unwrap();
        let wet = room().render_echoic(&rend, src, 2048).unwrap();
        // Early part (head taps) similar; late part has extra energy.
        let late = |v: &[f64]| v[512..].iter().map(|x| x * x).sum::<f64>();
        assert!(late(&wet.left) > 0.0);
        let early_dry: f64 = dry.left.iter().map(|x| x * x).sum();
        assert!(early_dry > 0.0);
    }

    #[test]
    fn room_echoes_arrive_after_head_taps() {
        // The §4.6 time-gating premise: the first room echo must trail the
        // direct first tap by the extra bounce distance.
        let rend = renderer();
        let src = Vec2::new(-0.35, 0.1);
        let wet = room().render_echoic(&rend, src, 2048).unwrap();
        let dry = rend.render_point(src).unwrap();
        let t_direct = first_tap(&dry.left, 0.25).unwrap().position;
        // Energy in the window right after the direct tap should dominate
        // over the same-size window far later only if echoes are weaker.
        let cfg = rend.config();
        // Shortest echo path: src → nearest wall → head, at least
        // 2·(wall distance) − |src| longer than direct.
        let extra_m = 2.0 * room().min_wall_distance() - 2.0 * src.norm();
        let min_gap = extra_m / uniq_dsp::SPEED_OF_SOUND * cfg.sample_rate;
        let gate = t_direct as usize + (min_gap * 0.8) as usize;
        // Dry and wet must agree before the gate (no early echoes).
        for k in 0..gate.min(dry.left.len()) {
            assert!(
                (dry.left[k] - wet.left[k]).abs() < 1e-9,
                "early echo contamination at sample {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inside the room")]
    fn head_outside_room_rejected() {
        let bad = Shoebox {
            x_min: 0.5,
            ..room()
        };
        bad.image_sources(Vec2::new(0.6, 0.0));
    }

    #[test]
    #[should_panic(expected = "reflectivity")]
    fn bad_reflectivity_rejected() {
        let bad = Shoebox {
            reflectivity: 1.5,
            ..room()
        };
        bad.image_sources(Vec2::ZERO);
    }

    #[test]
    fn echoic_render_matches_the_fft_oracle() {
        // Direct sound plus the 12 images, each rendered the long-buffer
        // way and mixed as before; at 512 samples the later echoes are cut
        // at the end of the response.
        let rend = renderer();
        let room = room();
        for ir_len in [512, 4096] {
            for src in [
                Vec2::new(-0.35, 0.1),
                Vec2::new(0.3, 0.25),
                Vec2::new(0.05, -0.6),
                Vec2::new(1.2, 1.5),
            ] {
                let got = room.render_echoic(&rend, src, ir_len).unwrap();
                let mut want = oracle::point(&rend, src, ir_len).unwrap();
                for (img, gain) in room.image_sources(src) {
                    if let Some(ir) = oracle::point(&rend, img, ir_len) {
                        for (mix, echo) in
                            [(&mut want.left, &ir.left), (&mut want.right, &ir.right)]
                        {
                            for (m, e) in mix.iter_mut().zip(echo) {
                                *m += e * gain;
                            }
                        }
                    }
                }
                oracle::assert_close(&got, &want, &format!("{src:?} ir_len {ir_len}"));
            }
        }
    }
}
