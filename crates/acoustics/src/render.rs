//! The core binaural renderer.
//!
//! Composes, per ear: wrap delay (fractional-sample tap) → spreading loss →
//! frequency-dependent shadow FIR (when occluded) → angle-sensitive pinna
//! multipath. Point sources model the phone in the near field; plane waves
//! model far-field sources (and generate ground-truth HRIR banks in place
//! of the paper's anechoic chamber).

use crate::pinna::PinnaModel;
use crate::shadow::{group_delay_samples, shadow_fir};
use crate::types::{BinauralIr, HrirBank, RenderConfig};
use uniq_dsp::conv::convolve_direct;
use uniq_dsp::delay::{add_fractional_impulse, SINC_HALF_WIDTH};
use uniq_geometry::diffraction::path_to_ear;
use uniq_geometry::planewave::plane_path_to_ear;
use uniq_geometry::{Ear, HeadBoundary, Vec2};

/// A near-field measurement circle intersected the head: the requested
/// radius places a measurement point inside (or on) the boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearFieldError {
    /// First angle (degrees) whose measurement point fell inside the head.
    pub angle_deg: f64,
    /// The requested circle radius, metres.
    pub radius_m: f64,
}

impl std::fmt::Display for NearFieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "near-field radius {} m does not clear the head at {}°",
            self.radius_m, self.angle_deg
        )
    }
}

impl std::error::Error for NearFieldError {}

/// A subject-specific binaural renderer: head geometry plus one pinna model
/// per ear.
///
/// ```
/// use uniq_acoustics::{Renderer, PinnaModel, RenderConfig};
/// use uniq_geometry::{HeadBoundary, HeadParams, Vec2};
/// let r = Renderer::new(
///     HeadBoundary::new(HeadParams::average_adult(), 256),
///     PinnaModel::from_seed(1),
///     PinnaModel::from_seed(2),
///     RenderConfig::default(),
/// );
/// let hrir = r.render_point(Vec2::new(-0.4, 0.1)).expect("outside the head");
/// assert_eq!(hrir.len(), RenderConfig::default().ir_len);
/// ```
#[derive(Debug, Clone)]
pub struct Renderer {
    cfg: RenderConfig,
    boundary: HeadBoundary,
    pinna_left: PinnaModel,
    pinna_right: PinnaModel,
}

impl Renderer {
    /// Builds a renderer.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or an IR shorter than the
    /// pinna models require.
    pub fn new(
        boundary: HeadBoundary,
        pinna_left: PinnaModel,
        pinna_right: PinnaModel,
        cfg: RenderConfig,
    ) -> Self {
        cfg.validate();
        let need = pinna_left
            .required_len(cfg.sample_rate)
            .max(pinna_right.required_len(cfg.sample_rate));
        assert!(
            cfg.ir_len > need + (cfg.base_delay * cfg.sample_rate) as usize + 64,
            "ir_len {} too short for pinna tail {need} plus base delay",
            cfg.ir_len
        );
        Renderer {
            cfg,
            boundary,
            pinna_left,
            pinna_right,
        }
    }

    /// The render configuration.
    pub fn config(&self) -> &RenderConfig {
        &self.cfg
    }

    /// The head boundary being rendered.
    pub fn boundary(&self) -> &HeadBoundary {
        &self.boundary
    }

    /// The pinna model of one ear.
    pub fn pinna(&self, ear: Ear) -> &PinnaModel {
        match ear {
            Ear::Left => &self.pinna_left,
            Ear::Right => &self.pinna_right,
        }
    }

    /// Renders the binaural impulse response of a point source at `src`
    /// (head frame, metres). Returns `None` if `src` is inside the head.
    pub fn render_point(&self, src: Vec2) -> Option<BinauralIr> {
        let mut out = BinauralIr::zeros(self.cfg.ir_len);
        self.add_point(&mut out, src, 1.0)?;
        Some(out)
    }

    /// Adds `scale` times the binaural response of a point source at `src`
    /// into `out`, which may be longer than the configured IR (room
    /// echoes). Returns `None`, leaving `out` untouched, if `src` is
    /// inside the head.
    pub(crate) fn add_point(&self, out: &mut BinauralIr, src: Vec2, scale: f64) -> Option<()> {
        let left = path_to_ear(&self.boundary, src, Ear::Left)?;
        let right = path_to_ear(&self.boundary, src, Ear::Right)?;
        for (ear, p, ir) in [
            (Ear::Left, left, &mut out.left),
            (Ear::Right, right, &mut out.right),
        ] {
            let gain = scale / p.length.max(0.05);
            self.add_arrival(ir, p.length, p.wrap_angle, p.arrival_dir, gain, ear);
        }
        Some(())
    }

    /// Renders the binaural impulse response of a far-field plane wave from
    /// polar angle `theta_deg` (unit incident amplitude).
    pub fn render_plane(&self, theta_deg: f64) -> BinauralIr {
        let mut out = BinauralIr::zeros(self.cfg.ir_len);
        for (ear, ir) in [(Ear::Left, &mut out.left), (Ear::Right, &mut out.right)] {
            let p = plane_path_to_ear(&self.boundary, theta_deg, ear);
            self.add_arrival(ir, p.excess, p.wrap_angle, p.arrival_dir, 1.0, ear);
        }
        out
    }

    /// Ground-truth far-field HRIR bank at the given angles — the stand-in
    /// for the paper's anechoic-chamber measurement rig.
    pub fn ground_truth_bank(&self, angles_deg: &[f64]) -> HrirBank {
        let pairs = angles_deg
            .iter()
            .map(|&a| (a, self.render_plane(a)))
            .collect();
        HrirBank::new(pairs, self.cfg.sample_rate)
    }

    /// Near-field HRIR bank measured on a circle of `radius` metres.
    ///
    /// # Errors
    /// Returns [`NearFieldError`] if the circle does not clear the head
    /// at some angle — the error names the first offending angle so a
    /// caller sweeping radii can report exactly where the geometry
    /// failed instead of dying mid-batch.
    pub fn near_field_bank(
        &self,
        angles_deg: &[f64],
        radius: f64,
    ) -> Result<HrirBank, NearFieldError> {
        let mut pairs = Vec::with_capacity(angles_deg.len());
        for &a in angles_deg {
            let src = uniq_geometry::vec2::unit_from_theta(a) * radius;
            let ir = self.render_point(src).ok_or(NearFieldError {
                angle_deg: a,
                radius_m: radius,
            })?;
            pairs.push((a, ir));
        }
        Ok(HrirBank::new(pairs, self.cfg.sample_rate))
    }

    /// Adds one arrival into an ear IR with the pinna response for its
    /// local arrival angle (see [`add_arrival`]).
    fn add_arrival(
        &self,
        out: &mut [f64],
        path_metres: f64,
        wrap_angle: f64,
        arrival_dir: Vec2,
        gain: f64,
        ear: Ear,
    ) {
        let cfg = &self.cfg;
        let local = local_arrival_angle(arrival_dir, ear);
        let pinna = self.pinna(ear);
        let pinna_ir = pinna.response(local, cfg.sample_rate, pinna.required_len(cfg.sample_rate));
        add_arrival(out, cfg, path_metres, wrap_angle, gain, &pinna_ir);
    }
}

/// Renders one arrival and adds it into the ear IR `out`: a fractional-delay
/// tap of amplitude `gain`, the shadow FIR when the path wraps the head,
/// then the pinna response `pinna_ir`. Samples at or past `out.len()` are
/// dropped.
///
/// The arrival is built on its support only — the tap's windowed-sinc
/// kernel plus the two FIR tails, about a hundred samples — with direct
/// convolutions, then added into `out` at its first sample. It agrees with
/// convolving full-length buffers (the test oracle `oracle::arrival_fft`)
/// to within FFT round-off.
///
/// `path_metres` may be a point-source path length or a plane-wave
/// excess (negative allowed — the base delay keeps taps causal).
pub(crate) fn add_arrival(
    out: &mut [f64],
    cfg: &RenderConfig,
    path_metres: f64,
    wrap_angle: f64,
    gain: f64,
    pinna_ir: &[f64],
) {
    let delay = cfg.metres_to_samples(path_metres);
    debug_assert!(
        delay >= 0.0,
        "negative tap position {delay}; increase base_delay"
    );
    let shadow = shadow_fir(wrap_angle, cfg.sample_rate);
    // A shadowed tap is placed earlier by the FIR group delay so the
    // filtered arrival lands at the true time.
    let pos = match shadow {
        None => delay,
        Some(_) => (delay - group_delay_samples() as f64).max(0.0),
    };
    if gain == 0.0 || !pos.is_finite() {
        return;
    }

    // The tap's kernel support, clipped to the IR. `lo` is an integer no
    // greater than `pos`, so `pos - lo` is exact and the short tap holds
    // the same values a full-length buffer would.
    let center = pos.round() as isize;
    let half = SINC_HALF_WIDTH as isize;
    let lo = center.saturating_sub(half).max(0);
    let hi = center.saturating_add(half).min(out.len() as isize - 1);
    if lo > hi {
        return;
    }
    let lo = lo as usize;
    let mut tap = vec![0.0; hi as usize - lo + 1];
    add_fractional_impulse(&mut tap, pos - lo as f64, gain);
    if let Some(kernel) = shadow {
        tap = convolve_direct(&tap, &kernel);
        tap.truncate(out.len() - lo);
    }
    let arrival = convolve_direct(&tap, pinna_ir);
    for (o, v) in out[lo..].iter_mut().zip(&arrival) {
        *o += v;
    }
}

/// Local arrival angle at an ear: the signed angle (radians) between the
/// ear's outward normal and the *incoming* ray direction. 0 means the wave
/// hits the ear head-on from the side; positive angles rotate toward the
/// front of the head for both ears (so left/right pinnae see mirrored
/// geometry, as anatomy does).
pub fn local_arrival_angle(arrival_dir: Vec2, ear: Ear) -> f64 {
    let outward = match ear {
        Ear::Left => Vec2::new(-1.0, 0.0),
        Ear::Right => Vec2::new(1.0, 0.0),
    };
    let incoming = -arrival_dir; // direction back toward the source
    let raw = outward.cross(incoming).atan2(outward.dot(incoming));
    // Mirror so +angle = toward the nose for both ears.
    match ear {
        Ear::Left => -raw,
        Ear::Right => raw,
    }
}

/// Reference renderer for the tests of [`add_arrival`]: each arrival's tap
/// is placed in a full-length buffer and both FIRs are applied with
/// full-length [`uniq_dsp::conv::convolve`] calls (the FFT path at these
/// sizes).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use uniq_dsp::conv::convolve;

    /// One arrival, rendered the long-buffer way into `ir_len` samples.
    pub(crate) fn arrival_fft(
        ir_len: usize,
        cfg: &RenderConfig,
        path_metres: f64,
        wrap_angle: f64,
        gain: f64,
        pinna_ir: &[f64],
    ) -> Vec<f64> {
        let delay = cfg.metres_to_samples(path_metres);
        let mut tap = vec![0.0; ir_len];
        match shadow_fir(wrap_angle, cfg.sample_rate) {
            None => add_fractional_impulse(&mut tap, delay, gain),
            Some(kernel) => {
                let pos = delay - group_delay_samples() as f64;
                let mut imp = vec![0.0; ir_len];
                add_fractional_impulse(&mut imp, pos.max(0.0), gain);
                let full = convolve(&imp, &kernel);
                tap.copy_from_slice(&full[..ir_len]);
            }
        }
        let full = convolve(&tap, pinna_ir);
        full[..ir_len].to_vec()
    }

    fn ear_arrival(
        r: &Renderer,
        ir_len: usize,
        path_metres: f64,
        wrap_angle: f64,
        arrival_dir: Vec2,
        gain: f64,
        ear: Ear,
    ) -> Vec<f64> {
        let cfg = r.config();
        let pinna = r.pinna(ear);
        let local = local_arrival_angle(arrival_dir, ear);
        let pinna_ir = pinna.response(local, cfg.sample_rate, pinna.required_len(cfg.sample_rate));
        arrival_fft(ir_len, cfg, path_metres, wrap_angle, gain, &pinna_ir)
    }

    /// [`Renderer::render_point`] at `ir_len` samples.
    pub(crate) fn point(r: &Renderer, src: Vec2, ir_len: usize) -> Option<BinauralIr> {
        let ear = |ear| {
            let p = path_to_ear(r.boundary(), src, ear)?;
            let gain = 1.0 / p.length.max(0.05);
            Some(ear_arrival(
                r,
                ir_len,
                p.length,
                p.wrap_angle,
                p.arrival_dir,
                gain,
                ear,
            ))
        };
        Some(BinauralIr::new(ear(Ear::Left)?, ear(Ear::Right)?))
    }

    /// [`Renderer::render_plane`].
    pub(crate) fn plane(r: &Renderer, theta_deg: f64) -> BinauralIr {
        let ear = |ear| {
            let p = plane_path_to_ear(r.boundary(), theta_deg, ear);
            ear_arrival(
                r,
                r.config().ir_len,
                p.excess,
                p.wrap_angle,
                p.arrival_dir,
                1.0,
                ear,
            )
        };
        BinauralIr::new(ear(Ear::Left), ear(Ear::Right))
    }

    /// Largest absolute value.
    pub(crate) fn peak(v: &[f64]) -> f64 {
        v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Largest `|a - b|`.
    pub(crate) fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "length mismatch");
        a.iter()
            .zip(b)
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
    }

    /// Asserts both ears of `got` match the oracle's `want` to within
    /// 1e-12 of the peak of each ear's response.
    pub(crate) fn assert_close(got: &BinauralIr, want: &BinauralIr, what: &str) {
        for (g, w) in [(&got.left, &want.left), (&got.right, &want.right)] {
            let (err, peak) = (max_abs_diff(g, w), peak(w));
            assert!(peak > 0.0, "{what}: silent oracle");
            assert!(
                err <= 1e-12 * peak,
                "{what}: max |new - oracle| = {:e} x peak",
                err / peak
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_dsp::peaks::first_tap;
    use uniq_geometry::vec2::unit_from_theta;
    use uniq_geometry::HeadParams;

    fn renderer() -> Renderer {
        Renderer::new(
            HeadBoundary::new(HeadParams::average_adult(), 1024),
            PinnaModel::from_seed(100),
            PinnaModel::from_seed(101),
            RenderConfig::default(),
        )
    }

    #[test]
    fn point_source_inside_head_rejected() {
        assert!(renderer().render_point(Vec2::ZERO).is_none());
    }

    #[test]
    fn left_source_arrives_left_first() {
        let r = renderer();
        let ir = r.render_point(Vec2::new(-0.5, 0.0)).unwrap();
        let lt = first_tap(&ir.left, 0.25).unwrap();
        let rt = first_tap(&ir.right, 0.25).unwrap();
        assert!(
            lt.position < rt.position,
            "left {} right {}",
            lt.position,
            rt.position
        );
        // TDoA should correspond to a plausible wrap difference: between
        // 0.1 m and 0.35 m of path.
        let cfg = r.config();
        let d_m = (rt.position - lt.position) / cfg.sample_rate * uniq_dsp::SPEED_OF_SOUND;
        assert!(d_m > 0.10 && d_m < 0.35, "TDoA path {} m", d_m);
    }

    #[test]
    fn first_tap_matches_geometric_delay() {
        let r = renderer();
        let src = Vec2::new(-0.4, 0.1);
        let ir = r.render_point(src).unwrap();
        let p = path_to_ear(r.boundary(), src, Ear::Left).unwrap();
        let expect = r.config().metres_to_samples(p.length);
        let tap = first_tap(&ir.left, 0.25).unwrap();
        assert!(
            (tap.position - expect).abs() < 1.5,
            "tap at {} expected {expect}",
            tap.position
        );
    }

    #[test]
    fn shadowed_ear_weaker_than_lit_ear() {
        let r = renderer();
        let ir = r.render_point(Vec2::new(-0.5, 0.0)).unwrap();
        let energy = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        assert!(energy(&ir.left) > 2.0 * energy(&ir.right));
    }

    #[test]
    fn plane_wave_itd_sign() {
        let r = renderer();
        let ir = r.render_plane(60.0); // source on the left
        let lt = first_tap(&ir.left, 0.25).unwrap();
        let rt = first_tap(&ir.right, 0.25).unwrap();
        assert!(lt.position < rt.position);
    }

    #[test]
    fn ground_truth_bank_has_all_angles() {
        let r = renderer();
        let angles: Vec<f64> = (0..=6).map(|k| k as f64 * 30.0).collect();
        let bank = r.ground_truth_bank(&angles);
        assert_eq!(bank.len(), 7);
        assert_eq!(bank.angles()[0], 0.0);
        assert_eq!(bank.angles()[6], 180.0);
    }

    #[test]
    fn near_field_differs_from_far_field() {
        // The near/far distinction that motivates §4.3: same angle,
        // different HRIR.
        let r = renderer();
        let near = r.render_point(unit_from_theta(45.0) * 0.25).unwrap();
        let far = r.render_plane(45.0);
        let (sim_l, _) = near.similarity(&far);
        assert!(sim_l < 0.999, "near and far identical: {sim_l}");
    }

    #[test]
    fn hrir_varies_with_angle() {
        let r = renderer();
        let a = r.render_plane(40.0);
        let b = r.render_plane(60.0);
        let (sim, _) = a.similarity(&b);
        assert!(sim < 0.999, "no angular sensitivity: {sim}");
    }

    #[test]
    fn different_subjects_render_differently() {
        let cfg = RenderConfig::default();
        let boundary = HeadBoundary::new(HeadParams::average_adult(), 1024);
        let r1 = Renderer::new(
            boundary.clone(),
            PinnaModel::from_seed(1),
            PinnaModel::from_seed(2),
            cfg,
        );
        let r2 = Renderer::new(
            boundary,
            PinnaModel::from_seed(3),
            PinnaModel::from_seed(4),
            cfg,
        );
        let (sim, _) = r1.render_plane(45.0).similarity(&r2.render_plane(45.0));
        assert!(sim < 0.98, "subjects too similar: {sim}");
    }

    #[test]
    fn local_arrival_angle_mirrors() {
        // Frontal wave (travelling −y) hits both ears at the same local
        // angle after mirroring.
        let dir = Vec2::new(0.0, -1.0);
        let l = local_arrival_angle(dir, Ear::Left);
        let r = local_arrival_angle(dir, Ear::Right);
        assert!((l - r).abs() < 1e-12, "mirror broken: {l} vs {r}");
        // Wave from the left (travelling +x) hits the left ear head-on.
        let head_on = local_arrival_angle(Vec2::new(1.0, 0.0), Ear::Left);
        assert!(head_on.abs() < 1e-12);
    }

    #[test]
    fn energy_is_finite_and_nonzero() {
        let r = renderer();
        for theta in [0.0, 90.0, 180.0, 270.0] {
            let ir = r.render_plane(theta);
            let e: f64 = ir.left.iter().map(|v| v * v).sum();
            assert!(e.is_finite() && e > 0.0, "θ={theta}: energy {e}");
        }
    }

    #[test]
    fn arrival_matches_the_fft_oracle_across_a_dense_sweep() {
        // Tap positions from clipped at index 0 through fully past the
        // end, finely stepped near both edges; lit and shadowed paths;
        // pinna responses at several local angles.
        let pinna = PinnaModel::from_seed(100);
        for ir_len in [512, 4096] {
            let cfg = RenderConfig {
                ir_len,
                ..RenderConfig::default()
            };
            let need = pinna.required_len(cfg.sample_rate);
            let pinnae: Vec<Vec<f64>> = [-1.2, 0.0, 0.7]
                .iter()
                .map(|&a| pinna.response(a, cfg.sample_rate, need))
                .collect();
            let end = ir_len as f64;
            let delays = (0..200)
                .map(|k| k as f64 * 0.2)
                .chain((0..20).map(|k| 40.0 + k as f64 * (end - 110.0) / 20.0))
                .chain((0..200).map(|k| end - 70.0 + k as f64 * 0.55));
            for (k, delay) in delays.enumerate() {
                let path = (delay / cfg.sample_rate - cfg.base_delay) * uniq_dsp::SPEED_OF_SOUND;
                let pinna_ir = &pinnae[k % pinnae.len()];
                let gain = [1.0, 0.37, 2.9][k % 3];
                for wrap in [0.0, 0.4, 2.5] {
                    let mut got = vec![0.0; ir_len];
                    add_arrival(&mut got, &cfg, path, wrap, gain, pinna_ir);
                    let want = oracle::arrival_fft(ir_len, &cfg, path, wrap, gain, pinna_ir);
                    // The scale is the peak of the whole arrival, also
                    // where `ir_len` cuts it.
                    let whole = oracle::arrival_fft(ir_len + 256, &cfg, path, wrap, gain, pinna_ir);
                    let err = oracle::max_abs_diff(&got, &want) / oracle::peak(&whole);
                    assert!(
                        err <= 1e-12,
                        "ir_len {ir_len} delay {delay} wrap {wrap}: {err:e} x peak"
                    );
                }
            }
        }
    }

    #[test]
    fn renderer_matches_the_fft_oracle_for_points_and_planes() {
        // Default base delay, and one short enough that lit-ear plane taps
        // and shadowed taps are clipped at index 0.
        let (mut lit, mut shadowed) = (0, 0);
        for (ir_len, base_delay) in [(512, 0.001), (4096, 0.001), (512, 0.0003)] {
            let cfg = RenderConfig {
                ir_len,
                base_delay,
                ..RenderConfig::default()
            };
            let r = Renderer::new(
                HeadBoundary::new(HeadParams::average_adult(), 1024),
                PinnaModel::from_seed(100),
                PinnaModel::from_seed(101),
                cfg,
            );
            for k in 0..72 {
                let theta = k as f64 * 5.0;
                let what = format!("plane {theta} ir_len {ir_len} base {base_delay}");
                oracle::assert_close(&r.render_plane(theta), &oracle::plane(&r, theta), &what);
                for radius in [0.15, 0.4, 1.5] {
                    let src = unit_from_theta(theta) * radius;
                    let what = format!("point {theta} r {radius} ir_len {ir_len}");
                    let got = r.render_point(src).expect("outside the head");
                    let want = oracle::point(&r, src, ir_len).expect("outside the head");
                    oracle::assert_close(&got, &want, &what);
                    for ear in Ear::BOTH {
                        match path_to_ear(r.boundary(), src, ear) {
                            Some(p) if p.wrap_angle > 0.0 => shadowed += 1,
                            _ => lit += 1,
                        }
                    }
                }
            }
        }
        assert!(lit > 100 && shadowed > 100, "lit {lit} shadowed {shadowed}");
    }
}
