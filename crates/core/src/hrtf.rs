//! The personalized HRTF table and application interface (§4.4).
//!
//! UNIQ's output is a lookup table indexed by angle θ with four vector
//! entries per angle: near-field and far-field HRTFs for each ear. An
//! application wanting to place a sound at location `L` picks near or far
//! by distance, looks up the HRIR pair at `L`'s angle, and filters the
//! sound through it — the brain perceives the result as arriving from θ.

use std::sync::Arc;
use uniq_acoustics::types::{BinauralIr, HrirBank};
use uniq_dsp::conv::convolve;
use uniq_dsp::fft::rfft_padded;
use uniq_dsp::Complex;
use uniq_geometry::vec2::theta_from_vec;
use uniq_geometry::{HeadParams, Vec2};

/// Sources closer than this are rendered with the near-field HRTF
/// (the paper's footnote 1: under ~1 m is "near-field").
pub const NEAR_FIELD_LIMIT_M: f64 = 1.0;

/// A user's personalized HRTF: near and far banks plus the fitted head
/// parameters.
///
/// Produced by [`crate::pipeline::personalize`]; applications then place
/// sounds with [`PersonalHrtf::synthesize_at`]:
///
/// ```no_run
/// use uniq_core::{config::UniqConfig, pipeline::personalize};
/// use uniq_geometry::Vec2;
/// use uniq_subjects::Subject;
/// let cfg = UniqConfig::default();
/// let me = Subject::from_seed(42);
/// let hrtf = personalize(&me, &cfg, 1).unwrap().hrtf;
/// let voice = vec![0.0; 4800];
/// // A far-away source 30° to the left-front:
/// let binaural = hrtf.synthesize_at(&voice, Vec2::new(-2.0, 3.5));
/// assert_eq!(binaural.left.len(), binaural.right.len());
/// ```
#[derive(Debug, Clone)]
pub struct PersonalHrtf {
    near: HrirBank,
    far: HrirBank,
    head: HeadParams,
}

/// A stereo signal pair produced by binaural synthesis.
#[derive(Debug, Clone)]
pub struct BinauralSignal {
    /// Left-ear signal.
    pub left: Vec<f64>,
    /// Right-ear signal.
    pub right: Vec<f64>,
}

impl PersonalHrtf {
    /// Assembles the table from its parts.
    ///
    /// # Panics
    /// Panics if the banks disagree on sample rate.
    pub fn new(near: HrirBank, far: HrirBank, head: HeadParams) -> Self {
        assert_eq!(
            near.sample_rate(),
            far.sample_rate(),
            "near/far banks must share a sample rate"
        );
        PersonalHrtf { near, far, head }
    }

    /// The near-field bank.
    pub fn near(&self) -> &HrirBank {
        &self.near
    }

    /// The far-field bank.
    pub fn far(&self) -> &HrirBank {
        &self.far
    }

    /// The fitted head parameters `E_opt`.
    pub fn head(&self) -> HeadParams {
        self.head
    }

    /// Audio sample rate of the table.
    pub fn sample_rate(&self) -> f64 {
        self.near.sample_rate()
    }

    /// The §4.4 lookup: the HRIR pair for angle θ, near or far field.
    ///
    /// The measurement sweep covers the left hemisphere (0°–180°, as in
    /// the paper's protocol); right-hemisphere angles are served by the
    /// standard lateral-symmetry assumption — the mirrored angle's HRIR
    /// with the ears swapped.
    pub fn lookup(&self, theta_deg: f64, far_field: bool) -> BinauralIr {
        let (bank, index, swapped) = self.entry(theta_deg, far_field);
        let ir = &bank.irs()[index];
        if swapped {
            BinauralIr::new(ir.right.clone(), ir.left.clone())
        } else {
            ir.clone()
        }
    }

    /// The bank, entry index and ear swap that serve `theta_deg`: the
    /// nearest measured angle in the left hemisphere, or for a
    /// right-hemisphere angle the mirrored angle's entry with the ears
    /// swapped.
    fn entry(&self, theta_deg: f64, far_field: bool) -> (&HrirBank, usize, bool) {
        let bank = if far_field { &self.far } else { &self.near };
        let t = theta_deg.rem_euclid(360.0);
        if t <= 180.0 {
            (bank, bank.nearest_index(t), false)
        } else {
            (bank, bank.nearest_index(360.0 - t), true)
        }
    }

    /// The forward spectra, at transform size `n`, of the HRIR pair that
    /// [`PersonalHrtf::synthesize_at`] filters through for `location`.
    /// Each bank's spectra at each size are built once, on the shared
    /// default pool, and cached on the bank (see [`HrirBank::derived`]); a
    /// mirrored angle swaps which cached ear serves which output.
    ///
    /// # Panics
    /// Panics for a location at the head centre, or if `n` is not a power
    /// of two or is shorter than the HRIRs.
    pub fn ear_spectra(&self, location: Vec2, n: usize) -> EarSpectra {
        let (theta, far_field) = placement(location);
        let (bank, index, swapped) = self.entry(theta, far_field);
        let table = bank.derived(n, |bank| {
            let ears = |ir: &BinauralIr| [&ir.left, &ir.right].map(|ear| rfft_padded(ear, n));
            ForwardSpectra(uniq_par::pool(0).par_map(bank.irs(), ears))
        });
        EarSpectra {
            table,
            index,
            swapped,
        }
    }

    /// Filters `signal` through the HRIR pair for `theta_deg`
    /// (`Y_left = H_left · S`, `Y_right = H_right · S`).
    pub fn synthesize(&self, signal: &[f64], theta_deg: f64, far_field: bool) -> BinauralSignal {
        let ir = self.lookup(theta_deg, far_field);
        BinauralSignal {
            left: convolve(signal, &ir.left),
            right: convolve(signal, &ir.right),
        }
    }

    /// Places a sound at an arbitrary location: the application-facing
    /// entry point. Distance decides near vs far field; the angle comes
    /// from the location's bearing.
    ///
    /// # Panics
    /// Panics for a location at the head centre.
    pub fn synthesize_at(&self, signal: &[f64], location: Vec2) -> BinauralSignal {
        let (theta, far_field) = placement(location);
        self.synthesize(signal, theta, far_field)
    }
}

/// A location's bearing (degrees) and whether it is far-field.
fn placement(location: Vec2) -> (f64, bool) {
    (
        theta_from_vec(location),
        location.norm() >= NEAR_FIELD_LIMIT_M,
    )
}

/// Every bank entry's `[left, right]` HRIR spectra at one transform size,
/// index-aligned with the bank.
#[derive(Debug)]
struct ForwardSpectra(Vec<[Vec<Complex>; 2]>);

/// One table entry's two ear spectra as served for a location (see
/// [`PersonalHrtf::ear_spectra`]); holds the cached table, copies nothing.
#[derive(Debug, Clone)]
pub struct EarSpectra {
    table: Arc<ForwardSpectra>,
    index: usize,
    swapped: bool,
}

impl EarSpectra {
    /// The `(left, right)` ear spectra.
    pub fn ears(&self) -> (&[Complex], &[Complex]) {
        let [left, right] = &self.table.0[self.index];
        if self.swapped {
            (right, left)
        } else {
            (left, right)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_acoustics::types::RenderConfig;
    use uniq_geometry::HeadBoundary;

    fn table() -> PersonalHrtf {
        let cfg = RenderConfig::default();
        let head = HeadParams::average_adult();
        let r = Renderer::new(
            HeadBoundary::new(head, 512),
            PinnaModel::from_seed(81),
            PinnaModel::from_seed(82),
            cfg,
        );
        let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
        PersonalHrtf::new(
            r.near_field_bank(&angles, 0.4)
                .expect("test radius clears the head"),
            r.ground_truth_bank(&angles),
            head,
        )
    }

    #[test]
    fn lookup_picks_nearest_angle() {
        let t = table();
        let a = t.lookup(42.0, true); // nearest measured: 40°
        let b = t.lookup(40.0, true);
        assert_eq!(a, b);
    }

    #[test]
    fn synthesize_output_length() {
        let t = table();
        let sig = vec![1.0; 100];
        let out = t.synthesize(&sig, 30.0, true);
        assert_eq!(out.left.len(), 100 + t.lookup(30.0, true).left.len() - 1);
        assert_eq!(out.left.len(), out.right.len());
    }

    #[test]
    fn right_hemisphere_mirrors_with_swapped_ears() {
        let t = table();
        let left_side = t.lookup(60.0, true);
        let right_side = t.lookup(300.0, true);
        assert_eq!(left_side.left, right_side.right);
        assert_eq!(left_side.right, right_side.left);
    }

    #[test]
    fn ear_spectra_are_the_synthesize_at_pair_transformed() {
        let t = table();
        let n = 1024;
        for (theta, dist) in [(60.0, 3.0), (300.0, 3.0), (120.0, 0.4), (250.0, 0.4)] {
            let at = uniq_geometry::vec2::unit_from_theta(theta) * dist;
            let ir = t.lookup(theta, dist >= NEAR_FIELD_LIMIT_M);
            let spectra = t.ear_spectra(at, n);
            let (left, right) = spectra.ears();
            assert_eq!(left, uniq_dsp::fft::rfft_padded(&ir.left, n), "θ {theta}");
            assert_eq!(right, uniq_dsp::fft::rfft_padded(&ir.right, n), "θ {theta}");
        }
    }

    #[test]
    fn left_source_louder_left() {
        let t = table();
        // Broadband signal: head-shadow ILD must dominate any per-ear
        // pinna comb difference at a single tone frequency.
        let sig = uniq_dsp::signal::linear_chirp(200.0, 12_000.0, 0.05, 48_000.0);
        let out = t.synthesize(&sig, 90.0, true); // hard left
        let el: f64 = out.left.iter().map(|v| v * v).sum();
        let er: f64 = out.right.iter().map(|v| v * v).sum();
        assert!(el > 1.3 * er, "no ILD: {el} vs {er}");
    }

    #[test]
    fn synthesize_at_switches_field_by_distance() {
        let t = table();
        let sig = vec![1.0; 32];
        let dir = uniq_geometry::vec2::unit_from_theta(60.0);
        let near = t.synthesize_at(&sig, dir * 0.4);
        let far = t.synthesize_at(&sig, dir * 3.0);
        // Near and far renderings must differ (different banks).
        assert_ne!(near.left, far.left);
        // And far must match the explicit far-field call.
        let explicit = t.synthesize(&sig, 60.0, true);
        assert_eq!(far.left, explicit.left);
    }

    #[test]
    fn frontal_far_source_roughly_centred() {
        let t = table();
        // Broadband probe: a single tone can land on a per-ear pinna comb
        // notch and fake an imbalance that isn't there across the band.
        let sig = uniq_dsp::signal::linear_chirp(200.0, 12_000.0, 0.05, 48_000.0);
        let out = t.synthesize(&sig, 0.0, true);
        let el: f64 = out.left.iter().map(|v| v * v).sum();
        let er: f64 = out.right.iter().map(|v| v * v).sum();
        let ratio = el / er;
        assert!(ratio > 0.4 && ratio < 2.5, "frontal imbalance {ratio}");
    }
}
