//! # uniq-subjects
//!
//! The synthetic subject population — the reproduction's stand-in for the
//! paper's human volunteers.
//!
//! A [`Subject`] is a head-parameter set `E = (a, b, c)` (the paper's own
//! 3-parameter model) plus one angle-sensitive pinna model per ear.
//! Subjects are sampled around adult anthropometric means from a seed, so
//! the whole study is reproducible.
//!
//! Two fixed casts are provided:
//!
//! * [`evaluation_cohort`] — the five "volunteers" used throughout the
//!   evaluation (Figs 17–22). Volunteers 4 and 5 perform the sloppier arm
//!   gesture, mirroring the paper's account of their arm-movement
//!   constraints (Fig 19).
//! * [`mannequin`] — the lab mannequin whose far-field HRTF plays the role
//!   of the *global template* ("the HRTF available online"): carefully
//!   measured, but personal to nobody.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniq_acoustics::pinna::PinnaModel;
use uniq_acoustics::render::Renderer;
use uniq_acoustics::types::{HrirBank, RenderConfig};
use uniq_geometry::{HeadBoundary, HeadParams};
use uniq_imu::trajectory::Imperfections;

/// A synthetic study participant.
#[derive(Debug, Clone)]
pub struct Subject {
    /// Stable identifier (also the sampling seed).
    pub id: u64,
    /// Head geometry `E = (a, b, c)`.
    pub head: HeadParams,
    /// Left-ear pinna model.
    pub pinna_left: PinnaModel,
    /// Right-ear pinna model.
    pub pinna_right: PinnaModel,
    /// How carefully this subject performs the measurement gesture.
    pub gesture: Imperfections,
}

/// Anthropometric spread used when sampling heads (standard deviations
/// around [`HeadParams::average_adult`], metres).
const HEAD_SPREAD: (f64, f64, f64) = (0.006, 0.008, 0.008);

impl Subject {
    /// Samples a subject from a seed: head axes are drawn around the adult
    /// averages and each ear gets an independent pinna.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let base = HeadParams::average_adult();
        let head = HeadParams::new(
            base.a + HEAD_SPREAD.0 * symmetric(&mut rng),
            base.b + HEAD_SPREAD.1 * symmetric(&mut rng),
            base.c + HEAD_SPREAD.2 * symmetric(&mut rng),
        );
        Subject {
            id: seed,
            head,
            pinna_left: PinnaModel::from_seed(seed.wrapping_mul(2).wrapping_add(1)),
            pinna_right: PinnaModel::from_seed(seed.wrapping_mul(2).wrapping_add(2)),
            gesture: Imperfections::typical(),
        }
    }

    /// The forward renderer for this subject — the "physical truth" used
    /// both to synthesize measurements and to produce ground-truth HRTFs.
    ///
    /// `boundary_resolution` controls the forward model's fidelity; the
    /// inverse solver deliberately uses a coarser boundary, so keep this at
    /// [`FORWARD_RESOLUTION`] for experiments.
    pub fn renderer(&self, cfg: RenderConfig, boundary_resolution: usize) -> Renderer {
        Renderer::new(
            HeadBoundary::new(self.head, boundary_resolution),
            self.pinna_left.clone(),
            self.pinna_right.clone(),
            cfg,
        )
    }

    /// Ground-truth far-field HRIR bank — the reproduction of the paper's
    /// anechoic-chamber measurement of each volunteer.
    pub fn ground_truth(&self, cfg: RenderConfig, angles_deg: &[f64]) -> HrirBank {
        self.renderer(cfg, FORWARD_RESOLUTION)
            .ground_truth_bank(angles_deg)
    }
}

/// Boundary resolution of the forward (truth) model.
pub const FORWARD_RESOLUTION: usize = 4096;

fn symmetric(rng: &mut StdRng) -> f64 {
    rng.gen_range(-1.0..1.0)
}

/// The five evaluation volunteers. Fixed seeds; volunteers 4 and 5 use the
/// severe gesture profile (their arms tired / were constrained, per the
/// paper's Fig 19 discussion).
pub fn evaluation_cohort() -> Vec<Subject> {
    (0..5)
        .map(|k| {
            let mut s = Subject::from_seed(1000 + k);
            if k >= 3 {
                s.gesture = Imperfections::severe();
            }
            s
        })
        .collect()
}

/// The lab mannequin behind the *global* HRTF template. Exactly average
/// head, its own (fixed) pinnae — a fine HRTF for the average nobody.
pub fn mannequin() -> Subject {
    Subject {
        id: 424_242,
        head: HeadParams::average_adult(),
        pinna_left: PinnaModel::from_seed(900_001),
        pinna_right: PinnaModel::from_seed(900_002),
        gesture: Imperfections::none(),
    }
}

/// The global HRTF template: the mannequin's far-field bank at the given
/// angles — the paper's "lower bound for personalization".
pub fn global_template(cfg: RenderConfig, angles_deg: &[f64]) -> HrirBank {
    mannequin().ground_truth(cfg, angles_deg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subjects_reproducible() {
        let a = Subject::from_seed(7);
        let b = Subject::from_seed(7);
        assert_eq!(a.head, b.head);
    }

    #[test]
    fn subjects_differ() {
        let a = Subject::from_seed(1);
        let b = Subject::from_seed(2);
        assert_ne!(a.head, b.head);
    }

    #[test]
    fn heads_within_anthropometric_bounds() {
        for s in (2000..2050).map(Subject::from_seed) {
            s.head.validate();
            let base = HeadParams::average_adult();
            assert!((s.head.a - base.a).abs() <= HEAD_SPREAD.0 + 1e-12);
            assert!((s.head.b - base.b).abs() <= HEAD_SPREAD.1 + 1e-12);
            assert!((s.head.c - base.c).abs() <= HEAD_SPREAD.2 + 1e-12);
        }
    }

    #[test]
    fn cohort_is_five_with_two_sloppy() {
        let cohort = evaluation_cohort();
        assert_eq!(cohort.len(), 5);
        let sloppy: Vec<bool> = cohort
            .iter()
            .map(|s| s.gesture.droop_m > Imperfections::typical().droop_m + 1e-12)
            .collect();
        assert_eq!(sloppy, vec![false, false, false, true, true]);
    }

    #[test]
    fn cohort_distinct_from_mannequin() {
        let m = mannequin();
        for s in evaluation_cohort() {
            assert_ne!(s.id, m.id);
            // Pinnae must differ (different seeds).
            let sl = s.pinna_left.response(0.0, 48_000.0, 64);
            let ml = m.pinna_left.response(0.0, 48_000.0, 64);
            assert_ne!(sl, ml);
        }
    }

    #[test]
    fn ground_truth_bank_renders() {
        let cfg = RenderConfig::default();
        let s = Subject::from_seed(3);
        let bank = s.ground_truth(cfg, &[0.0, 90.0, 180.0]);
        assert_eq!(bank.len(), 3);
        let e: f64 = bank.irs()[1].left.iter().map(|v| v * v).sum();
        assert!(e > 0.0);
    }

    #[test]
    fn global_template_differs_from_subject_truth() {
        let cfg = RenderConfig::default();
        let angles = [45.0];
        let template = global_template(cfg, &angles);
        let subject = evaluation_cohort()[0].ground_truth(cfg, &angles);
        let (sim_l, sim_r) = subject.irs()[0].similarity(&template.irs()[0]);
        assert!(
            sim_l < 0.95 && sim_r < 0.95,
            "global template suspiciously personal: {sim_l}, {sim_r}"
        );
    }
}
