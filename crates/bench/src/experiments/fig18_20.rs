//! Figs 18–20 — personalized HRTF quality against ground truth.
//!
//! * Fig 18: per-angle correlation of UNIQ's far-field HRIR, the global
//!   template, and a second ground-truth measurement (upper bound), for
//!   both ears (paper: UNIQ ≈ 0.74/0.71, global ≈ 0.41).
//! * Fig 19: the same aggregated per volunteer.
//! * Fig 20: raw best / average / worst case HRIR waveforms.

use crate::cohort::VolunteerRun;
use crate::csv::write_csv;
use uniq_acoustics::types::HrirBank;
use uniq_dsp::stats::mean;
use uniq_subjects::global_template;

/// Per-(volunteer, angle) similarity record.
#[derive(Debug, Clone, Copy)]
pub struct SimRecord {
    /// Volunteer index (0-based).
    pub volunteer: usize,
    /// Angle, degrees.
    pub angle: f64,
    /// UNIQ similarity, left/right ear.
    pub uniq: (f64, f64),
    /// Global-template similarity, left/right ear.
    pub global: (f64, f64),
    /// Ground-truth remeasurement similarity, left/right ear.
    pub remeasure: (f64, f64),
}

/// Summary statistics returned for assertions.
#[derive(Debug)]
pub struct Summary {
    /// Mean UNIQ similarity (left, right).
    pub uniq: (f64, f64),
    /// Mean global similarity (left, right).
    pub global: (f64, f64),
    /// Mean remeasurement similarity (left, right).
    pub remeasure: (f64, f64),
    /// All raw records.
    pub records: Vec<SimRecord>,
}

/// A second, noisy "measurement" of the ground truth: the paper measures
/// the chamber rig twice to get the correlation upper bound. We re-render
/// and add measurement noise at the chamber's SNR.
fn remeasure(bank: &HrirBank, seed: u64) -> HrirBank {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = bank
        .angles()
        .iter()
        .zip(bank.irs())
        .map(|(&a, ir)| {
            let peak = ir
                .left
                .iter()
                .chain(&ir.right)
                .fold(0.0_f64, |m, &v| m.max(v.abs()));
            let amp = peak * 0.03; // ≈ 30 dB chamber SNR
            let noisy = |v: &[f64], rng: &mut StdRng| -> Vec<f64> {
                v.iter().map(|x| x + rng.gen_range(-amp..amp)).collect()
            };
            let l = noisy(&ir.left, &mut rng);
            let r = noisy(&ir.right, &mut rng);
            (a, uniq_acoustics::types::BinauralIr::new(l, r))
        })
        .collect();
    HrirBank::new(pairs, bank.sample_rate())
}

/// Per-volunteer mean similarities (Fig 19).
#[derive(Debug, Clone, Copy)]
pub struct VolunteerMeans {
    /// Mean UNIQ similarity, left/right ear.
    pub uniq: (f64, f64),
    /// Mean global-template similarity, left/right ear.
    pub global: (f64, f64),
}

impl Summary {
    /// Overall means of the given records.
    pub fn from_records(records: Vec<SimRecord>) -> Self {
        let overall =
            |f: &dyn Fn(&SimRecord) -> f64| mean(&records.iter().map(f).collect::<Vec<f64>>());
        Summary {
            uniq: (overall(&|r| r.uniq.0), overall(&|r| r.uniq.1)),
            global: (overall(&|r| r.global.0), overall(&|r| r.global.1)),
            remeasure: (overall(&|r| r.remeasure.0), overall(&|r| r.remeasure.1)),
            records,
        }
    }

    /// Personalization gain, UNIQ over the global template (left, right).
    pub fn gain(&self) -> (f64, f64) {
        (self.uniq.0 / self.global.0, self.uniq.1 / self.global.1)
    }

    /// Mean similarities of each of `volunteers` volunteers, in order.
    pub fn per_volunteer(&self, volunteers: usize) -> Vec<VolunteerMeans> {
        (0..volunteers)
            .map(|v| {
                let of: Vec<&SimRecord> =
                    self.records.iter().filter(|r| r.volunteer == v).collect();
                let m = |f: &dyn Fn(&SimRecord) -> f64| {
                    of.iter().map(|r| f(r)).sum::<f64>() / of.len() as f64
                };
                VolunteerMeans {
                    uniq: (m(&|r| r.uniq.0), m(&|r| r.uniq.1)),
                    global: (m(&|r| r.global.0), m(&|r| r.global.1)),
                }
            })
            .collect()
    }
}

/// The evaluation angles: a 10° grid (the paper's measurement
/// resolution).
fn eval_angles() -> Vec<f64> {
    (0..=18).map(|k| k as f64 * 10.0).collect()
}

/// Scores every volunteer's personalized far-field HRIRs, the global
/// template and a ground-truth remeasurement against ground truth at each
/// evaluation angle.
pub fn similarity_summary(cohort: &[VolunteerRun]) -> Summary {
    let cfg = crate::cohort::eval_config();
    let angles = eval_angles();
    let global = global_template(cfg.render, &angles);

    let mut records = Vec::new();
    for (v, run) in cohort.iter().enumerate() {
        let truth = run.subject.ground_truth(cfg.render, &angles);
        let truth2 = remeasure(&truth, 8000 + v as u64);
        for (k, &angle) in angles.iter().enumerate() {
            let est = run.result.hrtf.far().nearest(angle).0;
            let gt = &truth.irs()[k];
            records.push(SimRecord {
                volunteer: v,
                angle,
                uniq: est.similarity(gt),
                global: global.irs()[k].similarity(gt),
                remeasure: truth2.irs()[k].similarity(gt),
            });
        }
    }
    Summary::from_records(records)
}

/// Runs Figs 18–20 and returns the summary.
pub fn run() -> Summary {
    println!("\n== Figs 18–20: personalized HRIR vs ground truth ==");
    let cohort = super::cohort();
    let cfg = crate::cohort::eval_config();
    let angles = eval_angles();
    let global = global_template(cfg.render, &angles);
    let summary = similarity_summary(cohort);
    let records = &summary.records;

    // ---- Fig 18: per-angle means across volunteers.
    let mut fig18_rows = Vec::new();
    println!("  angle   UNIQ(L)  global(L)  remeasure(L) |  UNIQ(R)  global(R)");
    for &angle in &angles {
        let at: Vec<&SimRecord> = records.iter().filter(|r| r.angle == angle).collect();
        let m =
            |f: &dyn Fn(&SimRecord) -> f64| at.iter().map(|r| f(r)).sum::<f64>() / at.len() as f64;
        let row = [
            angle,
            m(&|r| r.uniq.0),
            m(&|r| r.global.0),
            m(&|r| r.remeasure.0),
            m(&|r| r.uniq.1),
            m(&|r| r.global.1),
            m(&|r| r.remeasure.1),
        ];
        if (angle as usize).is_multiple_of(30) {
            println!(
                "  {:>5.0}   {:>6.3}   {:>7.3}   {:>10.3} |  {:>6.3}   {:>7.3}",
                row[0], row[1], row[2], row[3], row[4], row[5]
            );
        }
        fig18_rows.push(row.to_vec());
    }
    write_csv(
        "fig18_hrir_correlation_by_angle",
        &[
            "angle_deg",
            "uniq_left",
            "global_left",
            "remeasure_left",
            "uniq_right",
            "global_right",
            "remeasure_right",
        ],
        &fig18_rows,
    );

    // ---- Fig 19: per-volunteer means.
    let mut fig19_rows = Vec::new();
    println!("\n  volunteer   UNIQ(L)  global(L) |  UNIQ(R)  global(R)");
    for (v, means) in summary.per_volunteer(cohort.len()).iter().enumerate() {
        let row = [
            v as f64 + 1.0,
            means.uniq.0,
            means.global.0,
            means.uniq.1,
            means.global.1,
        ];
        println!(
            "  {:>9.0}   {:>6.3}   {:>7.3} |  {:>6.3}   {:>7.3}",
            row[0], row[1], row[2], row[3], row[4]
        );
        fig19_rows.push(row.to_vec());
    }
    write_csv(
        "fig19_per_volunteer",
        &[
            "volunteer",
            "uniq_left",
            "global_left",
            "uniq_right",
            "global_right",
        ],
        &fig19_rows,
    );

    // ---- Fig 20: best / average / worst raw HRIRs by UNIQ left-ear sim.
    let mut by_sim: Vec<&SimRecord> = records.iter().collect();
    by_sim.sort_by(|a, b| a.uniq.0.partial_cmp(&b.uniq.0).unwrap());
    let picks = [
        ("worst", by_sim[0]),
        ("average", by_sim[by_sim.len() / 2]),
        ("best", by_sim[by_sim.len() - 1]),
    ];
    for (label, rec) in picks {
        let run = &cohort[rec.volunteer];
        let truth = run.subject.ground_truth(cfg.render, &[rec.angle]);
        let est = run.result.hrtf.far().nearest(rec.angle).0;
        let glob = global.nearest(rec.angle).0;
        println!(
            "  fig20 {label}: volunteer {} at {:.0}° (corr {:.2})",
            rec.volunteer + 1,
            rec.angle,
            rec.uniq.0
        );
        let window = 160;
        let rows: Vec<Vec<f64>> = (0..window)
            .map(|k| vec![k as f64, est.left[k], truth.irs()[0].left[k], glob.left[k]])
            .collect();
        write_csv(
            &format!("fig20_hrir_{label}"),
            &["sample", "uniq", "groundtruth", "global"],
            &rows,
        );
    }

    println!(
        "\n  overall: UNIQ {:.3}/{:.3}  global {:.3}/{:.3}  remeasure {:.3}/{:.3}",
        summary.uniq.0,
        summary.uniq.1,
        summary.global.0,
        summary.global.1,
        summary.remeasure.0,
        summary.remeasure.1
    );
    let gain = summary.gain();
    println!(
        "  personalization gain: {:.2}x (L), {:.2}x (R)  (paper: ~1.75x)",
        gain.0, gain.1
    );
    summary
}
