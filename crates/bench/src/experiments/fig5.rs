//! Fig 5 — groundwork: signals diffract along the face; the TDoA-derived
//! path difference matches the diffracted geodesic, not the Euclidean
//! line.
//!
//! A speaker on the user's right plays a chirp; a reference microphone
//! sits at the right ear and a test microphone is moved across six
//! positions on the left half of the face. Both microphone signals are
//! synthesized sample-accurately from the wrap-path model; the TDoA is
//! then *measured* from the signals by deconvolution + first-tap picking,
//! exactly as the hardware experiment would.

use crate::csv::write_csv;
use uniq_dsp::conv::convolve;
use uniq_dsp::deconv::wiener_deconvolve;
use uniq_dsp::delay::add_fractional_impulse;
use uniq_dsp::peaks::first_tap;
use uniq_geometry::diffraction::path_to_vertex;
use uniq_geometry::{HeadBoundary, HeadParams, Vec2};

/// Row of the Fig 5 table.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// Horizontal mic position along the face, cm from the nose tip.
    pub mic_x_cm: f64,
    /// Acoustically measured Δt·v, cm.
    pub measured_cm: f64,
    /// Geodesic (diffracted) prediction, cm.
    pub diffracted_cm: f64,
    /// Straight-line (Euclidean) prediction, cm.
    pub euclidean_cm: f64,
}

/// Runs the experiment and returns the table rows.
pub fn run() -> Vec<Fig5Row> {
    println!("\n== Fig 5: diffraction on the curvature of the face ==");
    let cfg = crate::cohort::eval_config();
    let sr = cfg.render.sample_rate;
    let c = uniq_dsp::SPEED_OF_SOUND;
    let head = HeadParams::average_adult();
    let boundary = HeadBoundary::new(head, 4096);
    let n = boundary.len();

    // Speaker on the right of the head; reference mic = right ear.
    let speaker = Vec2::new(0.5, 0.05);
    let ref_idx = boundary.ear_index(uniq_geometry::Ear::Right);
    let ref_path = path_to_vertex(&boundary, speaker, ref_idx).unwrap();

    // Test mic positions: nose tip (n/4, the +y apex) toward the left ear
    // (n/2), six evenly spaced stops.
    let nose = n / 4;
    let left_ear = n / 2;
    let probe = cfg.probe();
    let mut rows = Vec::new();
    for k in 0..6 {
        let idx = nose + k * (left_ear - nose) / 6;
        let test_path = path_to_vertex(&boundary, speaker, idx).unwrap();
        let mic = boundary.vertices()[idx];

        // Synthesize both microphone signals and measure the TDoA the way
        // the paper does (wired-synchronized mics).
        let mut ir_ref = vec![0.0; 1024];
        let mut ir_test = vec![0.0; 1024];
        add_fractional_impulse(
            &mut ir_ref,
            cfg.render.metres_to_samples(ref_path.length),
            1.0,
        );
        add_fractional_impulse(
            &mut ir_test,
            cfg.render.metres_to_samples(test_path.length),
            0.8,
        );
        let rec_ref = convolve(&probe, &ir_ref);
        let rec_test = convolve(&probe, &ir_test);
        let ch_ref = wiener_deconvolve(&rec_ref, &probe, 1e-6, 1024);
        let ch_test = wiener_deconvolve(&rec_test, &probe, 1e-6, 1024);
        let t_ref = first_tap(&ch_ref, 0.35).unwrap().position;
        let t_test = first_tap(&ch_test, 0.35).unwrap().position;
        let measured_m = (t_test - t_ref) / sr * c;

        // The paper's two geometric hypotheses.
        let diffracted_m = test_path.length - ref_path.length;
        let euclidean_m = speaker.dist(mic) - ref_path.length;

        rows.push(Fig5Row {
            mic_x_cm: (mic.x.abs()) * 100.0,
            measured_cm: measured_m * 100.0,
            diffracted_cm: diffracted_m * 100.0,
            euclidean_cm: euclidean_m * 100.0,
        });
    }

    println!("  mic x (cm)   Δt·v (cm)   d_diff (cm)   d_euc (cm)");
    for r in &rows {
        println!(
            "  {:>9.1}   {:>9.2}   {:>11.2}   {:>9.2}",
            r.mic_x_cm, r.measured_cm, r.diffracted_cm, r.euclidean_cm
        );
    }
    let err = |f: fn(&Fig5Row) -> f64| {
        rows.iter()
            .map(|r| (r.measured_cm - f(r)).abs())
            .sum::<f64>()
            / rows.len() as f64
    };
    println!(
        "  mean |measured − diffracted| = {:.2} cm; |measured − euclidean| = {:.2} cm",
        err(|r| r.diffracted_cm),
        err(|r| r.euclidean_cm)
    );

    write_csv(
        "fig5_diffraction",
        &["mic_x_cm", "measured_cm", "diffracted_cm", "euclidean_cm"],
        &rows
            .iter()
            .map(|r| vec![r.mic_x_cm, r.measured_cm, r.diffracted_cm, r.euclidean_cm])
            .collect::<Vec<_>>(),
    );
    rows
}
