//! Fig 9 — the measured binaural channel impulse response: the first taps
//! are the diffraction paths, later taps are face/pinna multipath.

use crate::csv::write_csv;
use uniq_acoustics::measure::{record_point_source, MeasurementSetup};
use uniq_core::channel::estimate_channel;
use uniq_geometry::Vec2;
use uniq_subjects::Subject;

/// Runs the experiment; returns the sub-sample first-tap positions
/// `(left, right)` for assertions.
pub fn run() -> (f64, f64) {
    println!("\n== Fig 9: channel impulse response (phone left of head) ==");
    let cfg = crate::cohort::eval_config();
    let subject = Subject::from_seed(1000);
    let renderer = subject.renderer(cfg.render, uniq_subjects::FORWARD_RESOLUTION);
    let setup = MeasurementSetup::home(cfg.render.sample_rate, cfg.snr_db);
    let probe = cfg.probe();
    let system_ir = setup.system.calibrate(&probe, 256);

    let src = Vec2::new(-0.42, 0.08); // phone on the left, slightly front
    let rec = record_point_source(&renderer, &setup, src, &probe, 4242).unwrap();
    let est = estimate_channel(&rec, &probe, &system_ir, &cfg).unwrap();

    println!(
        "  first tap: left {:.2} samples, right {:.2} samples (Δ {:.2} samples = {:.1} cm)",
        est.tap_left,
        est.tap_right,
        est.relative_delay(),
        est.relative_delay() / cfg.render.sample_rate * uniq_dsp::SPEED_OF_SOUND * 100.0
    );

    let window = 160;
    let rows: Vec<Vec<f64>> = (0..window)
        .map(|k| vec![k as f64, est.ir.left[k], est.ir.right[k]])
        .collect();
    write_csv("fig9_channel_ir", &["sample", "left", "right"], &rows);
    (est.tap_left, est.tap_right)
}
