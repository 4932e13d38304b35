//! A look inside one measurement session: what the sensors actually see.
//!
//! ```sh
//! cargo run --release --example personalization_session
//! ```
//!
//! Prints, per measurement stop: the IMU-integrated phone angle, the
//! acoustic first-tap delays at both ears, the fused angle estimate, and
//! the ground truth — the paper's Fig 9/10 pipeline made visible.

use uniq_core::config::UniqConfig;
use uniq_core::fusion::{fuse_weighted, session_to_inputs};
use uniq_core::session::run_session;
use uniq_subjects::Subject;

fn main() {
    let cfg = UniqConfig {
        in_room: true,
        ..UniqConfig::default()
    };
    let subject = Subject::from_seed(7);

    println!("running the arm gesture + probe playback…");
    let session = run_session(&subject, &cfg, 99).expect("session succeeds");

    println!("\nper-stop raw measurements:");
    println!("  stop   IMU α     tap_L     tap_R     Δt(samples)");
    for (k, stop) in session.stops.iter().enumerate() {
        println!(
            "  {k:>4}   {:>6.1}°  {:>7.2}   {:>7.2}   {:>8.2}",
            stop.alpha_deg,
            stop.channel.tap_left,
            stop.channel.tap_right,
            stop.channel.relative_delay()
        );
    }

    println!("\nrunning diffraction-aware sensor fusion…");
    let inputs = session_to_inputs(&session, &cfg);
    let fusion = fuse_weighted(&inputs, None, &cfg).expect("fusion converges");

    println!(
        "fitted head parameters: a={:.3} b={:.3} c={:.3} (truth: a={:.3} b={:.3} c={:.3})",
        fusion.head.a, fusion.head.b, fusion.head.c, subject.head.a, subject.head.b, subject.head.c
    );

    println!("\n  stop   truth θ    IMU α    acoustic θ(E)   fused θ    error");
    let mut errs = Vec::new();
    for (k, (stop, loc)) in session.stops.iter().zip(&fusion.stops).enumerate() {
        let fused = fusion.final_thetas_deg[k];
        let err = uniq_geometry::vec2::angle_diff_deg(fused, stop.truth_theta_deg);
        errs.push(err);
        println!(
            "  {k:>4}   {:>6.1}°   {:>6.1}°     {:>6.1}°      {:>6.1}°   {:>5.1}°",
            stop.truth_theta_deg, stop.alpha_deg, loc.theta_deg, fused, err
        );
    }
    println!(
        "\nmedian localization error: {:.1}° (paper reports 4.8°)",
        uniq_dsp::stats::median(&errs)
    );
}
