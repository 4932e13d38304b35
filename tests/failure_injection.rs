//! Failure-injection integration tests: the pipeline must degrade
//! gracefully — clean errors, never panics or silent garbage — under
//! hostile conditions.

use uniq_core::channel::{stop_quality, ChannelError};
use uniq_core::config::UniqConfig;
use uniq_core::degrade::DegradationPolicy;
use uniq_core::pipeline::{personalize, PersonalizationError};
use uniq_core::session::{run_session, SessionError};
use uniq_imu::trajectory::Imperfections;
use uniq_imu::GyroModel;
use uniq_subjects::Subject;

fn base_cfg() -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 15.0,
        ..UniqConfig::fast_test()
    }
}

#[test]
fn hopeless_snr_fails_cleanly() {
    // At −10 dB SNR the chirp is buried; the pipeline must return an
    // error (no tap / rejection / fusion failure), not nonsense.
    let cfg = UniqConfig {
        snr_db: -10.0,
        ..base_cfg()
    };
    let subject = Subject::from_seed(400);
    match personalize(&subject, &cfg, 1) {
        Err(_) => {} // any structured error is acceptable
        Ok(result) => {
            // If it *does* survive, the gesture-quality gate must have
            // been satisfied legitimately.
            assert!(result.fusion.mean_residual_deg <= cfg.max_fusion_residual_deg);
        }
    }
}

#[test]
fn broken_gyro_triggers_rejection_or_wide_residual() {
    // A gyro with a massive bias makes α drift far from θ(E); the §4.6
    // auto-correction should fire (or the residual must reflect it).
    let cfg = UniqConfig {
        gyro: GyroModel {
            bias_dps: 5.0,
            noise_std_dps: 2.0,
            bias_walk_dps: 0.5,
        },
        ..base_cfg()
    };
    let subject = Subject::from_seed(401);
    match personalize(&subject, &cfg, 2) {
        Err(PersonalizationError::GestureRejected { residual_deg, .. }) => {
            assert!(residual_deg > cfg.max_fusion_residual_deg * 0.5);
        }
        Err(_) => {}
        Ok(result) => panic!(
            "broken gyro slipped through with residual {:.1}°",
            result.fusion.mean_residual_deg
        ),
    }
}

#[test]
fn dropped_measurements_still_personalize() {
    // Simulate a user who only manages half the stops: fusion needs ≥ 4.
    let cfg = UniqConfig {
        stops: 5,
        ..base_cfg()
    };
    let subject = Subject::from_seed(402);
    let result = personalize(&subject, &cfg, 3).expect("5 stops suffice");
    assert_eq!(result.localization.len(), 5);
}

#[test]
fn severe_gesture_sessions_remain_consistent() {
    // Severe arm droop: the session must still produce monotone-ish IMU
    // angles and valid taps at every stop.
    let mut subject = Subject::from_seed(403);
    subject.gesture = Imperfections::severe();
    let cfg = base_cfg();
    let session = run_session(&subject, &cfg, 4).expect("session survives");
    for stop in &session.stops {
        assert!(stop.channel.tap_left.is_finite());
        assert!(stop.channel.tap_right.is_finite());
        assert!(stop.channel.tap_left > 0.0);
    }
}

#[test]
fn tiny_room_gate_never_panics() {
    // An aggressive gate can cut pinna taps; quality drops but the
    // pipeline must hold together.
    let cfg = UniqConfig {
        room_gate_s: 0.0005, // 24 samples
        ..base_cfg()
    };
    let subject = Subject::from_seed(404);
    // A structured failure is fine; success must produce a full table.
    if let Ok(result) = personalize(&subject, &cfg, 5) {
        assert_eq!(result.hrtf.far().len(), cfg.output_grid().len());
    }
}

#[test]
fn hopeless_snr_fails_cleanly_under_parallel_session() {
    // The same hostile condition as `hopeless_snr_fails_cleanly`, but with
    // the per-stop loop fanned over 8 workers: failures must surface as
    // the same structured errors, never as a worker panic or a generic
    // join error, and a session failure must name the failing stop.
    let cfg = UniqConfig {
        snr_db: -10.0,
        threads: 8,
        ..base_cfg()
    };
    let subject = Subject::from_seed(400);
    match personalize(&subject, &cfg, 1) {
        Err(PersonalizationError::Session(SessionError::Stop { stop, error })) => {
            assert!(stop < cfg.stops, "stop index {stop} out of range");
            assert_eq!(error, ChannelError::NoFirstTap);
        }
        Err(_) => {} // other structured errors (rejection, fusion) are fine
        Ok(result) => {
            assert!(result.fusion.mean_residual_deg <= cfg.max_fusion_residual_deg);
        }
    }
}

#[test]
fn parallel_and_sequential_sessions_agree_on_the_failing_stop() {
    // Whatever a hostile config does, the parallel session must report the
    // same outcome as the sequential one — including *which* stop failed
    // (try_par_map returns the lowest-index error, as a serial scan would).
    let subject = Subject::from_seed(400);
    for snr in [-10.0, 5.0, 45.0] {
        let seq = run_session(
            &subject,
            &UniqConfig {
                snr_db: snr,
                threads: 1,
                ..base_cfg()
            },
            7,
        );
        let par = run_session(
            &subject,
            &UniqConfig {
                snr_db: snr,
                threads: 8,
                ..base_cfg()
            },
            7,
        );
        match (&seq, &par) {
            (Ok(a), Ok(b)) => assert_eq!(a.stops.len(), b.stops.len()),
            (Err(a), Err(b)) => assert_eq!(a, b, "snr {snr}: different failing stop"),
            _ => panic!("snr {snr}: sequential and parallel outcomes disagree"),
        }
    }
}

#[test]
fn session_errors_name_the_failing_stop() {
    // The error contract batch callers rely on: stop identity in the
    // variant, in the message, and the underlying cause in source().
    let err = SessionError::Stop {
        stop: 7,
        error: ChannelError::NoFirstTap,
    };
    assert!(err.to_string().contains("stop 7"), "message: {err}");
    assert!(err.to_string().contains("no detectable first tap"));
    let source = std::error::Error::source(&err).expect("carries its cause");
    assert_eq!(source.to_string(), ChannelError::NoFirstTap.to_string());

    let wrapped = PersonalizationError::Session(err);
    assert!(wrapped.to_string().contains("stop 7"), "lost stop identity");
}

#[test]
fn failed_subjects_in_a_batch_are_identified_not_joined() {
    // Force every subject to fail (impossible residual bound, one
    // attempt): each outcome must come back tagged with its subject's
    // seed and a structured error — a mid-batch failure never aborts the
    // batch or degenerates into an anonymous join error.
    let cfg = UniqConfig {
        max_fusion_residual_deg: 0.001,
        threads: 1,
        ..base_cfg()
    };
    let seeds = [410u64, 411, 412, 413];
    let outcomes = uniq_core::batch::personalize_batch(&seeds, &cfg, 4, 1);
    assert_eq!(outcomes.len(), seeds.len());
    for (outcome, &seed) in outcomes.iter().zip(&seeds) {
        assert_eq!(outcome.seed, seed, "outcome lost its subject identity");
        let err = outcome
            .result
            .as_ref()
            .expect_err("impossible residual bound must reject");
        assert!(
            matches!(err, PersonalizationError::GestureRejected { .. }),
            "subject {seed}: unexpected error {err:?}"
        );
    }
}

#[test]
fn trace_file_survives_a_failing_pipeline_without_truncated_lines() {
    // A failing run is exactly when the trace matters most. Run the
    // hopeless-SNR scenario under a buffered JsonLinesSink, let the sink
    // flush on drop (no explicit flush call), and require that the file
    // holds only complete JSON lines — a truncated tail would mean the
    // buffer lost the events closest to the failure.
    let cfg = UniqConfig {
        snr_db: -10.0,
        ..base_cfg()
    };
    let subject = Subject::from_seed(400);
    let path =
        std::env::temp_dir().join(format!("uniq_failure_trace_{}.jsonl", std::process::id()));
    {
        let sink = std::sync::Arc::new(
            uniq_obs::sink::JsonLinesSink::create(&path).expect("create trace file"),
        );
        let outcome = uniq_obs::with_sink(sink, || personalize(&subject, &cfg, 1));
        // (Either outcome is acceptable — see hopeless_snr_fails_cleanly —
        // but the trace contract below must hold either way.)
        let _ = outcome;
    } // last Arc drops here; Drop must flush the tail of the buffer

    let content = std::fs::read_to_string(&path).expect("trace file readable");
    std::fs::remove_file(&path).ok();
    assert!(!content.is_empty(), "no events reached the trace file");
    assert!(
        content.ends_with('\n'),
        "file ends mid-line: buffered tail was lost on drop"
    );
    for (i, line) in content.lines().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "line {i} is not a complete JSON object: {line:?}"
        );
    }
}

#[test]
fn reverberant_room_with_low_snr_structured_outcome() {
    let cfg = UniqConfig {
        in_room: true,
        snr_db: 12.0,
        ..base_cfg()
    };
    let subject = Subject::from_seed(405);
    // Either outcome is fine; what matters is no panic and, on success,
    // a complete table.
    if let Ok(result) = personalize(&subject, &cfg, 6) {
        assert_eq!(result.hrtf.near().len(), cfg.output_grid().len());
    }
}

#[test]
fn clean_session_keeps_every_stop_even_below_the_default_quality_floor() {
    // At 15 dB some stops score under the default degradation policy's
    // floor. The clean pipeline neither re-captures nor drops them: what
    // tells "clean" apart from "default policy with no faults".
    let cfg = UniqConfig {
        snr_db: 15.0,
        ..base_cfg()
    };
    let data = run_session(&Subject::from_seed(400), &cfg, 7).expect("session completes");
    assert_eq!(data.stops.len(), cfg.stops, "clean session dropped a stop");
    let floor = DegradationPolicy::default().quality_floor;
    let scores: Vec<f64> = data
        .stops
        .iter()
        .map(|s| stop_quality(&s.channel, &cfg).score)
        .collect();
    assert!(
        scores.iter().any(|&q| q < floor),
        "no stop under the floor {floor}: {scores:?}"
    );
}
