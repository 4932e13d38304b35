//! Per-call layer probes, run after the timed phase of a traced run so
//! they never count toward it. Inputs come from the workload itself: the
//! subject, seed and configuration of its first personalization, and the
//! HRTFs it produced. Each probe call is one span in the probe phase.

use std::hint::black_box;
use std::path::Path;

use uniq_acoustics::measure::{record_point_source, MeasurementSetup};
use uniq_core::aoa::AoaTemplates;
use uniq_core::channel::estimate_channel;
use uniq_core::config::UniqConfig;
use uniq_core::fusion::{localize_phone, session_to_inputs};
use uniq_core::pipeline::PersonalizationResult;
use uniq_core::session::run_session;
use uniq_geometry::diffraction::path_to_ear;
use uniq_geometry::{Ear, HeadBoundary};
use uniq_imu::trajectory::{generate_trajectory, measurement_stops, GesturePlan};
use uniq_render::engine::BinauralEngine;
use uniq_store::{HrtfArtifact, Store};
use uniq_subjects::{Subject, FORWARD_RESOLUTION};

use crate::inputs::{SplitMix64, Subjects, Workload};
use crate::stats::median;
use crate::trace::{Phase, Scope};
use crate::{aoa, pipeline, serve, Ctx, Report};

/// What the probes run on.
#[derive(Debug)]
pub struct Input<'a> {
    pub subject: &'a Subject,
    pub seed: u64,
    pub cfg: &'a UniqConfig,
    pub result: &'a PersonalizationResult,
}

/// Runs every probe this workload needs. Layers the timed phase already
/// exercised (the pipeline stages on `personalize-paper`, AoA and render
/// on `aoa-render`, serve on `serve-open`) are not probed again;
/// `serve-saturate` probes serve only for cache hits.
pub fn all(ctx: &Ctx, report: &mut Report, input: &Input<'_>, artifacts: &[HrtfArtifact]) {
    let scope = ctx.tracer.scope(Phase::Probe);
    if ctx.workload != Workload::PersonalizePaper {
        if let Err(e) = staged(scope, input) {
            report.problem(format!("pipeline probe: {e}"));
        }
    }
    if let Err(e) = layers(scope, input) {
        report.problem(format!("layer probe: {e}"));
    }
    match store(scope, artifacts, &ctx.scratch.join("probe-store")) {
        Ok(mb) => report.blob_mb = Some(mb),
        Err(e) => report.problem(format!("store probe: {e}")),
    }
    let mut rng = SplitMix64::new(ctx.seed ^ 0x9b0be);
    if ctx.workload != Workload::AoaRender {
        let hrtf = &input.result.hrtf;
        let recordings = aoa::bundle(&[hrtf], 0, &mut rng);
        let scene = aoa::scene(&mut rng, input.cfg.render.sample_rate);
        aoa::op(
            scope,
            0,
            &recordings,
            &[BinauralEngine::new(hrtf.clone())],
            &scene,
            input.cfg,
        );
    }
    if ctx.workload != Workload::ServeOpen {
        match serve::probe_serve(
            scope,
            &Subjects::new(ctx.workload, ctx.seed),
            &ctx.scratch.join("probe-serve"),
        ) {
            Ok(counts) => {
                report.serve.get_or_insert(counts);
            }
            Err(e) => report.problem(format!("serve probe: {e}")),
        }
    }
}

/// The pipeline stages one by one, as the traced `personalize-paper` times
/// them, on the workload's configuration. They must reproduce the library
/// path's result, `input.result`, bit for bit.
fn staged(scope: Scope<'_>, input: &Input<'_>) -> Result<(), String> {
    let Input {
        subject,
        seed,
        cfg,
        result,
    } = *input;
    let staged = pipeline::personalize(subject, cfg, seed, scope, 0).map_err(|e| e.to_string())?;
    if pipeline::fingerprint(seed, &staged, cfg) != pipeline::fingerprint(seed, result, cfg) {
        return Err(format!(
            "subject {seed}: stage composition differs from the library path"
        ));
    }
    Ok(())
}

/// Session at one and two threads, then the acoustics, channel, geometry,
/// fusion and AoA-template calls at the subject's measurement stops.
fn layers(scope: Scope<'_>, input: &Input<'_>) -> Result<(), String> {
    let Input {
        subject,
        seed,
        cfg,
        result,
    } = *input;
    let mut session = None;
    for rep in 0..2 {
        for (name, threads) in [("session.t1", 1), ("session.t2", 2)] {
            let c = UniqConfig {
                threads,
                ..cfg.clone()
            };
            session = Some(
                scope
                    .span(name, 0, rep, |_| run_session(subject, &c, seed))
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    let session = session.expect("sessions ran");

    let renderer = subject.renderer(cfg.render, FORWARD_RESOLUTION);
    let setup = if cfg.in_room {
        MeasurementSetup::home(cfg.render.sample_rate, cfg.snr_db)
    } else {
        MeasurementSetup::anechoic(cfg.render.sample_rate, cfg.snr_db)
    };
    let probe = cfg.probe();
    let system_ir = setup.system.calibrate(&probe, 256);
    let stops = measurement_stops(
        &generate_trajectory(&GesturePlan::standard(subject.gesture), seed),
        cfg.stops,
    );
    for (i, stop) in stops.iter().enumerate() {
        let rec = scope
            .span("record", 0, i as u64, |_| {
                record_point_source(
                    &renderer,
                    &setup,
                    stop.pos,
                    &probe,
                    seed.wrapping_add(100 + i as u64),
                )
            })
            .ok_or("a measurement stop lies inside the head")?;
        scope
            .span("estimate_channel", 0, i as u64, |_| {
                estimate_channel(&rec, &probe, &system_ir, cfg)
            })
            .map_err(|e| e.to_string())?;
    }

    let head = result.fusion.head;
    let boundaries: Vec<HeadBoundary> = (0..20)
        .map(|i| {
            scope.span("boundary_new", 0, i, |_| {
                HeadBoundary::new(head, cfg.inverse_resolution)
            })
        })
        .collect();
    let boundary = &boundaries[0];
    for (i, stop) in stops.iter().enumerate() {
        for ear in [Ear::Left, Ear::Right] {
            black_box(scope.span("path_to_ear", 0, i as u64, |_| {
                path_to_ear(boundary, stop.pos, ear)
            }));
        }
    }
    for (i, inp) in session_to_inputs(&session, cfg).iter().enumerate() {
        black_box(scope.span("localize_phone", 0, i as u64, |_| {
            localize_phone(boundary, inp.d_left_m, inp.d_right_m, inp.alpha_deg)
        }));
    }
    for i in 0..10 {
        black_box(scope.span("aoa.templates", 0, i, |_| {
            AoaTemplates::from_bank(result.hrtf.far(), cfg)
        }));
    }
    Ok(())
}

/// Puts the workload's artifacts into a fresh store, then looks each up by
/// seed and reads it back. Returns the median blob size, MB.
fn store(scope: Scope<'_>, artifacts: &[HrtfArtifact], dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    for (i, a) in artifacts.iter().enumerate() {
        let out = scope
            .span("store.put", 0, i as u64, |_| store.put(a))
            .map_err(|e| e.to_string())?;
        bytes.push(out.bytes as f64);
    }
    for (i, a) in artifacts.iter().enumerate() {
        let entry = scope
            .span("store.lookup", 0, i as u64, |_| {
                store.lookup_by_seed(a.seed, a.config_hash)
            })
            .ok_or("a stored artifact is not indexed")?;
        let back = scope
            .span("store.get", 0, i as u64, |_| store.get(&entry.key))
            .map_err(|e| e.to_string())?;
        if back.subject_fingerprint != a.subject_fingerprint {
            return Err(format!(
                "artifact {} read back with another fingerprint",
                entry.key
            ));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&bytes) / 1e6)
}
