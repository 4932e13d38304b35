//! The `aoa-render` workload: the paper's downstream consumers (§5) on
//! personalized HRTFs. Each op serves one moment for both listeners: it
//! localizes one noise, one music and one speech event per listener, each
//! as a known and as an unknown source, then renders 2 s of a 3-source
//! scene while the listener turns their head. dsp and par do the work;
//! session, fusion, serve and store do none, so pipeline optimizations
//! should leave this workload unchanged.
//!
//! Unknown-source AoA costs about ten times more on some signals than on
//! others (when no cross-correlation peak matches a template delay it
//! scores every template angle). So the sounds come from a fixed corpus,
//! the same at every seed, while angles and the scene come from the seed:
//! otherwise the share of expensive signals, not the code, would set the
//! latency of a run. The listeners are fixed too, so set-up does the same
//! work and the quality metric scores the same heads in every run.

use std::hint::black_box;
use std::time::Instant;

use uniq_acoustics::measure::BinauralRecording;
use uniq_acoustics::signals::{generate, SignalKind};
use uniq_core::aoa::{estimate_known_source, estimate_unknown_source};
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize_with_retry, PersonalizationResult};
use uniq_core::PersonalHrtf;
use uniq_geometry::vec2::{angle_diff_deg, unit_from_theta};
use uniq_render::engine::BinauralEngine;
use uniq_render::motion::{render_with_motion, turning_head};
use uniq_render::scene::{ListenerPose, Scene};
use uniq_store::HrtfArtifact;
use uniq_subjects::Subject;

use crate::inputs::{SplitMix64, Stream, Subjects, Workload};
use crate::pipeline::{self, paper_config, MAX_ATTEMPTS};
use crate::stats::{describe, mean, median, peak_rss_mib, reset_peak_rss, setup_median};
use crate::trace::{Phase, Scope};
use crate::{probes, Ctx, Report};

const LISTENERS: u64 = 2;
/// Distinct op inputs per run; ops cycle through them past this count.
const BUNDLES: usize = 16;
const RECORDING_S: f64 = 0.4;
const SCENE_S: f64 = 2.0;
const BLOCK: usize = 1024;
const FADE: usize = 128;
/// The correctness gate on the median AoA error, degrees.
const MAX_AOA_ERROR_DEG: f64 = 10.0;

/// A recording synthesized through a listener's personalized HRTF.
#[derive(Debug, Clone)]
pub struct Recording {
    pub listener: usize,
    pub truth_deg: f64,
    pub source: Vec<f64>,
    pub rec: BinauralRecording,
}

/// Seeds the sound corpus; fixed so every run hears the same sounds.
const CORPUS_SEED: u64 = 0xc0_4905;

/// Op `index`'s recordings: one noise, music and speech clip from the
/// corpus per listener, each at a seeded angle.
pub fn bundle(hrtfs: &[&PersonalHrtf], index: u64, rng: &mut SplitMix64) -> Vec<Recording> {
    let mut out = Vec::new();
    for (listener, hrtf) in hrtfs.iter().enumerate() {
        for (k, kind) in SignalKind::ALL.into_iter().enumerate() {
            let clip = (index * hrtfs.len() as u64 + listener as u64) * 3 + k as u64;
            let source = generate(
                kind,
                RECORDING_S,
                hrtf.sample_rate(),
                SplitMix64::new(CORPUS_SEED ^ clip).next_u64(),
            );
            let truth_deg = rng.range(5.0, 175.0);
            let rendered = hrtf.synthesize(&source, truth_deg, true);
            out.push(Recording {
                listener,
                truth_deg,
                source,
                rec: BinauralRecording {
                    left: rendered.left,
                    right: rendered.right,
                },
            });
        }
    }
    out
}

/// Three far-field sources and a head turn, rendered with music.
#[derive(Debug, Clone)]
pub struct SceneSpec {
    scene: Scene,
    poses: Vec<ListenerPose>,
    audio: Vec<f64>,
}

pub fn scene(rng: &mut SplitMix64, sample_rate: f64) -> SceneSpec {
    let mut scene = Scene::new();
    for name in ["a", "b", "c"] {
        let at = unit_from_theta(rng.range(0.0, 360.0)) * rng.range(1.5, 3.0);
        scene.add(name, at, rng.range(0.5, 1.0));
    }
    let audio = generate(SignalKind::Music, SCENE_S, sample_rate, rng.next_u64());
    let turn = rng.range(-90.0, 90.0);
    SceneSpec {
        poses: turning_head(0.0, turn, audio.len().div_ceil(BLOCK)),
        scene,
        audio,
    }
}

/// What one op estimated and how long its parts took.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// `(truth, known-source estimate, unknown-source estimate)`, degrees.
    pub estimates: Vec<(f64, f64, f64)>,
    /// Per recording: known plus unknown estimation time, ms.
    pub aoa_ms: Vec<f64>,
    pub render_ms: f64,
}

/// One op: known- and unknown-source AoA on every recording, against its
/// listener's far-field bank, then one scene render for listener
/// `request % listeners`.
pub fn op(
    scope: Scope<'_>,
    request: u64,
    recordings: &[Recording],
    engines: &[BinauralEngine],
    scene: &SceneSpec,
    cfg: &UniqConfig,
) -> OpResult {
    scope.span("aoa.op", 0, request, |id| {
        let mut estimates = Vec::with_capacity(recordings.len());
        let mut aoa_ms = Vec::with_capacity(recordings.len());
        for r in recordings {
            let bank = engines[r.listener].hrtf().far();
            let start = Instant::now();
            let known = scope.span("aoa.known", id, request, |_| {
                estimate_known_source(&r.rec, &r.source, bank, cfg)
            });
            let unknown = scope.span("aoa.unknown", id, request, |_| {
                estimate_unknown_source(&r.rec, bank, cfg)
            });
            aoa_ms.push(start.elapsed().as_secs_f64() * 1e3);
            estimates.push((r.truth_deg, known, unknown));
        }
        let engine = &engines[request as usize % engines.len()];
        let start = Instant::now();
        black_box(scope.span("render.motion", id, request, |_| {
            render_with_motion(
                engine,
                &scene.scene,
                &scene.poses,
                &scene.audio,
                BLOCK,
                FADE,
            )
        }));
        OpResult {
            estimates,
            aoa_ms,
            render_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    })
}

struct Listener {
    seed: u64,
    subject: Subject,
    result: PersonalizationResult,
}

struct Setup {
    listeners: Vec<Listener>,
    engines: Vec<BinauralEngine>,
    bundles: Vec<Vec<Recording>>,
    scene: SceneSpec,
}

/// Personalizes the listeners at the paper's configuration and
/// pre-synthesizes every op's recordings.
fn set_up(ctx: &Ctx, cfg: &UniqConfig) -> Result<Setup, String> {
    let ids = Subjects::new(Workload::AoaRender, ctx.seed);
    let mut listeners = Vec::new();
    for k in 0..LISTENERS {
        let seed = ids.seed(Stream::Fixed, k);
        let subject = Subject::from_seed(seed);
        let result = personalize_with_retry(&subject, cfg, seed, MAX_ATTEMPTS)
            .map_err(|e| format!("subject {seed}: {e}"))?;
        listeners.push(Listener {
            seed,
            subject,
            result,
        });
    }
    let hrtfs: Vec<&PersonalHrtf> = listeners.iter().map(|l| &l.result.hrtf).collect();
    let mut rng = SplitMix64::new(ctx.seed ^ 0xa0a);
    let bundles = (0..BUNDLES as u64)
        .map(|b| bundle(&hrtfs, b, &mut rng))
        .collect();
    let scene = scene(&mut rng, cfg.render.sample_rate);
    let engines = listeners
        .iter()
        .map(|l| BinauralEngine::new(l.result.hrtf.clone()))
        .collect();
    Ok(Setup {
        listeners,
        engines,
        bundles,
        scene,
    })
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let cfg = paper_config();
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..ctx.setup_reps() {
        // Free the previous set-up's recordings before building the next.
        drop(setup.take());
        let start = Instant::now();
        match set_up(ctx, &cfg) {
            Ok(s) => setup = Some(s),
            Err(e) => return Report::broken(e),
        }
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    let timed = ctx.tracer.scope(Phase::Timed);
    let mut latency = Vec::new();
    let mut rss = Vec::new();
    let mut results = Vec::new();
    let start = Instant::now();
    while results.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let j = results.len();
        reset_peak_rss();
        let t = Instant::now();
        let r = op(
            timed,
            j as u64,
            &setup.bundles[j % BUNDLES],
            &setup.engines,
            &setup.scene,
            &cfg,
        );
        latency.push(t.elapsed().as_secs_f64() * 1e3);
        rss.push(peak_rss_mib());
        results.push(r);
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.attempted = results.len() as u64;
    report.failed = results
        .iter()
        .filter(|r| {
            r.estimates
                .iter()
                .any(|&(_, k, u)| !(k.is_finite() && u.is_finite()))
        })
        .count() as u64;
    report.timed_s = elapsed;
    report.peak_rss_mib = Some(median(&rss));

    let errors: Vec<f64> = results
        .iter()
        .flat_map(|r| &r.estimates)
        .flat_map(|&(truth, k, u)| [angle_diff_deg(k, truth), angle_diff_deg(u, truth)])
        .collect();
    let error_median = median(&errors);
    if error_median.is_nan() || error_median > MAX_AOA_ERROR_DEG {
        report.problem(format!(
            "median AoA error {error_median:.2}° exceeds {MAX_AOA_ERROR_DEG}°"
        ));
    }
    let aoa_ms: Vec<f64> = results
        .iter()
        .flat_map(|r| r.aoa_ms.iter().copied())
        .collect();
    let render_s: f64 = results.iter().map(|r| r.render_ms / 1e3).sum();
    let similarity: Vec<f64> = setup
        .listeners
        .iter()
        .map(|l| pipeline::hrir_similarity(&l.subject, l.result.hrtf.far(), &cfg))
        .collect();
    for l in &setup.listeners {
        println!(
            "info subject {} fingerprint {:#018x}",
            l.seed,
            pipeline::fingerprint(l.seed, &l.result, &cfg)
        );
    }
    describe("op", &latency);
    describe("aoa", &aoa_ms);
    println!(
        "info aoa_error_median_deg={error_median} over {} estimates",
        errors.len()
    );
    println!(
        "info render_realtime_x={}",
        SCENE_S * results.len() as f64 / render_s
    );
    println!(
        "info throughput_per_s={} over {elapsed:.3} s",
        results.len() as f64 / elapsed
    );

    if ctx.tracer.on() {
        let first = &setup.listeners[0];
        let input = probes::Input {
            subject: &first.subject,
            seed: first.seed,
            cfg: &cfg,
            result: &first.result,
        };
        let artifacts: Vec<HrtfArtifact> = setup
            .listeners
            .iter()
            .map(|l| HrtfArtifact::from_result(l.seed, &l.result, cfg.content_hash(), None))
            .collect();
        probes::all(ctx, &mut report, &input, &artifacts);
    } else {
        report.metric("setup_s", setup_median(&setup_times));
        report.metric("latency_p50_ms", median(&latency));
        report.metric("hrir_similarity", mean(&similarity));
    }
    report
}
