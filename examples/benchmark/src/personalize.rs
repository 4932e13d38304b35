//! The `personalize-paper` workload: the wait an earable user sees after
//! the gesture, at the paper's configuration. Subjects run one after
//! another through the §4.6 retry loop on a 2-thread pool; serve and store
//! are not involved.

use std::time::Instant;

use uniq_acoustics::types::HrirBank;
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize_with_retry, PersonalizationResult};
use uniq_store::HrtfArtifact;
use uniq_subjects::{global_template, Subject};

use crate::inputs::{Stream, Subjects, Workload};
use crate::pipeline::{self, paper_config, MAX_ATTEMPTS};
use crate::stats::{describe, mean, median, peak_rss_mib, reset_peak_rss, setup_median};
use crate::trace::Phase;
use crate::{probes, Ctx, Report};

/// The correctness gate on each subject's median localization error.
const MAX_LOCALIZATION_DEG: f64 = 8.0;
/// Copies of one artifact the traced run's store probe writes.
const STORED: u64 = 8;

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let cfg = paper_config();
    let ids = Subjects::new(Workload::PersonalizePaper, ctx.seed);

    // The reference for the correctness gate, not part of the set-up.
    let global = global_template(cfg.render, &cfg.output_grid());

    // Set-up: one warm-up subject outside the timed set. Each repetition
    // takes the next subject of the fixed cohort, whose results, checked
    // like the timed ones, give the quality metric: the same heads in
    // every run, however many subjects the timed phase gets through.
    let mut setup_times = Vec::new();
    let mut similarity = Vec::new();
    for r in 0..ctx.setup_reps() {
        let seed = ids.seed(Stream::Fixed, r as u64);
        let subject = Subject::from_seed(seed);
        let start = Instant::now();
        let result = match personalize_with_retry(&subject, &cfg, seed, MAX_ATTEMPTS) {
            Ok(result) => result,
            Err(e) => return Report::broken(format!("warm-up subject {seed}: {e}")),
        };
        setup_times.push(start.elapsed().as_secs_f64());
        check(&mut report, seed, &subject, &result, &global, &cfg);
        similarity.push(pipeline::hrir_similarity(&subject, result.hrtf.far(), &cfg));
    }

    // Each result is checked as soon as it is timed and then dropped, so
    // the memory of one personalization is not inflated by the results of
    // earlier ones.
    let timed = ctx.tracer.scope(Phase::Timed);
    let mut latency = Vec::new();
    let mut rss = Vec::new();
    let mut all_errors = Vec::new();
    // The first subject with its fingerprint, for the traced run's probes.
    let mut first: Option<(u64, Subject, u64)> = None;
    let mut busy_s = 0.0;
    while latency.is_empty() || busy_s < ctx.seconds {
        let i = latency.len() as u64;
        let seed = ids.seed(Stream::Timed, i);
        let subject = Subject::from_seed(seed);
        reset_peak_rss();
        let start = Instant::now();
        let outcome = pipeline::personalize(&subject, &cfg, seed, timed, i);
        let seconds = start.elapsed().as_secs_f64();
        rss.push(peak_rss_mib());
        latency.push(seconds * 1e3);
        busy_s += seconds;

        let result = match outcome {
            Ok(result) => result,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("subject {seed}: {e}"));
                continue;
            }
        };
        all_errors.extend(check(&mut report, seed, &subject, &result, &global, &cfg));
        let fingerprint = pipeline::fingerprint(seed, &result, &cfg);
        println!(
            "info subject {seed} fingerprint {fingerprint:#018x} attempts {} seconds {seconds:.3}",
            result.attempts,
        );
        first.get_or_insert((seed, subject, fingerprint));
    }
    report.attempted = latency.len() as u64;
    report.timed_s = busy_s;
    describe("personalize", &latency);
    println!(
        "info localization_median_deg={} over {} stops",
        median(&all_errors),
        all_errors.len()
    );
    println!(
        "info hrir_similarity={} over {} cohort subjects",
        mean(&similarity),
        similarity.len()
    );
    println!(
        "info throughput_per_s={} over {busy_s:.3} s",
        latency.len() as f64 / busy_s
    );
    println!(
        "info failed_ratio={}",
        report.failed as f64 / latency.len() as f64
    );

    report.peak_rss_mib = Some(median(&rss));

    if ctx.tracer.on() {
        if let Some((seed, subject, traced)) = &first {
            // The traced run composes the stages itself: it must reproduce
            // the library path bit for bit.
            match personalize_with_retry(subject, &cfg, *seed, MAX_ATTEMPTS) {
                Ok(library) if pipeline::fingerprint(*seed, &library, &cfg) == *traced => {
                    let input = probes::Input {
                        subject,
                        seed: *seed,
                        cfg: &cfg,
                        result: &library,
                    };
                    let artifacts: Vec<HrtfArtifact> = (0..STORED)
                        .map(|k| {
                            let seed = ids.seed(Stream::Probe, k);
                            HrtfArtifact::from_result(seed, &library, cfg.content_hash(), None)
                        })
                        .collect();
                    probes::all(ctx, &mut report, &input, &artifacts);
                }
                Ok(_) => report.problem(format!(
                    "subject {seed}: stage composition differs from the library path"
                )),
                Err(e) => report.problem(format!("subject {seed}: library path failed: {e}")),
            }
        }
    } else {
        report.metric("setup_s", setup_median(&setup_times));
        report.metric("latency_p50_ms", median(&latency));
        report.metric("hrir_similarity", mean(&similarity));
    }
    report
}

/// The correctness gate on one subject: it beats the global template on
/// summed far-field similarity (Figs 18–19) and localizes its stops to a
/// median under 8° (Fig 17). Returns the per-stop localization errors.
fn check(
    report: &mut Report,
    seed: u64,
    subject: &Subject,
    result: &PersonalizationResult,
    global: &HrirBank,
    cfg: &UniqConfig,
) -> Vec<f64> {
    let (personal, generic) = pipeline::grid_similarity(subject, result.hrtf.far(), global, cfg);
    if personal <= generic {
        report.problem(format!(
            "subject {seed}: similarity {personal:.2} does not beat the global template's {generic:.2}"
        ));
    }
    let errors = pipeline::localization_errors(&result.localization);
    let loc = median(&errors);
    if loc.is_nan() || loc >= MAX_LOCALIZATION_DEG {
        report.problem(format!(
            "subject {seed}: median localization error {loc:.2}°"
        ));
    }
    errors
}
