//! Golden end-to-end regression: the seed-6 personalize run must
//! reproduce the HRTF fingerprint checked into `BENCH_BASELINE.json`
//! bit for bit — through the plain pipeline AND through the
//! fault-injection path with an empty plan. Any divergence means the
//! pipeline's numeric behavior changed; refresh the baseline only for
//! intentional changes (`cargo run --release -p uniq-bench --bin
//! baseline -- bless`).

use std::path::Path;
use uniq_bench::baseline::{BaselineSpec, BASELINE_FILE};
use uniq_core::batch::result_fingerprint;
use uniq_core::degrade::DegradationPolicy;
use uniq_core::pipeline::{personalize_faulted, personalize_with_retry, PersonalizationResult};
use uniq_faults::FaultPlan;
use uniq_obs::json::Json;
use uniq_subjects::Subject;

fn pinned_fingerprint() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(BASELINE_FILE);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = Json::parse(&text).expect("BENCH_BASELINE.json parses");
    doc.get("quality")
        .and_then(|q| q.get("personalize_fingerprint"))
        .and_then(Json::as_str)
        .expect("baseline carries quality.personalize_fingerprint")
        .to_string()
}

fn fingerprint_of(seed: u64, result: &PersonalizationResult) -> String {
    format!("{:#018x}", result_fingerprint(seed, result))
}

#[test]
fn seed6_personalize_matches_checked_in_fingerprint() {
    let pinned = pinned_fingerprint();
    let spec = BaselineSpec::pinned();
    let cfg = spec.config(1);
    let subject = Subject::from_seed(spec.seed);

    let clean = personalize_with_retry(&subject, &cfg, spec.seed, 3).expect("pinned workload");
    assert_eq!(
        fingerprint_of(spec.seed, &clean),
        pinned,
        "clean pipeline drifted from BENCH_BASELINE.json"
    );

    // The degradation path with an empty plan must reproduce the exact
    // same bits — graceful degradation costs nothing when nothing fails.
    let faulted = personalize_faulted(
        &subject,
        &cfg,
        spec.seed,
        &FaultPlan::empty(),
        &DegradationPolicy::default(),
    )
    .expect("empty-plan workload");
    assert!(faulted.degradation.is_clean());
    assert_eq!(
        fingerprint_of(spec.seed, &faulted.result),
        pinned,
        "empty-plan fault path drifted from BENCH_BASELINE.json"
    );
}

/// The paper configuration (`UniqConfig::default()`: 1° output grid, in
/// room) at seed 801, where a critical-ray arc holds ~25 near-field
/// entries rather than the 2–3 of the 15° grid above. The bits must not
/// depend on the pool size.
#[test]
fn paper_config_personalize_matches_pinned_fingerprint() {
    const PINNED: &str = "0x06c0957e1c567a15";
    const SEED: u64 = 801;
    let subject = Subject::from_seed(SEED);
    for threads in [1, 4] {
        let cfg = uniq_core::config::UniqConfig {
            threads,
            ..Default::default()
        };
        let result = personalize_with_retry(&subject, &cfg, SEED, 3).expect("paper config");
        assert_eq!(
            fingerprint_of(SEED, &result),
            PINNED,
            "paper-config pipeline drifted at {threads} thread(s)"
        );
    }
}

/// The FFT work of one paper-config measurement session (seed 801, 19
/// stops), pinned as an exact count at pool sizes 1 and 4. Each stop
/// runs 6 transforms, each one filtering both ears in one complex buffer:
/// 2 at n = 8192 to capture, 2 at 8192 to deconvolve and 2 at 1024 to
/// compensate the system response. Once per session the calibration runs
/// 3 at n = 4096, and the emitted probe, the probe's Wiener operator (both
/// at 8192) and the system IR's (at 1024) are transformed once each.
/// Rendering the stops' propagation responses designs 258 head-shadow
/// FIRs, one n = 256 transform each.
#[test]
fn paper_config_session_runs_a_pinned_number_of_transforms() {
    const SHADOW_FIRS: u64 = 258;
    const TRANSFORMS: u64 = 19 * 6 + 3 + 3 + SHADOW_FIRS;
    const POINTS: u64 = 19 * (4 * 8192 * 13 + 2 * 1024 * 10)
        + 3 * 4096 * 12
        + (2 * 8192 * 13 + 1024 * 10)
        + SHADOW_FIRS * 256 * 8;
    const SEED: u64 = 801;
    let subject = Subject::from_seed(SEED);
    for threads in [1, 4] {
        let cfg = uniq_core::config::UniqConfig {
            threads,
            ..Default::default()
        };
        let sink = std::sync::Arc::new(uniq_obs::sink::MemorySink::new());
        uniq_obs::with_sink(sink.clone(), || {
            uniq_core::session::run_session(&subject, &cfg, SEED).expect("paper-config session")
        });
        assert_eq!(
            (
                sink.counter_total(uniq_obs::names::DSP_TRANSFORMS),
                sink.counter_total(uniq_obs::names::DSP_TRANSFORM_POINTS)
            ),
            (TRANSFORMS, POINTS),
            "{threads} thread(s)"
        );
    }
}
