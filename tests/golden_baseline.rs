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
    const PINNED: &str = "0x83b1238465f9391c";
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
