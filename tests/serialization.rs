//! Integration test: the §4.4 export path — a personalized table written
//! to a `.uhrtf` file (as `uniq personalize --out` writes it) and read
//! back keeps working for applications (rendering, AoA) identically.

use std::path::PathBuf;
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::personalize;
use uniq_store::{decode, encode, HrtfArtifact};
use uniq_subjects::Subject;

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uniq_serialization_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn exported_table_round_trips_and_keeps_working() {
    let cfg = UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 15.0,
        ..UniqConfig::fast_test()
    };
    let seed = 500;
    let subject = Subject::from_seed(seed);
    let result = personalize(&subject, &cfg, 3).expect("personalization");
    let original = &result.hrtf;

    // Save and reload through the application-facing format.
    let path = temp_file("roundtrip.uhrtf");
    let artifact = HrtfArtifact::from_result(seed, &result, cfg.content_hash(), None);
    std::fs::write(&path, encode(&artifact).expect("encode")).expect("save");
    let bytes = std::fs::read(&path).expect("load");
    std::fs::remove_file(&path).ok();
    let reread = decode(&bytes).expect("decode");
    assert_eq!(reread, artifact);
    let restored = reread.to_table().expect("table");

    // Structure identical.
    assert_eq!(restored.sample_rate(), original.sample_rate());
    assert_eq!(restored.near().angles(), original.near().angles());
    assert_eq!(restored.far().angles(), original.far().angles());

    // Rendering through the restored table is bit-identical.
    let sig = uniq_dsp::signal::linear_chirp(300.0, 8000.0, 0.02, cfg.render.sample_rate);
    let a = original.synthesize(&sig, 45.0, true);
    let b = restored.synthesize(&sig, 45.0, true);
    assert_eq!(a.left, b.left);
    assert_eq!(a.right, b.right);

    // And AoA with the restored table gives the same answer.
    let renderer = subject.renderer(cfg.render, uniq_subjects::FORWARD_RESOLUTION);
    let setup = uniq_acoustics::measure::MeasurementSetup::anechoic(cfg.render.sample_rate, 40.0);
    let rec = uniq_acoustics::measure::record_plane_wave(&renderer, &setup, 60.0, &sig, 9);
    let est_a = uniq_core::aoa::estimate_known_source(&rec, &sig, original.far(), &cfg);
    let est_b = uniq_core::aoa::estimate_known_source(&rec, &sig, restored.far(), &cfg);
    assert_eq!(est_a, est_b);
}
