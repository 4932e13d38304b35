//! Property-based tests for the fault-injection layer.
//!
//! The contract under test is determinism: a `FaultPlan` is a pure
//! function of (plan seed, events, injection site), so the same plan
//! corrupts the same signal bit-identically no matter how often, in what
//! order, or on which thread the corruption runs.

use proptest::prelude::*;
use uniq_acoustics::measure::BinauralRecording;
use uniq_core::degrade::{FaultHook, InjectionSite};
use uniq_faults::{class, FaultEvent, FaultKind, FaultPlan};

fn recording(len: usize, scale: f64) -> BinauralRecording {
    let left: Vec<f64> = (0..len)
        .map(|k| ((k as f64) * 0.07).sin() * scale)
        .collect();
    let right: Vec<f64> = (0..len)
        .map(|k| ((k as f64) * 0.11).cos() * scale * 0.9)
        .collect();
    BinauralRecording { left, right }
}

fn site(stop: usize, attempt: usize) -> InjectionSite {
    InjectionSite { stop, attempt }
}

/// Decodes one sampled `(kind, stop, transient, param)` tuple into an
/// event; covers every fault class as `kind` sweeps 0..9.
fn event_from(kind: u32, stop: usize, transient: u32, p: f64) -> FaultEvent {
    let kind = match kind {
        0 => FaultKind::DropChirp,
        1 => FaultKind::TruncateChirp { keep_fraction: p },
        2 => FaultKind::Clip { level: p },
        3 => FaultKind::SnrCollapse {
            snr_db: p * 40.0 - 20.0,
        },
        4 => FaultKind::GyroDropout {
            start: p * 0.8,
            length: 0.1,
        },
        5 => FaultKind::GyroSaturation { max_dps: p * 20.0 },
        6 => FaultKind::TimestampJitter { jitter_s: p * 0.1 },
        7 => FaultKind::DuplicateStop,
        _ => FaultKind::ReorderStops,
    };
    FaultEvent {
        kind,
        stop: Some(stop),
        transient: transient == 1,
    }
}

fn plan_from(seed: u64, raw: &[(u32, usize, u32, f64)]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for &(kind, stop, transient, p) in raw {
        plan.push(event_from(kind, stop, transient, p));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_plan_same_site_corrupts_bit_identically(
        seed in 0u64..u64::MAX,
        raw in prop::collection::vec((0u32..9, 0usize..10, 0u32..2, 0.05f64..0.95), 1..5),
        stop in 0usize..10,
        attempt in 0usize..3,
    ) {
        let plan = plan_from(seed, &raw);
        let mut a = recording(256, 0.8);
        let mut b = recording(256, 0.8);
        let fa = plan.corrupt_recording(site(stop, attempt), &mut a);
        let fb = plan.corrupt_recording(site(stop, attempt), &mut b);
        prop_assert_eq!(fa, fb);
        prop_assert_eq!(a.left, b.left);
        prop_assert_eq!(a.right, b.right);

        let mut ra = vec![4.0; 200];
        let mut rb = vec![4.0; 200];
        prop_assert_eq!(
            plan.corrupt_rates(&mut ra),
            plan.corrupt_rates(&mut rb)
        );
        prop_assert_eq!(ra, rb);

        let sa = plan.stop_schedule(stop, 10);
        let sb = plan.stop_schedule(stop, 10);
        prop_assert_eq!(sa.source, sb.source);
        prop_assert_eq!(sa.jitter_s, sb.jitter_s);
        prop_assert_eq!(sa.faults, sb.faults);
    }

    #[test]
    fn different_seeds_draw_different_noise(seed in 0u64..u64::MAX, stop in 0usize..10) {
        let event = FaultEvent {
            kind: FaultKind::SnrCollapse { snr_db: -6.0 },
            stop: None,
            transient: false,
        };
        let a_plan = FaultPlan::new(seed).with(event);
        let b_plan = FaultPlan::new(seed.wrapping_add(1)).with(event);
        let mut a = recording(256, 0.8);
        let mut b = recording(256, 0.8);
        a_plan.corrupt_recording(site(stop, 0), &mut a);
        b_plan.corrupt_recording(site(stop, 0), &mut b);
        prop_assert!(a.left != b.left, "different plan seeds must draw different noise");
    }

    #[test]
    fn clip_never_exceeds_its_ceiling(level in 0.05f64..1.0, scale in 0.1f64..10.0) {
        let plan = FaultPlan::new(1).with(FaultEvent {
            kind: FaultKind::Clip { level },
            stop: None,
            transient: false,
        });
        let mut rec = recording(256, scale);
        let peak = rec.left.iter().chain(&rec.right).fold(0.0f64, |m, v| m.max(v.abs()));
        plan.corrupt_recording(site(0, 0), &mut rec);
        let new_peak = rec.left.iter().chain(&rec.right).fold(0.0f64, |m, v| m.max(v.abs()));
        prop_assert!(new_peak <= level * peak + 1e-12);
    }

    #[test]
    fn truncate_preserves_head_zeroes_tail(keep in 0.05f64..0.95, len in 32usize..512) {
        let plan = FaultPlan::new(1).with(FaultEvent {
            kind: FaultKind::TruncateChirp { keep_fraction: keep },
            stop: None,
            transient: false,
        });
        let clean = recording(len, 1.0);
        let mut rec = recording(len, 1.0);
        plan.corrupt_recording(site(0, 0), &mut rec);
        let kept = ((len as f64) * keep) as usize;
        prop_assert_eq!(&rec.left[..kept], &clean.left[..kept]);
        prop_assert!(rec.left[kept..].iter().all(|&v| v == 0.0));
        prop_assert!(rec.right[kept..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transient_events_never_fire_past_attempt_zero(
        raw in prop::collection::vec((0u32..9, 0usize..10, 0u32..2, 0.05f64..0.95), 1..5),
        stop in 0usize..10,
    ) {
        let transient_raw: Vec<(u32, usize, u32, f64)> =
            raw.into_iter().map(|(k, s, _, p)| (k, s, 1, p)).collect();
        let plan = plan_from(9, &transient_raw);
        let clean = recording(128, 1.0);
        let mut retry = recording(128, 1.0);
        let applied = plan.corrupt_recording(site(stop, 1), &mut retry);
        prop_assert!(applied.is_empty());
        prop_assert_eq!(retry.left, clean.left);
        prop_assert_eq!(retry.right, clean.right);
    }

    #[test]
    fn presets_cover_every_class_and_are_stable(seed in 0u64..u64::MAX) {
        for &label in class::ALL {
            let preset = FaultPlan::preset(label, seed).expect("preset exists");
            prop_assert_eq!(preset.classes(), vec![label]);
            prop_assert_eq!(&FaultPlan::preset(label, seed).expect("preset"), &preset);
        }
    }
}
