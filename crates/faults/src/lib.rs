//! # uniq-faults
//!
//! Deterministic fault injection for UNIQ measurement sessions.
//!
//! The paper's setting is at-home capture (§4.6, §7): chirps get dropped
//! or truncated by the playback stack, samples clip, SNR collapses in
//! bursts, the gyro drops out or saturates, timestamps jitter, and users
//! duplicate or reorder sweep stops. This crate turns that failure
//! envelope into a typed, seeded [`FaultPlan`] — a schedule of
//! [`FaultEvent`]s — that plugs into the pipeline at the exact signal
//! boundaries the real system would see, all through the one
//! `uniq_core::degrade::FaultHook` trait:
//!
//! * recordings (`corrupt_recording`);
//! * gyro rate streams (`corrupt_rates`);
//! * session structure: stop remapping and clock jitter
//!   (`stop_schedule`).
//!
//! Everything is a pure function of the plan (its seed and events) and
//! the injection site, so a faulted session is bit-identical across runs
//! and thread counts — the property `tests/parallel_determinism.rs` and
//! the conformance suite pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniq_acoustics::measure::BinauralRecording;
use uniq_core::degrade::{FaultHook, InjectionSite, StopSchedule};
use uniq_dsp::signal::rms;

/// Canonical fault-class labels, as they appear in `DegradationReport`s,
/// CLI plan specs and the robustness experiment.
pub mod class {
    /// A probe chirp that never reached the microphones.
    pub const DROP: &str = "drop";
    /// A probe chirp cut off partway through playback.
    pub const TRUNCATE: &str = "truncate";
    /// Recording clipped at a fraction of its peak amplitude.
    pub const CLIP: &str = "clip";
    /// A burst of noise collapsing the recording's SNR.
    pub const SNR: &str = "snr-collapse";
    /// A window of missing gyro samples (read as zero rate).
    pub const GYRO_DROPOUT: &str = "gyro-dropout";
    /// Gyro rates clamped to a reduced full-scale range.
    pub const GYRO_SATURATION: &str = "gyro-saturation";
    /// Phone/earphone clock jitter on a stop's timestamp.
    pub const JITTER: &str = "timestamp-jitter";
    /// A stop recorded twice (the capture repeats the previous stop).
    pub const DUPLICATE: &str = "duplicate-stop";
    /// Two adjacent stops recorded in swapped order.
    pub const REORDER: &str = "reorder-stops";

    /// Every fault class, in presentation order.
    pub const ALL: &[&str] = &[
        DROP,
        TRUNCATE,
        CLIP,
        SNR,
        GYRO_DROPOUT,
        GYRO_SATURATION,
        JITTER,
        DUPLICATE,
        REORDER,
    ];
}

/// One typed fault with its intensity parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Zero the whole recording (the chirp never played).
    DropChirp,
    /// Keep only the leading `keep_fraction` of the recording, zero the
    /// rest.
    TruncateChirp {
        /// Fraction of the recording that survives, `(0, 1)`.
        keep_fraction: f64,
    },
    /// Clamp samples to `level × peak` (symmetric hard clipping).
    Clip {
        /// Clipping level as a fraction of the recording's peak, `(0, 1]`.
        level: f64,
    },
    /// Add noise until the recording's SNR collapses to `snr_db` relative
    /// to its RMS.
    SnrCollapse {
        /// Target SNR of the corrupted recording, dB (may be negative).
        snr_db: f64,
    },
    /// Zero the gyro stream over a window.
    GyroDropout {
        /// Window start as a fraction of the stream, `[0, 1)`.
        start: f64,
        /// Window length as a fraction of the stream, `(0, 1]`.
        length: f64,
    },
    /// Clamp gyro rates to `±max_dps`.
    GyroSaturation {
        /// Reduced full-scale range, °/s.
        max_dps: f64,
    },
    /// Jitter the stop's IMU timestamp by up to `±jitter_s`.
    TimestampJitter {
        /// Maximum clock offset, seconds.
        jitter_s: f64,
    },
    /// Capture this stop's recording at the previous sweep position.
    DuplicateStop,
    /// Swap this stop's capture with the next stop's.
    ReorderStops,
}

impl FaultKind {
    /// The class label this kind reports as.
    pub fn class(&self) -> &'static str {
        match self {
            FaultKind::DropChirp => class::DROP,
            FaultKind::TruncateChirp { .. } => class::TRUNCATE,
            FaultKind::Clip { .. } => class::CLIP,
            FaultKind::SnrCollapse { .. } => class::SNR,
            FaultKind::GyroDropout { .. } => class::GYRO_DROPOUT,
            FaultKind::GyroSaturation { .. } => class::GYRO_SATURATION,
            FaultKind::TimestampJitter { .. } => class::JITTER,
            FaultKind::DuplicateStop => class::DUPLICATE,
            FaultKind::ReorderStops => class::REORDER,
        }
    }
}

/// One scheduled fault: a kind, an optional target stop (`None` = every
/// stop) and whether it is transient (first capture attempt only, so a
/// retry heals it) or persistent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What to inject.
    pub kind: FaultKind,
    /// Target stop, or `None` to hit every stop.
    pub stop: Option<usize>,
    /// Transient faults vanish on retry captures (attempt > 0).
    pub transient: bool,
}

impl FaultEvent {
    /// Whether this event fires at the given stop and capture attempt.
    fn applies(&self, stop: usize, attempt: usize) -> bool {
        (self.stop.is_none() || self.stop == Some(stop)) && (!self.transient || attempt == 0)
    }
}

/// A parse failure for a fault-plan spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultParseError {
    /// The entry's fault-class name is unknown.
    UnknownClass(String),
    /// A parameter is missing, malformed or out of range.
    BadParam(String),
    /// The `@stop` suffix is malformed, or a structural fault lacks one.
    BadStop(String),
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultParseError::UnknownClass(name) => {
                write!(f, "unknown fault class {name:?} (see `uniq help`)")
            }
            FaultParseError::BadParam(what) => write!(f, "bad fault parameter: {what}"),
            FaultParseError::BadStop(what) => write!(f, "bad stop target: {what}"),
        }
    }
}

impl std::error::Error for FaultParseError {}

/// A seeded, deterministic schedule of faults over one session.
///
/// The same plan (seed + events) corrupts the same session identically at
/// any thread count; the empty plan is a guaranteed no-op (bit-identical
/// pipeline outputs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's own randomness (noise bursts, jitter draws) —
    /// independent of the session seed.
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults: guaranteed no-op.
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// An empty plan with the given seed, ready for [`push`](Self::push).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds an event to the schedule.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Fault classes this plan schedules, sorted and deduplicated.
    pub fn classes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self.events.iter().map(|e| e.kind.class()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Parses a plan spec: comma-separated entries of the form
    /// `name[:param[:param]][@stop][~]`. A trailing `~` marks the entry
    /// transient (first capture attempt only). `none` or an empty spec is
    /// the empty plan.
    ///
    /// Names and parameters:
    ///
    /// | entry | parameters (defaults) |
    /// |---|---|
    /// | `drop` | — |
    /// | `truncate` | keep fraction (0.5) |
    /// | `clip` | level as fraction of peak (0.35) |
    /// | `snr` | target SNR dB (−12) |
    /// | `gyro-dropout` | start, length as stream fractions (0.45, 0.05) |
    /// | `gyro-sat` | max rate °/s (12) |
    /// | `jitter` | max offset s (0.05) |
    /// | `dup` | — (requires `@stop`) |
    /// | `reorder` | — (requires `@stop`) |
    ///
    /// Omitting `@stop` targets every stop (rejected for `dup`/`reorder`,
    /// which need a specific position).
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::new(seed);
        let trimmed = spec.trim();
        if trimmed.is_empty() || trimmed == "none" {
            return Ok(plan);
        }
        for raw_entry in trimmed.split(',') {
            let mut entry = raw_entry.trim();
            if entry.is_empty() {
                continue;
            }
            let transient = entry.ends_with('~');
            if transient {
                entry = entry[..entry.len() - 1].trim_end();
            }
            let (head, stop) = match entry.split_once('@') {
                None => (entry, None),
                Some((head, stop_str)) => {
                    let stop = stop_str.trim().parse::<usize>().map_err(|_| {
                        FaultParseError::BadStop(format!("{stop_str:?} in {raw_entry:?}"))
                    })?;
                    (head.trim_end(), Some(stop))
                }
            };
            let mut parts = head.split(':');
            let name = parts.next().unwrap_or("").trim();
            let params: Vec<&str> = parts.map(str::trim).collect();
            let param = |idx: usize, default: f64| -> Result<f64, FaultParseError> {
                match params.get(idx) {
                    None => Ok(default),
                    Some(p) => p
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| {
                            FaultParseError::BadParam(format!("{p:?} in {raw_entry:?}"))
                        }),
                }
            };
            let kind = match name {
                "drop" => FaultKind::DropChirp,
                "truncate" => {
                    let keep_fraction = param(0, 0.5)?;
                    if !(0.0..1.0).contains(&keep_fraction) || keep_fraction == 0.0 {
                        return Err(FaultParseError::BadParam(format!(
                            "truncate keep fraction {keep_fraction} outside (0, 1)"
                        )));
                    }
                    FaultKind::TruncateChirp { keep_fraction }
                }
                "clip" => {
                    let level = param(0, 0.35)?;
                    if !(0.0..=1.0).contains(&level) || level == 0.0 {
                        return Err(FaultParseError::BadParam(format!(
                            "clip level {level} outside (0, 1]"
                        )));
                    }
                    FaultKind::Clip { level }
                }
                "snr" | "snr-collapse" => FaultKind::SnrCollapse {
                    snr_db: param(0, -12.0)?,
                },
                "gyro-dropout" => {
                    let start = param(0, 0.45)?;
                    let length = param(1, 0.05)?;
                    if !(0.0..1.0).contains(&start) || !(0.0..=1.0).contains(&length) {
                        return Err(FaultParseError::BadParam(format!(
                            "gyro-dropout window {start}+{length} outside the stream"
                        )));
                    }
                    FaultKind::GyroDropout { start, length }
                }
                "gyro-sat" | "gyro-saturation" => {
                    let max_dps = param(0, 12.0)?;
                    if max_dps <= 0.0 {
                        return Err(FaultParseError::BadParam(format!(
                            "gyro saturation range {max_dps} must be positive"
                        )));
                    }
                    FaultKind::GyroSaturation { max_dps }
                }
                "jitter" | "timestamp-jitter" => {
                    let jitter_s = param(0, 0.05)?;
                    if jitter_s < 0.0 {
                        return Err(FaultParseError::BadParam(format!(
                            "jitter {jitter_s} must be non-negative"
                        )));
                    }
                    FaultKind::TimestampJitter { jitter_s }
                }
                "dup" | "duplicate" => FaultKind::DuplicateStop,
                "reorder" => FaultKind::ReorderStops,
                other => return Err(FaultParseError::UnknownClass(other.to_string())),
            };
            if matches!(kind, FaultKind::DuplicateStop | FaultKind::ReorderStops) && stop.is_none()
            {
                return Err(FaultParseError::BadStop(format!(
                    "{name} needs an explicit @stop target"
                )));
            }
            plan.push(FaultEvent {
                kind,
                stop,
                transient,
            });
        }
        Ok(plan)
    }

    /// The survivable default-intensity plan for one fault class (the
    /// intensities the conformance suite and the CI fault matrix run).
    /// Returns `None` for an unknown class label.
    pub fn preset(class_label: &str, seed: u64) -> Option<FaultPlan> {
        let spec = match class_label {
            class::DROP => "drop@2",
            class::TRUNCATE => "truncate:0.5@3",
            class::CLIP => "clip:0.35",
            class::SNR => "snr:-12@4",
            class::GYRO_DROPOUT => "gyro-dropout:0.45:0.05",
            class::GYRO_SATURATION => "gyro-sat:12",
            class::JITTER => "jitter:0.05",
            class::DUPLICATE => "dup@5",
            class::REORDER => "reorder@6",
            _ => return None,
        };
        FaultPlan::parse(spec, seed).ok()
    }

    /// Deterministic per-site RNG: a distinct, reproducible stream for
    /// every (plan seed, stop, attempt, event index) tuple.
    fn site_rng(&self, stop: usize, attempt: usize, event_idx: usize) -> StdRng {
        StdRng::seed_from_u64(mix(
            self.seed,
            &[stop as u64, attempt as u64, event_idx as u64],
        ))
    }
}

/// SplitMix64-style mixer: folds `words` into `seed` with full-avalanche
/// finalization, so neighbouring sites get unrelated streams.
fn mix(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &w in words {
        h = h.wrapping_add(w).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
    }
    h = (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 30)
}

impl FaultHook for FaultPlan {
    fn corrupt_recording(
        &self,
        site: InjectionSite,
        rec: &mut BinauralRecording,
    ) -> Vec<&'static str> {
        let mut applied = Vec::new();
        for (k, event) in self.events.iter().enumerate() {
            if !event.applies(site.stop, site.attempt) {
                continue;
            }
            match event.kind {
                FaultKind::DropChirp => {
                    for v in rec.left.iter_mut().chain(rec.right.iter_mut()) {
                        *v = 0.0;
                    }
                }
                FaultKind::TruncateChirp { keep_fraction } => {
                    for ch in [&mut rec.left, &mut rec.right] {
                        let keep = ((ch.len() as f64) * keep_fraction) as usize;
                        for v in ch.iter_mut().skip(keep) {
                            *v = 0.0;
                        }
                    }
                }
                FaultKind::Clip { level } => {
                    let peak = rec
                        .left
                        .iter()
                        .chain(rec.right.iter())
                        .map(|v| v.abs())
                        .fold(0.0f64, f64::max);
                    let ceiling = level * peak;
                    if ceiling > 0.0 {
                        for v in rec.left.iter_mut().chain(rec.right.iter_mut()) {
                            *v = v.clamp(-ceiling, ceiling);
                        }
                    }
                }
                FaultKind::SnrCollapse { snr_db } => {
                    let level = rms(&rec.left).max(rms(&rec.right));
                    let noise_rms = level / 10f64.powf(snr_db / 20.0);
                    // Uniform noise has RMS = amplitude/√3.
                    let amp = noise_rms * 3f64.sqrt();
                    // A silent recording, or a target SNR so high the noise
                    // underflows to zero (or overflows), gets no noise.
                    if amp > 0.0 && amp.is_finite() {
                        let mut rng = self.site_rng(site.stop, site.attempt, k);
                        for v in rec.left.iter_mut().chain(rec.right.iter_mut()) {
                            *v += rng.gen_range(-amp..amp);
                        }
                    }
                }
                // Gyro and structural faults act elsewhere.
                FaultKind::GyroDropout { .. }
                | FaultKind::GyroSaturation { .. }
                | FaultKind::TimestampJitter { .. }
                | FaultKind::DuplicateStop
                | FaultKind::ReorderStops => continue,
            }
            applied.push(event.kind.class());
        }
        applied
    }

    fn corrupt_rates(&self, rates_dps: &mut [f64]) -> Vec<&'static str> {
        let n = rates_dps.len();
        if n == 0 {
            return Vec::new();
        }
        let mut applied = Vec::new();
        for event in &self.events {
            match event.kind {
                FaultKind::GyroDropout { start, length } => {
                    let from = ((n as f64) * start) as usize;
                    let to = (((n as f64) * (start + length)) as usize).min(n);
                    for v in rates_dps[from.min(n)..to].iter_mut() {
                        *v = 0.0;
                    }
                }
                FaultKind::GyroSaturation { max_dps } => {
                    for v in rates_dps.iter_mut() {
                        *v = v.clamp(-max_dps, max_dps);
                    }
                }
                _ => continue,
            }
            applied.push(event.kind.class());
        }
        applied
    }

    fn stop_schedule(&self, stop: usize, stops: usize) -> StopSchedule {
        let mut sched = StopSchedule::identity(stop);
        for (k, event) in self.events.iter().enumerate() {
            match event.kind {
                FaultKind::DuplicateStop if event.stop == Some(stop) => {
                    // The user lingered: this stop re-captures the
                    // previous position (or the next, at the start).
                    sched.source = if stop > 0 { stop - 1 } else { 1.min(stops - 1) };
                    sched.faults.push(class::DUPLICATE);
                }
                FaultKind::ReorderStops => {
                    if let Some(i) = event.stop {
                        if i + 1 < stops {
                            if stop == i {
                                sched.source = i + 1;
                                sched.faults.push(class::REORDER);
                            } else if stop == i + 1 {
                                sched.source = i;
                                sched.faults.push(class::REORDER);
                            }
                        }
                    }
                }
                FaultKind::TimestampJitter { jitter_s }
                    if (event.stop.is_none() || event.stop == Some(stop)) && jitter_s > 0.0 =>
                {
                    let mut rng = self.site_rng(stop, 0, k);
                    sched.jitter_s += rng.gen_range(-jitter_s..jitter_s);
                    sched.faults.push(class::JITTER);
                }
                _ => {}
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> BinauralRecording {
        let left: Vec<f64> = (0..512).map(|k| ((k as f64) * 0.1).sin()).collect();
        let right: Vec<f64> = (0..512).map(|k| ((k as f64) * 0.13).cos() * 0.8).collect();
        BinauralRecording { left, right }
    }

    fn site(stop: usize, attempt: usize) -> InjectionSite {
        InjectionSite { stop, attempt }
    }

    #[test]
    fn empty_plan_is_a_noop_everywhere() {
        let plan = FaultPlan::empty();
        let clean = recording();
        let mut rec = recording();
        assert!(plan.corrupt_recording(site(3, 0), &mut rec).is_empty());
        assert_eq!(rec.left, clean.left);
        assert_eq!(rec.right, clean.right);
        let mut rates = vec![1.0, 2.0, 3.0];
        assert!(plan.corrupt_rates(&mut rates).is_empty());
        assert_eq!(rates, vec![1.0, 2.0, 3.0]);
        let sched = plan.stop_schedule(5, 10);
        assert_eq!(sched.source, 5);
        assert_eq!(sched.jitter_s, 0.0);
        assert!(sched.faults.is_empty());
    }

    #[test]
    fn drop_zeroes_only_the_target_stop() {
        let plan = FaultPlan::parse("drop@2", 7).unwrap();
        let mut hit = recording();
        assert_eq!(
            plan.corrupt_recording(site(2, 0), &mut hit),
            vec![class::DROP]
        );
        assert!(hit.left.iter().chain(hit.right.iter()).all(|&v| v == 0.0));
        let clean = recording();
        let mut miss = recording();
        assert!(plan.corrupt_recording(site(1, 0), &mut miss).is_empty());
        assert_eq!(miss.left, clean.left);
    }

    #[test]
    fn truncate_keeps_leading_fraction() {
        let plan = FaultPlan::parse("truncate:0.25", 7).unwrap();
        let clean = recording();
        let mut rec = recording();
        plan.corrupt_recording(site(0, 0), &mut rec);
        let keep = 512 / 4;
        assert_eq!(&rec.left[..keep], &clean.left[..keep]);
        assert!(rec.left[keep..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clip_bounds_amplitude() {
        let plan = FaultPlan::parse("clip:0.5", 7).unwrap();
        let mut rec = recording();
        let peak = rec
            .left
            .iter()
            .chain(rec.right.iter())
            .map(|v| v.abs())
            .fold(0.0f64, f64::max);
        plan.corrupt_recording(site(0, 0), &mut rec);
        let new_peak = rec
            .left
            .iter()
            .chain(rec.right.iter())
            .map(|v| v.abs())
            .fold(0.0f64, f64::max);
        assert!(new_peak <= 0.5 * peak + 1e-12);
    }

    #[test]
    fn snr_collapse_is_deterministic_per_site() {
        let plan = FaultPlan::parse("snr:-6", 42).unwrap();
        let mut a = recording();
        let mut b = recording();
        plan.corrupt_recording(site(4, 0), &mut a);
        plan.corrupt_recording(site(4, 0), &mut b);
        assert_eq!(a.left, b.left, "same site must corrupt identically");
        let mut c = recording();
        plan.corrupt_recording(site(5, 0), &mut c);
        assert_ne!(a.left, c.left, "different stops draw different noise");
        let mut d = recording();
        let other = FaultPlan::parse("snr:-6", 43).unwrap();
        other.corrupt_recording(site(4, 0), &mut d);
        assert_ne!(a.left, d.left, "different plan seeds draw different noise");
    }

    #[test]
    fn snr_collapse_with_vanishing_noise_leaves_the_recording_alone() {
        // 10^(7000/20) overflows, so the noise amplitude is exactly zero.
        for spec in ["snr:7000", "snr:1e308"] {
            let plan = FaultPlan::parse(spec, 3).unwrap();
            let clean = recording();
            let mut rec = recording();
            assert_eq!(
                plan.corrupt_recording(site(0, 0), &mut rec),
                vec![class::SNR]
            );
            assert_eq!(rec.left, clean.left, "{spec}");
        }
    }

    #[test]
    fn transient_faults_heal_on_retry() {
        let plan = FaultPlan::parse("drop@2~", 7).unwrap();
        let mut first = recording();
        assert!(!plan.corrupt_recording(site(2, 0), &mut first).is_empty());
        let clean = recording();
        let mut retry = recording();
        assert!(plan.corrupt_recording(site(2, 1), &mut retry).is_empty());
        assert_eq!(retry.left, clean.left);
    }

    #[test]
    fn gyro_dropout_and_saturation_reshape_rates() {
        let plan = FaultPlan::parse("gyro-dropout:0.5:0.25,gyro-sat:2", 7).unwrap();
        let mut rates = vec![3.0; 100];
        let applied = plan.corrupt_rates(&mut rates);
        assert_eq!(applied, vec![class::GYRO_DROPOUT, class::GYRO_SATURATION]);
        assert!(rates[50..75].iter().all(|&v| v == 0.0), "window zeroed");
        assert!(rates[..50].iter().all(|&v| v == 2.0), "head clamped");
    }

    #[test]
    fn duplicate_and_reorder_remap_sources() {
        let plan = FaultPlan::parse("dup@5,reorder@7", 7).unwrap();
        assert_eq!(plan.stop_schedule(5, 10).source, 4);
        assert_eq!(plan.stop_schedule(7, 10).source, 8);
        assert_eq!(plan.stop_schedule(8, 10).source, 7);
        assert_eq!(plan.stop_schedule(6, 10).source, 6);
        // Reorder at the sweep end has no partner: identity.
        let tail = FaultPlan::parse("reorder@9", 7).unwrap();
        assert_eq!(tail.stop_schedule(9, 10).source, 9);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let plan = FaultPlan::parse("jitter:0.08", 11).unwrap();
        for stop in 0..10 {
            let a = plan.stop_schedule(stop, 10);
            let b = plan.stop_schedule(stop, 10);
            assert_eq!(a.jitter_s, b.jitter_s);
            assert!(a.jitter_s.abs() <= 0.08);
            assert_eq!(a.faults, vec![class::JITTER]);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(matches!(
            FaultPlan::parse("warp@2", 0),
            Err(FaultParseError::UnknownClass(_))
        ));
        assert!(matches!(
            FaultPlan::parse("clip:2.0", 0),
            Err(FaultParseError::BadParam(_))
        ));
        assert!(matches!(
            FaultPlan::parse("drop@first", 0),
            Err(FaultParseError::BadStop(_))
        ));
        assert!(matches!(
            FaultPlan::parse("dup", 0),
            Err(FaultParseError::BadStop(_))
        ));
        for spec in [
            "snr:nan",
            "snr:inf",
            "snr:-inf",
            "gyro-sat:nan",
            "clip:NaN",
            "jitter:inf",
        ] {
            assert!(
                matches!(FaultPlan::parse(spec, 0), Err(FaultParseError::BadParam(_))),
                "{spec} must be rejected"
            );
        }
        assert!(FaultPlan::parse("none", 0).unwrap().events.is_empty());
        assert!(FaultPlan::parse("  ", 0).unwrap().events.is_empty());
    }

    #[test]
    fn parse_roundtrips_a_compound_plan() {
        let plan = FaultPlan::parse("drop@2, snr:-10@4~, clip:0.5, jitter", 3).unwrap();
        assert_eq!(plan.events().len(), 4);
        assert_eq!(
            plan.classes(),
            vec![class::CLIP, class::DROP, class::SNR, class::JITTER]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
        assert!(plan.events()[1].transient);
        assert_eq!(plan.events()[1].stop, Some(4));
        assert_eq!(plan.events()[3].stop, None);
    }

    #[test]
    fn every_class_has_a_preset() {
        for &label in class::ALL {
            let plan = FaultPlan::preset(label, 1).unwrap_or_else(|| {
                panic!("class {label} has no preset");
            });
            assert_eq!(plan.classes(), vec![label]);
        }
        assert!(FaultPlan::preset("warp", 1).is_none());
    }
}
