//! Graceful degradation under injected (or real) measurement faults.
//!
//! The paper's premise is estimation from messy at-home recordings
//! (§4.6, §7): chirps get clipped, SNR collapses in bursts, the gyro
//! drops out, users duplicate or reorder stops. This module defines the
//! contract between the session layer and a fault source — the
//! [`FaultHook`] trait — plus the policy knobs ([`DegradationPolicy`])
//! and the outcome record ([`DegradationReport`]) of a session.
//!
//! Every session runs through this machinery: there is one per-stop
//! capture routine and one pipeline. A run without faults uses the no-op
//! hook [`NoFaults`] and [`DegradationPolicy::CLEAN`] (no re-capture, no
//! stop skipping, no quality floor, no fusion re-weighting), which is the
//! paper's plain pipeline. The fault *implementations* live in the
//! `uniq-faults` crate; `uniq-core` only knows the boundary traits.

use uniq_acoustics::measure::{BinauralRecording, InjectionSite, RecordingInjector};
use uniq_imu::gyro::RateInjector;

/// How one scheduled stop is actually captured under faults: which sweep
/// position the recording really comes from (duplicated/reordered stops),
/// how far its IMU timestamp is jittered, and which structural fault
/// classes produced the remapping.
#[derive(Debug, Clone)]
pub struct StopSchedule {
    /// Sweep index the acoustic capture is taken from (normally `stop`).
    pub source: usize,
    /// Timestamp jitter applied when reading the IMU angle, seconds.
    pub jitter_s: f64,
    /// Labels of the structural fault classes behind this schedule.
    pub faults: Vec<&'static str>,
}

impl StopSchedule {
    /// The un-faulted schedule: capture at the scheduled stop, no jitter.
    pub fn identity(stop: usize) -> Self {
        StopSchedule {
            source: stop,
            jitter_s: 0.0,
            faults: Vec::new(),
        }
    }
}

/// A fault source the session layer can drive: signal-level corruption at
/// the recording and gyro-rate boundaries (the supertraits) plus
/// session-level structure (stop remapping and timestamp jitter).
///
/// Implementations must be deterministic functions of their own state and
/// the method arguments — the session replays them across retries and
/// thread counts and requires bit-identical behavior.
pub trait FaultHook: RecordingInjector + RateInjector {
    /// Schedule for `stop` out of `stops` scheduled sweep stops.
    fn stop_schedule(&self, stop: usize, stops: usize) -> StopSchedule {
        let _ = stops;
        StopSchedule::identity(stop)
    }
}

/// The hook of a run without faults: corrupts nothing, remaps nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl RecordingInjector for NoFaults {
    fn corrupt_recording(&self, _: InjectionSite, _: &mut BinauralRecording) -> Vec<&'static str> {
        Vec::new()
    }
}

impl RateInjector for NoFaults {
    fn corrupt_rates(&self, _: &mut [f64], _: f64) -> Vec<&'static str> {
        Vec::new()
    }
}

impl FaultHook for NoFaults {}

/// Policy for skip/retry of corrupted stops and fusion re-weighting.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPolicy {
    /// Extra capture attempts per stop after a failed or below-floor one.
    pub stop_retries: usize,
    /// Drop stops that stay unusable after retries (instead of failing the
    /// whole session).
    pub skip_failed_stops: bool,
    /// Quality score below which a stop is treated as corrupted.
    pub quality_floor: f64,
    /// Weight fusion by per-stop quality (healthy stops keep weight 1.0).
    pub reweight_fusion: bool,
}

impl DegradationPolicy {
    /// The plain pipeline's policy: every stop is captured once and kept,
    /// a stop whose channel has no first tap fails the session, and
    /// fusion weighs all stops equally.
    pub const CLEAN: DegradationPolicy = DegradationPolicy {
        stop_retries: 0,
        skip_failed_stops: false,
        quality_floor: f64::NEG_INFINITY,
        reweight_fusion: false,
    };
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            stop_retries: 1,
            skip_failed_stops: true,
            quality_floor: 0.25,
            reweight_fusion: true,
        }
    }
}

/// Fusion weight for a surviving stop of the given quality score: full
/// weight at or above `2 × quality_floor`-ish health (score ≥ 0.5), linear
/// below. Healthy stops map to exactly 1.0, the weight every stop gets
/// when fusion is not re-weighted.
pub fn fusion_weight(score: f64) -> f64 {
    (score * 2.0).clamp(0.0, 1.0)
}

/// One stop's fate under the degradation policy.
#[derive(Debug, Clone, PartialEq)]
pub struct StopDegradation {
    /// Scheduled stop index along the sweep.
    pub stop: usize,
    /// Sweep index the capture was actually taken from.
    pub source_stop: usize,
    /// Capture attempts spent on this stop (≥ 1).
    pub attempts: usize,
    /// Whether the stop survived into the session.
    pub used: bool,
    /// Quality score of the surviving estimate (0.0 when dropped).
    pub quality: f64,
    /// Fault-class labels that touched this stop (sorted, deduplicated).
    pub faults: Vec<&'static str>,
}

/// What a degraded session kept, dropped and saw — the record surfaced
/// through `uniq-obs` metrics and `uniq personalize --fault-plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Stops the sweep scheduled.
    pub stops_planned: usize,
    /// Stops that survived into fusion.
    pub stops_used: usize,
    /// Stops dropped by the policy.
    pub stops_dropped: usize,
    /// Total capture retries spent across stops.
    pub retries: usize,
    /// Every fault class observed, sorted and deduplicated.
    pub fault_classes: Vec<&'static str>,
    /// Mean quality over surviving stops (1.0 when none survive is never
    /// reported — the session errors out first).
    pub mean_quality: f64,
    /// Minimum quality over surviving stops.
    pub min_quality: f64,
    /// Per-stop detail, in sweep order.
    pub stops: Vec<StopDegradation>,
}

impl DegradationReport {
    /// Builds the report from per-stop outcomes (in sweep order) plus any
    /// session-global fault labels (e.g. gyro-stream corruption, which has
    /// no single stop to blame).
    pub fn from_stops(stops: Vec<StopDegradation>, global_faults: &[&'static str]) -> Self {
        let stops_planned = stops.len();
        let used: Vec<&StopDegradation> = stops.iter().filter(|s| s.used).collect();
        let stops_used = used.len();
        let retries = stops.iter().map(|s| s.attempts.saturating_sub(1)).sum();
        let mut fault_classes: Vec<&'static str> = stops
            .iter()
            .flat_map(|s| s.faults.iter().copied())
            .chain(global_faults.iter().copied())
            .collect();
        fault_classes.sort_unstable();
        fault_classes.dedup();
        let mean_quality = if used.is_empty() {
            0.0
        } else {
            used.iter().map(|s| s.quality).sum::<f64>() / used.len() as f64
        };
        let min_quality = used
            .iter()
            .map(|s| s.quality)
            .fold(f64::INFINITY, f64::min)
            .min(1.0);
        DegradationReport {
            stops_planned,
            stops_used,
            stops_dropped: stops_planned - stops_used,
            retries,
            fault_classes,
            mean_quality,
            min_quality,
            stops,
        }
    }

    /// True when no fault touched the session: every stop used on its
    /// first attempt, from its own sweep position, at full quality.
    pub fn is_clean(&self) -> bool {
        self.stops_dropped == 0
            && self.retries == 0
            && self.fault_classes.is_empty()
            && self.stops.iter().all(|s| s.used && s.source_stop == s.stop)
    }

    /// Fusion weights for the surviving stops, in sweep order (same
    /// length as the session's stop list).
    pub fn fusion_weights(&self) -> Vec<f64> {
        self.stops
            .iter()
            .filter(|s| s.used)
            .map(|s| fusion_weight(s.quality))
            .collect()
    }

    /// Renders the report as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"stops_planned\":{}", self.stops_planned));
        out.push_str(&format!(",\"stops_used\":{}", self.stops_used));
        out.push_str(&format!(",\"stops_dropped\":{}", self.stops_dropped));
        out.push_str(&format!(",\"retries\":{}", self.retries));
        out.push_str(",\"fault_classes\":[");
        for (k, class) in self.fault_classes.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{class}\""));
        }
        out.push_str(&format!("],\"mean_quality\":{:.6}", self.mean_quality));
        out.push_str(&format!(",\"min_quality\":{:.6}", self.min_quality));
        out.push_str(",\"stops\":[");
        for (k, s) in self.stops.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stop\":{},\"source_stop\":{},\"attempts\":{},\"used\":{},\"quality\":{:.6},\"faults\":[",
                s.stop, s.source_stop, s.attempts, s.used, s.quality
            ));
            for (j, class) in s.faults.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{class}\""));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "degradation: {} planned, {} used, {} dropped, {} retried",
            self.stops_planned, self.stops_used, self.stops_dropped, self.retries
        )?;
        writeln!(
            f,
            "fault classes: {}",
            if self.fault_classes.is_empty() {
                "none".to_string()
            } else {
                self.fault_classes.join(", ")
            }
        )?;
        write!(
            f,
            "quality: mean {:.3}, min {:.3}",
            self.mean_quality, self.min_quality
        )?;
        for s in &self.stops {
            if s.used && s.faults.is_empty() && s.attempts == 1 {
                continue; // healthy stop: not worth a line
            }
            write!(
                f,
                "\nstop {:>2}: {} (attempts {}, quality {:.3}{}){}",
                s.stop,
                if s.used { "kept" } else { "DROPPED" },
                s.attempts,
                s.quality,
                if s.source_stop != s.stop {
                    format!(", capture from stop {}", s.source_stop)
                } else {
                    String::new()
                },
                if s.faults.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", s.faults.join(", "))
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stop(i: usize, used: bool, quality: f64, faults: Vec<&'static str>) -> StopDegradation {
        StopDegradation {
            stop: i,
            source_stop: i,
            attempts: 1,
            used,
            quality,
            faults,
        }
    }

    #[test]
    fn report_aggregates_counts_and_classes() {
        let report = DegradationReport::from_stops(
            vec![
                stop(0, true, 1.0, vec![]),
                stop(1, false, 0.0, vec!["snr-collapse", "clip"]),
                stop(2, true, 0.5, vec!["clip"]),
            ],
            &["gyro-dropout"],
        );
        assert_eq!(report.stops_planned, 3);
        assert_eq!(report.stops_used, 2);
        assert_eq!(report.stops_dropped, 1);
        assert_eq!(
            report.fault_classes,
            vec!["clip", "gyro-dropout", "snr-collapse"]
        );
        assert!((report.mean_quality - 0.75).abs() < 1e-12);
        assert!((report.min_quality - 0.5).abs() < 1e-12);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_report_detected() {
        let report = DegradationReport::from_stops(
            (0..5).map(|i| stop(i, true, 1.0, vec![])).collect(),
            &[],
        );
        assert!(report.is_clean());
        assert_eq!(report.fusion_weights(), vec![1.0; 5]);
    }

    #[test]
    fn fusion_weight_saturates_and_scales() {
        assert_eq!(fusion_weight(1.0), 1.0);
        assert_eq!(fusion_weight(0.5), 1.0);
        assert!((fusion_weight(0.25) - 0.5).abs() < 1e-12);
        assert_eq!(fusion_weight(0.0), 0.0);
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = DegradationReport::from_stops(
            vec![
                stop(0, true, 1.0, vec![]),
                stop(1, false, 0.0, vec!["drop"]),
            ],
            &[],
        );
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"stops_used\":1"));
        assert!(json.contains("\"fault_classes\":[\"drop\"]"));
    }

    #[test]
    fn display_lists_only_touched_stops() {
        let report = DegradationReport::from_stops(
            vec![
                stop(0, true, 1.0, vec![]),
                stop(1, false, 0.0, vec!["drop"]),
            ],
            &[],
        );
        let text = report.to_string();
        assert!(text.contains("stop  1: DROPPED"));
        assert!(!text.contains("stop  0:"), "healthy stop listed: {text}");
    }
}
