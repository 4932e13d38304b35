//! Channel estimation from binaural recordings.
//!
//! Recovers the acoustic channel (the raw HRIR plus room taps) from what
//! the earphones recorded, then applies UNIQ's two §4.6 pre-processing
//! steps: system-response compensation and room-echo time gating. The
//! result carries the sub-sample first-tap positions that drive the
//! sensor-fusion geometry (Fig 9: "we are interested only in the first
//! peaks at the two ears").

use crate::config::{UniqConfig, DECONV_NOISE_FLOOR, TAP_THRESHOLD};
use uniq_acoustics::measure::BinauralRecording;
use uniq_acoustics::types::BinauralIr;
use uniq_dsp::deconv::{transform_size, ProbeSpectrum};
use uniq_dsp::peaks::{first_tap, truncate_after};
use uniq_par::ThreadPool;

/// An estimated, cleaned binaural channel.
#[derive(Debug, Clone)]
pub struct EstimatedChannel {
    /// The gated (room-echo-free) binaural impulse response.
    pub ir: BinauralIr,
    /// Sub-sample first-tap position of the left channel, samples.
    pub tap_left: f64,
    /// Sub-sample first-tap position of the right channel, samples.
    pub tap_right: f64,
}

impl EstimatedChannel {
    /// Relative first-tap delay (right minus left), samples — the Δt of
    /// Eq. 1.
    pub fn relative_delay(&self) -> f64 {
        self.tap_right - self.tap_left
    }

    /// Converts a first-tap position to a propagation path length in
    /// metres, removing the known synchronization base delay.
    pub fn tap_to_metres(tap_samples: f64, cfg: &UniqConfig) -> f64 {
        (tap_samples / cfg.render.sample_rate - cfg.render.base_delay) * uniq_dsp::SPEED_OF_SOUND
    }
}

/// First-tap SNR in dB: the channel's peak amplitude at/after the tap
/// against the RMS of everything strictly before it. Returns `None` when
/// there are no pre-tap samples or the floor is exactly zero (noise-free
/// synthetic channels have no meaningful SNR).
pub(crate) fn first_tap_snr_db(sig: &[f64], tap_position: f64) -> Option<f64> {
    let cut = (tap_position.floor() as usize).min(sig.len());
    // Leave a guard of a few samples before the tap out of the floor: the
    // tap's own rising edge is signal, not noise.
    let floor_end = cut.saturating_sub(4);
    if floor_end == 0 {
        return None;
    }
    let floor_rms = (sig[..floor_end].iter().map(|v| v * v).sum::<f64>() / floor_end as f64).sqrt();
    if floor_rms <= 0.0 {
        return None;
    }
    let peak = sig[cut..]
        .iter()
        .map(|v| v.abs())
        .fold(0.0f64, f64::max)
        .max(sig.get(cut).map(|v| v.abs()).unwrap_or(0.0));
    if peak <= 0.0 {
        return None;
    }
    Some(20.0 * (peak / floor_rms).log10())
}

/// Quality score floor and ceiling of the first-tap SNR component, dB.
/// Below `SNR_FLOOR_DB` a tap is indistinguishable from the noise floor
/// (score 0); at or above `SNR_FULL_DB` the estimate is as good as a clean
/// capture gets (score exactly 1, so healthy stops keep unit weight in the
/// re-weighted fusion and the clean path stays bit-identical).
const QUALITY_SNR_FLOOR_DB: f64 = 3.0;
const QUALITY_SNR_FULL_DB: f64 = 18.0;

/// Longest physically plausible first-tap path difference between the two
/// ears, metres. The anthropometric box tops out near 0.15 m half-width;
/// with diffraction wrap no real geometry exceeds this — a larger |Δt|
/// means the taps latched onto noise or clipping artefacts.
const QUALITY_MAX_ITD_PATH_M: f64 = 0.40;

/// Per-stop quality of an estimated channel, `[0, 1]`.
///
/// Used by the degradation policy of faulted sessions to decide which
/// stops to keep and how to weight them in fusion. The score is `1.0` for
/// any healthy capture (SNR saturates well below clean operating points),
/// so scoring a clean session never perturbs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopQuality {
    /// Worst-ear first-tap SNR, dB (`None` when no pre-tap floor exists —
    /// treated as clean).
    pub snr_db: Option<f64>,
    /// Whether the inter-ear tap delay is physically plausible.
    pub itd_ok: bool,
    /// Combined score in `[0, 1]`.
    pub score: f64,
}

/// Scores an estimated channel: first-tap SNR (worst ear) mapped onto
/// `[0, 1]`, zeroed outright when the inter-ear delay is physically
/// impossible for any head in the anthropometric box. Each ear's SNR is
/// emitted as `channel.first_tap_snr_db`.
pub fn stop_quality(channel: &EstimatedChannel, cfg: &UniqConfig) -> StopQuality {
    let left = first_tap_snr_db(&channel.ir.left, channel.tap_left);
    let right = first_tap_snr_db(&channel.ir.right, channel.tap_right);
    for snr in [left, right].into_iter().flatten() {
        uniq_obs::metric(uniq_obs::names::CHANNEL_FIRST_TAP_SNR_DB, snr, "dB");
    }
    let snr_db = match (left, right) {
        (Some(l), Some(r)) => Some(l.min(r)),
        (Some(v), None) | (None, Some(v)) => Some(v),
        (None, None) => None,
    };
    let snr_score = match snr_db {
        // No measurable floor = synthetic/noise-free channel: clean.
        None => 1.0,
        Some(snr) => ((snr - QUALITY_SNR_FLOOR_DB) / (QUALITY_SNR_FULL_DB - QUALITY_SNR_FLOOR_DB))
            .clamp(0.0, 1.0),
    };
    let itd_path_m =
        (channel.relative_delay() / cfg.render.sample_rate * uniq_dsp::SPEED_OF_SOUND).abs();
    let itd_ok = itd_path_m <= QUALITY_MAX_ITD_PATH_M;
    StopQuality {
        snr_db,
        itd_ok,
        score: if itd_ok { snr_score } else { 0.0 },
    }
}

/// Errors from channel estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// No tap rose above the detection threshold in one or both ears.
    NoFirstTap,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::NoFirstTap => write!(f, "no detectable first tap in the channel"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Estimates the binaural channel from a recording of `probe`.
///
/// Steps: Wiener deconvolution per ear → system-response compensation
/// (using `system_ir` from calibration) → first-tap detection → room-echo
/// gating `room_gate_s` after the earlier first tap.
pub fn estimate_channel(
    recording: &BinauralRecording,
    probe: &[f64],
    system_ir: &[f64],
    cfg: &UniqConfig,
) -> Result<EstimatedChannel, ChannelError> {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_CHANNEL_ESTIMATE);
    let pool = uniq_par::pool(cfg.threads);
    let (raw_left, raw_right) = deconvolve_ears(
        [&recording.left, &recording.right],
        probe,
        cfg.channel_len,
        &pool,
    );
    // System-response compensation (§4.6): the calibrated system IR is
    // divided out of both ears, Wiener-regularized so the unstable
    // sub-50 Hz region cannot explode. The transforms are short, so the
    // ears run in turn.
    let (mut left, mut right) = deconvolve_ears(
        [&raw_left, &raw_right],
        system_ir,
        cfg.channel_len,
        &uniq_par::pool(1),
    );

    let tl = first_tap(&left, TAP_THRESHOLD).ok_or(ChannelError::NoFirstTap)?;
    let tr = first_tap(&right, TAP_THRESHOLD).ok_or(ChannelError::NoFirstTap)?;

    // Gate room reflections: keep `room_gate_s` after the earlier tap.
    let gate =
        (tl.position.min(tr.position) + cfg.room_gate_s * cfg.render.sample_rate).ceil() as usize;
    for ear in [&mut left, &mut right] {
        let gate = gate.min(ear.len());
        truncate_after(ear, gate);
    }

    Ok(EstimatedChannel {
        ir: BinauralIr::new(left, right),
        tap_left: tl.position,
        tap_right: tr.position,
    })
}

/// Both ears Wiener-deconvolved against `probe` at [`DECONV_NOISE_FLOOR`],
/// `out_len` taps each, the two ears run as two tasks on `pool`. Each ear
/// gets the bits `uniq_dsp::deconv::wiener_deconvolve` returns for it;
/// ears of one transform size (ears of equal length always are) share one
/// prepared probe spectrum.
pub(crate) fn deconvolve_ears(
    ears: [&[f64]; 2],
    probe: &[f64],
    out_len: usize,
    pool: &ThreadPool,
) -> (Vec<f64>, Vec<f64>) {
    let [left, right] = ears.map(|ear| transform_size(ear.len(), probe.len(), out_len));
    let shared = ProbeSpectrum::new(probe, DECONV_NOISE_FLOOR, left);
    let own = (right != left).then(|| ProbeSpectrum::new(probe, DECONV_NOISE_FLOOR, right));
    let ops = [&shared, own.as_ref().unwrap_or(&shared)];
    let mut out = pool
        .par_map(&[0, 1], |&e| ops[e].deconvolve(ears[e], out_len))
        .into_iter();
    // par_map returns one output per input, in input order.
    (
        out.next().unwrap_or_default(),
        out.next().unwrap_or_default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_acoustics::measure::{record_point_source, MeasurementSetup};
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_geometry::diffraction::path_to_ear;
    use uniq_geometry::{Ear, HeadBoundary, HeadParams, Vec2};

    fn cfg() -> UniqConfig {
        UniqConfig::fast_test()
    }

    fn renderer(c: &UniqConfig) -> Renderer {
        Renderer::new(
            HeadBoundary::new(HeadParams::average_adult(), 1024),
            PinnaModel::from_seed(31),
            PinnaModel::from_seed(32),
            c.render,
        )
    }

    fn calibrated_system(c: &UniqConfig) -> (MeasurementSetup, Vec<f64>) {
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, c.snr_db);
        let sys_ir = setup.system.calibrate(&c.probe(), 256);
        (setup, sys_ir)
    }

    #[test]
    fn recovers_geometric_taps() {
        let c = cfg();
        let r = renderer(&c);
        let (setup, sys_ir) = calibrated_system(&c);
        let src = Vec2::new(-0.4, 0.15);
        let rec = record_point_source(&r, &setup, src, &c.probe(), 1).unwrap();
        let est = estimate_channel(&rec, &c.probe(), &sys_ir, &c).unwrap();

        let pl = path_to_ear(r.boundary(), src, Ear::Left).unwrap();
        let pr = path_to_ear(r.boundary(), src, Ear::Right).unwrap();
        let expect_l = c.render.metres_to_samples(pl.length);
        let expect_r = c.render.metres_to_samples(pr.length);
        assert!(
            (est.tap_left - expect_l).abs() < 2.0,
            "left tap {} vs {expect_l}",
            est.tap_left
        );
        assert!(
            (est.tap_right - expect_r).abs() < 2.0,
            "right tap {} vs {expect_r}",
            est.tap_right
        );
    }

    #[test]
    fn relative_delay_sign_follows_side() {
        let c = cfg();
        let r = renderer(&c);
        let (setup, sys_ir) = calibrated_system(&c);
        // Source on the left → right tap later → positive relative delay.
        let rec = record_point_source(&r, &setup, Vec2::new(-0.45, 0.0), &c.probe(), 2).unwrap();
        let est = estimate_channel(&rec, &c.probe(), &sys_ir, &c).unwrap();
        assert!(est.relative_delay() > 5.0, "Δt = {}", est.relative_delay());
    }

    #[test]
    fn room_echoes_are_gated_out() {
        let c = cfg();
        let r = renderer(&c);
        let setup = MeasurementSetup::home(c.render.sample_rate, c.snr_db);
        let sys_ir = setup.system.calibrate(&c.probe(), 256);
        let src = Vec2::new(-0.4, 0.1);
        let rec = record_point_source(&r, &setup, src, &c.probe(), 3).unwrap();
        let est = estimate_channel(&rec, &c.probe(), &sys_ir, &c).unwrap();

        // Everything after the gate must be zero.
        let gate =
            (est.tap_left.min(est.tap_right) + c.room_gate_s * c.render.sample_rate) as usize;
        let tail: f64 = est.ir.left[gate + 1..].iter().map(|v| v * v).sum();
        assert_eq!(tail, 0.0);

        // And the gated channel should match the anechoic channel's taps.
        let dry_setup = MeasurementSetup::anechoic(c.render.sample_rate, 80.0);
        let dry_sys = dry_setup.system.calibrate(&c.probe(), 256);
        let dry_rec = record_point_source(&r, &dry_setup, src, &c.probe(), 4).unwrap();
        let dry = estimate_channel(&dry_rec, &c.probe(), &dry_sys, &c).unwrap();
        assert!(
            (est.tap_left - dry.tap_left).abs() < 1.0,
            "room shifted the first tap: {} vs {}",
            est.tap_left,
            dry.tap_left
        );
    }

    #[test]
    fn tap_to_metres_roundtrip() {
        let c = cfg();
        // A tap at base_delay + 1 ms of flight = 0.343 m.
        let tap = (c.render.base_delay + 0.001) * c.render.sample_rate;
        let m = EstimatedChannel::tap_to_metres(tap, &c);
        assert!((m - 0.343).abs() < 1e-9);
    }

    #[test]
    fn first_tap_snr_reflects_floor() {
        // Noise floor at RMS 0.01, tap peak 1.0 at sample 100 → 40 dB.
        let mut sig = vec![0.0; 200];
        for (k, v) in sig.iter_mut().enumerate().take(90) {
            *v = if k % 2 == 0 { 0.01 } else { -0.01 };
        }
        sig[100] = 1.0;
        let snr = super::first_tap_snr_db(&sig, 100.0).unwrap();
        assert!((snr - 40.0).abs() < 1.0, "snr {snr}");
        // No pre-tap samples → no SNR.
        assert_eq!(super::first_tap_snr_db(&sig, 0.0), None);
        // Zero floor → no SNR.
        let clean = {
            let mut s = vec![0.0; 64];
            s[32] = 1.0;
            s
        };
        assert_eq!(super::first_tap_snr_db(&clean, 32.0), None);
    }

    #[test]
    fn stop_quality_saturates_for_clean_captures() {
        let c = cfg();
        let r = renderer(&c);
        let (setup, sys_ir) = calibrated_system(&c);
        let rec = record_point_source(&r, &setup, Vec2::new(-0.4, 0.15), &c.probe(), 1).unwrap();
        let est = estimate_channel(&rec, &c.probe(), &sys_ir, &c).unwrap();
        let q = stop_quality(&est, &c);
        assert!(q.itd_ok);
        assert_eq!(
            q.score, 1.0,
            "clean capture must score exactly 1.0 (snr {:?})",
            q.snr_db
        );
    }

    #[test]
    fn stop_quality_zeroes_impossible_itd() {
        let c = cfg();
        let mut ir = vec![0.0; 512];
        ir[40] = 1.0;
        let est = EstimatedChannel {
            ir: BinauralIr::new(ir.clone(), ir),
            tap_left: 40.0,
            // Δt of 200 samples ≈ 1.4 m of path difference: impossible.
            tap_right: 240.0,
        };
        let q = stop_quality(&est, &c);
        assert!(!q.itd_ok);
        assert_eq!(q.score, 0.0);
    }

    #[test]
    fn silent_recording_fails_cleanly() {
        let c = cfg();
        let rec = BinauralRecording {
            left: vec![0.0; 4096],
            right: vec![0.0; 4096],
        };
        let sys_ir = {
            let setup = MeasurementSetup::anechoic(c.render.sample_rate, c.snr_db);
            setup.system.calibrate(&c.probe(), 256)
        };
        let err = estimate_channel(&rec, &c.probe(), &sys_ir, &c).unwrap_err();
        assert_eq!(err, ChannelError::NoFirstTap);
    }

    /// The two-ear helper returns per-ear `wiener_deconvolve` bits at any
    /// pool size, for ears of equal length, of unequal length in one
    /// transform size, and of unequal transform sizes.
    #[test]
    fn deconvolve_ears_matches_per_ear_wiener_bits() {
        use uniq_dsp::deconv::wiener_deconvolve;
        let c = cfg();
        let r = renderer(&c);
        let (setup, _) = calibrated_system(&c);
        let probe = c.probe();
        let rec = record_point_source(&r, &setup, Vec2::new(-0.4, 0.15), &probe, 5).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let full = rec.right.len();
        for right_len in [full, full - 100, full / 3] {
            let right = &rec.right[..right_len];
            let want_left = wiener_deconvolve(&rec.left, &probe, DECONV_NOISE_FLOOR, c.channel_len);
            let want_right = wiener_deconvolve(right, &probe, DECONV_NOISE_FLOOR, c.channel_len);
            for threads in [1, 4] {
                let pool = uniq_par::ThreadPool::new(threads);
                let (left, got_right) =
                    deconvolve_ears([&rec.left, right], &probe, c.channel_len, &pool);
                assert_eq!(
                    bits(&left),
                    bits(&want_left),
                    "{right_len}, {threads} threads"
                );
                assert_eq!(
                    bits(&got_right),
                    bits(&want_right),
                    "{right_len}, {threads} threads"
                );
            }
        }
        let size = |len: usize| transform_size(len, probe.len(), c.channel_len);
        assert_eq!(size(full - 100), size(full));
        assert_ne!(size(full / 3), size(full));
    }

    #[test]
    fn compensation_flattens_channel() {
        // A channel measured through the system, then compensated, should
        // recover the in-band structure of the raw channel.
        let sr = 48_000.0;
        let sys = uniq_acoustics::system::SystemResponse::budget_hardware(sr);
        let mut channel = vec![0.0; 128];
        channel[10] = 1.0;
        channel[30] = -0.4;
        let coloured = sys.apply(&channel);
        let probe = uniq_dsp::signal::linear_chirp(50.0, 20_000.0, 0.1, sr);
        let sys_ir = sys.calibrate(&probe, 128);
        let (restored, _) =
            deconvolve_ears([&coloured, &coloured], &sys_ir, 128, &uniq_par::pool(1));
        // Peaks should be back near their raw amplitudes/locations.
        assert!(restored[10] > 0.7, "main tap lost: {}", restored[10]);
        assert!(restored[30] < -0.25, "echo tap lost: {}", restored[30]);
    }
}
