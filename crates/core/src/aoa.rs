//! HRTF-aware binaural angle-of-arrival estimation (§4.5).
//!
//! Earphone microphones sit behind head diffraction and pinna multipath,
//! so classical array AoA does not apply; UNIQ instead matches recordings
//! against the personalized HRTF template:
//!
//! * **Known source** (Eq. 9): estimate both ear channels by
//!   deconvolution, then minimize
//!   `T(θ) = λ·|t₀ − t(θ)| + [1 − c_L(θ)] + [1 − c_R(θ)]`
//!   over the template bank, combining the first-tap TDoA with the
//!   time-domain channel shapes.
//! * **Unknown source** (Eqs. 10–11): the per-ear channels are
//!   unavailable, so work with the *relative* channel — candidate TDoAs
//!   from its correlation peaks map to front/back angle pairs, and the
//!   multiplicative identity `L·HRTF_R(θ) = R·HRTF_L(θ)` picks the true
//!   one.
//!
//! Both estimators score only what can win, and return the angle a full
//! sweep returns:
//!
//! * Each peak-normalized correlation in Eq. 9 is at most 1, so
//!   `λ·|t₀ − t(θ)|` is a lower bound on a template's cost. The two
//!   templates with the smallest bound are scored first; then every
//!   template whose bound is within a round-off margin of the best cost
//!   so far, skipping its right ear once the delay and left-ear terms
//!   alone exceed that cost. The scored costs are folded in bank order
//!   with strict `<`, as the full sweep folds them.
//! * Eq. 11's cost `num/den`, with `num = Σ_k |L·H_R − R·H_L|²` and
//!   `den = Σ_k |L·H_R|² + |R·H_L|²` over the `n` bins of the transform,
//!   is evaluated in the lag domain. By Parseval, with `A_x(τ) =
//!   Σ_u x(u)·x(u + τ)` and `C_ℓr(d) = Σ_u r(u)·ℓ(u + d)` for the
//!   recording windows ℓ and r, and `C_h(d) = Σ_u h_R(u)·h_L(u + d)` for
//!   an entry's HRIRs of `L` taps:
//!
//!   `den/n = Σ_τ A_ℓ(τ)·A_hR(τ) + A_r(τ)·A_hL(τ)`,
//!   `num/n = den/n − 2·Σ_d C_ℓr(d)·C_h(d)`,
//!
//!   summed over `|τ|, |d| < L` (the HRIR terms vanish beyond). `n`
//!   cancels in the ratio. `C_ℓr` is Eq. 10's cross-correlation, the
//!   recording's autocorrelations cost one inverse FFT per call, and the
//!   HRIR terms (`4L − 1` values per entry) are cached on the bank, so a
//!   candidate costs a few `L` multiply-adds instead of `n` complex bins.

use std::sync::Arc;

use crate::channel::wiener_operator;
use crate::config::{UniqConfig, AOA_LAMBDA, TAP_THRESHOLD};
use uniq_acoustics::measure::BinauralRecording;
use uniq_acoustics::types::{BinauralIr, HrirBank};
use uniq_dsp::fft::{ifft_in_place, next_pow2, rfft_padded};
use uniq_dsp::peaks::{find_peaks, first_tap};
use uniq_dsp::xcorr::{peak_normalized_xcorr_prepared, xcorr, XcorrOperand};
use uniq_dsp::Complex;

/// Slack on Eq. 9's lower bound: a template is skipped only when its
/// bound exceeds the best cost by more than this, which covers the
/// round-off by which a computed correlation may exceed 1.
const BOUND_MARGIN: f64 = 1e-9;

/// Per-angle template features precomputed from a far-field bank.
#[derive(Debug, Clone)]
pub struct AoaTemplates {
    angles: Vec<f64>,
    /// Relative first-tap delay `t(θ) = tap_R − tap_L`, samples.
    t_rel: Vec<f64>,
    /// Index of each kept angle's entry in the bank.
    bank_index: Vec<usize>,
}

impl AoaTemplates {
    /// Extracts the TDoA feature curve from a far-field bank. Entries
    /// without a first tap on both ears are skipped. First taps use
    /// [`TAP_THRESHOLD`]: the configuration is not read, and the parameter
    /// stays so existing callers keep compiling. The features are built
    /// once per bank and cached on it ([`HrirBank::derived`]).
    pub fn from_bank(bank: &HrirBank, _cfg: &UniqConfig) -> Self {
        Self::cached(bank).as_ref().clone()
    }

    fn cached(bank: &HrirBank) -> Arc<Self> {
        bank.derived(0, |bank| {
            let mut angles = Vec::with_capacity(bank.len());
            let mut t_rel = Vec::with_capacity(bank.len());
            let mut bank_index = Vec::with_capacity(bank.len());
            for (i, (&a, ir)) in bank.angles().iter().zip(bank.irs()).enumerate() {
                let tl = first_tap(&ir.left, TAP_THRESHOLD);
                let tr = first_tap(&ir.right, TAP_THRESHOLD);
                if let (Some(tl), Some(tr)) = (tl, tr) {
                    angles.push(a);
                    t_rel.push(tr.position - tl.position);
                    bank_index.push(i);
                }
            }
            AoaTemplates {
                angles,
                t_rel,
                bank_index,
            }
        })
    }
}

/// Known-source AoA (Eq. 9): returns the estimated angle in degrees.
///
/// `bank` is the personalized (or global, for the baseline) far-field
/// HRTF template. The templates' reversed spectra are cached on the bank
/// ([`HrirBank::derived`]), so each scored template costs one spectrum
/// product and one inverse FFT per ear; templates whose delay term alone
/// exceeds the best cost are not scored (see the module docs).
pub fn estimate_known_source(
    recording: &BinauralRecording,
    source: &[f64],
    bank: &HrirBank,
    cfg: &UniqConfig,
) -> f64 {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_AOA_KNOWN);
    // Ear channels by deconvolution with the known source, both ears in
    // one complex transform.
    let (left, right) = (&recording.left, &recording.right);
    let (ch_left, ch_right) = wiener_operator(source, left.len().max(right.len()), cfg.channel_len)
        .deconvolve_pair(left, right, cfg.channel_len);
    let pool = uniq_par::pool(cfg.threads);

    let t0 = match (
        first_tap(&ch_left, TAP_THRESHOLD),
        first_tap(&ch_right, TAP_THRESHOLD),
    ) {
        (Some(l), Some(r)) => r.position - l.position,
        _ => 0.0,
    };

    // The transform size `peak_normalized_xcorr(channel, template)` uses;
    // both channels are `channel_len` long.
    let n = next_pow2(ch_left.len() + bank.irs()[0].len() - 1);
    let lead_left = XcorrOperand::leading(&ch_left, n);
    let lead_right = XcorrOperand::leading(&ch_right, n);
    let operands = bank.derived(n, |bank| {
        TemplateOperands(pool.par_map(bank.irs(), |ir| {
            [&ir.left, &ir.right].map(|ear| XcorrOperand::trailing(ear, n))
        }))
    });
    let templates = AoaTemplates::cached(bank);
    let bound = |w: usize| AOA_LAMBDA * (t0 - templates.t_rel[w]).abs();
    // A template's cost, or infinity once its delay and left-ear terms
    // alone exceed `cutoff` (the right-ear term is at most 1 too).
    let score = |w: usize, cutoff: f64| {
        let [left, right] = &operands.0[templates.bank_index[w]];
        let c_l = peak_normalized_xcorr_prepared(&lead_left, left);
        let partial = bound(w) + (1.0 - c_l);
        if partial > cutoff {
            return f64::INFINITY;
        }
        let c_r = peak_normalized_xcorr_prepared(&lead_right, right);
        partial + (1.0 - c_r)
    };
    // Templates in order of their lower bound (bank order among equal
    // bounds). Score the first two, then every later one whose bound
    // does not exceed their best cost; each set's costs are independent,
    // so they are computed across the pool.
    let mut order: Vec<usize> = (0..templates.angles.len()).collect();
    order.sort_by(|&a, &b| bound(a).total_cmp(&bound(b)));
    let (seed, rest) = order.split_at(order.len().min(2));
    let mut scored: Vec<(usize, f64)> = seed
        .iter()
        .copied()
        .zip(pool.par_map(seed, |&w| score(w, f64::INFINITY)))
        .collect();
    let cutoff = scored.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min) + BOUND_MARGIN;
    let survivors: Vec<usize> = rest
        .iter()
        .copied()
        .take_while(|&w| bound(w) <= cutoff)
        .collect();
    scored.extend(
        survivors
            .iter()
            .copied()
            .zip(pool.par_map(&survivors, |&w| score(w, cutoff))),
    );
    uniq_obs::counter(uniq_obs::names::AOA_TEMPLATES_SCORED, scored.len() as u64);
    // Every skipped template costs more than the best, so the argmin is
    // the full sweep's: the same sequential strict-< fold in bank order
    // (first minimum wins), bit-identical at any thread count.
    scored.sort_unstable_by_key(|&(w, _)| w);
    let mut best = (f64::INFINITY, 0.0);
    for &(w, cost) in &scored {
        if cost < best.0 {
            best = (cost, templates.angles[w]);
        }
    }
    best.1
}

/// Eq. 9's template side at one transform size: each bank entry's ears as
/// trailing correlation operands (the spectra of the reversed HRIRs),
/// index-aligned with the bank and cached on it per size.
struct TemplateOperands(Vec<[XcorrOperand; 2]>);

/// Unknown-source AoA (Eqs. 10–11): returns the estimated angle in
/// degrees.
///
/// Eq. 11 is scored in the lag domain (see the module docs): the HRIR
/// terms come from the bank's cache ([`HrirBank::derived`]); only the
/// recording is transformed per call. Both ears are windowed to the first
/// 16,384 samples of the shorter one.
///
/// # Panics
/// Panics if no entry of `bank` has a first tap on both ears (an all-silent
/// far grid, which `uniq_store::HrtfArtifact::to_table` refuses to load).
pub fn estimate_unknown_source(
    recording: &BinauralRecording,
    bank: &HrirBank,
    cfg: &UniqConfig,
) -> f64 {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_AOA_UNKNOWN);
    // Relative channel between the ears: cross-correlation peaks give
    // candidate TDoAs (Fig 14: multiple peaks due to pinna multipath).
    let window = 16_384.min(recording.left.len()).min(recording.right.len());
    let left = &recording.left[..window];
    let right = &recording.right[..window];
    let r = xcorr(left, right);
    let peaks = find_peaks(&r, 0.5, 3);
    let zero_lag = right.len() as f64 - 1.0;

    let templates = AoaTemplates::cached(bank);
    // Map each candidate TDoA to template angles whose t(θ) matches;
    // candidates are `(angle, bank index)`.
    let mut candidates: Vec<(f64, usize)> = Vec::new();
    for p in peaks.iter().take(6) {
        // lag convention: a(t) = b(t + lag) → t0 = tap_R − tap_L = +lag.
        let dt = zero_lag - p.position;
        // Find local minima of |t(θ) − dt| (typically one front + one
        // back angle).
        for w in 0..templates.angles.len() {
            let err = (templates.t_rel[w] - dt).abs();
            let better_than_neighbors = {
                let prev = w
                    .checked_sub(1)
                    .map(|i| (templates.t_rel[i] - dt).abs())
                    .unwrap_or(f64::INFINITY);
                let next = templates
                    .t_rel
                    .get(w + 1)
                    .map(|t| (t - dt).abs())
                    .unwrap_or(f64::INFINITY);
                err <= prev && err <= next
            };
            if better_than_neighbors && err < 3.0 {
                candidates.push((templates.angles[w], templates.bank_index[w]));
            }
        }
    }
    let fallback = candidates.is_empty();
    if fallback {
        candidates.extend(
            templates
                .angles
                .iter()
                .copied()
                .zip(templates.bank_index.iter().copied()),
        );
    }
    uniq_obs::counter(uniq_obs::names::AOA_CANDIDATES, candidates.len() as u64);
    uniq_obs::counter(
        uniq_obs::names::AOA_CANDIDATE_FALLBACKS,
        u64::from(fallback),
    );

    // Eq. 11 disambiguation: minimize ‖L·H_R(θ) − R·H_L(θ)‖ relative to
    // ‖L·H_R‖² + ‖R·H_L‖², in the lag domain.
    let ir_len = bank.irs()[0].len();
    let n = next_pow2(window + ir_len);
    let lags = RecordingLags::new(left, right, &r, ir_len);
    let pool = uniq_par::pool(cfg.threads);
    let tables = bank.derived(0, |bank| pool.par_map(bank.irs(), LagTemplate::new));
    // The spectrum form's floor on `den`, in units of `den/n`.
    let floor = 1e-30 / n as f64;
    // Sequential strict-< fold (first minimum wins), as the full sweep.
    let mut best = (f64::INFINITY, candidates[0].0);
    for &(theta, idx) in &candidates {
        let (num, den) = lags.eq11_terms(&tables[idx]);
        let cost = num / den.max(floor);
        if cost < best.0 {
            best = (cost, theta);
        }
    }
    best.1
}

/// Autocorrelations `Σ_u x(u)·x(u + τ)` of two real signals at lags
/// `0..lags`, from their spectra `fx` and `fy` at a size that holds those
/// lags without wrap-around: one inverse FFT of `|X|² + i·|Y|²`.
fn autocorrelations(fx: &[Complex], fy: &[Complex], lags: usize) -> (Vec<f64>, Vec<f64>) {
    let mut buf: Vec<Complex> = fx
        .iter()
        .zip(fy)
        .map(|(x, y)| Complex::new(x.norm_sqr(), y.norm_sqr()))
        .collect();
    ifft_in_place(&mut buf);
    buf[..lags].iter().map(|z| (z.re, z.im)).unzip()
}

/// Eq. 11's HRIR terms for one bank entry of `L` taps per ear, cached on
/// the bank as a `Vec` index-aligned with its entries.
struct LagTemplate {
    /// `A_hL(τ)` and `A_hR(τ)` for `τ` in `0..L` (both are even).
    auto_left: Vec<f64>,
    auto_right: Vec<f64>,
    /// `C_h(d) = Σ_u h_R(u)·h_L(u + d)` at index `d + L − 1`, `|d| < L`.
    cross: Vec<f64>,
}

impl LagTemplate {
    fn new(ir: &BinauralIr) -> Self {
        let taps = ir.len();
        let m = next_pow2(2 * taps);
        let hl = rfft_padded(&ir.left, m);
        let hr = rfft_padded(&ir.right, m);
        let (auto_left, auto_right) = autocorrelations(&hl, &hr, taps);
        let mut circular: Vec<Complex> = hr.iter().zip(&hl).map(|(r, l)| r.conj() * *l).collect();
        ifft_in_place(&mut circular);
        // Negative lags wrap to the end of the circular correlation.
        let cross = circular[m - taps.saturating_sub(1)..]
            .iter()
            .chain(&circular[..taps])
            .map(|z| z.re)
            .collect();
        LagTemplate {
            auto_left,
            auto_right,
            cross,
        }
    }
}

/// Eq. 11's recording terms for windows ℓ and r, at the lags an HRIR of
/// `L` taps can reach: `|τ|, |d| < K = min(L, window)` (the recording
/// correlations vanish beyond the window).
struct RecordingLags<'a> {
    /// `A_ℓ(τ)` and `A_r(τ)` for `τ` in `0..K`.
    auto_left: Vec<f64>,
    auto_right: Vec<f64>,
    /// `C_ℓr(d)` at index `d + K − 1`: the middle of Eq. 10's `xcorr`.
    cross: &'a [f64],
}

impl<'a> RecordingLags<'a> {
    /// `r` is `xcorr(left, right)`.
    fn new(left: &[f64], right: &[f64], r: &'a [f64], ir_len: usize) -> Self {
        let window = left.len();
        let k = ir_len.min(window);
        let n = next_pow2(window + ir_len);
        let (auto_left, auto_right) =
            autocorrelations(&rfft_padded(left, n), &rfft_padded(right, n), k);
        RecordingLags {
            auto_left,
            auto_right,
            cross: &r[window - k..(window + k).saturating_sub(1)],
        }
    }

    /// `(num/n, den/n)` of Eq. 11 against one entry.
    fn eq11_terms(&self, t: &LagTemplate) -> (f64, f64) {
        let k = self.auto_left.len();
        let den: f64 = (0..k)
            .map(|tau| {
                let w = if tau == 0 { 1.0 } else { 2.0 };
                w * (self.auto_left[tau] * t.auto_right[tau]
                    + self.auto_right[tau] * t.auto_left[tau])
            })
            .sum();
        let taps = t.auto_left.len();
        let cross: f64 = self
            .cross
            .iter()
            .zip(&t.cross[taps - k..])
            .map(|(a, b)| a * b)
            .sum();
        (den - 2.0 * cross, den)
    }
}

/// Whether an angle is in the frontal hemisphere (θ < 90°). Used by the
/// Fig 22(d) front-back accuracy metric.
pub fn is_front(theta_deg: f64) -> bool {
    theta_deg.rem_euclid(360.0) < 90.0 || theta_deg.rem_euclid(360.0) > 270.0
}

/// Front-back classification accuracy over `(estimate, truth)` pairs.
pub fn front_back_accuracy(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let correct = pairs
        .iter()
        .filter(|(est, truth)| is_front(*est) == is_front(*truth))
        .count();
    correct as f64 / pairs.len() as f64
}

/// The per-call estimators as they were before the bank's caches
/// (known-source templates aligned by bank index): every call transforms
/// every template it scores. Kept as the oracle the cached path must match
/// bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::config::DECONV_NOISE_FLOOR;

    /// `peak_normalized_xcorr` in its direct form.
    fn similarity(a: &[f64], b: &[f64]) -> f64 {
        let ea: f64 = a.iter().map(|v| v * v).sum();
        let eb: f64 = b.iter().map(|v| v * v).sum();
        if ea <= 0.0 || eb <= 0.0 {
            return 0.0;
        }
        let r = xcorr(a, b);
        let peak = r.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        peak / (ea * eb).sqrt()
    }

    pub fn known_source(
        recording: &BinauralRecording,
        source: &[f64],
        bank: &HrirBank,
        cfg: &UniqConfig,
    ) -> f64 {
        let deconv = |x: &[f64]| {
            uniq_dsp::deconv::wiener_deconvolve(x, source, DECONV_NOISE_FLOOR, cfg.channel_len)
        };
        let (ch_left, ch_right) = (deconv(&recording.left), deconv(&recording.right));
        let t0 = match (
            first_tap(&ch_left, TAP_THRESHOLD),
            first_tap(&ch_right, TAP_THRESHOLD),
        ) {
            (Some(l), Some(r)) => r.position - l.position,
            _ => 0.0,
        };
        let templates = AoaTemplates::from_bank(bank, cfg);
        let mut best = (f64::INFINITY, 0.0);
        for w in 0..templates.angles.len() {
            let ir = &bank.irs()[templates.bank_index[w]];
            let c_l = similarity(&ch_left, &ir.left);
            let c_r = similarity(&ch_right, &ir.right);
            let cost = AOA_LAMBDA * (t0 - templates.t_rel[w]).abs() + (1.0 - c_l) + (1.0 - c_r);
            if cost < best.0 {
                best = (cost, templates.angles[w]);
            }
        }
        best.1
    }

    pub fn unknown_source(recording: &BinauralRecording, bank: &HrirBank, cfg: &UniqConfig) -> f64 {
        let window = 16_384.min(recording.left.len()).min(recording.right.len());
        let left = &recording.left[..window];
        let right = &recording.right[..window];
        let r = xcorr(left, right);
        let peaks = find_peaks(&r, 0.5, 3);
        let zero_lag = right.len() as f64 - 1.0;
        let templates = AoaTemplates::from_bank(bank, cfg);
        let mut candidates: Vec<f64> = Vec::new();
        for p in peaks.iter().take(6) {
            let dt = zero_lag - p.position;
            for w in 0..templates.angles.len() {
                let err = (templates.t_rel[w] - dt).abs();
                let prev = w
                    .checked_sub(1)
                    .map(|i| (templates.t_rel[i] - dt).abs())
                    .unwrap_or(f64::INFINITY);
                let next = templates
                    .t_rel
                    .get(w + 1)
                    .map(|t| (t - dt).abs())
                    .unwrap_or(f64::INFINITY);
                if err <= prev && err <= next && err < 3.0 {
                    candidates.push(templates.angles[w]);
                }
            }
        }
        if candidates.is_empty() {
            candidates.extend_from_slice(&templates.angles);
        }
        let n = next_pow2(window + bank.irs()[0].len());
        let fl = rfft_padded(left, n);
        let fr = rfft_padded(right, n);
        let mut best = (f64::INFINITY, candidates[0]);
        for &theta in &candidates {
            let (ir, _) = bank.nearest(theta);
            let hl = rfft_padded(&ir.left, n);
            let hr = rfft_padded(&ir.right, n);
            let mut num = 0.0;
            let mut den = 0.0;
            for k in 0..n {
                let lhs = fl[k] * hr[k];
                let rhs = fr[k] * hl[k];
                num += (lhs - rhs).norm_sqr();
                den += lhs.norm_sqr() + rhs.norm_sqr();
            }
            let cost = num / den.max(1e-30);
            if cost < best.0 {
                best = (cost, theta);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DECONV_NOISE_FLOOR;
    use std::sync::Arc;
    use uniq_acoustics::measure::{record_plane_wave, MeasurementSetup};
    use uniq_acoustics::signals::{generate, SignalKind};
    use uniq_acoustics::types::BinauralIr;
    use uniq_geometry::vec2::angle_diff_deg;
    use uniq_obs::sink::MemorySink;
    use uniq_subjects::Subject;

    fn cfg() -> UniqConfig {
        UniqConfig::fast_test()
    }

    fn subject() -> Subject {
        Subject::from_seed(90)
    }

    #[test]
    fn known_source_with_own_template_is_accurate() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();

        for truth in [20.0, 75.0, 140.0] {
            let rec = record_plane_wave(&renderer, &setup, truth, &probe, 7);
            let est = estimate_known_source(&rec, &probe, &bank, &c);
            assert!(
                angle_diff_deg(est, truth) <= 10.0,
                "truth {truth}: est {est}"
            );
        }
    }

    #[test]
    fn known_source_with_wrong_template_degrades() {
        let c = cfg();
        let s = subject();
        let other = Subject::from_seed(91);
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let own = renderer.ground_truth_bank(&angles);
        let wrong = other.renderer(c.render, 1024).ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();

        let mut own_err = 0.0;
        let mut wrong_err = 0.0;
        for truth in [30.0, 60.0, 120.0, 150.0] {
            let rec = record_plane_wave(&renderer, &setup, truth, &probe, 8);
            own_err += angle_diff_deg(estimate_known_source(&rec, &probe, &own, &c), truth);
            wrong_err += angle_diff_deg(estimate_known_source(&rec, &probe, &wrong, &c), truth);
        }
        assert!(
            own_err < wrong_err,
            "personal template not better: {own_err} vs {wrong_err}"
        );
    }

    #[test]
    fn unknown_source_white_noise_reasonable() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let sig = generate(SignalKind::WhiteNoise, 0.3, c.render.sample_rate, 3);

        let mut total = 0.0;
        for truth in [25.0, 70.0, 130.0] {
            let rec = record_plane_wave(&renderer, &setup, truth, &sig, 9);
            let est = estimate_unknown_source(&rec, &bank, &c);
            total += angle_diff_deg(est, truth);
        }
        assert!(
            total / 3.0 < 25.0,
            "mean unknown-source error {}",
            total / 3.0
        );
    }

    /// A right ear shorter than the left is windowed with the left cut to
    /// its length, as the oracle does.
    #[test]
    fn unknown_source_windows_on_the_shorter_ear() {
        let c = cfg();
        let renderer = subject().renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let sig = generate(SignalKind::WhiteNoise, 0.3, c.render.sample_rate, 3);
        let rec = record_plane_wave(&renderer, &setup, 70.0, &sig, 9);
        let short = rec.right.len() / 2;
        let uneven = BinauralRecording {
            left: rec.left.clone(),
            right: rec.right[..short].to_vec(),
        };
        let even = BinauralRecording {
            left: rec.left[..short].to_vec(),
            right: uneven.right.clone(),
        };
        let est = estimate_unknown_source(&uneven, &bank, &c);
        assert_eq!(
            est.to_bits(),
            estimate_unknown_source(&even, &bank, &c).to_bits()
        );
        assert_eq!(
            est.to_bits(),
            oracle::unknown_source(&uneven, &bank, &c).to_bits()
        );
    }

    #[test]
    fn front_back_helpers() {
        assert!(is_front(10.0));
        assert!(is_front(89.0));
        assert!(!is_front(91.0));
        assert!(!is_front(180.0));
        assert!(is_front(300.0));
        let pairs = [(10.0, 15.0), (120.0, 130.0), (30.0, 160.0)];
        assert!((front_back_accuracy(&pairs) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn templates_tdoa_monotone_to_ninety() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let t = AoaTemplates::from_bank(&bank, &c);
        // TDoA should rise from ~0 at the front to a maximum near 90°.
        let i0 = 0;
        let i90 = t
            .angles
            .iter()
            .position(|a| (*a - 90.0).abs() < 1e-9)
            .unwrap();
        assert!(t.t_rel[i90] > t.t_rel[i0] + 5.0);
    }

    /// The bank's entries, for building a variant of it (a new bank starts
    /// with an empty cache).
    fn entries(bank: &HrirBank) -> Vec<(f64, BinauralIr)> {
        bank.angles()
            .iter()
            .copied()
            .zip(bank.irs().iter().cloned())
            .collect()
    }

    /// Both estimators against the per-call oracle on a personalized and a
    /// global bank, for every signal kind, at 1 and 4 threads. Each pool
    /// size starts from banks with empty caches, so tables built at either
    /// size are compared, cold and warm.
    #[test]
    fn cached_estimators_match_the_per_call_oracle_bitwise() {
        let base = UniqConfig {
            in_room: false,
            snr_db: 45.0,
            grid_step_deg: 5.0,
            ..cfg()
        };
        let s = subject();
        let personal = crate::pipeline::personalize(&s, &base, 42)
            .expect("personalization succeeds")
            .hrtf
            .far()
            .clone();
        let global = uniq_subjects::global_template(base.render, &base.output_grid());
        let renderer = s.renderer(base.render, 1024);
        let setup = MeasurementSetup::anechoic(base.render.sample_rate, 35.0);
        let sink = Arc::new(MemorySink::new());
        uniq_obs::with_sink(sink.clone(), || {
            for threads in [1, 4] {
                let c = UniqConfig {
                    threads,
                    ..base.clone()
                };
                for (bank, tag) in [(&personal, "personal"), (&global, "global")] {
                    let bank = &HrirBank::new(entries(bank), bank.sample_rate());
                    for (k, kind) in SignalKind::ALL.into_iter().enumerate() {
                        for truth in [11.25, 78.75, 146.25] {
                            let seed = 20_000 + k as u64 * 10 + truth as u64;
                            let sig = generate(kind, 0.4, base.render.sample_rate, seed);
                            let rec = record_plane_wave(&renderer, &setup, truth, &sig, seed + 1);
                            let known = estimate_known_source(&rec, &sig, bank, &c);
                            let want = oracle::known_source(&rec, &sig, bank, &c);
                            assert_eq!(
                                known.to_bits(),
                                want.to_bits(),
                                "known {tag} {kind:?} θ={truth} t={threads}: {known} vs {want}"
                            );
                            let unknown = estimate_unknown_source(&rec, bank, &c);
                            let want = oracle::unknown_source(&rec, bank, &c);
                            assert_eq!(
                                unknown.to_bits(),
                                want.to_bits(),
                                "unknown {tag} {kind:?} θ={truth} t={threads}: {unknown} vs {want}"
                            );
                        }
                    }
                }
            }
        });
        // The comparison covered the all-angles fallback as well as the
        // two-stage path.
        let calls = 2 * 2 * 3 * 3;
        let fallbacks = sink.counter_total(uniq_obs::names::AOA_CANDIDATE_FALLBACKS);
        assert!(
            fallbacks > 0 && fallbacks < calls,
            "{fallbacks} of {calls} calls fell back"
        );
    }

    /// Eq. 11's spectrum sums for windows `left`/`right` against `ir`, at
    /// the size the estimator used before the lag domain.
    fn spectrum_terms(left: &[f64], right: &[f64], ir: &BinauralIr) -> (f64, f64, usize) {
        let n = next_pow2(left.len() + ir.len());
        let (fl, fr) = (rfft_padded(left, n), rfft_padded(right, n));
        let (hl, hr) = (rfft_padded(&ir.left, n), rfft_padded(&ir.right, n));
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 0..n {
            let lhs = fl[k] * hr[k];
            let rhs = fr[k] * hl[k];
            num += (lhs - rhs).norm_sqr();
            den += lhs.norm_sqr() + rhs.norm_sqr();
        }
        (num, den, n)
    }

    /// Parseval: the lag-domain `num` and `den`, times `n`, are the
    /// spectrum sums, for windows longer and shorter than the HRIRs and
    /// for a silent entry.
    #[test]
    fn lag_domain_eq11_matches_the_spectrum_sums() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let taps = 64;
        let mut entries: Vec<BinauralIr> = (0..3)
            .map(|_| {
                let left = (0..taps).map(|_| next()).collect();
                let right = (0..taps).map(|_| next()).collect();
                BinauralIr::new(left, right)
            })
            .collect();
        entries.push(BinauralIr::zeros(taps));
        for window in [1, 10, 63, 64, 65, 300, 1000] {
            let left: Vec<f64> = (0..window).map(|_| next()).collect();
            let right: Vec<f64> = (0..window).map(|_| next()).collect();
            let r = xcorr(&left, &right);
            let lags = RecordingLags::new(&left, &right, &r, taps);
            for (e, ir) in entries.iter().enumerate() {
                let (num, den) = lags.eq11_terms(&LagTemplate::new(ir));
                let (want_num, want_den, n) = spectrum_terms(&left, &right, ir);
                let (num, den) = (num * n as f64, den * n as f64);
                for (got, want, what) in [(num, want_num, "num"), (den, want_den, "den")] {
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs(),
                        "window {window}, entry {e}: {what} {got} vs {want}"
                    );
                }
                if e == 3 {
                    assert_eq!((num, den), (0.0, 0.0), "silent entry, window {window}");
                }
            }
        }
    }

    /// Two angles with the same HRIR tie on every cost; the pruned sweep
    /// returns the lower angle, as the full sweep's first-minimum fold
    /// does, and skips templates whose delay term alone loses.
    #[test]
    fn known_source_ties_resolve_to_the_lower_angle_and_skip_losers() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let twin = bank.irs()[bank.index_of(60.0).unwrap()].clone();
        let mut pairs: Vec<(f64, BinauralIr)> = entries(&bank)
            .into_iter()
            .filter(|(a, _)| *a != 65.0)
            .collect();
        pairs.push((65.0, twin));
        let twins = HrirBank::new(pairs, bank.sample_rate());
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();
        let rec = record_plane_wave(&renderer, &setup, 60.0, &probe, 14);
        let sink = Arc::new(MemorySink::new());
        let est = uniq_obs::with_sink(sink.clone(), || {
            estimate_known_source(&rec, &probe, &twins, &c)
        });
        assert_eq!(est, 60.0);
        assert_eq!(est, oracle::known_source(&rec, &probe, &twins, &c));
        let scored = sink.counter_total(uniq_obs::names::AOA_TEMPLATES_SCORED);
        assert!(
            (2..angles.len() as u64).contains(&scored),
            "{scored} of {} templates scored",
            angles.len()
        );
    }

    /// Pruning skips only templates that cannot win: the estimate is the
    /// full sweep's argmin, and every template whose delay term is at most
    /// the best cost is scored. Banks: the listener's own, another
    /// subject's (larger correlation terms), and decoys whose entries off
    /// the 15° grid keep their first taps but lose their shape, so the
    /// templates nearest in delay lose to later-scored ones.
    #[test]
    fn known_source_prunes_only_templates_that_cannot_win() {
        use uniq_dsp::deconv::wiener_deconvolve;
        use uniq_dsp::xcorr::peak_normalized_xcorr;
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let own = renderer.ground_truth_bank(&angles);
        let other = Subject::from_seed(91)
            .renderer(c.render, 1024)
            .ground_truth_bank(&angles);
        let decoys = HrirBank::new(
            entries(&own)
                .into_iter()
                .map(|(angle, mut ir)| {
                    if angle % 15.0 != 0.0 {
                        for ear in [&mut ir.left, &mut ir.right] {
                            let tap = first_tap(ear, TAP_THRESHOLD).unwrap().index;
                            ear[tap + 2..].iter_mut().for_each(|v| *v = -*v);
                        }
                    }
                    (angle, ir)
                })
                .collect(),
            own.sample_rate(),
        );
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();
        let (mut calls, mut needed, mut scored) = (0, 0, 0);
        for bank in [&own, &other, &decoys] {
            let templates = AoaTemplates::from_bank(bank, &c);
            for truth in (0..12).map(|k| 3.0 + k as f64 * 14.5) {
                let rec = record_plane_wave(&renderer, &setup, truth, &probe, 15);
                let deconv =
                    |x: &[f64]| wiener_deconvolve(x, &probe, DECONV_NOISE_FLOOR, c.channel_len);
                let (ch_left, ch_right) = (deconv(&rec.left), deconv(&rec.right));
                let tap = |x: &[f64]| first_tap(x, TAP_THRESHOLD).unwrap().position;
                let t0 = tap(&ch_right) - tap(&ch_left);
                let bounds: Vec<f64> = templates
                    .t_rel
                    .iter()
                    .map(|t| AOA_LAMBDA * (t0 - t).abs())
                    .collect();
                let mut best = (f64::INFINITY, 0.0);
                for (w, bound) in bounds.iter().enumerate() {
                    let ir = &bank.irs()[templates.bank_index[w]];
                    let cost = bound
                        + (1.0 - peak_normalized_xcorr(&ch_left, &ir.left))
                        + (1.0 - peak_normalized_xcorr(&ch_right, &ir.right));
                    if cost < best.0 {
                        best = (cost, templates.angles[w]);
                    }
                }
                let sink = Arc::new(MemorySink::new());
                let est = uniq_obs::with_sink(sink.clone(), || {
                    estimate_known_source(&rec, &probe, bank, &c)
                });
                assert_eq!(
                    est.to_bits(),
                    best.1.to_bits(),
                    "θ={truth}: {est} vs {}",
                    best.1
                );
                let need = bounds.iter().filter(|&&b| b <= best.0).count() as u64;
                let got = sink.counter_total(uniq_obs::names::AOA_TEMPLATES_SCORED);
                assert!(got >= need, "θ={truth}: scored {got}, {need} could win");
                calls += 1;
                needed += need;
                scored += got;
            }
        }
        assert!(
            scored < calls * angles.len() as u64,
            "nothing pruned: {scored} scored, {needed} could win"
        );
    }

    /// An entry without a first tap is skipped by the templates; every
    /// later template must still be scored against its own HRIR.
    #[test]
    fn silent_bank_entry_does_not_shift_later_templates() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let mut pairs = entries(&bank);
        pairs.push((2.5, BinauralIr::zeros(bank.irs()[0].len())));
        let with_silent = HrirBank::new(pairs, bank.sample_rate());
        assert_eq!(AoaTemplates::from_bank(&with_silent, &c).bank_index[1], 2);

        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();
        let noise = generate(SignalKind::WhiteNoise, 0.3, c.render.sample_rate, 3);
        for truth in [40.0, 110.0] {
            let rec = record_plane_wave(&renderer, &setup, truth, &probe, 12);
            assert_eq!(
                estimate_known_source(&rec, &probe, &with_silent, &c).to_bits(),
                estimate_known_source(&rec, &probe, &bank, &c).to_bits(),
                "known source at θ={truth}"
            );
            let rec = record_plane_wave(&renderer, &setup, truth, &noise, 13);
            assert_eq!(
                estimate_unknown_source(&rec, &with_silent, &c).to_bits(),
                estimate_unknown_source(&rec, &bank, &c).to_bits(),
                "unknown source at θ={truth}"
            );
        }
    }
}
