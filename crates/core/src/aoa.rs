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

use crate::config::UniqConfig;
use uniq_acoustics::measure::BinauralRecording;
use uniq_acoustics::types::{HrirBank, SpectrumForm};
use uniq_dsp::deconv::wiener_deconvolve_batch;
use uniq_dsp::fft::{next_pow2, rfft_padded};
use uniq_dsp::peaks::{find_peaks, first_tap};
use uniq_dsp::xcorr::{peak_normalized_xcorr_prepared, xcorr, XcorrOperand};

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
    /// without a first tap on both ears are skipped.
    pub fn from_bank(bank: &HrirBank, cfg: &UniqConfig) -> Self {
        let mut angles = Vec::with_capacity(bank.len());
        let mut t_rel = Vec::with_capacity(bank.len());
        let mut bank_index = Vec::with_capacity(bank.len());
        for (i, (&a, ir)) in bank.angles().iter().zip(bank.irs()).enumerate() {
            let tl = first_tap(&ir.left, cfg.tap_threshold);
            let tr = first_tap(&ir.right, cfg.tap_threshold);
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
    }
}

/// Known-source AoA (Eq. 9): returns the estimated angle in degrees.
///
/// `bank` is the personalized (or global, for the baseline) far-field
/// HRTF template. The templates' reversed spectra come from the bank's
/// cache ([`HrirBank::spectra`]), so each template costs one spectrum
/// product and one inverse FFT per ear.
pub fn estimate_known_source(
    recording: &BinauralRecording,
    source: &[f64],
    bank: &HrirBank,
    cfg: &UniqConfig,
) -> f64 {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_AOA_KNOWN);
    // Ear channels by deconvolution with the known source (batched across
    // the pool; same arithmetic as two sequential calls).
    let pool = uniq_par::pool(cfg.threads);
    let mut chans = wiener_deconvolve_batch(
        &[recording.left.as_slice(), recording.right.as_slice()],
        source,
        cfg.deconv_noise_floor,
        cfg.channel_len,
        &pool,
    );
    // uniq-analyzer: allow(panic-safety) — par_map returns exactly one output per input; the batch above has two
    let ch_right = chans.pop().expect("batch of two");
    // uniq-analyzer: allow(panic-safety) — same two-element batch; second pop cannot fail
    let ch_left = chans.pop().expect("batch of two");

    let t0 = match (
        first_tap(&ch_left, cfg.tap_threshold),
        first_tap(&ch_right, cfg.tap_threshold),
    ) {
        (Some(l), Some(r)) => r.position - l.position,
        _ => 0.0,
    };

    // The transform size `peak_normalized_xcorr(channel, template)` uses;
    // both channels are `channel_len` long.
    let n = next_pow2(ch_left.len() + bank.irs()[0].len() - 1);
    let lead_left = XcorrOperand::leading(&ch_left, n);
    let lead_right = XcorrOperand::leading(&ch_right, n);
    let spectra = bank.spectra(n, SpectrumForm::Reversed, &pool);
    let templates = AoaTemplates::from_bank(bank, cfg);
    // Per-template costs are independent: compute them across the pool,
    // then take the argmin with the same sequential strict-< fold the
    // serial sweep used (first minimum wins), so the estimate is
    // bit-identical at any thread count.
    let entries: Vec<usize> = (0..templates.angles.len()).collect();
    let costs = pool.par_map(&entries, |&w| {
        let s = &spectra[templates.bank_index[w]];
        let c_l = peak_normalized_xcorr_prepared(&lead_left, &s.left);
        let c_r = peak_normalized_xcorr_prepared(&lead_right, &s.right);
        let cost = cfg.aoa_lambda * (t0 - templates.t_rel[w]).abs() + (1.0 - c_l) + (1.0 - c_r);
        (cost, templates.angles[w])
    });
    let mut best = (f64::INFINITY, 0.0);
    for &(cost, theta) in &costs {
        if cost < best.0 {
            best = (cost, theta);
        }
    }
    best.1
}

/// Unknown-source AoA (Eqs. 10–11): returns the estimated angle in
/// degrees.
///
/// The templates' spectra come from the bank's cache
/// ([`HrirBank::spectra`]); only the recording is transformed per call.
pub fn estimate_unknown_source(
    recording: &BinauralRecording,
    bank: &HrirBank,
    cfg: &UniqConfig,
) -> f64 {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_AOA_UNKNOWN);
    // Relative channel between the ears: cross-correlation peaks give
    // candidate TDoAs (Fig 14: multiple peaks due to pinna multipath).
    let window = 16_384.min(recording.left.len());
    let left = &recording.left[..window];
    let right = &recording.right[..window];
    let r = xcorr(left, right);
    let peaks = find_peaks(&r, 0.5, 3);
    let zero_lag = right.len() as f64 - 1.0;

    let templates = AoaTemplates::from_bank(bank, cfg);
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

    // Eq. 11 disambiguation: minimize ‖L·H_R(θ) − R·H_L(θ)‖ in the
    // frequency domain.
    let n = next_pow2(window + bank.irs()[0].len());
    let fl = rfft_padded(left, n);
    let fr = rfft_padded(right, n);
    let pool = uniq_par::pool(cfg.threads);
    let spectra = bank.spectra(n, SpectrumForm::Forward, &pool);

    // Candidate costs are independent: compute across the pool, argmin
    // with the sequential strict-< fold (first minimum wins) for
    // bit-identical estimates at any thread count.
    let costs = pool.par_map(&candidates, |&(theta, idx)| {
        let hl = spectra[idx].left.spectrum();
        let hr = spectra[idx].right.spectrum();
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 0..n {
            let lhs = fl[k] * hr[k];
            let rhs = fr[k] * hl[k];
            num += (lhs - rhs).norm_sqr();
            den += lhs.norm_sqr() + rhs.norm_sqr();
        }
        (num / den.max(1e-30), theta)
    });
    let mut best = (f64::INFINITY, candidates[0].0);
    for &(cost, theta) in &costs {
        if cost < best.0 {
            best = (cost, theta);
        }
    }
    best.1
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

/// The per-call estimators as they were before the bank's spectrum cache
/// (known-source templates aligned by bank index): every call transforms
/// every template it scores. Kept as the oracle the cached path must match
/// bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

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
        let pool = uniq_par::pool(cfg.threads);
        let mut chans = wiener_deconvolve_batch(
            &[recording.left.as_slice(), recording.right.as_slice()],
            source,
            cfg.deconv_noise_floor,
            cfg.channel_len,
            &pool,
        );
        let ch_right = chans.pop().unwrap();
        let ch_left = chans.pop().unwrap();
        let t0 = match (
            first_tap(&ch_left, cfg.tap_threshold),
            first_tap(&ch_right, cfg.tap_threshold),
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
            let cost = cfg.aoa_lambda * (t0 - templates.t_rel[w]).abs() + (1.0 - c_l) + (1.0 - c_r);
            if cost < best.0 {
                best = (cost, templates.angles[w]);
            }
        }
        best.1
    }

    pub fn unknown_source(recording: &BinauralRecording, bank: &HrirBank, cfg: &UniqConfig) -> f64 {
        let window = 16_384.min(recording.left.len());
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
    /// with an empty spectrum cache).
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
