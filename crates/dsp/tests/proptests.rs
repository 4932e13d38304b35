//! Property-based tests for the DSP substrate.

use proptest::prelude::*;
use uniq_dsp::complex::Complex;
use uniq_dsp::conv::{convolve_direct, convolve_fft};
use uniq_dsp::deconv::{transform_size, wiener_deconvolve, ProbeSpectrum};
use uniq_dsp::fft::{fft, ifft, next_pow2};
use uniq_dsp::interp::lerp_vec;
use uniq_dsp::stats::{percentile, Ecdf};
use uniq_dsp::window::{window, WindowKind};
use uniq_dsp::xcorr::{peak_normalized_xcorr, xcorr_peak_lag};

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0..1.0f64, 4..max_len)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A prepared probe serves every recording of its transform size with
    /// the bits the one-shot deconvolution returns (0 ULP, not a tolerance).
    #[test]
    fn prepared_probe_returns_the_one_shot_bits(
        probe in signal_strategy(128),
        recordings in prop::collection::vec(signal_strategy(160), 1..6),
    ) {
        prop_assume!(probe.iter().any(|&v| v != 0.0));
        let mut prepared: Vec<(usize, ProbeSpectrum)> = Vec::new();
        for rx in &recordings {
            let n = transform_size(rx.len(), probe.len(), 32);
            if prepared.iter().all(|(m, _)| *m != n) {
                prepared.push((n, ProbeSpectrum::new(&probe, 1e-3, n)));
            }
            let (_, op) = prepared.iter().find(|(m, _)| *m == n).unwrap();
            let want = wiener_deconvolve(rx, &probe, 1e-3, 32);
            prop_assert_eq!(bits(&op.deconvolve_pair(rx, &[], 32).0), bits(&want));
        }
    }

    #[test]
    fn fft_roundtrip_recovers_signal(sig in signal_strategy(256)) {
        let n = next_pow2(sig.len());
        let mut buf: Vec<Complex> = sig.iter().map(|&v| Complex::from_real(v)).collect();
        buf.resize(n, Complex::ZERO);
        let rec = ifft(&fft(&buf));
        for (a, b) in buf.iter().zip(&rec) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_parseval(sig in signal_strategy(128)) {
        let n = next_pow2(sig.len());
        let mut buf: Vec<Complex> = sig.iter().map(|&v| Complex::from_real(v)).collect();
        buf.resize(n, Complex::ZERO);
        let spec = fft(&buf);
        let et: f64 = buf.iter().map(|v| v.norm_sqr()).sum();
        let ef: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((et - ef).abs() <= 1e-9 * (1.0 + et));
    }

    #[test]
    fn fft_linearity(a in signal_strategy(64), scale in -4.0..4.0f64) {
        let n = next_pow2(a.len());
        let mut ca: Vec<Complex> = a.iter().map(|&v| Complex::from_real(v)).collect();
        ca.resize(n, Complex::ZERO);
        let scaled: Vec<Complex> = ca.iter().map(|&v| v * scale).collect();
        let fa = fft(&ca);
        let fs = fft(&scaled);
        for (x, y) in fa.iter().zip(&fs) {
            prop_assert!((*x * scale - *y).abs() < 1e-9 * (1.0 + x.abs() * scale.abs()));
        }
    }

    #[test]
    fn convolution_commutative(a in signal_strategy(48), b in signal_strategy(48)) {
        let ab = convolve_direct(&a, &b);
        let ba = convolve_direct(&b, &a);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn convolution_fft_matches_direct(a in signal_strategy(96), b in signal_strategy(48)) {
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        for (x, y) in d.iter().zip(&f) {
            prop_assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn convolution_length(a in signal_strategy(64), b in signal_strategy(64)) {
        let out = convolve_direct(&a, &b);
        prop_assert_eq!(out.len(), a.len() + b.len() - 1);
    }

    #[test]
    fn xcorr_similarity_bounded(a in signal_strategy(96), b in signal_strategy(96)) {
        let sim = peak_normalized_xcorr(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&sim), "sim = {sim}");
    }

    #[test]
    fn xcorr_self_similarity_is_one(a in signal_strategy(96)) {
        prop_assume!(a.iter().any(|v| v.abs() > 1e-6));
        let sim = peak_normalized_xcorr(&a, &a);
        prop_assert!((sim - 1.0).abs() < 1e-9, "self sim = {sim}");
    }

    #[test]
    fn xcorr_lag_antisymmetric(a in signal_strategy(64), b in signal_strategy(64)) {
        prop_assume!(a.iter().any(|v| v.abs() > 1e-3));
        prop_assume!(b.iter().any(|v| v.abs() > 1e-3));
        let (lab, vab) = xcorr_peak_lag(&a, &b);
        let (lba, vba) = xcorr_peak_lag(&b, &a);
        // Peak values agree; lags are opposite (up to ties in the peak).
        prop_assert!((vab - vba).abs() < 1e-9);
        if (vab - vba).abs() < 1e-12 {
            // Only assert sign symmetry when the peak is unique enough.
            let r = uniq_dsp::xcorr::xcorr(&a, &b);
            let near_peak = r.iter().filter(|&&v| (v - vab).abs() < 1e-12).count();
            if near_peak == 1 {
                prop_assert_eq!(lab, -lba);
            }
        }
    }

    #[test]
    fn windows_bounded_and_symmetric(n in 2usize..200) {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman, WindowKind::Tukey(0.4)] {
            let w = window(kind, n);
            for k in 0..n {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&w[k]));
                prop_assert!((w[k] - w[n - 1 - k]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn percentile_monotone(mut xs in prop::collection::vec(-100.0..100.0f64, 1..64),
                           p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-12);
    }

    #[test]
    fn ecdf_is_monotone_cdf(xs in prop::collection::vec(-50.0..50.0f64, 1..64)) {
        let e = Ecdf::new(&xs);
        let mut last = 0.0;
        for q in [-60.0, -20.0, 0.0, 20.0, 60.0] {
            let v = e.eval(q);
            prop_assert!(v >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&v));
            last = v;
        }
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
    }

    #[test]
    fn lerp_vec_endpoints(a in signal_strategy(32)) {
        let b: Vec<f64> = a.iter().map(|v| v * 2.0 + 1.0).collect();
        let at0 = lerp_vec(&a, &b, 0.0);
        let at1 = lerp_vec(&a, &b, 1.0);
        for ((x, y), (z, w)) in at0.iter().zip(&a).zip(at1.iter().zip(&b)) {
            prop_assert!((x - y).abs() < 1e-12);
            prop_assert!((z - w).abs() < 1e-12);
        }
    }

    #[test]
    fn shift_signal_round_trips(a in signal_strategy(64), shift in 0isize..16) {
        use uniq_dsp::align::shift_signal;
        let there = shift_signal(&a, shift);
        let back = shift_signal(&there, -shift);
        // Samples that survived both shifts must match the original.
        let survivors = a.len().saturating_sub(shift as usize);
        for k in 0..survivors {
            prop_assert!((back[k] - a[k]).abs() < 1e-12);
        }
    }
}
