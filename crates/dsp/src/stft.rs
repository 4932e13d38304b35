//! Short-time Fourier transform.
//!
//! Frame-wise spectral analysis used by the perceptual metrics (frame-
//! averaged log-spectral distortion is far more stable than whole-signal
//! spectra) and handy for inspecting the probe chirps.

use crate::complex::Complex;
use crate::fft::fft_in_place;
use crate::window::{window, WindowKind};

/// A short-time magnitude spectrogram.
#[derive(Debug, Clone)]
pub struct Spectrogram {
    /// `frames[t][k]` = magnitude of bin `k` in frame `t`.
    pub frames: Vec<Vec<f64>>,
    /// FFT size used (frames hold `fft_size/2 + 1` one-sided bins).
    pub fft_size: usize,
    /// Hop between frames, samples.
    pub hop: usize,
    /// Sample rate, hertz.
    pub sample_rate: f64,
}

impl Spectrogram {
    /// Frequency of bin `k`, hertz.
    pub fn bin_frequency(&self, k: usize) -> f64 {
        k as f64 * self.sample_rate / self.fft_size as f64
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the spectrogram holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Computes a Hann-windowed magnitude STFT.
///
/// * `fft_size` — power of two, also the frame length.
/// * `hop` — frame advance in samples (e.g. `fft_size / 2`).
///
/// Frames that would run past the end are dropped (no padding), so a
/// signal shorter than `fft_size` yields an empty spectrogram.
///
/// # Panics
/// Panics unless `fft_size` is a power of two and `0 < hop <= fft_size`.
pub fn stft(signal: &[f64], fft_size: usize, hop: usize, sample_rate: f64) -> Spectrogram {
    assert!(
        crate::fft::is_pow2(fft_size),
        "fft_size {fft_size} is not a power of two"
    );
    assert!(hop > 0 && hop <= fft_size, "hop {hop} out of range");
    let win = window(WindowKind::Hann, fft_size);
    let half = fft_size / 2 + 1;
    let mut frames = Vec::new();
    let mut start = 0usize;
    while start + fft_size <= signal.len() {
        let mut buf: Vec<Complex> = signal[start..start + fft_size]
            .iter()
            .zip(&win)
            .map(|(&s, &w)| Complex::from_real(s * w))
            .collect();
        fft_in_place(&mut buf);
        frames.push(buf[..half].iter().map(|z| z.abs()).collect());
        start += hop;
    }
    Spectrogram {
        frames,
        fft_size,
        hop,
        sample_rate,
    }
}

/// Frame-averaged log-spectral distortion between two signals, dB, over
/// `[f_lo, f_hi]` hertz. Bins where both signals sit below the louder
/// signal's −60 dB floor are skipped; returns 0 when nothing is
/// comparable.
pub fn log_spectral_distortion(
    a: &[f64],
    b: &[f64],
    sample_rate: f64,
    f_lo: f64,
    f_hi: f64,
) -> f64 {
    const N: usize = 1024;
    let sa = stft(a, N, N / 2, sample_rate);
    let sb = stft(b, N, N / 2, sample_rate);
    let frames = sa.len().min(sb.len());
    if frames == 0 {
        return 0.0;
    }
    let peak = sa
        .frames
        .iter()
        .chain(&sb.frames)
        .flatten()
        .fold(0.0_f64, |m, &v| m.max(v));
    let floor = peak * 1e-3; // −60 dB
    let mut sum = 0.0;
    let mut count = 0usize;
    for t in 0..frames {
        for k in 0..sa.frames[t].len() {
            let f = sa.bin_frequency(k);
            if f < f_lo || f > f_hi {
                continue;
            }
            let (ma, mb) = (sa.frames[t][k], sb.frames[t][k]);
            if ma < floor && mb < floor {
                continue;
            }
            let da = 20.0 * ma.max(floor).log10();
            let db = 20.0 * mb.max(floor).log10();
            sum += (da - db).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{linear_chirp, tone};

    const SR: f64 = 16_000.0;

    #[test]
    fn frame_count_and_shape() {
        let sig = vec![0.0; 4096];
        let s = stft(&sig, 1024, 512, SR);
        // Frames at 0, 512, …, 3072 → 7 frames.
        assert_eq!(s.len(), 7);
        assert_eq!(s.frames[0].len(), 513);
        assert_eq!(s.hop, 512);
    }

    #[test]
    fn short_signal_empty() {
        let s = stft(&[0.0; 100], 256, 128, SR);
        assert!(s.is_empty());
    }

    #[test]
    fn tone_concentrates_in_right_bin() {
        let f0 = 1000.0;
        let sig = tone(f0, 0.5, SR);
        let s = stft(&sig, 1024, 512, SR);
        for frame in &s.frames {
            let (argmax, _) = frame
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            assert!((s.bin_frequency(argmax) - f0).abs() < 2.0 * SR / 1024.0);
        }
    }

    #[test]
    fn chirp_peak_frequency_rises() {
        let sig = linear_chirp(500.0, 6000.0, 1.0, SR);
        let s = stft(&sig, 1024, 512, SR);
        let peak_freq = |frame: &Vec<f64>| {
            let (argmax, _) = frame
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            s.bin_frequency(argmax)
        };
        let early = peak_freq(&s.frames[1]);
        let late = peak_freq(&s.frames[s.len() - 2]);
        assert!(late > early + 2000.0, "chirp not rising: {early} → {late}");
    }

    #[test]
    fn lsd_zero_for_identical() {
        let sig = linear_chirp(300.0, 5000.0, 0.5, SR);
        assert!(log_spectral_distortion(&sig, &sig, SR, 200.0, 7000.0) < 1e-9);
    }

    #[test]
    fn lsd_detects_gain_difference() {
        let sig = linear_chirp(300.0, 5000.0, 0.5, SR);
        let quieter: Vec<f64> = sig.iter().map(|v| v * 0.5).collect(); // −6 dB
        let lsd = log_spectral_distortion(&sig, &quieter, SR, 200.0, 7000.0);
        assert!((lsd - 6.0).abs() < 0.5, "lsd {lsd}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_fft_size_rejected() {
        stft(&[0.0; 100], 100, 50, SR);
    }
}
