//! # uniq-dsp
//!
//! Digital signal processing substrate for the UNIQ HRTF personalization
//! system (SIGCOMM 2021 reproduction).
//!
//! Everything here is implemented from scratch on `f64` samples so the whole
//! workspace stays dependency-free and deterministic:
//!
//! * [`complex`] — a minimal complex-number type used by the FFT.
//! * [`fft`] — iterative radix-2 Cooley–Tukey FFT / inverse FFT and
//!   real-signal helpers.
//! * [`window`] — analysis windows (Hann, Hamming, Blackman, Tukey, …).
//! * [`signal`] — deterministic test signals (chirps, tones, impulses).
//! * [`conv`] — direct and FFT-based convolution.
//! * [`xcorr`] — cross-correlation, normalized correlation, lag search.
//! * [`deconv`] — Wiener frequency-domain deconvolution (channel estimation),
//!   one-shot or against a prepared probe spectrum.
//! * [`delay`] — fractional (windowed-sinc) delays.
//! * [`filter`] — biquad sections and cascades.
//! * [`peaks`] — peak picking and first-tap detection for impulse responses.
//! * [`stats`] — descriptive statistics, percentiles and empirical CDFs.
//! * [`spectrum`] — magnitude spectra and decibel conversions.
//! * [`stft`] — short-time Fourier analysis and frame-averaged
//!   log-spectral distortion.
//! * [`align`] — impulse-response alignment utilities.
//! * [`interp`] — one-dimensional and vector interpolation.
//!
//! The crate has no dependencies and no thread pool: scheduling belongs to
//! its callers (`uniq-core` fans a stop's two ears out over its pool), and
//! anything stochastic lives upstream in `uniq-acoustics`/`uniq-imu`,
//! keeping this layer referentially transparent and easy to property-test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod complex;
pub mod conv;
pub mod deconv;
pub mod delay;
pub mod fft;
pub mod filter;
pub mod interp;
pub mod peaks;
pub mod signal;
pub mod spectrum;
pub mod stats;
pub mod stft;
pub mod window;
pub mod xcorr;

pub use complex::Complex;

/// Speed of sound in air at ~20 °C, metres per second.
///
/// Shared across the workspace so the forward simulator and the inverse
/// solver agree on units.
pub const SPEED_OF_SOUND: f64 = 343.0;

/// Default sample rate used throughout the reproduction, hertz.
///
/// The paper records at 96 kHz; 48 kHz keeps simulations fast while staying
/// far above the audible band. All APIs take an explicit rate, this is only
/// a convenient default.
pub const DEFAULT_SAMPLE_RATE: f64 = 48_000.0;
