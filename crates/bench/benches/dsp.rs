//! Criterion micro-benchmarks for the DSP substrate: the inner loops the
//! whole pipeline stands on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uniq_dsp::complex::Complex;
use uniq_dsp::conv::{convolve_direct, convolve_fft};
use uniq_dsp::deconv::wiener_deconvolve;
use uniq_dsp::fft::{fft, ifft};
use uniq_dsp::signal::linear_chirp;
use uniq_dsp::xcorr::peak_normalized_xcorr;

fn fft_input(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|k| Complex::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos()))
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    // 8192 is the in-room render convolution size, 32768 the AoA one.
    for &n in &[256usize, 1024, 4096, 8192, 16384, 32768] {
        let input = fft_input(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &input, |b, input| {
            b.iter(|| fft(std::hint::black_box(input)))
        });
    }
    group.finish();
    let input = fft_input(8192);
    c.bench_function("ifft/8192", |b| {
        b.iter(|| ifft(std::hint::black_box(&input)))
    });
}

fn bench_convolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolve");
    let signal = linear_chirp(100.0, 20_000.0, 0.05, 48_000.0);
    let ir: Vec<f64> = (0..512).map(|k| ((k * k) as f64 * 0.01).sin()).collect();
    group.bench_function("direct_2400x64", |b| {
        let short_ir = &ir[..64];
        b.iter(|| {
            convolve_direct(
                std::hint::black_box(&signal),
                std::hint::black_box(short_ir),
            )
        })
    });
    group.bench_function("fft_2400x512", |b| {
        b.iter(|| convolve_fft(std::hint::black_box(&signal), std::hint::black_box(&ir)))
    });
    // The shape `render_arrival` convolves: a 4096-sample echoic tap
    // through the 33-tap shadow FIR.
    let tap: Vec<f64> = (0..4096).map(|k| ((k * 7) as f64 * 0.013).sin()).collect();
    group.bench_function("fft_4096x33", |b| {
        let kernel = &ir[..33];
        b.iter(|| convolve_fft(std::hint::black_box(&tap), std::hint::black_box(kernel)))
    });
    group.finish();
}

fn bench_deconvolution(c: &mut Criterion) {
    let probe = linear_chirp(100.0, 20_000.0, 0.05, 48_000.0);
    let rx = convolve_fft(&probe, &{
        let mut h = vec![0.0; 512];
        h[60] = 1.0;
        h[90] = -0.4;
        h
    });
    c.bench_function("wiener_deconvolve_512", |b| {
        b.iter(|| {
            wiener_deconvolve(
                std::hint::black_box(&rx),
                std::hint::black_box(&probe),
                1e-3,
                512,
            )
        })
    });
}

fn bench_similarity(c: &mut Criterion) {
    let a = linear_chirp(100.0, 8_000.0, 0.01, 48_000.0);
    let b_sig = linear_chirp(120.0, 8_000.0, 0.01, 48_000.0);
    c.bench_function("peak_normalized_xcorr_480", |b| {
        b.iter(|| peak_normalized_xcorr(std::hint::black_box(&a), std::hint::black_box(&b_sig)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fft, bench_convolution, bench_deconvolution, bench_similarity
}
criterion_main!(benches);
