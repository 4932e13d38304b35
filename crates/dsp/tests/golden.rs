//! Golden pins for the FFT: the exact output bits of `fft` and `ifft` on
//! fixed inputs at every power of two from 2 to 65536, folded into one
//! FNV-1a digest per direction.
//!
//! Every pipeline fingerprint is downstream of these bits, so a change to
//! the transform's arithmetic (operation order, twiddle generation, fused
//! multiply-adds) fails here, at the layer that made it, before it shows
//! up as an unexplained end-to-end fingerprint drift. The inputs come
//! from SplitMix64 and integer arithmetic only, so they do not depend on
//! the platform's libm.

use uniq_dsp::fft::{fft, ifft};
use uniq_dsp::Complex;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest of `fft` over the inputs of [`input`] at n = 2..=65536.
const FFT_DIGEST: u64 = 0xc5c2_a72b_64f6_f2d7;
/// Digest of `ifft` over the same inputs.
const IFFT_DIGEST: u64 = 0x00d7_2c75_47b0_0418;

fn fnv(mut h: u64, values: &[Complex]) -> u64 {
    for v in values {
        for bits in [v.re.to_bits(), v.im.to_bits()] {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// `n` complex values with components uniform in [-1, 1), from
/// SplitMix64 seeded by `n`.
fn input(n: usize) -> Vec<Complex> {
    let mut state = n as u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

fn digest(transform: fn(&[Complex]) -> Vec<Complex>) -> u64 {
    (1..=16).fold(FNV_OFFSET, |h, log2| {
        let n = 1usize << log2;
        fnv(h, &transform(&input(n)))
    })
}

#[test]
fn fft_output_bits_match_the_golden_digest() {
    let got = digest(fft);
    assert_eq!(got, FFT_DIGEST, "fft digest drifted: got {got:#018x}");
}

#[test]
fn ifft_output_bits_match_the_golden_digest() {
    let got = digest(ifft);
    assert_eq!(got, IFFT_DIGEST, "ifft digest drifted: got {got:#018x}");
}
