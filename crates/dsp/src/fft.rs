//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Implemented from scratch (no external FFT crate). Sizes must be powers of
//! two; [`next_pow2`] and the `*_padded` helpers take care of zero-padding
//! arbitrary-length signals.
//!
//! Twiddles come from a process-wide table per (size, direction), built on
//! first use with the recurrence `w *= e^{±2πi/len}`, and the butterflies
//! run two stages per pass over memory. Both change only the cost: the
//! output is bitwise what the plain recurrence-per-block loop produces,
//! which the unit tests keep as their oracle.
//!
//! Every transform emits [`DSP_TRANSFORMS`](uniq_obs::names::DSP_TRANSFORMS)
//! and its `n·log₂n` as
//! [`DSP_TRANSFORM_POINTS`](uniq_obs::names::DSP_TRANSFORM_POINTS), once per
//! call: an exact, thread-count-free measure of the FFT work a stage does.
//!
//! Conventions: forward transform is un-normalized
//! (`X[k] = Σ x[n]·e^{-2πikn/N}`), the inverse divides by `N`, so
//! `ifft(fft(x)) == x`.

use crate::complex::Complex;
use std::sync::OnceLock;

/// Smallest power of two `>= n` (and `>= 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place forward FFT.
///
/// # Panics
/// Panics if `buf.len()` is not a power of two.
pub fn fft_in_place(buf: &mut [Complex]) {
    transform(buf, false);
}

/// In-place inverse FFT (normalized by `1/N`).
///
/// # Panics
/// Panics if `buf.len()` is not a power of two.
pub fn ifft_in_place(buf: &mut [Complex]) {
    transform(buf, true);
    let n = buf.len() as f64;
    for v in buf.iter_mut() {
        *v = *v / n;
    }
}

/// Forward FFT of a complex slice, returning a new vector.
///
/// ```
/// use uniq_dsp::{fft::{fft, ifft}, Complex};
/// let x = vec![Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
/// let spectrum = fft(&x);                    // impulse → flat spectrum
/// assert!(spectrum.iter().all(|v| (*v - Complex::ONE).abs() < 1e-12));
/// let back = ifft(&spectrum);                // and back again
/// assert!((back[0] - Complex::ONE).abs() < 1e-12);
/// ```
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    fft_in_place(&mut buf);
    buf
}

/// Inverse FFT of a complex slice, returning a new vector.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    ifft_in_place(&mut buf);
    buf
}

/// Forward FFT of a real signal, zero-padded to `len` (which must be a power
/// of two and `>= signal.len()`).
///
/// # Panics
/// Panics if `len` is not a power of two or is shorter than the signal.
pub fn rfft_padded(signal: &[f64], len: usize) -> Vec<Complex> {
    assert!(is_pow2(len), "rfft_padded: len {len} is not a power of two");
    assert!(
        len >= signal.len(),
        "rfft_padded: len {len} < signal length {}",
        signal.len()
    );
    let mut buf = vec![Complex::ZERO; len];
    for (b, &s) in buf.iter_mut().zip(signal.iter()) {
        *b = Complex::from_real(s);
    }
    fft_in_place(&mut buf);
    buf
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
pub fn rfft(signal: &[f64]) -> Vec<Complex> {
    rfft_padded(signal, next_pow2(signal.len()))
}

/// Cached twiddle tables, one per (log2 n, direction), at index
/// `2·log2 n + inverse`. Built on the first transform of each size and
/// read-only after that.
static TWIDDLES: [OnceLock<Box<[Complex]>>; 128] = [const { OnceLock::new() }; 128];

/// The twiddles of every stage of a size-`2^bits` transform: stage `len`
/// (the one whose butterflies span `len` elements) sits at
/// `[len/2 - 1, len - 1)`, `n - 1` entries in all.
fn twiddles(bits: u32, inverse: bool) -> &'static [Complex] {
    TWIDDLES[2 * bits as usize + usize::from(inverse)]
        .get_or_init(|| build_twiddles(1 << bits, inverse))
}

/// Builds the table with the recurrence `w *= e^{±2πi/len}` from `w = 1`,
/// so each entry is bitwise the twiddle a recurrence-driven butterfly
/// loop would multiply by; the table changes the cost, never the result.
fn build_twiddles(n: usize, inverse: bool) -> Box<[Complex]> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut table = Vec::with_capacity(n - 1);
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut w = Complex::ONE;
        for _ in 0..len / 2 {
            // uniq-analyzer: allow(hot-path-alloc) — the table is built once per (size, direction) for the life of the process, under a OnceLock, into a Vec sized up front; every later transform only reads it
            table.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    table.into_boxed_slice()
}

fn transform(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(is_pow2(n), "FFT size {n} is not a power of two");
    let bits = n.trailing_zeros();
    uniq_obs::counter(uniq_obs::names::DSP_TRANSFORMS, 1);
    uniq_obs::counter(
        uniq_obs::names::DSP_TRANSFORM_POINTS,
        (n as u64) * u64::from(bits),
    );
    if n <= 1 {
        return;
    }
    bit_reverse(buf, bits);
    let table = twiddles(bits, inverse);

    // Danielson–Lanczos butterflies, two stages (len, 2·len) per pass
    // over memory; an odd last stage runs alone.
    let mut len = 2;
    while 2 * len <= n {
        radix2_pair(buf, len, table);
        len <<= 2;
    }
    if len <= n {
        radix2_stage(buf, len, &table[len / 2 - 1..len - 1]);
    }
}

/// The bit-reversal permutation of a size-`2^bits` buffer, in tiles.
///
/// Split an index's bits as `top (t) | middle | bottom (t)`, with t = 2
/// from n = 16 up: reversal maps the indices with middle `m` onto those
/// with middle `rev(m)`, so each 4×4 tile pair is swapped together,
/// touching 8 cache lines rather than 16 scattered ones. About half the
/// cost of the element-wise permutation at n = 8192 and above.
fn bit_reverse(buf: &mut [Complex], bits: u32) {
    let rev = |x: usize, width: u32| {
        x.reverse_bits()
            .checked_shr(usize::BITS - width)
            .unwrap_or(0)
    };
    let t = (bits / 2).min(2);
    let mid = bits - 2 * t;
    let top = bits - t;
    for m in 0..1usize << mid {
        let rm = rev(m, mid);
        if m > rm {
            continue;
        }
        for a in 0..1usize << t {
            for b in 0..1usize << t {
                let i = (a << top) | (m << t) | b;
                let j = (rev(b, t) << top) | (rm << t) | rev(a, t);
                // With distinct middles each pair is met once, from the
                // smaller middle; within one tile, once from each end.
                if m < rm || i < j {
                    buf.swap(i, j);
                }
            }
        }
    }
}

/// One radix-2 stage: butterflies spanning `len` elements.
fn radix2_stage(buf: &mut [Complex], len: usize, tw: &[Complex]) {
    for block in buf.chunks_exact_mut(len) {
        let (lo, hi) = block.split_at_mut(len / 2);
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let u = *a;
            let v = *b * w;
            *a = u + v;
            *b = u - v;
        }
    }
}

/// Stages `len` and `2·len` in one pass. Within a `2·len` block, the
/// elements `k`, `k + len/2`, `k + len` and `k + 3·len/2` are closed under
/// both stages, so each group of four runs through its four butterflies
/// in registers: the same butterflies, twiddles and operands as two
/// separate [`radix2_stage`] passes, hence the same bits.
fn radix2_pair(buf: &mut [Complex], len: usize, table: &[Complex]) {
    let half = len / 2;
    let tw1 = &table[half - 1..len - 1];
    let (tw2_lo, tw2_hi) = table[len - 1..2 * len - 1].split_at(half);
    for block in buf.chunks_exact_mut(2 * len) {
        let (lo, hi) = block.split_at_mut(len);
        let (a, b) = lo.split_at_mut(half);
        let (c, d) = hi.split_at_mut(half);
        let quads = a
            .iter_mut()
            .zip(b.iter_mut())
            .zip(c.iter_mut().zip(d.iter_mut()));
        let twiddles = tw1.iter().zip(tw2_lo.iter().zip(tw2_hi));
        for (((a, b), (c, d)), (&w1, (&w2a, &w2b))) in quads.zip(twiddles) {
            // Stage `len`: (a, b) and (c, d).
            let v = *b * w1;
            let (a1, b1) = (*a + v, *a - v);
            let v = *d * w1;
            let (c1, d1) = (*c + v, *c - v);
            // Stage `2·len`: (a, c) and (b, d).
            let v = c1 * w2a;
            *a = a1 + v;
            *c = a1 - v;
            let v = d1 * w2b;
            *b = b1 + v;
            *d = b1 - v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Naive O(N²) DFT: the independent oracle the fast transforms are
    /// checked against.
    fn dft_naive(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        input[t]
                            * Complex::cis(-2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64)
                    })
                    .sum()
            })
            .collect()
    }

    /// The recurrence-driven transform the twiddle tables replaced: every
    /// twiddle recomputed with `w *= wlen` in every block of every stage.
    /// The oracle for the bit-identity contract of [`transform`].
    fn transform_recurrence(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        assert!(is_pow2(n), "FFT size {n} is not a power of two");
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                buf.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let half = len / 2;
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..half {
                    let u = buf[start + k];
                    let v = buf[start + k + half] * w;
                    buf[start + k] = u + v;
                    buf[start + k + half] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    /// [`fft`] / [`ifft`] computed by the oracle, normalization included.
    fn oracle(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let mut buf = input.to_vec();
        transform_recurrence(&mut buf, inverse);
        if inverse {
            let n = buf.len() as f64;
            for v in buf.iter_mut() {
                *v = *v / n;
            }
        }
        buf
    }

    /// Equal bits, where every NaN equals every other NaN: Rust leaves the
    /// sign and payload of a NaN produced by arithmetic unspecified, and
    /// the optimizer may commute an addition whose operands are both NaN,
    /// so no two compilations of the same butterfly promise the same NaN.
    /// Every non-NaN value, signed zeros included, must match exactly.
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Index and bits of the first component that differs, if any.
    fn first_bit_difference(a: &[Complex], b: &[Complex]) -> Option<(usize, [u64; 4])> {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).enumerate().find_map(|(i, (x, y))| {
            let bits = [
                x.re.to_bits(),
                x.im.to_bits(),
                y.re.to_bits(),
                y.im.to_bits(),
            ];
            (!same_bits(x.re, y.re) || !same_bits(x.im, y.im)).then_some((i, bits))
        })
    }

    fn assert_matches_oracle(input: &[Complex], what: &str) {
        for (inverse, got) in [(false, fft(input)), (true, ifft(input))] {
            let want = oracle(input, inverse);
            if let Some((i, bits)) = first_bit_difference(&got, &want) {
                panic!(
                    "{what}, n = {}, inverse = {inverse}: bin {i} is {:#x}/{:#x}, oracle {:#x}/{:#x}",
                    input.len(),
                    bits[0],
                    bits[1],
                    bits[2],
                    bits[3]
                );
            }
        }
    }

    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 7.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    fn random_signal(n: usize, rng: &mut StdRng) -> Vec<Complex> {
        (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    /// `signal` with one component in every `stride` replaced by a value
    /// drawn from `specials`.
    fn sprinkle(
        mut signal: Vec<Complex>,
        specials: &[f64],
        stride: usize,
        rng: &mut StdRng,
    ) -> Vec<Complex> {
        for (i, v) in signal.iter_mut().enumerate() {
            if i % stride == 0 {
                let s = specials[rng.gen_range(0..specials.len())];
                if rng.gen_bool(0.5) {
                    v.re = s;
                } else {
                    v.im = s;
                }
            }
        }
        signal
    }

    #[test]
    fn table_driven_transform_is_bit_identical_to_the_recurrence() {
        let mut rng = StdRng::seed_from_u64(0xf17);
        for log2 in 0..=16 {
            let n = 1usize << log2;
            let plain = random_signal(n, &mut rng);
            assert_matches_oracle(&plain, "random");
            // Scaled into the subnormal range with signed zeros and
            // subnormal specials in one component of three: every
            // butterfly runs through gradual underflow and signed-zero
            // arithmetic while the output stays finite.
            let scaled = plain.iter().map(|v| v.scale(1e-310)).collect();
            let tiny = sprinkle(scaled, &SPECIALS[..4], 3, &mut rng);
            assert_matches_oracle(&tiny, "zeros and subnormals");
            // Infinities and NaNs spread through every later stage.
            let wild = sprinkle(plain, &SPECIALS, 1 + n / 4, &mut rng);
            assert_matches_oracle(&wild, "infinities and NaNs");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_bit_pattern_matches_the_recurrence(
            log2 in 0usize..11,
            raw in prop::collection::vec(0u64..u64::MAX, 2048..2049),
        ) {
            let n = 1usize << log2;
            let input: Vec<Complex> = raw
                .chunks_exact(2)
                .take(n)
                .map(|c| Complex::new(f64::from_bits(c[0]), f64::from_bits(c[1])))
                .collect();
            for (inverse, got) in [(false, fft(&input)), (true, ifft(&input))] {
                let diff = first_bit_difference(&got, &oracle(&input, inverse));
                prop_assert!(diff.is_none(), "n = {n}, inverse = {inverse}: {diff:?}");
            }
        }
    }

    #[test]
    fn racing_first_calls_at_a_fresh_size_agree_to_the_bit() {
        // No other test in this binary transforms at 2^17, so all eight
        // threads race to build its table.
        const LOG2: u32 = 17;
        assert!(TWIDDLES[2 * LOG2 as usize].get().is_none());
        let mut rng = StdRng::seed_from_u64(0x0ace);
        let input = random_signal(1 << LOG2, &mut rng);
        let barrier = std::sync::Barrier::new(8);
        let outputs: Vec<Vec<Complex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        fft(&input)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let want = oracle(&input, false);
        for got in &outputs {
            assert_eq!(first_bit_difference(got, &want), None);
        }
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn next_pow2_basics() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let y = fft(&x);
        for v in y {
            assert!((v - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse_at_dc() {
        let x = vec![Complex::ONE; 16];
        let y = fft(&x);
        assert!((y[0] - Complex::from_real(16.0)).abs() < 1e-10);
        for v in &y[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..32)
            .map(|k| {
                Complex::new(
                    (k as f64 * 0.37).sin() + 0.2 * k as f64,
                    (k as f64 * 1.1).cos(),
                )
            })
            .collect();
        assert_close(&fft(&x), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn roundtrip_identity() {
        let x: Vec<Complex> = (0..64)
            .map(|k| Complex::new((k as f64).sin(), (k as f64 * 0.3).cos()))
            .collect();
        assert_close(&ifft(&fft(&x)), &x, 1e-10);
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn rfft_conjugate_symmetry() {
        let sig: Vec<f64> = (0..50).map(|k| (k as f64 * 0.21).sin()).collect();
        let spec = rfft(&sig);
        let n = spec.len();
        for k in 1..n / 2 {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let x: Vec<Complex> = (0..128)
            .map(|k| Complex::new((k as f64 * 0.7).sin(), (k as f64 * 0.2).cos()))
            .collect();
        let y = fft(&x);
        let et: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ef: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((et - ef).abs() / et < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        let mut x = vec![Complex::ZERO; 12];
        fft_in_place(&mut x);
    }
}
