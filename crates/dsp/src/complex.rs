//! A minimal complex-number type.
//!
//! Only what the FFT and frequency-domain processing need: arithmetic,
//! conjugation, polar construction and magnitude. Implemented locally to
//! keep the workspace dependency-free.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` — a unit phasor at angle `theta` radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude; cheaper than [`Complex::abs`] when comparing.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplicative inverse. Returns a non-finite value for zero input.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division via the reciprocal is intentional: one conjugate-multiply
    // plus a scalar divide, the standard complex-division formulation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.25);
        let b = Complex::new(-0.5, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(-1.0, 0.5);
        // (2+3i)(-1+0.5i) = -2 + 1i - 3i + 1.5 i^2 = -3.5 - 2i
        assert!(close(a * b, Complex::new(-3.5, -2.0)));
    }

    #[test]
    fn div_is_mul_inverse() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(-1.0, 0.5);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.im.atan2(z.re) - 0.7).abs() < EPS);
    }

    #[test]
    fn conj_negates_imaginary() {
        let z = Complex::new(1.0, 2.0);
        assert_eq!(z.conj(), Complex::new(1.0, -2.0));
        assert!((z * z.conj()).im.abs() < EPS);
        assert!(((z * z.conj()).re - z.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn cis_unit_magnitude() {
        for k in 0..16 {
            let z = Complex::cis(k as f64 * 0.4);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn cis_of_pi_is_minus_one() {
        let z = Complex::cis(std::f64::consts::PI);
        assert!(close(z, Complex::new(-1.0, 0.0)));
    }

    #[test]
    fn sum_folds() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert!(close(total, Complex::new(6.0, 4.0)));
    }
}
