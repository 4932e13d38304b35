//! Plane vectors and the head-centric polar convention.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 2-D vector / point with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Lateral component (positive toward the right ear).
    pub x: f64,
    /// Frontal component (positive out of the nose).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec2) -> f64 {
        self.x * o.x + self.y * o.y
    }

    /// 2-D cross product (z component of the 3-D cross product).
    /// Positive when `o` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, o: Vec2) -> f64 {
        self.x * o.y - self.y * o.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, o: Vec2) -> f64 {
        (self - o).norm()
    }

    /// Unit vector in the same direction.
    ///
    /// # Panics
    /// Panics for the zero vector.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        self / n
    }

    /// Rotates counter-clockwise by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Perpendicular vector (counter-clockwise quarter turn).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Standard mathematical angle in radians (`atan2(y, x)`).
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, o: Vec2) {
        *self = *self + o;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, k: f64) -> Vec2 {
        Vec2::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// Unit vector pointing *toward* the paper's polar angle `θ` (degrees).
///
/// `θ = 0°` is straight ahead (+y), `θ = 90°` is the left-ear direction
/// (−x), `θ = 180°` is straight behind (−y). Angles outside `[0, 360)` wrap.
#[inline]
pub fn unit_from_theta(theta_deg: f64) -> Vec2 {
    let rad = theta_deg.to_radians();
    Vec2::new(-rad.sin(), rad.cos())
}

/// Inverse of [`unit_from_theta`]: the paper's polar angle (degrees, in
/// `[0, 360)`) of a direction/point as seen from the head centre.
///
/// # Panics
/// Panics for the zero vector.
#[inline]
pub fn theta_from_vec(v: Vec2) -> f64 {
    assert!(v.norm() > 0.0, "theta of zero vector undefined");
    let deg = (-v.x).atan2(v.y).to_degrees();
    deg.rem_euclid(360.0)
}

/// Smallest absolute angular difference between two angles in degrees,
/// result in `[0, 180]`.
#[inline]
pub fn angle_diff_deg(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(360.0);
    d.min(360.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn norm_and_dist() {
        assert_eq!(Vec2::new(3.0, 4.0).norm(), 5.0);
        assert_eq!(Vec2::new(1.0, 1.0).dist(Vec2::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn rotation_quarter_turn() {
        let r = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((r.x).abs() < EPS && (r.y - 1.0).abs() < EPS);
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn theta_convention() {
        // 0° = front (+y)
        let f = unit_from_theta(0.0);
        assert!((f.x).abs() < EPS && (f.y - 1.0).abs() < EPS);
        // 90° = left (−x)
        let l = unit_from_theta(90.0);
        assert!((l.x + 1.0).abs() < EPS && l.y.abs() < EPS);
        // 180° = back (−y)
        let b = unit_from_theta(180.0);
        assert!(b.x.abs() < EPS && (b.y + 1.0).abs() < EPS);
        // 270° = right (+x)
        let r = unit_from_theta(270.0);
        assert!((r.x - 1.0).abs() < EPS && r.y.abs() < EPS);
    }

    #[test]
    fn theta_roundtrip() {
        for deg in [0.0, 17.0, 90.0, 133.0, 180.0, 260.0, 359.0] {
            let v = unit_from_theta(deg);
            assert!(
                (theta_from_vec(v) - deg).abs() < 1e-9,
                "roundtrip failed at {deg}"
            );
        }
    }

    #[test]
    fn angle_diff_wraps() {
        assert_eq!(angle_diff_deg(10.0, 350.0), 20.0);
        assert_eq!(angle_diff_deg(350.0, 10.0), 20.0);
        assert_eq!(angle_diff_deg(0.0, 180.0), 180.0);
        assert_eq!(angle_diff_deg(90.0, 90.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_panics() {
        Vec2::ZERO.normalized();
    }
}
