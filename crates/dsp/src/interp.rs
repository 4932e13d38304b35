//! One-dimensional and vector interpolation.
//!
//! [`lerp_vec`] is the workhorse of near-field HRTF interpolation (§4.2):
//! once two HRIRs are first-tap aligned, the interpolated HRIR for an
//! intermediate angle is their element-wise linear blend.

/// Scalar linear interpolation: `a + t·(b − a)`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + t * (b - a)
}

/// Element-wise linear interpolation between two equal-length vectors.
///
/// # Panics
/// Panics if lengths differ.
pub fn lerp_vec(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "lerp_vec: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| lerp(x, y, t)).collect()
}

/// Interpolates periodic angular data (period 360°): finds the bracketing
/// measured angles around `angle_deg` (wrapping) and returns their indices
/// plus the blend fraction.
///
/// `angles_deg` must be sorted ascending within `[0, 360)`.
///
/// # Panics
/// Panics if `angles_deg` is empty.
pub fn bracket_angle(angles_deg: &[f64], angle_deg: f64) -> (usize, usize, f64) {
    assert!(!angles_deg.is_empty(), "bracket_angle: no angles");
    let n = angles_deg.len();
    let a = angle_deg.rem_euclid(360.0);
    if n == 1 {
        return (0, 0, 0.0);
    }
    // Find first angle >= a.
    let idx = angles_deg.partition_point(|&x| x < a);
    let (i0, i1) = if idx == 0 || idx == n {
        (n - 1, 0) // wraps around 0/360
    } else {
        (idx - 1, idx)
    };
    let x0 = angles_deg[i0];
    let x1 = angles_deg[i1];
    let span = (x1 - x0).rem_euclid(360.0);
    let off = (a - x0).rem_euclid(360.0);
    let t = if span <= 1e-12 {
        0.0
    } else {
        (off / span).clamp(0.0, 1.0)
    };
    (i0, i1, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 6.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 6.0, 1.0), 6.0);
        assert_eq!(lerp(2.0, 6.0, 0.25), 3.0);
    }

    #[test]
    fn lerp_vec_blends() {
        let a = vec![0.0, 10.0];
        let b = vec![10.0, 20.0];
        assert_eq!(lerp_vec(&a, &b, 0.5), vec![5.0, 15.0]);
    }

    #[test]
    fn bracket_angle_interior() {
        let angles = [0.0, 90.0, 180.0];
        let (i0, i1, t) = bracket_angle(&angles, 45.0);
        assert_eq!((i0, i1), (0, 1));
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bracket_angle_exact_hit() {
        let angles = [0.0, 90.0, 180.0];
        let (i0, i1, t) = bracket_angle(&angles, 90.0);
        // 90 is the right bracket with t=1 (or left with t=0); either way
        // the blend must return exactly the measured angle's data.
        let blend = |a: f64, b: f64, t: f64| a + t * (b - a);
        let v = blend(angles[i0], angles[i1], t);
        assert!((v - 90.0).abs() < 1e-9);
    }

    #[test]
    fn bracket_angle_wraps() {
        let angles = [10.0, 90.0, 350.0];
        let (i0, i1, t) = bracket_angle(&angles, 0.0);
        assert_eq!((i0, i1), (2, 0));
        assert!((t - 0.5).abs() < 1e-12); // 350→10 spans 20°, 0 is midway
    }

    #[test]
    fn bracket_single_angle() {
        let (i0, i1, t) = bracket_angle(&[42.0], 123.0);
        assert_eq!((i0, i1, t), (0, 0, 0.0));
    }
}
