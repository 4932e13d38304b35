//! Far-field (plane-wave) wrap delays.
//!
//! A far-away source produces parallel rays (§3.2, Fig 7 of the paper). The
//! relative arrival time at each ear is measured against the wavefront
//! passing through the head centre: a lit ear receives the ray directly
//! (negative delay when the ear faces the source); a shadowed ear receives
//! the ray after it grazes a tangent point and wraps along the boundary.
//!
//! Implementation: a plane wave is the limit of a point source receding
//! along the source direction, so we reuse the point-source geodesic with a
//! source placed [`FAR_DISTANCE`] away and subtract the reference distance
//! to the wavefront through the origin.

use crate::diffraction::{path_length, path_to_ear};
use crate::head::{Ear, HeadBoundary};
use crate::vec2::unit_from_theta;

/// Distance (metres) used to emulate an infinitely far source. At 100 m the
/// residual near-field curvature across a 20 cm head is below 0.1 mm —
/// negligible against the boundary discretization.
pub const FAR_DISTANCE: f64 = 100.0;

/// A plane-wave arrival at one ear.
#[derive(Debug, Clone, Copy)]
pub struct PlanePath {
    /// Extra path length in metres relative to the wavefront through the
    /// head centre (can be negative for the ear facing the source).
    pub excess: f64,
    /// Wrap angle along the boundary, radians (0 when lit).
    pub wrap_angle: f64,
    /// `true` when the ear is in line of sight of the source direction.
    pub direct: bool,
    /// Unit propagation direction at the ear.
    pub arrival_dir: crate::vec2::Vec2,
}

/// Computes the plane-wave arrival at `ear` for a far-field source at polar
/// angle `theta_deg` (paper convention: 0° front, 90° left, 180° back).
pub fn plane_path_to_ear(boundary: &HeadBoundary, theta_deg: f64, ear: Ear) -> PlanePath {
    let src = unit_from_theta(theta_deg) * FAR_DISTANCE;
    // uniq-analyzer: allow(panic-safety) — FAR_DISTANCE is 100 m; no head model approaches that radius
    let p = path_to_ear(boundary, src, ear).expect("far source cannot be inside the head");
    PlanePath {
        excess: p.length - FAR_DISTANCE,
        wrap_angle: p.wrap_angle,
        direct: p.direct,
        arrival_dir: p.arrival_dir,
    }
}

/// The plane-wave excess path of [`plane_path_to_ear`] alone, for callers
/// that need no wrap angle or arrival direction.
pub fn plane_excess(boundary: &HeadBoundary, theta_deg: f64, ear: Ear) -> f64 {
    let src = unit_from_theta(theta_deg) * FAR_DISTANCE;
    // uniq-analyzer: allow(panic-safety) — FAR_DISTANCE is 100 m; no head model approaches that radius
    let length = path_length(boundary, src, ear).expect("far source cannot be inside the head");
    length - FAR_DISTANCE
}

/// Far-field interaural path difference (right minus left) in metres for a
/// source at `theta_deg`.
///
/// ```
/// use uniq_geometry::{HeadBoundary, HeadParams};
/// use uniq_geometry::planewave::plane_itd_metres;
/// let b = HeadBoundary::new(HeadParams::average_adult(), 512);
/// assert!(plane_itd_metres(&b, 0.0).abs() < 1e-3);  // frontal: symmetric
/// assert!(plane_itd_metres(&b, 90.0) > 0.15);       // lateral: big ITD
/// ```
pub fn plane_itd_metres(boundary: &HeadBoundary, theta_deg: f64) -> f64 {
    plane_excess(boundary, theta_deg, Ear::Right) - plane_excess(boundary, theta_deg, Ear::Left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::head::HeadParams;

    fn boundary() -> HeadBoundary {
        HeadBoundary::new(HeadParams::average_adult(), 2048)
    }

    #[test]
    fn excess_alone_matches_the_full_plane_path() {
        for n in [256, 2048] {
            let b = HeadBoundary::new(HeadParams::new(0.06, 0.14, 0.07), n);
            for k in 0..720 {
                let theta = k as f64 * 0.5 + 0.1;
                for ear in Ear::BOTH {
                    assert_eq!(
                        plane_excess(&b, theta, ear).to_bits(),
                        plane_path_to_ear(&b, theta, ear).excess.to_bits(),
                        "{ear:?} at {theta} deg, n = {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn frontal_wave_symmetric() {
        let b = boundary();
        let l = plane_path_to_ear(&b, 0.0, Ear::Left);
        let r = plane_path_to_ear(&b, 0.0, Ear::Right);
        assert!((l.excess - r.excess).abs() < 1e-4);
        assert!((plane_itd_metres(&b, 0.0)).abs() < 1e-4);
    }

    #[test]
    fn lateral_wave_itd_near_woodworth() {
        // Source at 90° (left). For a spherical head Woodworth gives
        // ITD·c = R(φ + sin φ) with φ = π/2 → R(π/2 + 1). Our head is not a
        // sphere; just check the ITD is in the plausible human range
        // (0.6–0.9 ms → 0.2–0.31 m of path).
        let b = boundary();
        let itd = plane_itd_metres(&b, 90.0);
        assert!(itd > 0.15 && itd < 0.35, "lateral ITD {itd} m");
    }

    #[test]
    fn itd_sign_flips_across_midline() {
        let b = boundary();
        // Source on the left (θ = 60°): right ear farther → positive.
        assert!(plane_itd_metres(&b, 60.0) > 0.0);
        // Source on the right (θ = 300°): left ear farther → negative.
        assert!(plane_itd_metres(&b, 300.0) < 0.0);
    }

    #[test]
    fn near_ear_is_lit_far_ear_shadowed() {
        let b = boundary();
        let l = plane_path_to_ear(&b, 90.0, Ear::Left);
        let r = plane_path_to_ear(&b, 90.0, Ear::Right);
        assert!(l.direct);
        assert!(!r.direct);
        assert!(r.wrap_angle > 0.3);
        // The lit ear is ahead of the wavefront through the origin.
        assert!(l.excess < 0.0);
        assert!(r.excess > 0.0);
    }

    #[test]
    fn excess_bounded_by_head_size() {
        let b = boundary();
        let bound = b.params().max_radius() + b.perimeter() / 2.0;
        for k in 0..36 {
            let p = plane_path_to_ear(&b, k as f64 * 10.0, Ear::Left);
            assert!(p.excess.abs() < bound, "θ={} excess {}", k * 10, p.excess);
        }
    }

    #[test]
    fn itd_continuous_in_theta() {
        let b = boundary();
        let mut prev: Option<f64> = None;
        for k in 0..=180 {
            let itd = plane_itd_metres(&b, k as f64);
            if let Some(p) = prev {
                assert!((itd - p).abs() < 6e-3, "ITD jump at θ={k}");
            }
            prev = Some(itd);
        }
    }

    #[test]
    fn front_back_produce_distinct_wrap() {
        // The asymmetric head (b ≠ c) must give different shadow-side wrap
        // delays for mirrored front/back angles — the physical basis for
        // front/back disambiguation (§5.1).
        let b = boundary();
        let front = plane_path_to_ear(&b, 45.0, Ear::Right);
        let back = plane_path_to_ear(&b, 135.0, Ear::Right);
        assert!(
            (front.excess - back.excess).abs() > 1e-4,
            "front {} vs back {}",
            front.excess,
            back.excess
        );
    }
}
