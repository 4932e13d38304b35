//! 3-D HRTF geometry — the paper's §7 "3D HRTF" extension.
//!
//! The 2-D prototype covers the horizontal plane; extending to elevation
//! "is viable — the user would now need to move the phone on a sphere
//! around the head, and the motion tracking equations need to be extended
//! to 3D." This module provides the geometric core of that extension:
//!
//! * [`Vec3`] — 3-D points/vectors;
//! * [`Head3`] — the two-half-ellipsoid head: the paper's `(a, b, c)`
//!   cross-section extruded with a vertical semi-axis `h`;
//! * [`path_to_ear_3d`] — wrap paths from arbitrary 3-D source positions,
//!   via the **plane-section approximation**: the geodesic is computed in
//!   the plane spanned by the source and the ear through the head centre
//!   (exact for spheres, accurate to first order in eccentricity
//!   otherwise), wrapping around a convex cross-section polygon;
//! * [`plane_itd_3d`] — far-field interaural delays over (azimuth,
//!   elevation), exhibiting the *cone of confusion* that makes elevation
//!   hard for ITD-only systems.

use crate::head::{ArcTable, Ear, HeadParams};
use crate::vec2::Vec2;

/// A 3-D vector / point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// Lateral (through the ears, +x toward the right ear).
    pub x: f64,
    /// Frontal (+y out of the nose).
    pub y: f64,
    /// Vertical (+z up).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector.
    ///
    /// # Panics
    /// Panics for the zero vector.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        Vec3::new(self.x / n, self.y / n, self.z / n)
    }

    /// Difference. Method form keeps `Vec3` consistent with the rest of its
    /// call-style API (`scale`, `dist`, `dot`) without pulling in operator
    /// impls for the 3-D prototype.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }

    /// Scale.
    pub fn scale(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }

    /// Distance.
    pub fn dist(self, o: Vec3) -> f64 {
        self.sub(o).norm()
    }

    /// Direction for (azimuth, elevation) in the paper's convention:
    /// azimuth `θ` as in 2-D (0 = front, 90 = left), elevation `φ` in
    /// degrees above the horizontal plane.
    pub fn from_angles(theta_deg: f64, elevation_deg: f64) -> Vec3 {
        let horiz = crate::vec2::unit_from_theta(theta_deg);
        let (se, ce) = elevation_deg.to_radians().sin_cos();
        Vec3::new(horiz.x * ce, horiz.y * ce, se)
    }
}

/// The two-half-ellipsoid head: the paper's `(a, b, c)` horizontal
/// cross-section with a vertical semi-axis `h`.
#[derive(Debug, Clone, Copy)]
pub struct Head3 {
    /// Horizontal parameters (the paper's `E`).
    pub planar: HeadParams,
    /// Vertical semi-axis, metres.
    pub h: f64,
}

impl Head3 {
    /// Average adult: horizontal average plus an 11 cm vertical semi-axis.
    pub fn average_adult() -> Self {
        Head3 {
            planar: HeadParams::average_adult(),
            h: 0.11,
        }
    }

    /// Validated construction.
    ///
    /// # Panics
    /// Panics on implausible axes.
    pub fn new(planar: HeadParams, h: f64) -> Self {
        planar.validate();
        assert!(
            (0.02..=0.30).contains(&h),
            "vertical semi-axis {h} m outside plausible range"
        );
        Head3 { planar, h }
    }

    /// Ear positions (on the ear axis, z = 0).
    pub fn ear(&self, ear: Ear) -> Vec3 {
        let e2 = self.planar.ear(ear);
        Vec3::new(e2.x, e2.y, 0.0)
    }

    /// Distance from the centre to the surface along unit direction `d`
    /// (piecewise front/back like the 2-D model).
    pub fn surface_radius(&self, d: Vec3) -> f64 {
        let sy = if d.y >= 0.0 {
            self.planar.b
        } else {
            self.planar.c
        };
        let q = (d.x / self.planar.a).powi(2) + (d.y / sy).powi(2) + (d.z / self.h).powi(2);
        1.0 / q.sqrt()
    }

    /// `true` when `p` is strictly inside the head.
    pub fn contains(&self, p: Vec3) -> bool {
        let n = p.norm();
        if n == 0.0 {
            return true;
        }
        n < self.surface_radius(p.normalized()) - 1e-12
    }
}

/// A 3-D wrap path result.
#[derive(Debug, Clone, Copy)]
pub struct Path3 {
    /// Total path length, metres.
    pub length: f64,
    /// Wrap (turning) angle in the section plane, radians.
    pub wrap_angle: f64,
    /// Whether the ear is in line of sight.
    pub direct: bool,
}

/// Default cross-section polygon resolution (forward/truth model).
pub const SECTION_RESOLUTION: usize = 512;

/// Shortest wrap path from a 3-D source to an ear, via the plane-section
/// approximation. Returns `None` when the source is inside the head.
pub fn path_to_ear_3d(head: &Head3, src: Vec3, ear: Ear) -> Option<Path3> {
    path_to_ear_3d_res(head, src, ear, SECTION_RESOLUTION)
}

/// [`path_to_ear_3d`] with an explicit cross-section resolution — inverse
/// solvers use a coarser polygon for speed (and realistic model mismatch).
///
/// # Panics
/// Panics if `resolution < 16`.
pub fn path_to_ear_3d_res(head: &Head3, src: Vec3, ear: Ear, resolution: usize) -> Option<Path3> {
    assert!(resolution >= 16, "cross-section needs at least 16 vertices");
    if head.contains(src) {
        return None;
    }
    let e = head.ear(ear);

    // Section plane basis: e1 toward the ear, e2 the in-plane component
    // of the source direction. Degenerate (collinear) sources fall back to
    // the vertical plane.
    let e1 = e.normalized();
    let mut ortho = src.sub(e1.scale(src.dot(e1)));
    if ortho.norm() < 1e-9 {
        // Source along the ear axis: any section plane works; use the one
        // containing +z.
        ortho = Vec3::new(0.0, 0.0, 1.0).sub(e1.scale(e1.z));
    }
    let e2 = ortho.normalized();

    let poly = ConvexPolygon::new(section_vertices(head, e1, e2, resolution));

    let src2d = Vec2::new(src.dot(e1), src.dot(e2));
    // The ear is vertex 0 by construction (t = 0 points at the ear and the
    // ear lies on the surface).
    poly.wrap_to_vertex(src2d, 0)
}

/// The head's cross-section in the plane spanned by the orthonormal
/// `e1`, `e2`, as `resolution` counter-clockwise vertices: for angle `t`,
/// direction `d(t)` in the plane, surface point `r(t)·d(t)` projected to
/// plane coordinates. Vertex 0 lies along `e1`.
fn section_vertices(head: &Head3, e1: Vec3, e2: Vec3, resolution: usize) -> Vec<Vec2> {
    (0..resolution)
        .map(|k| {
            let t = std::f64::consts::TAU * k as f64 / resolution as f64;
            let d = e1.scale(t.cos()).addv(e2.scale(t.sin()));
            let r = head.surface_radius(d.normalized());
            Vec2::new(r * t.cos(), r * t.sin())
        })
        .collect()
}

impl Vec3 {
    /// Component-wise addition (named to avoid an operator-impl explosion
    /// for this prototype module).
    pub fn addv(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

/// Far-field interaural path difference (right minus left, metres) for a
/// plane wave from `(azimuth, elevation)`.
///
/// ```
/// use uniq_geometry::elevation::{plane_itd_3d, Head3};
/// let head = Head3::average_adult();
/// let flat = plane_itd_3d(&head, 90.0, 0.0);
/// let raised = plane_itd_3d(&head, 90.0, 60.0);
/// assert!(raised < flat);   // the cone of confusion narrows with elevation
/// ```
pub fn plane_itd_3d(head: &Head3, theta_deg: f64, elevation_deg: f64) -> f64 {
    const FAR: f64 = 100.0;
    let src = Vec3::from_angles(theta_deg, elevation_deg).scale(FAR);
    // uniq-analyzer: allow(panic-safety) — the source sits 100 m out; no head model approaches that radius
    let l = path_to_ear_3d(head, src, Ear::Left).expect("far source outside head");
    // uniq-analyzer: allow(panic-safety) — same 100 m far-field source as the line above
    let r = path_to_ear_3d(head, src, Ear::Right).expect("far source outside head");
    r.length - l.length
}

/// A convex cross-section polygon: an [`ArcTable`] plus exact
/// (clipping-based) containment and segment visibility.
struct ConvexPolygon {
    poly: ArcTable,
}

impl ConvexPolygon {
    /// Builds a polygon from counter-clockwise vertices.
    ///
    /// # Panics
    /// Panics with fewer than 8 vertices or if the vertices are not
    /// (weakly) convex counter-clockwise.
    fn new(verts: Vec<Vec2>) -> Self {
        let n = verts.len();
        assert!(n >= 8, "polygon needs at least 8 vertices, got {n}");
        for k in 0..n {
            let a = verts[k];
            let b = verts[(k + 1) % n];
            let c = verts[(k + 2) % n];
            let cross = (b - a).cross(c - b);
            assert!(
                cross > -1e-12,
                "vertices not convex counter-clockwise at index {k}"
            );
        }
        ConvexPolygon {
            poly: ArcTable::new(verts),
        }
    }

    /// `true` when `p` is strictly inside.
    fn contains(&self, p: Vec2) -> bool {
        let verts = self.poly.vertices();
        let n = verts.len();
        (0..n).all(|k| {
            let a = verts[k];
            let b = verts[(k + 1) % n];
            (b - a).cross(p - a) > 1e-12
        })
    }

    /// `true` when the open segment `p`–`q` avoids the interior (endpoints
    /// may touch the boundary). Exact: clips the segment against every
    /// edge half-plane and checks whether a positive-length sub-interval
    /// lies strictly inside.
    fn segment_clear(&self, p: Vec2, q: Vec2) -> bool {
        let verts = self.poly.vertices();
        let n = verts.len();
        let d = q - p;
        let (mut lo, mut hi): (f64, f64) = (1e-9, 1.0 - 1e-9);
        for k in 0..n {
            let a = verts[k];
            let b = verts[(k + 1) % n];
            let edge = b - a;
            // Inside condition: edge × (x(t) − a) > 0 where x(t) = p + t·d.
            let f0 = edge.cross(p - a);
            let f1 = edge.cross(d); // slope in t
            if f1.abs() < 1e-300 {
                if f0 <= 1e-12 {
                    return true; // entirely outside this half-plane
                }
                continue;
            }
            let t_zero = -f0 / f1;
            if f1 > 0.0 {
                lo = lo.max(t_zero);
            } else {
                hi = hi.min(t_zero);
            }
            if lo >= hi {
                return true;
            }
        }
        // A strictly interior interval remains → blocked. Guard against
        // grazing (zero-depth) contact: check the midpoint is truly inside.
        let mid = p + d * ((lo + hi) / 2.0);
        !self.contains(mid)
    }

    /// Shortest taut-string path from external point `src` to boundary
    /// vertex `target_idx`. Returns `None` if `src` is strictly inside.
    fn wrap_to_vertex(&self, src: Vec2, target_idx: usize) -> Option<Path3> {
        if self.contains(src) {
            return None;
        }
        let verts = self.poly.vertices();
        let n = verts.len();
        let target_idx = target_idx % n;
        let target = verts[target_idx];

        if self.segment_clear(src, target) {
            return Some(Path3 {
                length: src.dist(target),
                wrap_angle: 0.0,
                direct: true,
            });
        }

        // Tangent vertices: angular extremes as seen from src, measured
        // against the direction to the centroid.
        let centroid = verts.iter().fold(Vec2::ZERO, |acc, &v| acc + v) / n as f64;
        let base = (centroid - src).angle();
        let signed = |v: Vec2| -> f64 {
            let mut a = ((v - src).angle() - base).rem_euclid(std::f64::consts::TAU);
            if a > std::f64::consts::PI {
                a -= std::f64::consts::TAU;
            }
            a
        };
        let (mut t_min, mut t_max) = (0usize, 0usize);
        let (mut a_min, mut a_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (k, &v) in verts.iter().enumerate() {
            let a = signed(v);
            if a < a_min {
                a_min = a;
                t_min = k;
            }
            if a > a_max {
                a_max = a;
                t_max = k;
            }
        }

        let (length, t_idx, ccw) = self.poly.wrap(src, [t_min, t_max], target_idx);
        // The polygon is built for this one query: no exterior-angle table.
        Some(Path3 {
            length,
            wrap_angle: self.poly.turning_once(t_idx, target_idx, ccw),
            direct: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planewave::plane_itd_metres;
    use crate::HeadBoundary;
    use std::f64::consts::TAU;

    fn head() -> Head3 {
        Head3::average_adult()
    }

    #[test]
    fn vec3_angles_convention() {
        let front = Vec3::from_angles(0.0, 0.0);
        assert!((front.y - 1.0).abs() < 1e-12 && front.z.abs() < 1e-12);
        let up = Vec3::from_angles(0.0, 90.0);
        assert!((up.z - 1.0).abs() < 1e-12);
        let left = Vec3::from_angles(90.0, 0.0);
        assert!((left.x + 1.0).abs() < 1e-12);
    }

    #[test]
    fn surface_and_containment() {
        let h = head();
        assert!(h.contains(Vec3::ZERO));
        assert!(!h.contains(Vec3::new(0.0, 0.0, 0.12)));
        assert!(h.contains(Vec3::new(0.0, 0.0, 0.10)));
        // Surface radius along axes.
        assert!((h.surface_radius(Vec3::new(1.0, 0.0, 0.0)) - 0.075).abs() < 1e-12);
        assert!((h.surface_radius(Vec3::new(0.0, 1.0, 0.0)) - 0.100).abs() < 1e-12);
        assert!((h.surface_radius(Vec3::new(0.0, -1.0, 0.0)) - 0.090).abs() < 1e-12);
        assert!((h.surface_radius(Vec3::new(0.0, 0.0, 1.0)) - 0.110).abs() < 1e-12);
    }

    #[test]
    fn zero_elevation_matches_2d_machinery() {
        // In the horizontal plane the 3-D path must agree with the 2-D
        // model (same geometry, different code path).
        let h3 = head();
        let b2 = HeadBoundary::new(h3.planar, 2048);
        for theta in [20.0, 60.0, 110.0, 160.0] {
            let itd3 = plane_itd_3d(&h3, theta, 0.0);
            let itd2 = plane_itd_metres(&b2, theta);
            assert!(
                (itd3 - itd2).abs() < 2e-3,
                "θ={theta}: 3D {itd3} vs 2D {itd2}"
            );
        }
    }

    #[test]
    fn elevation_shrinks_itd() {
        // Raising the source toward the pole shortens the interaural
        // difference — the cone-of-confusion geometry.
        let h = head();
        let flat = plane_itd_3d(&h, 90.0, 0.0);
        let raised = plane_itd_3d(&h, 90.0, 45.0);
        let high = plane_itd_3d(&h, 90.0, 75.0);
        assert!(raised < flat, "{raised} vs {flat}");
        assert!(high < raised, "{high} vs {raised}");
        assert!(high > 0.0);
    }

    #[test]
    fn overhead_source_is_symmetric() {
        let h = head();
        let itd = plane_itd_3d(&h, 0.0, 89.9);
        assert!(itd.abs() < 1e-3, "overhead ITD {itd}");
    }

    #[test]
    fn cone_of_confusion_is_flat_in_itd() {
        // Keeping the angle to the ear axis fixed while changing
        // elevation leaves the ITD nearly constant — the ambiguity that
        // pinna cues (and personalized HRTFs) must break.
        let h = head();
        // Points on the cone at 45° from the +x (right-ear) axis:
        // x = cos45, sqrt(y² + z²) = sin45.
        let on_cone = |roll_deg: f64| -> Vec3 {
            let (sr, cr) = roll_deg.to_radians().sin_cos();
            Vec3::new(
                std::f64::consts::FRAC_1_SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2 * cr,
                std::f64::consts::FRAC_1_SQRT_2 * sr,
            )
            .scale(100.0)
        };
        let itd_at = |roll: f64| {
            let src = on_cone(roll);
            let l = path_to_ear_3d(&h, src, Ear::Left).unwrap().length;
            let r = path_to_ear_3d(&h, src, Ear::Right).unwrap().length;
            r - l
        };
        let base = itd_at(0.0);
        for roll in [20.0, 45.0, 70.0] {
            let itd = itd_at(roll);
            assert!(
                (itd - base).abs() < 0.015,
                "cone not flat at roll {roll}: {itd} vs {base}"
            );
        }
    }

    #[test]
    fn source_inside_rejected() {
        assert!(path_to_ear_3d(&head(), Vec3::new(0.01, 0.0, 0.02), Ear::Left).is_none());
    }

    #[test]
    fn shadowed_3d_path_wraps() {
        let h = head();
        let src = Vec3::new(-50.0, 0.0, 0.0); // far left
        let r = path_to_ear_3d(&h, src, Ear::Right).unwrap();
        assert!(!r.direct);
        assert!(r.wrap_angle > 0.5);
        let l = path_to_ear_3d(&h, src, Ear::Left).unwrap();
        assert!(l.direct);
        assert!(r.length > l.length);
    }

    #[test]
    fn section_paths_are_pinned() {
        // Every length, wrap-angle and line-of-sight bit of a sweep over
        // two heads, both ears, lit and shadowed sources from below to
        // near the pole, folded into one FNV-1a digest.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let (mut lit, mut shadowed) = (0, 0);
        let heads = [
            Head3::average_adult(),
            Head3::new(HeadParams::new(0.06, 0.14, 0.07), 0.09),
        ];
        for head in heads {
            for resolution in [128, 512] {
                for el in [-60.0, -25.0, 0.0, 30.0, 55.0, 85.0] {
                    for k in 0..24 {
                        let theta = k as f64 * 15.0 + 2.5;
                        for r in [0.2, 0.5, 3.0] {
                            let src = Vec3::from_angles(theta, el).scale(r);
                            for ear in Ear::BOTH {
                                let path = path_to_ear_3d_res(&head, src, ear, resolution)
                                    .expect("sources lie outside the head");
                                fold(path.length.to_bits());
                                fold(path.wrap_angle.to_bits());
                                fold(u64::from(path.direct));
                                if path.direct {
                                    lit += 1;
                                } else {
                                    shadowed += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            lit > 1000 && shadowed > 1000,
            "lit {lit}, shadowed {shadowed}"
        );
        assert_eq!(digest, 0x795f_28f7_bf48_3d80, "digest {digest:#018x}");
    }

    #[test]
    fn a_section_query_builds_no_exterior_angle_table() {
        let head = Head3::average_adult();
        let e1 = head.ear(Ear::Right).normalized();
        let e2 = Vec3::new(0.0, 1.0, 0.0);
        let poly = ConvexPolygon::new(section_vertices(&head, e1, e2, 128));
        // A source on the far side of the head wraps.
        let far = poly.poly.vertices()[64] * 4.0;
        let path = poly.wrap_to_vertex(far, 0).expect("source outside");
        assert!(!path.direct && path.wrap_angle > 0.5, "{path:?}");
        assert!(!poly.poly.has_exterior_table());
    }

    #[test]
    fn section_turning_matches_the_per_vertex_walk() {
        // An elevated section through the left ear: its vertices come
        // from the ellipsoid, not the two-half-ellipse boundary.
        let head = Head3::new(HeadParams::new(0.06, 0.14, 0.07), 0.09);
        let e1 = head.ear(Ear::Left).normalized();
        let e2 = Vec3::new(0.0, 0.6, 0.8);
        for resolution in [16, 128, 512] {
            ConvexPolygon::new(section_vertices(&head, e1, e2, resolution))
                .poly
                .assert_turning_matches_walk();
        }
    }

    fn circle(n: usize, r: f64) -> ConvexPolygon {
        ConvexPolygon::new(
            (0..n)
                .map(|k| {
                    let t = TAU * k as f64 / n as f64;
                    Vec2::new(r * t.cos(), r * t.sin())
                })
                .collect(),
        )
    }

    #[test]
    fn contains_center_not_outside() {
        let p = circle(64, 1.0);
        assert!(p.contains(Vec2::ZERO));
        assert!(!p.contains(Vec2::new(2.0, 0.0)));
    }

    #[test]
    fn perimeter_of_circle() {
        let p = circle(1024, 1.0);
        assert!((p.poly.perimeter() - TAU).abs() < 1e-3);
    }

    #[test]
    fn segment_clear_cases() {
        let p = circle(256, 1.0);
        // Through the middle: blocked.
        assert!(!p.segment_clear(Vec2::new(-2.0, 0.0), Vec2::new(2.0, 0.0)));
        // Passing well outside: clear.
        assert!(p.segment_clear(Vec2::new(-2.0, 1.5), Vec2::new(2.0, 1.5)));
        // To a boundary vertex from outside on the same side: clear.
        assert!(p.segment_clear(Vec2::new(2.0, 0.0), p.poly.vertices()[0]));
    }

    #[test]
    fn wrap_matches_circle_closed_form() {
        let r = 1.0;
        let p = circle(2048, r);
        // Source on +x at distance d, target = vertex at angle π (−x).
        let d = 3.0;
        let src = Vec2::new(d, 0.0);
        let target_idx = 1024; // angle π
        let path = p.wrap_to_vertex(src, target_idx).unwrap();
        assert!(!path.direct);
        let tangent = (d * d - r * r).sqrt();
        let beta = (r / d).acos();
        let expect = tangent + r * (std::f64::consts::PI - beta);
        assert!(
            (path.length - expect).abs() < 2e-3,
            "{} vs {expect}",
            path.length
        );
    }

    #[test]
    fn direct_when_visible() {
        let p = circle(256, 1.0);
        let src = Vec2::new(3.0, 0.0);
        let path = p.wrap_to_vertex(src, 0).unwrap();
        assert!(path.direct);
        assert!((path.length - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inside_source_rejected() {
        let p = circle(64, 1.0);
        assert!(p.wrap_to_vertex(Vec2::new(0.1, 0.1), 0).is_none());
    }

    #[test]
    #[should_panic(expected = "not convex")]
    fn concave_rejected() {
        let mut verts: Vec<Vec2> = (0..16)
            .map(|k| {
                let t = TAU * k as f64 / 16.0;
                Vec2::new(t.cos(), t.sin())
            })
            .collect();
        verts[3] = Vec2::new(0.1, 0.1); // dent
        ConvexPolygon::new(verts);
    }
}
