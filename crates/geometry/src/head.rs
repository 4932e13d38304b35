//! The three-parameter head model and its discretized boundary.
//!
//! §4.1 of the paper: *"we start by approximating the head shape as a
//! conjunction of two half-ellipses, attached at the ear locations ...
//! expressed through a 3-parameter set E = (a, b, c)"*. The front half
//! (nose side, `y ≥ 0`) is the ellipse with semi-axes `(a, b)`; the back
//! half (`y < 0`) has semi-axes `(a, c)`. The ears sit exactly at the
//! junction points `(±a, 0)`.

use crate::vec2::Vec2;
use std::f64::consts::PI;

/// Which ear a path terminates at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ear {
    /// Left ear, at `(-a, 0)`.
    Left,
    /// Right ear, at `(+a, 0)`.
    Right,
}

impl Ear {
    /// Both ears, left first.
    pub const BOTH: [Ear; 2] = [Ear::Left, Ear::Right];

    /// The opposite ear.
    pub fn opposite(self) -> Ear {
        match self {
            Ear::Left => Ear::Right,
            Ear::Right => Ear::Left,
        }
    }
}

/// The paper's head-shape parameter set `E = (a, b, c)`, in metres.
///
/// ```
/// use uniq_geometry::{HeadParams, HeadBoundary, Ear};
/// let head = HeadParams::average_adult();
/// let boundary = HeadBoundary::with_default_resolution(head);
/// // Ears sit exactly on the discretized boundary.
/// assert_eq!(boundary.vertices()[boundary.ear_index(Ear::Right)].x, head.a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadParams {
    /// Lateral semi-axis: half the ear-to-ear width.
    pub a: f64,
    /// Frontal semi-axis: head-centre to front of face.
    pub b: f64,
    /// Rear semi-axis: head-centre to back of skull.
    pub c: f64,
}

impl HeadParams {
    /// Anthropometric average adult head (a ≈ 7.5 cm half-width,
    /// 10 cm to the face plane, 9 cm to the rear).
    pub fn average_adult() -> Self {
        HeadParams {
            a: 0.075,
            b: 0.100,
            c: 0.090,
        }
    }

    /// Creates validated parameters.
    ///
    /// # Panics
    /// Panics unless all axes are positive and anatomically plausible
    /// (between 2 cm and 30 cm).
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        let p = HeadParams { a, b, c };
        p.validate();
        p
    }

    /// The first semi-axis outside the anatomically plausible range
    /// (2 cm to 30 cm; NaN is outside), as `(name, metres)`.
    pub fn implausible_axis(&self) -> Option<(&'static str, f64)> {
        [("a", self.a), ("b", self.b), ("c", self.c)]
            .into_iter()
            .find(|(_, v)| !(0.02..=0.30).contains(v))
    }

    /// Checks the parameters are positive and within anatomical bounds.
    ///
    /// # Panics
    /// Panics on violation (see [`HeadParams::implausible_axis`]).
    pub fn validate(&self) {
        let bad = self.implausible_axis();
        let (name, v) = bad.unwrap_or_default();
        assert!(
            bad.is_none(),
            "head axis {name} = {v} m outside plausible range [0.02, 0.30]"
        );
    }

    /// Position of an ear.
    pub fn ear(&self, ear: Ear) -> Vec2 {
        match ear {
            Ear::Left => Vec2::new(-self.a, 0.0),
            Ear::Right => Vec2::new(self.a, 0.0),
        }
    }

    /// Boundary point at parameter `t ∈ [0, 2π)`; `t = 0` is the right ear,
    /// increasing counter-clockwise (through the front of the face first).
    pub fn boundary_point(&self, t: f64) -> Vec2 {
        let t = t.rem_euclid(2.0 * PI);
        let x = self.a * t.cos();
        let y = if t <= PI {
            self.b * t.sin()
        } else {
            self.c * t.sin()
        };
        Vec2::new(x, y)
    }

    /// `true` when `p` is strictly inside the head.
    pub fn contains(&self, p: Vec2) -> bool {
        let semi_y = if p.y >= 0.0 { self.b } else { self.c };
        let q = (p.x / self.a).powi(2) + (p.y / semi_y).powi(2);
        q < 1.0 - 1e-12
    }

    /// Largest of the three semi-axes — a bound on the head radius.
    pub fn max_radius(&self) -> f64 {
        self.a.max(self.b).max(self.c)
    }
}

/// A discretized head boundary: a convex polygon with precomputed
/// cumulative arc lengths, supporting the wrap-path queries in
/// [`crate::diffraction`].
#[derive(Debug, Clone)]
pub struct HeadBoundary {
    params: HeadParams,
    verts: Vec<Vec2>,
    /// `cum[i]` = arc length from vertex 0 to vertex `i` (so `cum[0] = 0`);
    /// one extra entry holds the full perimeter.
    cum: Vec<f64>,
    left_idx: usize,
    right_idx: usize,
}

impl HeadBoundary {
    /// Discretizes the head boundary into `n` vertices (counter-clockwise,
    /// vertex 0 at the right ear). `n` must be even so the left ear lands
    /// exactly on vertex `n/2`.
    ///
    /// # Panics
    /// Panics if `n < 16` or `n` is odd, or the parameters are implausible.
    pub fn new(params: HeadParams, n: usize) -> Self {
        params.validate();
        assert!(
            n >= 16 && n.is_multiple_of(2),
            "boundary needs an even n >= 16, got {n}"
        );
        let verts: Vec<Vec2> = (0..n)
            .map(|k| params.boundary_point(2.0 * PI * k as f64 / n as f64))
            .collect();
        let mut cum = Vec::with_capacity(n + 1);
        // uniq-analyzer: allow(hot-path-alloc) — cum is pre-sized with with_capacity(n + 1); the boundary is built once per fusion objective evaluation, not per sample
        cum.push(0.0);
        for k in 0..n {
            let next = verts[(k + 1) % n];
            cum.push(cum[k] + verts[k].dist(next));
        }
        HeadBoundary {
            params,
            verts,
            cum,
            left_idx: n / 2,
            right_idx: 0,
        }
    }

    /// Default resolution used by the inverse solver (1024 vertices).
    pub fn with_default_resolution(params: HeadParams) -> Self {
        HeadBoundary::new(params, 1024)
    }

    /// The underlying parameters.
    pub fn params(&self) -> HeadParams {
        self.params
    }

    /// Boundary vertices (counter-clockwise).
    pub fn vertices(&self) -> &[Vec2] {
        &self.verts
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Always `false` (construction guarantees ≥ 16 vertices); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Total boundary perimeter.
    pub fn perimeter(&self) -> f64 {
        // uniq-analyzer: allow(panic-safety) — HeadBoundary::new always discretizes to at least 8 vertices
        *self.cum.last().expect("non-empty cum")
    }

    /// Vertex index of an ear.
    pub fn ear_index(&self, ear: Ear) -> usize {
        match ear {
            Ear::Left => self.left_idx,
            Ear::Right => self.right_idx,
        }
    }

    /// Counter-clockwise arc length from vertex `i` to vertex `j`.
    pub fn arc_ccw(&self, i: usize, j: usize) -> f64 {
        let n = self.verts.len();
        let (i, j) = (i % n, j % n);
        if j >= i {
            self.cum[j] - self.cum[i]
        } else {
            self.perimeter() - (self.cum[i] - self.cum[j])
        }
    }

    /// Clockwise arc length from vertex `i` to vertex `j`.
    pub fn arc_cw(&self, i: usize, j: usize) -> f64 {
        self.arc_ccw(j, i)
    }

    /// `true` when `p` is strictly inside the head (analytic test).
    pub fn contains(&self, p: Vec2) -> bool {
        self.params.contains(p)
    }

    /// `true` when the open segment `p`–`q` stays outside the head
    /// (endpoints may lie on the boundary).
    ///
    /// Analytic test: each half-ellipse is mapped to a unit circle, the
    /// segment's inside-interval is solved in closed form and intersected
    /// with the half-plane of that half, then the deepest penetration is
    /// compared against a tolerance so grazing rays count as clear.
    pub fn segment_clear(&self, p: Vec2, q: Vec2) -> bool {
        let h = self.params;
        for (semi_y, front) in [(h.b, true), (h.c, false)] {
            // Scale so this half-ellipse becomes the unit circle.
            let ps = Vec2::new(p.x / h.a, p.y / semi_y);
            let qs = Vec2::new(q.x / h.a, q.y / semi_y);
            let d = qs - ps;
            let aa = d.norm_sqr();
            if aa == 0.0 {
                continue;
            }
            let bb = 2.0 * ps.dot(d);
            let cc = ps.norm_sqr() - 1.0;
            let disc = bb * bb - 4.0 * aa * cc;
            if disc <= 0.0 {
                continue;
            }
            let sq = disc.sqrt();
            let mut lo = (-bb - sq) / (2.0 * aa);
            let mut hi = (-bb + sq) / (2.0 * aa);
            // Open segment: exclude the endpoints themselves.
            lo = lo.max(1e-9);
            hi = hi.min(1.0 - 1e-9);
            if lo >= hi {
                continue;
            }
            // Restrict to the half-plane of this half (front: y >= 0).
            let y0 = p.y;
            let dy = q.y - p.y;
            let (lo, hi) = clip_halfplane(lo, hi, y0, dy, front);
            if lo >= hi {
                continue;
            }
            // Deepest penetration of the quadratic |ps + t d|^2 on [lo, hi].
            let t_star = (-bb / (2.0 * aa)).clamp(lo, hi);
            let pt = ps + d * t_star;
            if pt.norm_sqr() < 1.0 - 1e-9 {
                return false;
            }
        }
        true
    }
}

/// Intersects the parameter interval `[lo, hi]` of the segment with the
/// half-plane `y(t) >= 0` (front) or `y(t) < 0` (back), where
/// `y(t) = y0 + t·dy`.
fn clip_halfplane(lo: f64, hi: f64, y0: f64, dy: f64, front: bool) -> (f64, f64) {
    if dy.abs() < 1e-300 {
        // Constant y: keep the whole interval or none of it. y == 0 counts
        // as front (matching `HeadParams::contains`).
        let in_half = if front { y0 >= 0.0 } else { y0 < 0.0 };
        return if in_half { (lo, hi) } else { (1.0, 0.0) };
    }
    let t_zero = -y0 / dy;
    // y(t) >= 0 for t >= t_zero when dy > 0, or t <= t_zero when dy < 0.
    let keep_upper = dy > 0.0; // "upper" = t above t_zero has y > 0
    let want_positive = front;
    if keep_upper == want_positive {
        (lo.max(t_zero), hi)
    } else {
        (lo, hi.min(t_zero))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head() -> HeadParams {
        HeadParams::average_adult()
    }

    #[test]
    fn ears_on_boundary() {
        let h = head();
        assert_eq!(h.ear(Ear::Left), Vec2::new(-0.075, 0.0));
        assert_eq!(h.ear(Ear::Right), Vec2::new(0.075, 0.0));
        assert_eq!(h.boundary_point(0.0), Vec2::new(0.075, 0.0));
        let left = h.boundary_point(PI);
        assert!((left.x + 0.075).abs() < 1e-12 && left.y.abs() < 1e-12);
    }

    #[test]
    fn boundary_front_back_asymmetry() {
        let h = head();
        let front = h.boundary_point(PI / 2.0);
        let back = h.boundary_point(3.0 * PI / 2.0);
        assert!((front.y - h.b).abs() < 1e-12);
        assert!((back.y + h.c).abs() < 1e-12);
    }

    #[test]
    fn contains_basic() {
        let h = head();
        assert!(h.contains(Vec2::ZERO));
        assert!(h.contains(Vec2::new(0.0, 0.09))); // inside front
        assert!(!h.contains(Vec2::new(0.0, 0.11))); // outside front
        assert!(!h.contains(Vec2::new(0.0, -0.095))); // outside back (c=0.09)
        assert!(h.contains(Vec2::new(0.0, -0.085))); // inside back
        assert!(!h.contains(Vec2::new(0.2, 0.0)));
    }

    #[test]
    fn ear_not_contained() {
        let h = head();
        assert!(!h.contains(h.ear(Ear::Left)));
        assert!(!h.contains(h.ear(Ear::Right)));
    }

    #[test]
    fn boundary_vertices_on_hull() {
        let b = HeadBoundary::new(head(), 256);
        assert_eq!(b.len(), 256);
        for v in b.vertices() {
            assert!(!b.contains(*v), "vertex {v:?} inside");
        }
        assert_eq!(b.vertices()[b.ear_index(Ear::Right)], Vec2::new(0.075, 0.0));
        let le = b.vertices()[b.ear_index(Ear::Left)];
        assert!((le.x + 0.075).abs() < 1e-12);
    }

    #[test]
    fn perimeter_close_to_ellipse_sum() {
        // Perimeter of the two-half-ellipse ≈ half perimeter of (a,b)
        // ellipse + half of (a,c). Ramanujan approximation per half.
        let h = head();
        let ram =
            |a: f64, bb: f64| PI * (3.0 * (a + bb) - ((3.0 * a + bb) * (a + 3.0 * bb)).sqrt());
        let expect = 0.5 * ram(h.a, h.b) + 0.5 * ram(h.a, h.c);
        let b = HeadBoundary::new(h, 4096);
        assert!(
            (b.perimeter() - expect).abs() / expect < 1e-3,
            "perimeter {} vs {}",
            b.perimeter(),
            expect
        );
    }

    #[test]
    fn perimeter_converges_with_resolution() {
        let coarse = HeadBoundary::new(head(), 64).perimeter();
        let fine = HeadBoundary::new(head(), 2048).perimeter();
        assert!(coarse < fine); // inscribed polygon underestimates
        assert!((fine - coarse) / fine < 5e-3);
    }

    #[test]
    fn arc_directions_sum_to_perimeter() {
        let b = HeadBoundary::new(head(), 128);
        let (i, j) = (10, 70);
        let total = b.arc_ccw(i, j) + b.arc_cw(i, j);
        assert!((total - b.perimeter()).abs() < 1e-12);
        assert_eq!(b.arc_ccw(5, 5), 0.0);
    }

    #[test]
    fn segment_clear_through_head_blocked() {
        let b = HeadBoundary::with_default_resolution(head());
        // Straight through the head: blocked.
        assert!(!b.segment_clear(Vec2::new(0.3, 0.0), Vec2::new(-0.3, 0.0)));
        // Grazing far above: clear.
        assert!(b.segment_clear(Vec2::new(0.3, 0.3), Vec2::new(-0.3, 0.3)));
        // From a point to the near ear: clear.
        assert!(b.segment_clear(Vec2::new(0.3, 0.0), Vec2::new(0.075, 0.0)));
    }

    #[test]
    #[should_panic(expected = "plausible range")]
    fn absurd_params_rejected() {
        HeadParams::new(1.0, 0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn odd_resolution_rejected() {
        HeadBoundary::new(head(), 17);
    }
}
