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
use std::sync::OnceLock;

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
}

/// The paper's head-shape parameter set `E = (a, b, c)`, in metres.
///
/// ```
/// use uniq_geometry::{HeadParams, HeadBoundary, Ear};
/// let head = HeadParams::average_adult();
/// let boundary = HeadBoundary::new(head, 1024);
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
        self.scale(UnitPoint::at(t))
    }

    /// The boundary point whose parameter has the cosine, sine and half
    /// recorded in `u`.
    fn scale(&self, u: UnitPoint) -> Vec2 {
        let y = if u.front {
            self.b * u.sin
        } else {
            self.c * u.sin
        };
        Vec2::new(self.a * u.cos, y)
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

/// The part of a boundary point that does not depend on `E`: the cosine
/// and sine of its parameter `t`, and whether `t` lies on the front half.
#[derive(Debug, Clone, Copy)]
struct UnitPoint {
    cos: f64,
    sin: f64,
    front: bool,
}

impl UnitPoint {
    /// At parameter `t`, reduced to `[0, 2π)`.
    fn at(t: f64) -> Self {
        let t = t.rem_euclid(2.0 * PI);
        UnitPoint {
            cos: t.cos(),
            sin: t.sin(),
            front: t <= PI,
        }
    }

    /// Vertex `k` of an `n`-vertex boundary.
    fn vertex(k: usize, n: usize) -> Self {
        Self::at(2.0 * PI * k as f64 / n as f64)
    }
}

/// Checks that `n` vertices make a boundary with both ears on vertices.
///
/// # Panics
/// Panics if `n < 16` or `n` is odd.
fn check_resolution(n: usize) {
    assert!(
        n >= 16 && n.is_multiple_of(2),
        "boundary needs an even n >= 16, got {n}"
    );
}

/// The `E`-independent half of an `n`-vertex boundary: the cosine, sine
/// and front/back half of every vertex parameter. A fit that tries many
/// head hypotheses at one resolution computes the `n` cosines and sines
/// once, here, and moves one boundary between hypotheses with
/// [`HeadBoundary::reshape`].
#[derive(Debug, Clone)]
pub struct BoundaryTable {
    units: Vec<UnitPoint>,
}

impl BoundaryTable {
    /// Tabulates the `n` vertex parameters of [`HeadBoundary::new`].
    ///
    /// # Panics
    /// Panics if `n < 16` or `n` is odd.
    pub fn new(n: usize) -> Self {
        check_resolution(n);
        BoundaryTable {
            units: (0..n).map(|k| UnitPoint::vertex(k, n)).collect(),
        }
    }
}

/// A discretized head boundary: a convex polygon with precomputed
/// cumulative arc lengths, supporting the wrap-path queries in
/// [`crate::diffraction`].
#[derive(Debug, Clone)]
pub struct HeadBoundary {
    params: HeadParams,
    poly: ArcTable,
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
        check_resolution(n);
        let verts: Vec<Vec2> = (0..n)
            .map(|k| params.scale(UnitPoint::vertex(k, n)))
            .collect();
        HeadBoundary {
            params,
            poly: ArcTable::new(verts),
            left_idx: n / 2,
            right_idx: 0,
        }
    }

    /// Moves this boundary to the head `params`: bit-identical to
    /// `HeadBoundary::new(params, n)`, but its vertices come from `table`
    /// instead of `n` fresh cosines and sines, and it allocates nothing.
    ///
    /// # Panics
    /// Panics if the parameters are implausible or `table` has another
    /// resolution than this boundary.
    pub fn reshape(&mut self, params: HeadParams, table: &BoundaryTable) {
        params.validate();
        assert_eq!(
            table.units.len(),
            self.len(),
            "boundary table resolution differs from the boundary's"
        );
        self.params = params;
        self.poly.reshape(|k| params.scale(table.units[k]));
    }

    /// The underlying parameters.
    pub fn params(&self) -> HeadParams {
        self.params
    }

    /// Boundary vertices (counter-clockwise).
    pub fn vertices(&self) -> &[Vec2] {
        self.poly.vertices()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices().len()
    }

    /// Always `false` (construction guarantees ≥ 16 vertices); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.vertices().is_empty()
    }

    /// Total boundary perimeter.
    pub fn perimeter(&self) -> f64 {
        self.poly.perimeter()
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
        self.poly.arc_ccw(i, j)
    }

    /// Clockwise arc length from vertex `i` to vertex `j`.
    pub fn arc_cw(&self, i: usize, j: usize) -> f64 {
        self.arc_ccw(j, i)
    }

    /// The arc table behind the boundary, for the wrap-path queries.
    pub(crate) fn arcs(&self) -> &ArcTable {
        &self.poly
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

/// A closed convex polygon's counter-clockwise vertices with cumulative
/// arc lengths, and the taut-string wrap around it: the one arc table
/// behind [`HeadBoundary`] and the elevation cross-sections of
/// [`crate::elevation`]. Each of those finds its own tangent vertices;
/// the wrap over them is computed here.
#[derive(Debug, Clone)]
pub(crate) struct ArcTable {
    verts: Vec<Vec2>,
    /// `cum[i]` = arc length from vertex 0 to vertex `i` (so `cum[0] = 0`);
    /// one extra entry holds the full perimeter.
    cum: Vec<f64>,
    /// `exterior[k]` = the exterior turning angle at vertex `k`, between
    /// the edges into and out of it (radians, non-negative): built by the
    /// first [`ArcTable::turning`] call on this shape, dropped by
    /// [`ArcTable::reshape`], so a shape nobody asks a wrap angle of
    /// never pays for it.
    exterior: OnceLock<Vec<f64>>,
}

impl ArcTable {
    /// Measures the arcs of `verts`; allocates only the `cum` table.
    pub(crate) fn new(verts: Vec<Vec2>) -> Self {
        let n = verts.len();
        let mut table = ArcTable {
            verts,
            cum: vec![0.0; n + 1],
            exterior: OnceLock::new(),
        };
        table.measure();
        table
    }

    /// Sets vertex `k` to `vertex(k)` for every `k` and re-measures the
    /// arcs, in place.
    fn reshape(&mut self, vertex: impl Fn(usize) -> Vec2) {
        for (k, v) in self.verts.iter_mut().enumerate() {
            *v = vertex(k);
        }
        self.exterior.take();
        self.measure();
    }

    /// Fills `cum[1..]` from the vertices (`cum[0]` stays 0).
    fn measure(&mut self) {
        let n = self.verts.len();
        for k in 0..n {
            let next = self.verts[(k + 1) % n];
            self.cum[k + 1] = self.cum[k] + self.verts[k].dist(next);
        }
    }

    /// The vertices.
    pub(crate) fn vertices(&self) -> &[Vec2] {
        &self.verts
    }

    /// Perimeter length.
    pub(crate) fn perimeter(&self) -> f64 {
        // uniq-analyzer: allow(panic-safety) — `new` always pushes cum[0], so cum is never empty
        *self.cum.last().expect("non-empty cum")
    }

    /// Counter-clockwise arc length from vertex `i` to vertex `j`.
    pub(crate) fn arc_ccw(&self, i: usize, j: usize) -> f64 {
        let n = self.verts.len();
        let (i, j) = (i % n, j % n);
        if j >= i {
            self.cum[j] - self.cum[i]
        } else {
            self.perimeter() - (self.cum[i] - self.cum[j])
        }
    }

    /// The taut-string geodesic from the external point `src` to vertex
    /// `target`, given the source's two tangent vertices: the shortest
    /// `|src→T| + arc(T→target)` over both tangents `T` and both wrap
    /// directions, as `(length, T, ccw)`. Non-geodesic combinations are
    /// strictly longer (taut-string argument), so the minimum is the
    /// geodesic; a tie keeps the earlier candidate (first tangent before
    /// second, counter-clockwise before clockwise).
    pub(crate) fn wrap(
        &self,
        src: Vec2,
        tangents: [usize; 2],
        target: usize,
    ) -> (f64, usize, bool) {
        let [first, second] = tangents.map(|t| {
            let seg = src.dist(self.verts[t]);
            [
                (seg + self.arc_ccw(t, target), t, true),
                (seg + self.arc_ccw(target, t), t, false),
            ]
        });
        let mut best = first[0];
        for candidate in [first[1], second[0], second[1]] {
            if candidate.0 < best.0 {
                best = candidate;
            }
        }
        best
    }

    /// Sum of exterior turning angles along the polygon from vertex `i` to
    /// vertex `j` in the given direction (radians, non-negative for a
    /// convex polygon): the wrap angle of a path whose arc runs `i → j`.
    ///
    /// The angles at the vertices strictly between `i` and `j` are summed
    /// from the exterior-angle table in walk order. Walking clockwise
    /// reverses both edges at a vertex, which negates their cross product
    /// exactly, so each angle is the same in either direction.
    pub(crate) fn turning(&self, i: usize, j: usize, ccw: bool) -> f64 {
        let n = self.verts.len();
        let steps = if ccw {
            (j + n - i) % n
        } else {
            (i + n - j) % n
        };
        if steps < 2 {
            return 0.0;
        }
        let exterior = self.exterior_angles();
        let mut total = 0.0;
        let mut k = i;
        for _ in 1..steps {
            k = if ccw { (k + 1) % n } else { (k + n - 1) % n };
            total += exterior[k];
        }
        total
    }

    /// Equivalence oracle: the per-vertex walk the exterior-angle table
    /// replaced — one `normalize` per step and one `asin` per vertex.
    #[cfg(test)]
    pub(crate) fn turning_walk(&self, i: usize, j: usize, ccw: bool) -> f64 {
        let n = self.verts.len();
        let step = |k: usize| if ccw { (k + 1) % n } else { (k + n - 1) % n };
        let mut total = 0.0;
        let mut k = i;
        let mut prev_dir: Option<Vec2> = None;
        for _ in 0..n {
            if k == j {
                break;
            }
            let nk = step(k);
            let dir = (self.verts[nk] - self.verts[k]).normalized();
            if let Some(p) = prev_dir {
                total += p.cross(dir).clamp(-1.0, 1.0).asin().abs();
            }
            prev_dir = Some(dir);
            k = nk;
        }
        total
    }

    /// Asserts [`ArcTable::turning`] returns the walk's bits in both
    /// directions between a spread of vertex pairs, adjacent and equal
    /// ones included.
    #[cfg(test)]
    pub(crate) fn assert_turning_matches_walk(&self) {
        let n = self.verts.len();
        let picks: Vec<usize> = [0, 1, 2, n / 4, n / 2 - 1, n / 2, n / 2 + 1, n - 2, n - 1]
            .into_iter()
            .chain((0..n).step_by(n.div_ceil(24)).map(|k| (k * 7 + 3) % n))
            .collect();
        for &i in &picks {
            for &j in &picks {
                for ccw in [true, false] {
                    assert_eq!(
                        self.turning(i, j, ccw).to_bits(),
                        self.turning_walk(i, j, ccw).to_bits(),
                        "n = {n}, {i} -> {j}, ccw = {ccw}"
                    );
                }
            }
        }
    }

    /// The exterior-angle table, built on first use: one normalized
    /// direction per edge and one `asin` per vertex.
    fn exterior_angles(&self) -> &[f64] {
        self.exterior.get_or_init(|| {
            let n = self.verts.len();
            let edge = |k: usize| (self.verts[(k + 1) % n] - self.verts[k]).normalized();
            let mut into = edge(n - 1);
            (0..n)
                .map(|k| {
                    let out = edge(k);
                    let angle = into.cross(out).clamp(-1.0, 1.0).asin().abs();
                    into = out;
                    angle
                })
                .collect()
        })
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
        let b = HeadBoundary::new(head(), 1024);
        // Straight through the head: blocked.
        assert!(!b.segment_clear(Vec2::new(0.3, 0.0), Vec2::new(-0.3, 0.0)));
        // Grazing far above: clear.
        assert!(b.segment_clear(Vec2::new(0.3, 0.3), Vec2::new(-0.3, 0.3)));
        // From a point to the near ear: clear.
        assert!(b.segment_clear(Vec2::new(0.3, 0.0), Vec2::new(0.075, 0.0)));
    }

    #[test]
    fn reshape_is_bit_identical_to_new() {
        let bits = |b: &HeadBoundary| -> Vec<u64> {
            let verts = b.vertices().iter().flat_map(|v| [v.x, v.y]);
            let arcs = (0..b.len()).map(|k| b.arc_ccw(0, k));
            verts.chain(arcs).map(f64::to_bits).collect()
        };
        let heads = [
            HeadParams::new(0.05, 0.15, 0.06),
            HeadParams::new(0.11, 0.06, 0.14),
            head(),
        ];
        for n in [16, 256, 1024, 1026, 4096] {
            let table = BoundaryTable::new(n);
            let mut b = HeadBoundary::new(head(), n);
            for params in heads {
                b.reshape(params, &table);
                let fresh = HeadBoundary::new(params, n);
                assert_eq!(b.params(), params);
                assert_eq!(bits(&b), bits(&fresh), "n = {n}, head {params:?}");
                assert_eq!(b.perimeter().to_bits(), fresh.perimeter().to_bits());
            }
        }
    }

    #[test]
    fn tabulated_turning_matches_the_per_vertex_walk() {
        let heads = [
            head(),
            HeadParams::new(0.05, 0.15, 0.06),
            HeadParams::new(0.11, 0.06, 0.14),
            HeadParams::new(0.08, 0.08, 0.08),
        ];
        for n in [16, 256, 1024, 4096] {
            let table = BoundaryTable::new(n);
            let mut b = HeadBoundary::new(head(), n);
            for params in heads {
                // A reshape drops the old shape's table; the next query
                // rebuilds it for the new vertices.
                b.reshape(params, &table);
                b.arcs().assert_turning_matches_walk();
                HeadBoundary::new(params, n)
                    .arcs()
                    .assert_turning_matches_walk();
            }
        }
    }

    #[test]
    fn reshape_drops_the_turning_table() {
        let mut b = HeadBoundary::new(head(), 256);
        let before = b.arcs().turning(10, 100, true);
        assert!(b.arcs().exterior.get().is_some());
        b.reshape(HeadParams::new(0.05, 0.15, 0.06), &BoundaryTable::new(256));
        assert!(b.arcs().exterior.get().is_none());
        let after = b.arcs().turning(10, 100, true);
        assert_ne!(before.to_bits(), after.to_bits());
        assert_eq!(
            after.to_bits(),
            b.arcs().turning_walk(10, 100, true).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "resolution differs")]
    fn reshape_rejects_a_table_of_another_resolution() {
        HeadBoundary::new(head(), 256).reshape(head(), &BoundaryTable::new(512));
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
