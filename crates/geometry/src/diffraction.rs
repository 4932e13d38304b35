//! Shortest wrap paths from a point source around the head to an ear.
//!
//! Physics (§2 of the paper): audible sound does not penetrate the head;
//! when the straight line from the phone to an ear is occluded, the signal
//! creeps around the convex boundary. The shortest such path — the
//! *taut-string geodesic* — is a straight tangent segment from the source
//! to the boundary followed by an arc along the boundary to the ear.
//!
//! On the discretized boundary this is computed exactly for the polygon:
//! this module finds the source's two tangent vertices, and the boundary's
//! arc table takes the geodesic as the `min` over those tangents and the
//! two wrap directions of `|src→T| + arc(T→ear)`.

use crate::head::{Ear, HeadBoundary, HeadParams};
use crate::vec2::Vec2;
use std::f64::consts::PI;

/// A resolved propagation path from a source point to an ear.
#[derive(Debug, Clone, Copy)]
pub struct DiffractionPath {
    /// Total path length in metres (straight segment + wrap arc).
    pub length: f64,
    /// Boundary angle subtended by the wrap arc, radians (0 when direct).
    /// Used by the frequency-dependent shadow attenuation model.
    pub wrap_angle: f64,
    /// `true` when the ear is in line of sight of the source.
    pub direct: bool,
    /// Unit direction of propagation as the wave arrives at the ear
    /// (drives the angle-sensitive pinna model).
    pub arrival_dir: Vec2,
}

/// Work the wrap-path queries spent: tangent searches run (one per
/// shadowed query that needed the source's tangent vertices) and the
/// vertex angles those searches evaluated. A caller that sums it over a
/// fit gets a deterministic work ledger beside its wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WrapWork {
    /// Tangent-vertex searches run.
    pub tangent_searches: u64,
    /// Vertex angles (one `atan2` each) evaluated by those searches.
    pub angle_evals: u64,
}

impl std::ops::Add for WrapWork {
    type Output = WrapWork;
    fn add(self, other: WrapWork) -> WrapWork {
        WrapWork {
            tangent_searches: self.tangent_searches + other.tangent_searches,
            angle_evals: self.angle_evals + other.angle_evals,
        }
    }
}

/// Computes the shortest diffraction path from `src` to the given ear.
///
/// ```
/// use uniq_geometry::{HeadBoundary, HeadParams, Ear, Vec2};
/// use uniq_geometry::diffraction::path_to_ear;
/// let b = HeadBoundary::new(HeadParams::average_adult(), 256);
/// let phone = Vec2::new(-0.4, 0.0);              // 40 cm to the left
/// let near = path_to_ear(&b, phone, Ear::Left).unwrap();
/// let far = path_to_ear(&b, phone, Ear::Right).unwrap();
/// assert!(near.direct && !far.direct);           // far ear is shadowed
/// assert!(far.length > near.length + 0.1);       // and its path wraps
/// ```
///
/// Returns `None` when `src` lies strictly inside the head (no physical
/// path; optimizers treat this as an infeasible candidate).
pub fn path_to_ear(boundary: &HeadBoundary, src: Vec2, ear: Ear) -> Option<DiffractionPath> {
    path_to_vertex(boundary, src, boundary.ear_index(ear))
}

/// Length of the shortest diffraction path from `src` to the given ear:
/// `path_to_ear(..).map(|p| p.length)` without the wrap angle and arrival
/// direction, for callers that read only the length.
///
/// Returns `None` when `src` lies strictly inside the head.
pub fn path_length(boundary: &HeadBoundary, src: Vec2, ear: Ear) -> Option<f64> {
    shortest_wrap(boundary, src, boundary.ear_index(ear)).map(|wrap| wrap.length)
}

/// Lengths of the shortest diffraction paths from `src` to both ears,
/// `[left, right]`, each with its gradient with respect to `src`:
/// bit-identical to `path_to_ear(..).map(|p| p.length)` per ear but
/// without the wrap angle and arrival direction (the O(arc) part of a
/// wrapped path). The ears share one containment test and, when either
/// is shadowed, one tangent search, which is added to `work`.
///
/// Each path leaves `src` along a straight segment to its first anchor:
/// the source tangent vertex of a wrapped path, or the ear itself when
/// the ear is lit. Moving the source moves neither the anchor nor the arc
/// behind it until the tangent vertex switches, so the gradient is the
/// unit vector from the anchor to `src` (zero when they coincide).
///
/// ```
/// use uniq_geometry::{HeadBoundary, HeadParams, Ear, Vec2};
/// use uniq_geometry::diffraction::{ear_paths_and_gradients, path_to_ear, WrapWork};
/// let b = HeadBoundary::new(HeadParams::average_adult(), 1024);
/// let phone = Vec2::new(-0.4, 0.0);                  // left ear lit, right shadowed
/// let mut work = WrapWork::default();
/// let [(len, grad), _] = ear_paths_and_gradients(&b, phone, &mut work).unwrap();
/// assert_eq!(len, path_to_ear(&b, phone, Ear::Left).unwrap().length);
/// assert!((grad - Vec2::new(-1.0, 0.0)).norm() < 1e-12); // away from the ear
/// assert_eq!(work.tangent_searches, 1);              // for the shadowed ear only
/// ```
///
/// Returns `None` when `src` lies strictly inside the head.
pub fn ear_paths_and_gradients(
    boundary: &HeadBoundary,
    src: Vec2,
    work: &mut WrapWork,
) -> Option<[(f64, Vec2); 2]> {
    if boundary.contains(src) {
        return None;
    }
    let mut tangents = None;
    Some(Ear::BOTH.map(|ear| {
        let target_idx = boundary.ear_index(ear);
        let wrap = wrap_outside(boundary, src, target_idx, &mut tangents, work);
        let anchor_idx = wrap.tangent.map_or(target_idx, |(t_idx, _)| t_idx);
        let to_src = src - boundary.vertices()[anchor_idx];
        let seg = to_src.norm();
        let gradient = if seg > 0.0 { to_src / seg } else { Vec2::ZERO };
        (wrap.length, gradient)
    }))
}

/// Computes the shortest diffraction path from `src` to an arbitrary
/// boundary vertex (e.g. a test microphone taped to the cheek, Fig 5).
///
/// Returns `None` when `src` lies strictly inside the head.
pub fn path_to_vertex(
    boundary: &HeadBoundary,
    src: Vec2,
    target_idx: usize,
) -> Option<DiffractionPath> {
    let n = boundary.len();
    let target_idx = target_idx % n;
    let wrap = shortest_wrap(boundary, src, target_idx)?;
    let target = boundary.vertices()[target_idx];

    let Some((t_idx, ccw)) = wrap.tangent else {
        let arrival = if wrap.length > 0.0 {
            (target - src) / wrap.length
        } else {
            // Source coincides with the target: degenerate but harmless.
            Vec2::new(1.0, 0.0)
        };
        return Some(DiffractionPath {
            length: wrap.length,
            wrap_angle: 0.0,
            direct: true,
            arrival_dir: arrival,
        });
    };

    // Arrival direction: boundary tangent at the target, oriented along the
    // traversal direction of the final wrap step.
    let prev = boundary.vertices()[(target_idx + n - 1) % n];
    let next = boundary.vertices()[(target_idx + 1) % n];
    let arrival_dir = if ccw {
        (target - prev).normalized()
    } else {
        (target - next).normalized()
    };

    // Wrap angle: total turning of the boundary tangent along the arc.
    let wrap_angle = boundary.arcs().turning(t_idx, target_idx, ccw);

    Some(DiffractionPath {
        length: wrap.length,
        wrap_angle,
        direct: false,
        arrival_dir,
    })
}

/// The geodesic itself: its length, and for a shadowed target the source
/// tangent vertex the path leaves from and its wrap direction (`None`
/// when the target is in line of sight).
struct Wrap {
    length: f64,
    tangent: Option<(usize, bool)>,
}

/// Shortest path from `src` to vertex `target_idx` (already reduced mod
/// n); `None` when `src` lies strictly inside the head.
fn shortest_wrap(boundary: &HeadBoundary, src: Vec2, target_idx: usize) -> Option<Wrap> {
    if boundary.contains(src) {
        return None;
    }
    let mut work = WrapWork::default();
    Some(wrap_outside(
        boundary, src, target_idx, &mut None, &mut work,
    ))
}

/// [`shortest_wrap`] from a `src` known to lie outside the head.
/// `tangents` holds the source's tangent vertices once a shadowed target
/// has needed them, so several targets share one search; that search is
/// added to `work`.
fn wrap_outside(
    boundary: &HeadBoundary,
    src: Vec2,
    target_idx: usize,
    tangents: &mut Option<[usize; 2]>,
    work: &mut WrapWork,
) -> Wrap {
    let target = boundary.vertices()[target_idx];
    if boundary.segment_clear(src, target) {
        return Wrap {
            length: (target - src).norm(),
            tangent: None,
        };
    }
    let tangents = *tangents.get_or_insert_with(|| tangent_vertices(boundary, src, work));
    let (length, t_idx, ccw) = boundary.arcs().wrap(src, tangents, target_idx);
    Wrap {
        length,
        tangent: Some((t_idx, ccw)),
    }
}

/// Signed angle of vertex `v` as seen from `src`, relative to the
/// direction `base` toward the head centre, wrapped to (-π, π]. A convex
/// body subtends < π from outside, so this reference is branch-safe.
fn signed_angle(src: Vec2, base: f64, v: Vec2) -> f64 {
    let ang = (v - src).angle() - base;
    let mut a = ang.rem_euclid(2.0 * PI);
    if a > PI {
        a -= 2.0 * PI;
    }
    a
}

/// The source's two tangent vertices `[t_min, t_max]`: the first vertex
/// (in index order) of smallest and of largest [`signed_angle`] — exactly
/// what a linear scan with strict `<`/`>` returns, ties included.
///
/// Along the convex boundary the angle rises monotonically from `t_min`
/// to `t_max` and falls back, so each extreme is found by descending from
/// an analytic seed ([`tangent_seeds`], within a vertex or two of the
/// answer), reusing the seeds' angles, and settling near-ties in a small
/// window. O(1) angle evaluations for a well-seeded source, O(n) only in
/// the worst case. The search and its angle evaluations are added to
/// `work`.
fn tangent_vertices(boundary: &HeadBoundary, src: Vec2, work: &mut WrapWork) -> [usize; 2] {
    let verts = boundary.vertices();
    let base = (-src).normalized().angle();
    let evals = std::cell::Cell::new(0u64);
    let angle_at = |k: usize| {
        evals.set(evals.get() + 1);
        signed_angle(src, base, verts[k])
    };
    let [s0, s1] = tangent_seeds(boundary.params(), src, verts.len());
    let (a0, a1) = (angle_at(s0), angle_at(s1));
    let ((lo, a_lo), (hi, a_hi)) = if a1 < a0 {
        ((s1, a1), (s0, a0))
    } else {
        ((s0, a0), (s1, a1))
    };
    let tangents = [
        first_minimum(verts.len(), lo, a_lo, angle_at),
        first_minimum(verts.len(), hi, -a_hi, |k| -angle_at(k)),
    ];
    work.tangent_searches += 1;
    work.angle_evals += evals.get();
    tangents
}

/// Half-width of the window [`first_minimum`] rescans around a bottom
/// that is not [`STEEP`]: it covers equal-valued neighbours and last-ulp
/// rounding wobble at the flat extreme of the angle curve.
const TIE_WINDOW: usize = 3;

/// How far both neighbours of a bottom must lie above it for
/// [`first_minimum`] to skip the tie rescan, radians: far above the
/// last-ulp rounding wobble of a vertex angle (~1e-16), so no vertex in
/// the window can tie with or undercut the bottom.
const STEEP: f64 = 1e-12;

/// Smallest index among the minima of `f` over `0..n`, for `f` unimodal
/// around the cycle, given `f_seed = f(seed)`: descends from `seed` while
/// `f` strictly falls, then picks the lowest `(f, index)` within
/// [`TIE_WINDOW`] of the bottom — unless both neighbours of the bottom,
/// which the descent has already evaluated, lie [`STEEP`]ly above it.
fn first_minimum(n: usize, seed: usize, f_seed: f64, f: impl Fn(usize) -> f64) -> usize {
    let (mut k, mut fk) = (seed, f_seed);
    // `f(k + 1)` and `f(k − 1)` once evaluated.
    let (mut up, mut down) = (None, None);
    for _ in 0..n {
        let next = (k + 1) % n;
        let f_next = f(next);
        if f_next < fk {
            (down, k, fk) = (Some(fk), next, f_next);
        } else {
            up = Some(f_next);
            break;
        }
    }
    for _ in 0..n {
        let next = (k + n - 1) % n;
        let f_next = down.unwrap_or_else(|| f(next));
        if f_next < fk {
            (up, down, k, fk) = (Some(fk), None, next, f_next);
        } else {
            down = Some(f_next);
            break;
        }
    }
    if let (Some(u), Some(d)) = (up, down) {
        if u - fk > STEEP && d - fk > STEEP {
            return k;
        }
    }
    let mut best = k;
    let mut f_best = fk;
    for d in 1..=TIE_WINDOW {
        for (j, known) in [((k + d) % n, up), ((k + n - d) % n, down)] {
            let fj = match known {
                Some(v) if d == 1 => v,
                _ => f(j),
            };
            if fj < f_best || (fj == f_best && j < best) {
                best = j;
                f_best = fj;
            }
        }
    }
    best
}

/// Vertex indices nearest the two tangent points of the continuous
/// two-half-ellipse head (§4.1) seen from `src`. Scaling an ellipse
/// `(a, s)` to the unit circle preserves tangency, and the tangents from
/// a point at polar `(r, φ)` touch the unit circle at `φ ± acos(1/r)` —
/// which is the boundary parameter `t` of [`HeadParams::boundary_point`],
/// and vertex `k` sits at `t = 2πk/n`. A tangent with a front (`y ≥ 0`)
/// touch point uses the `(a, b)` ellipse, otherwise the `(a, c)` one.
/// The seeds only start [`first_minimum`]'s descent, so inexact seeds
/// cost time, never correctness.
fn tangent_seeds(head: HeadParams, src: Vec2, n: usize) -> [usize; 2] {
    let to_index = |t: f64| (t.rem_euclid(2.0 * PI) * n as f64 / (2.0 * PI)).round() as usize % n;
    [1.0, -1.0].map(|sign: f64| {
        let touch = |semi: f64| {
            let q = Vec2::new(src.x / head.a, src.y / semi);
            let r = q.norm();
            (r > 1.0).then(|| q.angle() + sign * (1.0 / r).acos())
        };
        let t = match touch(head.b) {
            Some(t) if t.sin() >= 0.0 => t,
            _ => touch(head.c).unwrap_or_else(|| src.angle()),
        };
        to_index(t)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec2::unit_from_theta;

    fn boundary() -> HeadBoundary {
        HeadBoundary::new(HeadParams::average_adult(), 1024)
    }

    /// Equivalence oracle: the linear tangent scan the sub-linear search
    /// replaced — every vertex, strict `<`/`>`, so the first extreme in
    /// index order wins ties.
    fn linear_tangents(boundary: &HeadBoundary, src: Vec2) -> [usize; 2] {
        let base = (-src).normalized().angle();
        let (mut t_min, mut t_max) = (0, 0);
        let (mut a_min, mut a_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (k, &v) in boundary.vertices().iter().enumerate() {
            let a = signed_angle(src, base, v);
            if a < a_min {
                a_min = a;
                t_min = k;
            }
            if a > a_max {
                a_max = a;
                t_max = k;
            }
        }
        [t_min, t_max]
    }

    /// Equivalence oracle: the descent that always rescanned
    /// [`TIE_WINDOW`] around its bottom and re-evaluated the seeds and
    /// the bottom's neighbours — what [`first_minimum`] replaced.
    fn first_minimum_rescan(n: usize, seed: usize, f: impl Fn(usize) -> f64) -> usize {
        let mut k = seed;
        let mut fk = f(k);
        for step in [1, n - 1] {
            for _ in 0..n {
                let next = (k + step) % n;
                let fnext = f(next);
                if fnext < fk {
                    k = next;
                    fk = fnext;
                } else {
                    break;
                }
            }
        }
        let mut best = k;
        let mut f_best = fk;
        for d in 1..=TIE_WINDOW {
            for j in [(k + d) % n, (k + n - d) % n] {
                let fj = f(j);
                if fj < f_best || (fj == f_best && j < best) {
                    best = j;
                    f_best = fj;
                }
            }
        }
        best
    }

    /// Equivalence oracle: the tangent search over [`first_minimum_rescan`].
    fn rescan_tangents(boundary: &HeadBoundary, src: Vec2) -> [usize; 2] {
        let verts = boundary.vertices();
        let base = (-src).normalized().angle();
        let angle_at = |k: usize| signed_angle(src, base, verts[k]);
        let [s0, s1] = tangent_seeds(boundary.params(), src, verts.len());
        let (lo, hi) = if angle_at(s1) < angle_at(s0) {
            (s1, s0)
        } else {
            (s0, s1)
        };
        [
            first_minimum_rescan(verts.len(), lo, angle_at),
            first_minimum_rescan(verts.len(), hi, |k| -angle_at(k)),
        ]
    }

    /// Equivalence oracle: the one-ear query the two-ear call replaced,
    /// with its own containment test and tangent search.
    fn path_length_and_gradient(
        boundary: &HeadBoundary,
        src: Vec2,
        ear: Ear,
    ) -> Option<(f64, Vec2)> {
        let target_idx = boundary.ear_index(ear);
        let wrap = shortest_wrap(boundary, src, target_idx)?;
        let anchor_idx = wrap.tangent.map_or(target_idx, |(t_idx, _)| t_idx);
        let to_src = src - boundary.vertices()[anchor_idx];
        let seg = to_src.norm();
        let gradient = if seg > 0.0 { to_src / seg } else { Vec2::ZERO };
        Some((wrap.length, gradient))
    }

    /// Both ears through the one-ear oracle, as the two-ear call returns
    /// them.
    fn both_ears_one_by_one(boundary: &HeadBoundary, src: Vec2) -> Option<[(f64, Vec2); 2]> {
        let left = path_length_and_gradient(boundary, src, Ear::Left)?;
        let right = path_length_and_gradient(boundary, src, Ear::Right)?;
        Some([left, right])
    }

    /// The bits of a two-ear result: both lengths and gradients.
    fn ear_bits(paths: Option<[(f64, Vec2); 2]>) -> Option<[u64; 6]> {
        paths.map(|[(l, gl), (r, gr)]| [l, gl.x, gl.y, r, gr.x, gr.y].map(f64::to_bits))
    }

    /// Equivalence oracle: the geodesic length over the scanned tangents.
    fn oracle_length(
        boundary: &HeadBoundary,
        src: Vec2,
        target_idx: usize,
        tangents: [usize; 2],
    ) -> Option<f64> {
        if boundary.contains(src) {
            return None;
        }
        let target = boundary.vertices()[target_idx];
        if boundary.segment_clear(src, target) {
            return Some((target - src).norm());
        }
        let mut best: Option<f64> = None;
        for t_idx in tangents {
            let seg = src.dist(boundary.vertices()[t_idx]);
            for arc in [
                boundary.arc_ccw(t_idx, target_idx),
                boundary.arc_cw(t_idx, target_idx),
            ] {
                let total = seg + arc;
                if best.is_none_or(|l| total < l) {
                    best = Some(total);
                }
            }
        }
        best
    }

    /// Asserts the tangent search agrees with the linear-scan and the
    /// full-rescan oracles at `src`, and both path queries agree bit for
    /// bit with the linear-scan oracle.
    fn assert_matches_oracle(b: &HeadBoundary, src: Vec2) {
        let expect = linear_tangents(b, src);
        let got = tangent_vertices(b, src, &mut WrapWork::default());
        let h = b.params();
        assert_eq!(
            got,
            expect,
            "tangents at src={src:?}, head=({}, {}, {}), n={}",
            h.a,
            h.b,
            h.c,
            b.len()
        );
        assert_eq!(got, rescan_tangents(b, src), "rescan at src={src:?}");
        let both = ear_paths_and_gradients(b, src, &mut WrapWork::default());
        for (e, ear) in Ear::BOTH.into_iter().enumerate() {
            let oracle = oracle_length(b, src, b.ear_index(ear), expect).map(f64::to_bits);
            let full = path_to_ear(b, src, ear).map(|p| p.length.to_bits());
            let length_only = path_length(b, src, ear).map(f64::to_bits);
            assert_eq!(length_only, full, "path_length {ear:?} at src={src:?}");
            let with_gradient = both.map(|paths| paths[e].0.to_bits());
            assert_eq!(
                full,
                oracle,
                "path_to_ear {ear:?} at src={src:?}, n={}",
                b.len()
            );
            assert_eq!(
                with_gradient,
                oracle,
                "ear_paths_and_gradients {ear:?} at src={src:?}, n={}",
                b.len()
            );
        }
    }

    /// The average head, a circle head, and the corners of the fusion
    /// solver's anthropometric box.
    fn sweep_heads() -> Vec<HeadParams> {
        let mut heads = vec![
            HeadParams::average_adult(),
            HeadParams::new(0.08, 0.08, 0.08),
        ];
        for a in [0.050, 0.110] {
            for b in [0.060, 0.150] {
                for c in [0.060, 0.140] {
                    heads.push(HeadParams::new(a, b, c));
                }
            }
        }
        heads
    }

    #[test]
    fn tangent_search_matches_linear_scan_dense_sweep() {
        for head in sweep_heads() {
            for n in [16, 256, 1024, 4096] {
                let b = HeadBoundary::new(head, n);
                for k in 0..240 {
                    let theta = k as f64 * 1.5;
                    let t = theta.to_radians();
                    // Grazing: just outside the continuous boundary.
                    assert_matches_oracle(&b, head.boundary_point(t) * 1.001);
                    for r in [0.2, 0.45, 1.0, 3.0, 10.0] {
                        assert_matches_oracle(&b, unit_from_theta(theta) * r);
                    }
                }
            }
        }
    }

    #[test]
    fn tangent_ties_resolve_to_the_first_index() {
        // With n = 4m + 2 the top and bottom edges are horizontal, so a
        // source on an edge's line sees both of its vertices at exactly
        // the same angle: a tie at a tangent extreme. The search must
        // return the lower index, as the scan does.
        let mut ties = 0;
        for head in sweep_heads() {
            for n in [18, 22, 258, 1026] {
                let b = HeadBoundary::new(head, n);
                for k in [(n - 2) / 4, (3 * n - 2) / 4] {
                    let (u, v) = (b.vertices()[k], b.vertices()[k + 1]);
                    if u.y != v.y {
                        continue;
                    }
                    for x in [-10.0, -0.4, 0.3, 1.0, 10.0] {
                        let src = Vec2::new(x, u.y);
                        let base = (-src).normalized().angle();
                        if signed_angle(src, base, u) == signed_angle(src, base, v) {
                            ties += 1;
                        }
                        assert_matches_oracle(&b, src);
                    }
                }
            }
        }
        assert!(ties >= 50, "only {ties} exact ties exercised");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn two_ear_call_matches_one_ear_calls(
            a in 0.050..0.110f64,
            bb in 0.060..0.150f64,
            c in 0.060..0.140f64,
            n_idx in 0usize..4,
            t in 0.0..std::f64::consts::TAU,
            scale in 0.2..100.0f64,
        ) {
            let head = HeadParams::new(a, bb, c);
            let b = HeadBoundary::new(head, [16, 256, 1024, 4096][n_idx]);
            assert_two_ears_match_one_by_one(&b, head.boundary_point(t) * scale);
        }

        #[test]
        fn first_minimum_matches_the_full_rescan(
            n in 16usize..64,
            centre_frac in 0.0..1.0f64,
            plateau in 1usize..6,
            flat_bottom in 0usize..3,
            seed_frac in 0.0..1.0f64,
        ) {
            // A unimodal cycle with plateaus: exact ties at the bottom and
            // on the slopes, the cases where the rescan decides.
            let centre = (centre_frac * n as f64) as usize % n;
            let f = |k: usize| {
                let d = (k + n - centre) % n;
                let d = d.min(n - d).saturating_sub(flat_bottom);
                (d / plateau) as f64
            };
            let seed = (seed_frac * n as f64) as usize % n;
            proptest::prop_assert_eq!(
                first_minimum(n, seed, f(seed), f),
                first_minimum_rescan(n, seed, f)
            );
        }

        #[test]
        fn tangent_search_matches_linear_scan(
            a in 0.050..0.110f64,
            bb in 0.060..0.150f64,
            c in 0.060..0.140f64,
            n_idx in 0usize..4,
            t in 0.0..std::f64::consts::TAU,
            scale in 1.001..100.0f64,
        ) {
            let head = HeadParams::new(a, bb, c);
            let b = HeadBoundary::new(head, [16, 256, 1024, 4096][n_idx]);
            assert_matches_oracle(&b, head.boundary_point(t) * scale);
        }
    }

    /// Asserts the two-ear call returns the one-ear oracle's bits at
    /// `src`, runs one tangent search exactly when an ear is shadowed,
    /// and returns how many ears are shadowed (`None` inside the head).
    fn assert_two_ears_match_one_by_one(b: &HeadBoundary, src: Vec2) -> Option<usize> {
        let mut work = WrapWork::default();
        let both = ear_paths_and_gradients(b, src, &mut work);
        assert_eq!(
            ear_bits(both),
            ear_bits(both_ears_one_by_one(b, src)),
            "src={src:?}, n={}",
            b.len()
        );
        both?;
        let shadowed = Ear::BOTH
            .into_iter()
            .filter(|&ear| !b.segment_clear(src, b.vertices()[b.ear_index(ear)]))
            .count();
        assert_eq!(
            work.tangent_searches,
            u64::from(shadowed > 0),
            "src={src:?}: {shadowed} shadowed ear(s)"
        );
        Some(shadowed)
    }

    #[test]
    fn two_ear_call_matches_one_ear_calls_in_every_case() {
        // Inside the head, one ear lit and one shadowed, and both
        // shadowed (a source near the face sees neither ear). Both ears
        // are lit only within segment_clear's grazing tolerance, from
        // kilometres ahead of or behind the head.
        let mut cases = [0usize; 4];
        let mut sources = Vec::new();
        for head in sweep_heads() {
            for n in [16, 256, 1024, 4096] {
                let b = HeadBoundary::new(head, n);
                for k in 0..120 {
                    let t = (k as f64 * 3.0 + 0.4).to_radians();
                    for scale in [0.5, 0.999, 1.001, 1.05, 1.5, 4.0, 50.0] {
                        sources.push(head.boundary_point(t) * scale);
                    }
                }
                for y in [1e4, -1e4, 3e4] {
                    for x in [0.0, 0.05, -0.05] {
                        sources.push(Vec2::new(x, y));
                    }
                }
                for src in sources.drain(..) {
                    match assert_two_ears_match_one_by_one(&b, src) {
                        None => cases[0] += 1,
                        Some(shadowed) => cases[1 + shadowed] += 1,
                    }
                }
            }
        }
        assert!(
            cases.iter().all(|&c| c >= 50),
            "inside / lit-lit / lit-shadowed / shadowed-shadowed: {cases:?}"
        );
    }

    #[test]
    fn steep_bottoms_skip_the_rescan_and_ties_still_rescan() {
        // A well-seeded search costs the two seeds plus a few descent and
        // neighbour angles, not the twelve of a ±3 rescan per extreme.
        let b = boundary();
        let mut work = WrapWork::default();
        for k in 0..360 {
            tangent_vertices(&b, unit_from_theta(k as f64) * 0.4, &mut work);
        }
        assert_eq!(work.tangent_searches, 360);
        assert!(
            work.angle_evals <= 360 * 10,
            "{} angle evaluations over 360 searches",
            work.angle_evals
        );
        // An exact tie at the bottom is never steep, so it rescans and
        // resolves to the first index, as the oracle does.
        let tie = |k: usize| [3.0, 2.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0][k];
        for seed in 0..8 {
            assert_eq!(first_minimum(8, seed, tie(seed), tie), 2, "seed {seed}");
            assert_eq!(first_minimum_rescan(8, seed, tie), 2, "seed {seed}");
        }
    }

    #[test]
    fn gradient_matches_central_differences() {
        // Which anchor the path leaves from: `None` for a lit ear, else
        // the tangent vertex and wrap direction.
        let anchor = |b: &HeadBoundary, p: Vec2, ear: Ear| {
            shortest_wrap(b, p, b.ear_index(ear)).map(|w| w.tangent)
        };
        let length = |b: &HeadBoundary, p: Vec2, ear: Ear| path_to_ear(b, p, ear).unwrap().length;
        let h = 1e-7;
        let (mut lit, mut shadowed, mut skipped) = (0, 0, 0);
        for head in [
            HeadParams::average_adult(),
            HeadParams::new(0.06, 0.14, 0.07),
        ] {
            for n in [256, 1024, 4096] {
                let b = HeadBoundary::new(head, n);
                for k in 0..72 {
                    let theta = k as f64 * 5.0 + 0.7;
                    for r in [0.2, 0.45, 1.0] {
                        let src = unit_from_theta(theta) * r;
                        for ear in Ear::BOTH {
                            let (len, grad) = path_length_and_gradient(&b, src, ear).unwrap();
                            assert_eq!(len.to_bits(), length(&b, src, ear).to_bits());
                            let stencil = [
                                Vec2::new(h, 0.0),
                                Vec2::new(-h, 0.0),
                                Vec2::new(0.0, h),
                                Vec2::new(0.0, -h),
                            ]
                            .map(|d| src + d);
                            // A tangent-vertex switch inside the stencil
                            // mixes two anchors' lengths: skip that point.
                            let here = anchor(&b, src, ear);
                            if stencil.iter().any(|&p| anchor(&b, p, ear) != here) {
                                skipped += 1;
                                continue;
                            }
                            let [xp, xm, yp, ym] = stencil.map(|p| length(&b, p, ear));
                            let fd = Vec2::new((xp - xm) / (2.0 * h), (yp - ym) / (2.0 * h));
                            assert!(
                                (fd - grad).norm() < 1e-6,
                                "{ear:?} at {src:?}, n={n}: gradient {grad:?}, differences {fd:?}"
                            );
                            assert!((grad.norm() - 1.0).abs() < 1e-12);
                            match here {
                                Some(None) => lit += 1,
                                _ => shadowed += 1,
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
        assert!(skipped < 10, "{skipped} points skipped");
    }

    #[test]
    fn gradient_is_zero_at_the_anchor_and_none_inside() {
        let b = boundary();
        let right_ear = b.vertices()[b.ear_index(Ear::Right)];
        let mut work = WrapWork::default();
        let at_ear = ear_paths_and_gradients(&b, right_ear, &mut work).unwrap();
        assert_eq!(at_ear[1], (0.0, Vec2::ZERO));
        assert!(ear_paths_and_gradients(&b, Vec2::new(0.01, 0.0), &mut work).is_none());
    }

    #[test]
    fn near_ear_is_direct() {
        let b = boundary();
        // Source on the left of the head, left ear visible.
        let src = Vec2::new(-0.4, 0.0);
        let p = path_to_ear(&b, src, Ear::Left).unwrap();
        assert!(p.direct);
        assert!((p.length - (0.4 - 0.075)).abs() < 1e-6);
        assert_eq!(p.wrap_angle, 0.0);
    }

    #[test]
    fn far_ear_is_wrapped() {
        let b = boundary();
        let src = Vec2::new(-0.4, 0.0);
        let p = path_to_ear(&b, src, Ear::Right).unwrap();
        assert!(!p.direct);
        assert!(p.wrap_angle > 0.5, "wrap angle {}", p.wrap_angle);
        // Must exceed the Euclidean distance (0.475) but be shorter than
        // going around via straight + half perimeter.
        let euclid = 0.4 + 0.075;
        assert!(p.length > euclid);
        assert!(p.length < euclid + 0.3);
    }

    #[test]
    fn wrap_length_exceeds_euclid_always() {
        let b = boundary();
        for k in 0..36 {
            let theta = k as f64 * 10.0;
            let src = unit_from_theta(theta) * 0.35;
            for ear in Ear::BOTH {
                let p = path_to_ear(&b, src, ear).unwrap();
                let euclid = src.dist(b.params().ear(ear));
                assert!(
                    p.length >= euclid - 1e-9,
                    "θ={theta} ear={ear:?}: {} < {euclid}",
                    p.length
                );
            }
        }
    }

    #[test]
    fn frontal_source_nearly_symmetric() {
        let b = boundary();
        let src = Vec2::new(0.0, 0.5); // straight ahead
        let l = path_to_ear(&b, src, Ear::Left).unwrap();
        let r = path_to_ear(&b, src, Ear::Right).unwrap();
        assert!((l.length - r.length).abs() < 1e-4);
    }

    #[test]
    fn source_inside_head_rejected() {
        let b = boundary();
        assert!(path_to_ear(&b, Vec2::ZERO, Ear::Left).is_none());
        assert!(path_to_ear(&b, Vec2::new(0.01, 0.01), Ear::Right).is_none());
        let mut work = WrapWork::default();
        assert!(ear_paths_and_gradients(&b, Vec2::new(0.01, 0.01), &mut work).is_none());
        assert_eq!(work, WrapWork::default(), "no search from inside the head");
    }

    #[test]
    fn tdoa_monotone_with_angle() {
        // As the source sweeps from front (0°) toward the left ear (90°),
        // the left-right path difference grows.
        let b = boundary();
        let mut prev = f64::NEG_INFINITY;
        for theta in [0.0, 30.0, 60.0, 90.0] {
            let src = unit_from_theta(theta) * 0.4;
            let l = path_to_ear(&b, src, Ear::Left).unwrap();
            let r = path_to_ear(&b, src, Ear::Right).unwrap();
            let delta = r.length - l.length;
            assert!(
                delta > prev - 1e-9,
                "TDoA not monotone at θ={theta}: {delta} <= {prev}"
            );
            prev = delta;
        }
    }

    #[test]
    fn shadowed_path_matches_tangent_plus_arc_for_circle() {
        // For a circular head (a = b = c = R) the wrap geodesic has the
        // closed form √(d² − R²) + R·(φ_wrap). Validate against it.
        let r0 = 0.08;
        let b = HeadBoundary::new(HeadParams::new(r0, r0, r0), 4096);
        let d = 0.5;
        let src = Vec2::new(d, 0.0); // at the right ear side
        let p = path_to_ear(&b, src, Ear::Left).unwrap();
        // Tangent length from src to circle.
        let tan_len = (d * d - r0 * r0).sqrt();
        // Angle from src-tangent point to the left ear along the circle:
        // tangent point at angle β from +x where cos β = R/d; ear at π.
        let beta = (r0 / d).acos();
        let arc = r0 * (std::f64::consts::PI - beta);
        let expect = tan_len + arc;
        assert!(
            (p.length - expect).abs() < 2e-4,
            "got {}, closed form {expect}",
            p.length
        );
        // Wrap angle should equal the arc's central angle for a circle.
        assert!((p.wrap_angle - (std::f64::consts::PI - beta)).abs() < 0.02);
    }

    #[test]
    fn arrival_direction_is_unit() {
        let b = boundary();
        for theta in [0.0, 45.0, 135.0, 225.0, 315.0] {
            let src = unit_from_theta(theta) * 0.3;
            for ear in Ear::BOTH {
                let p = path_to_ear(&b, src, ear).unwrap();
                assert!((p.arrival_dir.norm() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn path_to_cheek_vertex() {
        let b = boundary();
        // Speaker on the right; microphone taped a quarter of the way along
        // the front-left face (the Fig 5 setup).
        let src = Vec2::new(0.5, 0.1);
        let mic_idx = b.len() * 3 / 8; // front-left region
        let p = path_to_vertex(&b, src, mic_idx).unwrap();
        assert!(p.length > 0.0);
        // Must never beat the straight-line distance.
        let euclid = src.dist(b.vertices()[mic_idx]);
        assert!(p.length >= euclid - 1e-9);
    }

    #[test]
    fn continuity_across_shadow_edge() {
        // Path length should vary continuously as the source crosses from
        // lit to shadowed regions.
        let b = boundary();
        let mut last: Option<f64> = None;
        for k in 0..=200 {
            let theta = k as f64 * 180.0 / 200.0;
            let src = unit_from_theta(theta) * 0.4;
            let p = path_to_ear(&b, src, Ear::Right).unwrap();
            if let Some(prev) = last {
                assert!(
                    (p.length - prev).abs() < 5e-3,
                    "jump at θ={theta}: {prev} -> {}",
                    p.length
                );
            }
            last = Some(p.length);
        }
    }
}
