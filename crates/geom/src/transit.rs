//! The paper's transitive distance metrics (Definitions 1–3, §4.2.1):
//! lower and upper bounds of `dis(p, s) + dis(s, r)` over the points `s`
//! of an R-tree node's MBR, used by the Hybrid-NN branch-and-bound search.

use crate::{Point, Rect, Segment};

/// `MinTransDist(p, M, r)` — Definition 1.
///
/// The minimum possible transitive distance `dis(p, s) + dis(s, r)` over
/// all points `s` of the (filled) rectangle `M`: a tight **lower bound**
/// for the transitive distance through any data point inside the MBR, used
/// to prune nodes that cannot contain the answer.
///
/// Implementation follows the paper's three cases (Lemma 1), unified via
/// the classical mirror trick on each side:
///
/// 1. the segment `p–r` intersects `M` → `dis(p, r)`;
/// 2. otherwise the optimum lies on the boundary, at the reflection-path
///    touch point of some side (interior of a side), or
/// 3. at one of the four vertices — both covered by minimizing the convex
///    per-side objective with clamping.
pub fn min_trans_dist(p: Point, m: &Rect, r: Point) -> f64 {
    // Case 1: the straight path already passes through the rectangle.
    if Segment::new(p, r).intersects_rect(m) {
        return p.dist(r);
    }
    // Cases 2 and 3: minimize over the four sides. dis(p,s)+dis(s,r) is
    // convex in s, so the per-side minimum (reflection, clamped to the
    // side) is exact, and vertices are covered by the clamping.
    let mut best = f64::INFINITY;
    for side in m.sides() {
        let d = min_trans_dist_via_segment(p, &side, r);
        if d < best {
            best = d;
        }
    }
    best
}

/// A cheap lower bound of [`min_trans_dist`]: `MinDist(p, M) +
/// MinDist(r, M)` less a rounding margin, for two square roots where the
/// exact metric takes up to eight, with divisions on every side.
///
/// Every point `s` of `M` has `dis(p, s) ≥ MinDist(p, M)` and
/// `dis(s, r) ≥ MinDist(r, M)`, so the sum bounds the true minimum from
/// below. The margin makes the result bound the *computed*
/// `min_trans_dist(p, m, r)` as well, bit for bit, for finite inputs
/// whose squared distances do not overflow: a search may test
/// `floor > bound` first and skip the exact metric whenever it holds,
/// without changing any pruning decision. A NaN or infinite input may
/// give NaN or `−∞`, which never prunes.
///
/// A purely relative margin is not enough: the exact metric evaluates
/// its objective at a side point `a + (b − a)·t`, which rounding can put
/// a few `u·S` outside the rectangle (`u = 2^-53`, `S` the largest
/// coordinate magnitude of `p`, `r` and `m`), and that costs up to twice
/// as much, absolute, however small the distances are.
pub fn min_trans_dist_floor(p: Point, m: &Rect, r: Point) -> f64 {
    // Margin argument, with σ̂ the computed sum below, Mp and Mr the real
    // MinDists and every `fl` rounding by at most u relative:
    //
    // 1. Each `min_dist` takes one clamp (exact), two differences, two
    //    squares, a sum and a root, so it exceeds its real value by at
    //    most (1+u)³, and σ̂ ≤ (1+u)⁴·(Mp + Mr).
    // 2. `min_trans_dist` returns the minimum of computed values that are
    //    each one of two kinds:
    //    - `fl(fl|p−x| + fl|x−r|)` at a side point x = a + fl(b−a)·t,
    //      t ∈ [0, 1]. The side's corners share one coordinate, which x
    //      copies exactly; the other is off the side by at most
    //      (2u + u²)·2S before the final rounding and u·S after it, i.e.
    //      within 5.02u·S of the rectangle. The triangle inequality
    //      through the rectangle's nearest point gives
    //      |p−x| + |x−r| ≥ Mp + Mr − 10.04u·S, and the two distances and
    //      their sum lose at most a factor (1−u)⁴.
    //    - `fl|p−r|` once the Liang–Barsky clip has accepted. The clip's
    //      t₀ satisfies every slab test against a ratio fl(q)/fl(d)
    //      within 3.01u of the real one, with |q| ≤ 2S, so the real
    //      segment point at t₀ lies within 6.02u·S of each slab, within
    //      8.52u·S of the rectangle: |p−r| ≥ Mp + Mr − 17.04u·S, and the
    //      computed distance loses at most (1−u)³. (The clip's quick
    //      accepts, an endpoint inside the rectangle, are exact.)
    //    So the computed value is at least
    //    (1−u)⁴·(1+u)⁻⁴·σ̂ − 17.04u·S ≥ (1 − 8.01u)·σ̂ − 17.04u·S.
    // 3. The floor below is σ̂·(1 − 16u) − 32u·S before its own three
    //    roundings, which add at most 2u·σ̂ + 2u·32u·S. It is therefore
    //    at most (1 − 14u)·σ̂ − 31.9u·S, under the bound of step 2 with
    //    about 6u·σ̂ + 15u·S to spare. (1 − 8ε) is exact.
    // 4. Subnormal intermediates add absolute errors of a few 2⁻¹⁰⁷⁴,
    //    a few 2⁻⁵³⁷ after the roots; √MIN_POSITIVE = 2⁻⁵¹¹ covers them.
    //
    // The geom proptests hold the result to `min_trans_dist` with no
    // tolerance, on random inputs and on large coordinates, tiny
    // extents, near-coincident p and r and rectangles touching p–r.
    let scale = [p.x, p.y, r.x, r.y, m.min.x, m.min.y, m.max.x, m.max.y]
        .into_iter()
        .fold(0.0, |s: f64, c| s.max(c.abs()));
    let sum = m.min_dist(p) + m.min_dist(r);
    sum * (1.0 - 8.0 * f64::EPSILON) - (16.0 * f64::EPSILON * scale + f64::MIN_POSITIVE.sqrt())
}

/// The minimum of `dis(p, s) + dis(s, r)` over points `s` of the segment.
///
/// The objective restricted to the segment's supporting line is convex with
/// its minimum at the mirror-trick touch point; clamping that point's
/// parameter to the segment yields the exact constrained minimum.
pub fn min_trans_dist_via_segment(p: Point, seg: &Segment, r: Point) -> f64 {
    let a = seg.a;
    let ab = seg.b - seg.a;
    let len2 = ab.dot(ab);
    if len2 == 0.0 {
        return p.dist(a) + a.dist(r);
    }
    let cp = ab.cross(p - a);
    let cr = ab.cross(r - a);

    let t = if cp == 0.0 && cr == 0.0 {
        // Fully collinear: the optimum on the line is any point of the
        // interval between the projections of p and r; clamp that interval
        // onto the segment's [0, 1] parameter range.
        let tp = (p - a).dot(ab) / len2;
        let tr = (r - a).dot(ab) / len2;
        let (lo, hi) = if tp <= tr { (tp, tr) } else { (tr, tp) };
        if hi < 0.0 {
            0.0
        } else if lo > 1.0 {
            1.0
        } else {
            lo.max(0.0)
        }
    } else {
        // Mirror r across the supporting line when p and r lie on the same
        // side; afterwards p and q are on opposite sides (or on the line)
        // and the optimal line point is where p–q crosses the line.
        let q = if cp * cr > 0.0 { seg.reflect(r) } else { r };
        let cq = ab.cross(q - a);
        let denom = cp - cq;
        if denom == 0.0 {
            // p (and q) on the line itself: optimum at p's projection.
            (p - a).dot(ab) / len2
        } else {
            let s = cp / denom; // crossing parameter along p→q
            let ix = p.lerp(q, s);
            (ix - a).dot(ab) / len2
        }
    };
    let x = seg.at(t.clamp(0.0, 1.0));
    p.dist(x) + x.dist(r)
}

/// `MaxDist(p, ℓ, r)` — Definition 2.
///
/// A tight **upper bound** for the transitive distance `dis(p, s) +
/// dis(s, r)` over all points `s` of the segment `ℓ`: by convexity the
/// maximum is attained at one of the two endpoints (Lemma 2).
#[inline]
pub fn max_dist(p: Point, seg: &Segment, r: Point) -> f64 {
    let da = p.dist(seg.a) + seg.a.dist(r);
    let db = p.dist(seg.b) + seg.b.dist(r);
    da.max(db)
}

/// `MinMaxTransDist(p, M, r)` — Definition 3.
///
/// The minimum over the four sides of `M` of [`max_dist`]. By the MBR face
/// property (every face of an R-tree node's MBR touches at least one data
/// point), some data point `s` inside the node satisfies
/// `dis(p, s) + dis(s, r) ≤ MinMaxTransDist(p, M, r)` (Lemma 3) — a
/// guaranteed-achievable **upper bound** used to tighten the Hybrid-NN
/// search before visiting the node.
pub fn min_max_trans_dist(p: Point, m: &Rect, r: Point) -> f64 {
    let mut best = f64::INFINITY;
    for side in m.sides() {
        let d = max_dist(p, &side, r);
        if d < best {
            best = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transitive_dist;

    const EPS: f64 = 1e-9;

    /// Brute-force reference: sample the boundary densely and also ternary
    /// search each side (the objective is convex per side).
    fn min_trans_dist_ref(p: Point, m: &Rect, r: Point) -> f64 {
        if Segment::new(p, r).intersects_rect(m) {
            return p.dist(r);
        }
        let mut best = f64::INFINITY;
        for side in m.sides() {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..200 {
                let m1 = lo + (hi - lo) / 3.0;
                let m2 = hi - (hi - lo) / 3.0;
                let f1 = transitive_dist(p, side.at(m1), r);
                let f2 = transitive_dist(p, side.at(m2), r);
                if f1 < f2 {
                    hi = m2;
                } else {
                    lo = m1;
                }
            }
            best = best.min(transitive_dist(p, side.at(lo), r));
        }
        best
    }

    #[test]
    fn case1_segment_through_rect() {
        // Paper Fig. 5 case 1: p and r on opposite sides of the MBR.
        let m = Rect::from_coords(2.0, 2.0, 4.0, 4.0);
        let p = Point::new(0.0, 3.0);
        let r = Point::new(6.0, 3.0);
        assert!((min_trans_dist(p, &m, r) - 6.0).abs() < EPS);
    }

    #[test]
    fn case1_endpoint_inside_rect() {
        let m = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let p = Point::new(1.0, 1.0); // inside
        let r = Point::new(9.0, 1.0); // outside
        assert!((min_trans_dist(p, &m, r) - 8.0).abs() < EPS);
    }

    #[test]
    fn case2_reflection_touch() {
        // p and r both below the rectangle: the optimal path bounces off
        // the bottom side (y = 2). Mirror r across y = 2 → (4, 3);
        // |p − r'| = sqrt(16 + 4) = sqrt(20).
        let m = Rect::from_coords(0.0, 2.0, 5.0, 4.0);
        let p = Point::new(0.0, 1.0);
        let r = Point::new(4.0, 1.0);
        let expect = 20.0f64.sqrt();
        assert!((min_trans_dist(p, &m, r) - expect).abs() < EPS);
    }

    #[test]
    fn case3_vertex_optimum() {
        // p and r "wrap around" a corner: the optimum is the corner itself.
        let m = Rect::from_coords(2.0, 2.0, 4.0, 4.0);
        let p = Point::new(0.0, 2.0);
        let r = Point::new(2.0, 0.0);
        let corner = Point::new(2.0, 2.0);
        let expect = transitive_dist(p, corner, r);
        assert!((min_trans_dist(p, &m, r) - expect).abs() < EPS);
        assert!((min_trans_dist_ref(p, &m, r) - expect).abs() < 1e-6);
    }

    #[test]
    fn degenerate_point_mbr() {
        let s = Point::new(3.0, 4.0);
        let m = Rect::point(s);
        let p = Point::ORIGIN;
        let r = Point::new(6.0, 8.0);
        assert!((min_trans_dist(p, &m, r) - 10.0).abs() < EPS);
        assert!((min_max_trans_dist(p, &m, r) - 10.0).abs() < EPS);
    }

    #[test]
    fn degenerate_line_mbr() {
        // Zero-height MBR (all points on a horizontal line).
        let m = Rect::from_coords(1.0, 2.0, 5.0, 2.0);
        let p = Point::new(0.0, 0.0);
        let r = Point::new(6.0, 0.0);
        let got = min_trans_dist(p, &m, r);
        let expect = min_trans_dist_ref(p, &m, r);
        assert!((got - expect).abs() < 1e-6, "got {got}, expect {expect}");
    }

    #[test]
    fn matches_reference_on_grid() {
        let m = Rect::from_coords(-1.0, -0.5, 2.0, 1.5);
        for px in [-4.0, -1.5, 0.0, 3.0] {
            for py in [-3.0, 0.5, 2.5] {
                for rx in [-3.0, 0.5, 4.0] {
                    for ry in [-2.0, 1.0, 3.0] {
                        let p = Point::new(px, py);
                        let r = Point::new(rx, ry);
                        let got = min_trans_dist(p, &m, r);
                        let expect = min_trans_dist_ref(p, &m, r);
                        assert!(
                            (got - expect).abs() < 1e-6,
                            "p={p:?} r={r:?}: got {got}, expect {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lower_bound_holds_for_interior_points() {
        let m = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        let p = Point::new(-3.0, 1.0);
        let r = Point::new(5.0, -2.0);
        let lb = min_trans_dist(p, &m, r);
        for i in 0..=10 {
            for j in 0..=10 {
                let s = Point::new(0.2 * i as f64, 0.2 * j as f64);
                assert!(transitive_dist(p, s, r) >= lb - EPS);
            }
        }
    }

    #[test]
    fn max_dist_is_endpoint_max() {
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let p = Point::new(0.0, 3.0);
        let r = Point::new(4.0, 3.0);
        // f(a) = 3 + 5 = 8; f(b) = 5 + 3 = 8.
        assert!((max_dist(p, &seg, r) - 8.0).abs() < EPS);
        // Every interior point gives at most 8 (convexity).
        for i in 0..=20 {
            let s = seg.at(i as f64 / 20.0);
            assert!(transitive_dist(p, s, r) <= 8.0 + EPS);
        }
    }

    #[test]
    fn min_max_trans_dist_is_achievable_upper_bound() {
        let m = Rect::from_coords(0.0, 0.0, 3.0, 2.0);
        let p = Point::new(-2.0, 1.0);
        let r = Point::new(6.0, 1.0);
        let ub = min_max_trans_dist(p, &m, r);
        let lb = min_trans_dist(p, &m, r);
        assert!(lb <= ub + EPS);
        // The bound must be attained by the worst endpoint of the best side.
        let attained = m
            .sides()
            .iter()
            .map(|s| max_dist(p, s, r))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(ub, attained);
    }

    #[test]
    fn bounds_sandwich_every_side_point() {
        // For every sampled boundary point s: lb ≤ f(s); and ub ≥ min over
        // the *best side's* points (spot-checked via sampling).
        let m = Rect::from_coords(1.0, 1.0, 4.0, 3.0);
        let p = Point::new(-1.0, 0.0);
        let r = Point::new(6.0, 5.0);
        let lb = min_trans_dist(p, &m, r);
        let ub = min_max_trans_dist(p, &m, r);
        for side in m.sides() {
            for i in 0..=50 {
                let s = side.at(i as f64 / 50.0);
                assert!(transitive_dist(p, s, r) >= lb - EPS);
            }
        }
        // Some boundary point achieves ≤ ub.
        let best_sample = m
            .sides()
            .iter()
            .flat_map(|side| (0..=50).map(move |i| side.at(i as f64 / 50.0)))
            .map(|s| transitive_dist(p, s, r))
            .fold(f64::INFINITY, f64::min);
        assert!(best_sample <= ub + EPS);
    }

    #[test]
    fn min_trans_dist_never_below_direct_distance() {
        let m = Rect::from_coords(10.0, 10.0, 12.0, 12.0);
        let p = Point::new(0.0, 0.0);
        let r = Point::new(1.0, 1.0);
        assert!(min_trans_dist(p, &m, r) >= p.dist(r) - EPS);
    }

    #[test]
    fn symmetric_in_p_and_r() {
        let m = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        let p = Point::new(-3.0, 5.0);
        let r = Point::new(4.0, -1.0);
        assert!((min_trans_dist(p, &m, r) - min_trans_dist(r, &m, p)).abs() < EPS);
        assert!((min_max_trans_dist(p, &m, r) - min_max_trans_dist(r, &m, p)).abs() < EPS);
    }
}
