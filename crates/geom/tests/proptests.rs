//! Property-based tests for the geometry kernel: the transitive metrics
//! must bound the true objective on arbitrary configurations, and the exact
//! overlap areas must agree with sampling estimates.

use proptest::prelude::*;
use tnn_geom::{
    circle_rect_overlap_area, ellipse_rect_overlap_area, max_dist, min_max_trans_dist,
    min_trans_dist, min_trans_dist_floor, transitive_dist, Circle, Ellipse, Point, Rect, Segment,
};

fn point_strategy() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (point_strategy(), point_strategy()).prop_map(|(a, b)| Rect::new(a, b))
}

/// Rect with strictly positive extent in both dimensions.
fn fat_rect_strategy() -> impl Strategy<Value = Rect> {
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.5f64..50.0,
        0.5f64..50.0,
    )
        .prop_map(|(x, y, w, h)| Rect::from_coords(x, y, x + w, y + h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// MinTransDist lower-bounds the transitive distance through every
    /// interior and boundary sample of the MBR.
    #[test]
    fn min_trans_dist_is_lower_bound(
        p in point_strategy(),
        r in point_strategy(),
        m in rect_strategy(),
        ti in 0.0f64..1.0,
        tj in 0.0f64..1.0,
    ) {
        let lb = min_trans_dist(p, &m, r);
        let s = Point::new(
            m.min.x + ti * m.width(),
            m.min.y + tj * m.height(),
        );
        prop_assert!(transitive_dist(p, s, r) >= lb - 1e-7);
    }

    /// MinTransDist is *tight*: dense boundary sampling plus per-side
    /// ternary search comes within epsilon of it.
    #[test]
    fn min_trans_dist_is_tight(
        p in point_strategy(),
        r in point_strategy(),
        m in rect_strategy(),
    ) {
        let lb = min_trans_dist(p, &m, r);
        // If the straight segment crosses the rect the optimum is |p−r|.
        let mut best = if Segment::new(p, r).intersects_rect(&m) {
            p.dist(r)
        } else {
            f64::INFINITY
        };
        for side in m.sides() {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..100 {
                let m1 = lo + (hi - lo) / 3.0;
                let m2 = hi - (hi - lo) / 3.0;
                if transitive_dist(p, side.at(m1), r) < transitive_dist(p, side.at(m2), r) {
                    hi = m2;
                } else {
                    lo = m1;
                }
            }
            best = best.min(transitive_dist(p, side.at(lo), r));
        }
        prop_assert!((lb - best).abs() < 1e-6,
            "analytic {lb} vs searched {best} (p={p:?}, r={r:?}, m={m:?})");
    }

    /// MinTransDist can never be less than the direct distance |p−r|
    /// (the triangle inequality through any s).
    #[test]
    fn min_trans_dist_at_least_direct(
        p in point_strategy(),
        r in point_strategy(),
        m in rect_strategy(),
    ) {
        prop_assert!(min_trans_dist(p, &m, r) >= p.dist(r) - 1e-9);
    }

    /// MaxDist upper-bounds the transitive distance through every point of
    /// the segment, and is attained at an endpoint.
    #[test]
    fn max_dist_is_tight_upper_bound(
        p in point_strategy(),
        r in point_strategy(),
        a in point_strategy(),
        b in point_strategy(),
        t in 0.0f64..1.0,
    ) {
        let seg = Segment::new(a, b);
        let ub = max_dist(p, &seg, r);
        prop_assert!(transitive_dist(p, seg.at(t), r) <= ub + 1e-9);
        let at_ends = transitive_dist(p, a, r).max(transitive_dist(p, b, r));
        prop_assert!((ub - at_ends).abs() < 1e-9);
    }

    /// The metric sandwich: MinTransDist ≤ MinMaxTransDist, and every side
    /// has some point within MinMaxTransDist.
    #[test]
    fn metric_sandwich(
        p in point_strategy(),
        r in point_strategy(),
        m in rect_strategy(),
    ) {
        let lb = min_trans_dist(p, &m, r);
        let ub = min_max_trans_dist(p, &m, r);
        prop_assert!(lb <= ub + 1e-9);
    }

    /// Both transitive MBR metrics are symmetric in p and r (the rectangle
    /// sees the same set of paths in either direction).
    #[test]
    fn transitive_metrics_symmetric(
        p in point_strategy(),
        r in point_strategy(),
        m in rect_strategy(),
    ) {
        prop_assert!((min_trans_dist(p, &m, r) - min_trans_dist(r, &m, p)).abs() < 1e-7);
        prop_assert!((min_max_trans_dist(p, &m, r) - min_max_trans_dist(r, &m, p)).abs() < 1e-7);
    }

    /// Circle–rectangle overlap is bounded by both areas and exact against
    /// a grid estimate.
    #[test]
    fn circle_overlap_bounded_and_sane(
        cx in -50.0f64..50.0,
        cy in -50.0f64..50.0,
        rad in 0.1f64..40.0,
        m in fat_rect_strategy(),
    ) {
        let c = Circle::new(Point::new(cx, cy), rad);
        let ov = circle_rect_overlap_area(&c, &m);
        prop_assert!(ov >= -1e-9);
        prop_assert!(ov <= c.area() + 1e-6);
        prop_assert!(ov <= m.area() + 1e-6);
        if !c.intersects_rect(&m) {
            prop_assert!(ov.abs() < 1e-9);
        }
        if c.contains_rect(&m) {
            prop_assert!((ov - m.area()).abs() < 1e-6 * m.area().max(1.0));
        }
    }

    /// Overlap area is monotone in the radius.
    #[test]
    fn circle_overlap_monotone_in_radius(
        cx in -50.0f64..50.0,
        cy in -50.0f64..50.0,
        rad in 0.1f64..40.0,
        extra in 0.0f64..10.0,
        m in fat_rect_strategy(),
    ) {
        let center = Point::new(cx, cy);
        let small = circle_rect_overlap_area(&Circle::new(center, rad), &m);
        let large = circle_rect_overlap_area(&Circle::new(center, rad + extra), &m);
        prop_assert!(large >= small - 1e-7);
    }

    /// Ellipse–rectangle overlap: bounded by both areas, zero for empty
    /// ellipses, consistent with containment.
    #[test]
    fn ellipse_overlap_bounded_and_sane(
        f1 in point_strategy(),
        f2 in point_strategy(),
        slack in 0.0f64..100.0,
        m in fat_rect_strategy(),
    ) {
        let major = f1.dist(f2) + slack;
        let e = Ellipse::new(f1, f2, major);
        let ov = ellipse_rect_overlap_area(&e, &m);
        prop_assert!(ov >= -1e-9);
        prop_assert!(ov <= e.area() + 1e-6 * e.area().max(1.0));
        prop_assert!(ov <= m.area() + 1e-6);
    }

    /// A shrunk ellipse (smaller major axis, same foci) never overlaps more.
    #[test]
    fn ellipse_overlap_monotone_in_major(
        f1 in point_strategy(),
        f2 in point_strategy(),
        slack in 0.1f64..50.0,
        shrink in 0.0f64..1.0,
        m in fat_rect_strategy(),
    ) {
        let major = f1.dist(f2) + slack;
        let big = ellipse_rect_overlap_area(&Ellipse::new(f1, f2, major), &m);
        let small_major = f1.dist(f2) + slack * shrink;
        let small = ellipse_rect_overlap_area(&Ellipse::new(f1, f2, small_major), &m);
        prop_assert!(small <= big + 1e-6 * big.max(1.0));
    }

    /// Rect invariants under union/expand.
    #[test]
    fn rect_union_contains_both(a in rect_strategy(), b in rect_strategy()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    /// MinDist / MinMaxDist / MaxDist ordering for any point and rect.
    #[test]
    fn rect_distance_ordering(p in point_strategy(), m in rect_strategy()) {
        let lo = m.min_dist(p);
        let mid = m.min_max_dist(p);
        let hi = m.max_dist(p);
        prop_assert!(lo <= mid + 1e-9);
        prop_assert!(mid <= hi + 1e-9);
    }

    /// MinDist is achieved by the clamped closest point.
    #[test]
    fn min_dist_matches_closest_point(p in point_strategy(), m in rect_strategy()) {
        prop_assert!((m.min_dist(p) - p.dist(m.closest_point(p))).abs() < 1e-9);
    }

    /// Segment reflection preserves distances to the line's points.
    #[test]
    fn reflection_preserves_line_distance(
        a in point_strategy(),
        b in point_strategy(),
        p in point_strategy(),
        t in 0.0f64..1.0,
    ) {
        prop_assume!(a.dist(b) > 1e-6);
        let seg = Segment::new(a, b);
        let refl = seg.reflect(p);
        let on_line = seg.at(t);
        prop_assert!((on_line.dist(p) - on_line.dist(refl)).abs() < 1e-6);
    }
}

/// One `(p, m, r)` case for the transitive floor, built from `draws` in
/// `[-1, 1)`: a rectangle of sides up to `scale · extent` at a corner of
/// coordinate magnitude up to `scale`, with `p` and `r` within
/// `2 · scale · reach` of that corner, so small extents and reaches put
/// lengths of a few ulps next to large coordinates. `kind` picks the
/// shape: 0 anywhere in reach; 1 with `r` a millionth of the reach from
/// `p`; 2 with `p` and `r` on a line through a boundary point of `m`, so
/// that the segment touches it; 3 the same line pushed off the boundary
/// by up to one extent, a near miss; 4 with `p` inside `m`.
fn floor_case(
    kind: u8,
    (scale, extent, reach): (f64, f64, f64),
    draws: &[f64],
) -> (Point, Rect, Point) {
    let c = Point::new(scale * draws[0], scale * draws[1]);
    let spread = scale * extent;
    let m = Rect::from_coords(
        c.x,
        c.y,
        c.x + spread * draws[2].abs(),
        c.y + spread * draws[3].abs(),
    );
    let near = |a: f64, b: f64| c + Point::new(a, b) * (2.0 * scale * reach);
    let (p, r) = match kind {
        0 => (near(draws[4], draws[5]), near(draws[6], draws[7])),
        1 => {
            let p = near(draws[4], draws[5]);
            (
                p,
                p + Point::new(draws[6], draws[7]) * (scale * reach * 1e-6),
            )
        }
        2 | 3 => {
            // A boundary point: a corner or a point inside a side.
            let t = draws[6].abs();
            let side = m.sides()[(draws[7].abs() * 4.0) as usize % 4];
            let mut x = side.at(if draws[7] < 0.0 { t } else { t.round() });
            if kind == 3 {
                x = x + Point::new(draws[2], draws[3]) * spread;
            }
            let out = near(draws[4], draws[5]) - x;
            (x + out, x - out * draws[2].abs())
        }
        _ => (m.center(), near(draws[6], draws[7])),
    };
    (p, m, r)
}

proptest! {
    /// The two-sqrt floor never exceeds the computed MinTransDist, with
    /// no tolerance: a search tests it first and skips the exact metric
    /// whenever it prunes, so any excess would change a pruning decision.
    /// Half the cases are small and random; the rest span coordinates up
    /// to 1e12 with extents and distances down to 1e-12 of them (extents
    /// also zero), `r ≈ p`, segments touching or just missing the
    /// rectangle, and `p` inside.
    #[test]
    fn min_trans_dist_floor_never_exceeds_min_trans_dist(
        kind in 0u8..5,
        scale in prop::sample::select(vec![1.0, 100.0, 1e3, 1e6, 1e9, 1e12]),
        extent in prop::sample::select(vec![1.0, 0.1, 1e-3, 1e-6, 1e-9, 1e-12, 0.0]),
        reach in prop::sample::select(vec![1.0, 1e-3, 1e-6, 1e-9, 1e-12]),
        draws in prop::collection::vec(-1.0f64..1.0, 8..9),
        (p, r, m) in (point_strategy(), point_strategy(), rect_strategy()),
        random in 0u8..2,
    ) {
        let (p, m, r) = if random == 0 {
            (p, m, r)
        } else {
            floor_case(kind, (scale, extent, reach), &draws)
        };
        let floor = min_trans_dist_floor(p, &m, r);
        let exact = min_trans_dist(p, &m, r);
        prop_assert!(
            floor <= exact,
            "floor {floor} > exact {exact} (p={p:?}, r={r:?}, m={m:?})"
        );
        // Not vacuous: within a few ulps of the MinDist sum it refines.
        let sum = m.min_dist(p) + m.min_dist(r);
        let magnitude = [p.x, p.y, r.x, r.y, m.min.x, m.min.y, m.max.x, m.max.y]
            .into_iter()
            .fold(0.0, |s: f64, c| s.max(c.abs()));
        prop_assert!(floor >= sum - 1e-14 * (sum + magnitude) - 1e-150);
    }
}
