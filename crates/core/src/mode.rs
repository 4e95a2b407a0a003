//! Search modes: the distance metrics driving a broadcast branch-and-bound
//! search.
//!
//! A standard NN search measures plain Euclidean distance from a query
//! point; the Hybrid-NN case-3 search measures *transitive* distance
//! `dis(p, s) + dis(s, r)` with the endpoint `r` fixed. Both expose the
//! same three bounds, so one task implementation serves both (paper
//! §4.2.1–§4.2.3):
//!
//! | bound | point mode | transitive mode |
//! |---|---|---|
//! | lower (pruning) | `MinDist` | `MinTransDist` |
//! | safe upper (guaranteed by the MBR face property) | `MinMaxDist` | `MinMaxTransDist` |
//! | objective at a point | `dis(q, x)` | `dis(p, x) + dis(x, r)` |
//!
//! The ANN heuristics' search regions differ likewise: a circle around
//! the query point (Heuristic 1) vs. an ellipse with foci `p`, `r`
//! (Heuristic 2).

use tnn_geom::{
    circle_rect_overlap_area, ellipse_rect_overlap_area, min_max_trans_dist, min_trans_dist,
    Circle, Ellipse, Point, Rect,
};

/// The metric driving a broadcast branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchMode {
    /// Plain nearest-neighbor search from a query point.
    Point {
        /// The query point.
        q: Point,
    },
    /// Transitive search (Hybrid-NN case 3): minimize
    /// `dis(p, s) + dis(s, r)` over points `s` of the indexed dataset.
    Transitive {
        /// The original query point.
        p: Point,
        /// The fixed endpoint (`p`'s NN in the other dataset).
        r: Point,
    },
}

impl SearchMode {
    /// The point the search departs from: the query point in point mode,
    /// the source focus `p` in transitive mode. The generalized Hybrid-NN
    /// re-targeting uses this as the fixed endpoint when an upstream hop's
    /// search switches to the transitive metric.
    #[inline]
    pub fn anchor(&self) -> Point {
        match *self {
            SearchMode::Point { q } => q,
            SearchMode::Transitive { p, .. } => p,
        }
    }

    /// The objective at a data point in the mode's **objective space**:
    /// point mode works in squared distances (no square root on the hot
    /// path), transitive mode in plain distance sums. Values from the
    /// `*_objective` family are mutually comparable and convert to real
    /// distances via [`SearchMode::report`].
    #[inline]
    pub fn objective_at(&self, x: Point) -> f64 {
        match *self {
            SearchMode::Point { q } => q.dist_sq(x),
            SearchMode::Transitive { p, r } => p.dist(x) + x.dist(r),
        }
    }

    /// Lower bound of the objective over all points inside `mbr`
    /// (`MinDist` / `MinTransDist`), in objective space; the pruning
    /// metric.
    #[inline]
    pub fn lower_bound_objective(&self, mbr: &Rect) -> f64 {
        match *self {
            SearchMode::Point { q } => mbr.min_dist_sq(q),
            SearchMode::Transitive { p, r } => min_trans_dist(p, mbr, r),
        }
    }

    /// Upper bound of the objective guaranteed to be achieved by some
    /// data point inside a non-empty R-tree node bounded by `mbr`
    /// (`MinMaxDist` / `MinMaxTransDist`, by the MBR face property), in
    /// objective space.
    #[inline]
    pub fn safe_upper_objective(&self, mbr: &Rect) -> f64 {
        match *self {
            SearchMode::Point { q } => mbr.min_max_dist_sq(q),
            SearchMode::Transitive { p, r } => min_max_trans_dist(p, mbr, r),
        }
    }

    /// Converts an objective-space value back to a real distance.
    #[inline]
    pub fn report(&self, v: f64) -> f64 {
        match *self {
            SearchMode::Point { .. } => v.sqrt(),
            SearchMode::Transitive { .. } => v,
        }
    }

    /// Fraction of `mbr`'s area covered by the current search region (the
    /// circle of radius `bound` around the query point, or the ellipse
    /// with foci `p`, `r` and major axis `bound`) — the quantity compared
    /// against `α` by the ANN pruning heuristics (§5.1).
    ///
    /// Degenerate MBRs (zero area) and infinite bounds return 1.0, i.e.
    /// they are never ANN-pruned (conservative).
    pub fn overlap_ratio(&self, mbr: &Rect, bound: f64) -> f64 {
        if !bound.is_finite() {
            return 1.0;
        }
        let area = mbr.area();
        if area <= 0.0 {
            return 1.0;
        }
        let overlap = match *self {
            SearchMode::Point { q } => circle_rect_overlap_area(&Circle::new(q, bound), mbr),
            SearchMode::Transitive { p, r } => {
                ellipse_rect_overlap_area(&Ellipse::new(p, r, bound), mbr)
            }
        };
        (overlap / area).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mode_bounds() {
        let mode = SearchMode::Point {
            q: Point::new(0.0, 0.0),
        };
        let mbr = Rect::from_coords(3.0, 0.0, 5.0, 2.0);
        // Point mode works in squared distances; `report` takes the root.
        assert_eq!(mode.lower_bound_objective(&mbr), 9.0);
        assert!(mode.safe_upper_objective(&mbr) >= mode.lower_bound_objective(&mbr));
        assert_eq!(mode.objective_at(Point::new(3.0, 4.0)), 25.0);
        assert_eq!(mode.report(mode.objective_at(Point::new(3.0, 4.0))), 5.0);
    }

    #[test]
    fn transitive_mode_bounds() {
        let p = Point::new(0.0, 0.0);
        let r = Point::new(10.0, 0.0);
        let mode = SearchMode::Transitive { p, r };
        let mbr = Rect::from_coords(4.0, -1.0, 6.0, 1.0);
        // The straight segment p–r passes through the MBR. Transitive
        // mode works in plain distances, so `report` is the identity.
        assert_eq!(mode.lower_bound_objective(&mbr), 10.0);
        assert!(mode.safe_upper_objective(&mbr) >= 10.0);
        assert_eq!(mode.objective_at(Point::new(5.0, 0.0)), 10.0);
        assert_eq!(mode.report(10.0), 10.0);
    }

    #[test]
    fn overlap_ratio_point_mode() {
        let mode = SearchMode::Point {
            q: Point::new(0.0, 0.0),
        };
        // Unit square in the first quadrant, circle radius 10 → fully covered.
        let mbr = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!((mode.overlap_ratio(&mbr, 10.0) - 1.0).abs() < 1e-9);
        // Far away circle → zero.
        let far = Rect::from_coords(100.0, 100.0, 101.0, 101.0);
        assert_eq!(mode.overlap_ratio(&far, 1.0), 0.0);
    }

    #[test]
    fn overlap_ratio_transitive_mode() {
        let mode = SearchMode::Transitive {
            p: Point::new(-3.0, 0.0),
            r: Point::new(3.0, 0.0),
        };
        // Ellipse a=5, b=4 comfortably covers a small box at the center.
        let mbr = Rect::from_coords(-1.0, -1.0, 1.0, 1.0);
        assert!((mode.overlap_ratio(&mbr, 10.0) - 1.0).abs() < 1e-9);
        // Empty ellipse (bound below focal distance) overlaps nothing.
        assert_eq!(mode.overlap_ratio(&mbr, 5.0), 0.0);
    }

    #[test]
    fn degenerate_and_infinite_cases_conservative() {
        let mode = SearchMode::Point {
            q: Point::new(0.0, 0.0),
        };
        let degenerate = Rect::from_coords(1.0, 1.0, 1.0, 5.0);
        assert_eq!(mode.overlap_ratio(&degenerate, 0.5), 1.0);
        let mbr = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert_eq!(mode.overlap_ratio(&mbr, f64::INFINITY), 1.0);
    }
}
