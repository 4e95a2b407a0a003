//! # tnn-geom
//!
//! 2-D geometry kernel for transitive nearest-neighbor (TNN) query
//! processing over wireless broadcast channels, reproducing the metrics of
//! *Zhang, Lee, Mitra, Zheng: Processing Transitive Nearest-Neighbor Queries
//! in Multi-Channel Access Environments* (EDBT 2008).
//!
//! The crate provides:
//!
//! * [`Point`], [`Rect`], [`Segment`], [`Circle`] and [`Ellipse`] primitives;
//! * the classical R-tree pruning metrics `MinDist` ([`Rect::min_dist`]) and
//!   `MinMaxDist` ([`Rect::min_max_dist`]);
//! * the paper's transitive metrics [`min_trans_dist`] (Definition 1),
//!   [`max_dist`] (Definition 2) and [`min_max_trans_dist`] (Definition 3),
//!   plus [`min_trans_dist_floor`], a two-sqrt lower bound of the first
//!   that a search tests before it;
//! * exact circle–rectangle and ellipse–rectangle overlap areas
//!   ([`circle_rect_overlap_area`], [`ellipse_rect_overlap_area`]) backing the
//!   approximate-NN pruning heuristics of the paper's §5.
//!
//! All computations use `f64`. The kernel is allocation-free on every hot
//! path.

#![warn(missing_docs)]

mod circle;
mod ellipse;
mod overlap;
mod point;
mod rect;
mod segment;
mod transit;

pub use circle::Circle;
pub use ellipse::Ellipse;
pub use overlap::{
    circle_polygon_overlap_area, circle_rect_overlap_area, ellipse_rect_overlap_area,
};
pub use point::Point;
pub use rect::Rect;
pub use segment::Segment;
pub use transit::{
    max_dist, min_max_trans_dist, min_trans_dist, min_trans_dist_floor, min_trans_dist_via_segment,
};

/// Convenience alias: Euclidean distance between two points, the paper's
/// `dis(p, s)`.
#[inline]
pub fn dis(p: Point, q: Point) -> f64 {
    p.dist(q)
}

/// Transitive distance `dis(p, s) + dis(s, r)` of the path `p → s → r`
/// (the quantity a TNN query minimizes over `(s, r) ∈ S × R`).
#[inline]
pub fn transitive_dist(p: Point, s: Point, r: Point) -> f64 {
    p.dist(s) + s.dist(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitive_dist_is_sum_of_legs() {
        let p = Point::new(0.0, 0.0);
        let s = Point::new(3.0, 4.0);
        let r = Point::new(3.0, 8.0);
        assert!((transitive_dist(p, s, r) - 9.0).abs() < 1e-12);
        assert!((dis(p, s) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn transitive_dist_triangle_inequality() {
        let p = Point::new(1.0, 2.0);
        let s = Point::new(-4.0, 7.0);
        let r = Point::new(10.0, -3.0);
        assert!(transitive_dist(p, s, r) >= dis(p, r) - 1e-12);
    }
}
