//! Circles: the search ranges of the estimate–filter TNN paradigm
//! (`circle(p, d)` in the paper's Theorem 1).

use crate::{Point, Rect};

/// A circle, used both as the TNN search range `circle(p, d)` and in the
/// approximate-NN circle–rectangle pruning heuristic (paper Heuristic 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center (the query point in TNN search ranges).
    pub center: Point,
    /// Radius; non-negative.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle. Negative radii are clamped to zero.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        Circle {
            center,
            radius: radius.max(0.0),
        }
    }

    /// Area `π r²`.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// `true` when `p` lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// `true` when the circle and the filled rectangle share at least one
    /// point; the intersection test driving circular window queries on an
    /// R-tree.
    #[inline]
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        rect.min_dist_sq(self.center) <= self.radius * self.radius
    }

    /// `true` when the filled rectangle lies entirely inside the circle
    /// (all four corners within the radius).
    #[inline]
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        rect.corners().iter().all(|&c| self.contains(c))
    }

    /// The axis-aligned bounding box of the circle.
    #[inline]
    pub fn bounding_rect(&self) -> Rect {
        let r = Point::new(self.radius, self.radius);
        Rect {
            min: self.center - r,
            max: self.center + r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_radius_clamps_to_zero() {
        let c = Circle::new(Point::ORIGIN, -3.0);
        assert_eq!(c.radius, 0.0);
        assert!(c.contains(Point::ORIGIN));
        assert!(!c.contains(Point::new(0.1, 0.0)));
    }

    #[test]
    fn contains_boundary() {
        let c = Circle::new(Point::ORIGIN, 5.0);
        assert!(c.contains(Point::new(3.0, 4.0)));
        assert!(!c.contains(Point::new(3.0, 4.1)));
    }

    #[test]
    fn intersects_rect_cases() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!(c.intersects_rect(&Rect::from_coords(0.5, 0.5, 2.0, 2.0)));
        assert!(c.intersects_rect(&Rect::from_coords(1.0, -0.5, 2.0, 0.5))); // touches at (1,0)
        assert!(!c.intersects_rect(&Rect::from_coords(1.0, 1.0, 2.0, 2.0))); // corner gap
        assert!(c.intersects_rect(&Rect::from_coords(-2.0, -2.0, 2.0, 2.0))); // circle inside rect
    }

    #[test]
    fn contains_rect_cases() {
        let c = Circle::new(Point::ORIGIN, 2.0);
        assert!(c.contains_rect(&Rect::from_coords(-1.0, -1.0, 1.0, 1.0)));
        assert!(!c.contains_rect(&Rect::from_coords(-2.0, -2.0, 2.0, 2.0)));
    }

    #[test]
    fn bounding_rect_is_tight() {
        let c = Circle::new(Point::new(3.0, -1.0), 2.0);
        assert_eq!(c.bounding_rect(), Rect::from_coords(1.0, -3.0, 5.0, 1.0));
    }

    #[test]
    fn area_of_unit_circle() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!((c.area() - std::f64::consts::PI).abs() < 1e-12);
    }
}
