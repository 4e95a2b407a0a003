//! Line segments: reflection, intersection and clipping helpers used by the
//! transitive distance metrics.

use crate::{Point, Rect};

/// A (possibly degenerate) line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from its endpoints.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// `true` when both endpoints coincide.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Signed area cross product locating `p` relative to the directed
    /// supporting line `a → b`: positive on the left, negative on the right,
    /// zero on the line.
    #[inline]
    pub fn side_of(&self, p: Point) -> f64 {
        (self.b - self.a).cross(p - self.a)
    }

    /// Orthogonal projection of `p` onto the *supporting line*, expressed as
    /// the parameter `t` with `projection = a + t·(b − a)`.
    ///
    /// Returns `0` for degenerate segments.
    #[inline]
    pub fn project_param(&self, p: Point) -> f64 {
        let ab = self.b - self.a;
        let len2 = ab.dot(ab);
        if len2 == 0.0 {
            0.0
        } else {
            (p - self.a).dot(ab) / len2
        }
    }

    /// The point of the segment closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: Point) -> Point {
        self.at(self.project_param(p).clamp(0.0, 1.0))
    }

    /// Mirror image of `p` across the supporting line of the segment.
    ///
    /// For a degenerate segment the "line" is undefined; the point itself is
    /// returned, which keeps the transitive-distance computations exact
    /// (the degenerate side contributes via its endpoints).
    #[inline]
    pub fn reflect(&self, p: Point) -> Point {
        if self.is_degenerate() {
            return p;
        }
        let proj = self.at(self.project_param(p));
        proj * 2.0 - p
    }

    /// `true` when this segment and `other` share at least one point
    /// (touching endpoints and collinear overlap both count).
    pub fn intersects(&self, other: &Segment) -> bool {
        let d1 = self.side_of(other.a);
        let d2 = self.side_of(other.b);
        let d3 = other.side_of(self.a);
        let d4 = other.side_of(self.b);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        // Collinear / touching cases.
        (d1 == 0.0 && on_segment(self, other.a))
            || (d2 == 0.0 && on_segment(self, other.b))
            || (d3 == 0.0 && on_segment(other, self.a))
            || (d4 == 0.0 && on_segment(other, self.b))
    }

    /// `true` when the segment intersects the *filled* rectangle (boundary
    /// included). Implemented with a Liang–Barsky parametric clip.
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        // Quick accepts.
        if rect.contains(self.a) || rect.contains(self.b) {
            return true;
        }
        let d = self.b - self.a;
        let mut t0 = 0.0f64;
        let mut t1 = 1.0f64;
        // Clip against each of the four half-planes.
        let checks = [
            (-d.x, self.a.x - rect.min.x), // x >= min.x
            (d.x, rect.max.x - self.a.x),  // x <= max.x
            (-d.y, self.a.y - rect.min.y), // y >= min.y
            (d.y, rect.max.y - self.a.y),  // y <= max.y
        ];
        for (p, q) in checks {
            if p == 0.0 {
                if q < 0.0 {
                    return false; // parallel and outside
                }
            } else {
                let r = q / p;
                if p < 0.0 {
                    if r > t1 {
                        return false;
                    }
                    if r > t0 {
                        t0 = r;
                    }
                } else {
                    if r < t0 {
                        return false;
                    }
                    if r < t1 {
                        t1 = r;
                    }
                }
            }
        }
        t0 <= t1
    }
}

/// `true` when collinear point `p` lies within the bounding box of `seg`.
#[inline]
fn on_segment(seg: &Segment, p: Point) -> bool {
    p.x >= seg.a.x.min(seg.b.x)
        && p.x <= seg.a.x.max(seg.b.x)
        && p.y >= seg.a.y.min(seg.b.y)
        && p.y <= seg.a.y.max(seg.b.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.closest_point(Point::new(-5.0, 3.0)), Point::new(0.0, 0.0));
        assert_eq!(
            s.closest_point(Point::new(15.0, -2.0)),
            Point::new(10.0, 0.0)
        );
        assert_eq!(s.closest_point(Point::new(4.0, 7.0)), Point::new(4.0, 0.0));
    }

    #[test]
    fn reflect_across_horizontal_line() {
        let s = Segment::new(Point::new(0.0, 1.0), Point::new(5.0, 1.0));
        let p = Point::new(2.0, 3.0);
        assert_eq!(s.reflect(p), Point::new(2.0, -1.0));
    }

    #[test]
    fn reflect_across_diagonal() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let r = s.reflect(Point::new(1.0, 0.0));
        assert!((r.x - 0.0).abs() < 1e-12 && (r.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reflect_degenerate_returns_point() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.reflect(Point::new(9.0, 9.0)), Point::new(9.0, 9.0));
    }

    #[test]
    fn reflect_is_involution() {
        let s = Segment::new(Point::new(-1.0, 4.0), Point::new(3.0, -2.0));
        let p = Point::new(7.0, 8.0);
        let rr = s.reflect(s.reflect(p));
        assert!(rr.dist(p) < 1e-9);
    }

    #[test]
    fn segment_intersection_crossing() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(a.intersects(&b));
    }

    #[test]
    fn segment_intersection_touching_endpoint() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 0.0));
        assert!(a.intersects(&b));
    }

    #[test]
    fn segment_intersection_disjoint() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let b = Segment::new(Point::new(0.0, 1.0), Point::new(1.0, 1.0));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn segment_intersection_collinear_overlap() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let b = Segment::new(Point::new(2.0, 0.0), Point::new(6.0, 0.0));
        assert!(a.intersects(&b));
        let c = Segment::new(Point::new(5.0, 0.0), Point::new(6.0, 0.0));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn intersects_rect_cases() {
        let r = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        // Fully inside.
        assert!(Segment::new(Point::new(0.5, 0.5), Point::new(1.5, 1.5)).intersects_rect(&r));
        // Crossing straight through.
        assert!(Segment::new(Point::new(-1.0, 1.0), Point::new(3.0, 1.0)).intersects_rect(&r));
        // Clipping a corner.
        assert!(Segment::new(Point::new(-0.5, 1.5), Point::new(1.5, 2.6)).intersects_rect(&r));
        // Entirely outside.
        assert!(!Segment::new(Point::new(-1.0, -1.0), Point::new(-0.1, 3.0)).intersects_rect(&r));
        // Touching the boundary only.
        assert!(Segment::new(Point::new(-1.0, 0.0), Point::new(1.0, 0.0)).intersects_rect(&r));
        // Parallel to an edge but outside it.
        assert!(!Segment::new(Point::new(-1.0, -0.1), Point::new(3.0, -0.1)).intersects_rect(&r));
    }

    #[test]
    fn intersects_rect_degenerate_segment() {
        let r = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(Segment::new(Point::new(0.5, 0.5), Point::new(0.5, 0.5)).intersects_rect(&r));
        assert!(!Segment::new(Point::new(5.0, 5.0), Point::new(5.0, 5.0)).intersects_rect(&r));
    }

    #[test]
    fn side_of_signs() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        assert!(s.side_of(Point::new(0.5, 1.0)) > 0.0);
        assert!(s.side_of(Point::new(0.5, -1.0)) < 0.0);
        assert_eq!(s.side_of(Point::new(0.5, 0.0)), 0.0);
    }
}
