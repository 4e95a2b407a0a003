//! Ellipses defined by two foci and a total (major-axis) distance — the
//! level sets of the transitive distance `dis(p, s) + dis(s, r)` and the
//! shape behind the paper's ellipse–rectangle pruning heuristic
//! (Heuristic 2).

use crate::{Point, Rect};

/// An ellipse given by its two foci and the length of the major axis
/// (equivalently, the constant sum of distances to the foci).
///
/// In TNN query processing the foci are the query point `p` and the fixed
/// endpoint `r`, and `major` is the current transitive-distance upper
/// bound: a point `s` improves the bound iff it lies inside this ellipse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ellipse {
    /// First focus (the query point `p`).
    pub f1: Point,
    /// Second focus (the fixed endpoint `r`).
    pub f2: Point,
    /// Major-axis length `2a` — the transitive-distance bound.
    pub major: f64,
}

impl Ellipse {
    /// Creates the ellipse `{ s : dis(f1, s) + dis(s, f2) ≤ major }`.
    #[inline]
    pub fn new(f1: Point, f2: Point, major: f64) -> Self {
        Ellipse { f1, f2, major }
    }

    /// Half the focal distance `c`.
    #[inline]
    pub fn focal_half_dist(&self) -> f64 {
        self.f1.dist(self.f2) * 0.5
    }

    /// Semi-major axis `a = major / 2`.
    #[inline]
    pub fn semi_major(&self) -> f64 {
        self.major * 0.5
    }

    /// Semi-minor axis `b = sqrt(a² − c²)`, or `None` when the ellipse is
    /// empty (`major` smaller than the focal distance — no point can have a
    /// distance sum that small).
    #[inline]
    pub fn semi_minor(&self) -> Option<f64> {
        let a = self.semi_major();
        let c = self.focal_half_dist();
        if a < c || self.major < 0.0 {
            None
        } else {
            Some((a * a - c * c).sqrt())
        }
    }

    /// `true` when the ellipse contains no point at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.semi_minor().is_none()
    }

    /// `true` when the ellipse has zero area: empty, or degenerate (the
    /// segment between the foci, when `major` equals the focal distance).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        match self.semi_minor() {
            None => true,
            Some(b) => b == 0.0 || self.semi_major() == 0.0,
        }
    }

    /// Center (midpoint of the foci).
    #[inline]
    pub fn center(&self) -> Point {
        self.f1.midpoint(self.f2)
    }

    /// Area `π a b`, zero for empty/degenerate ellipses.
    #[inline]
    pub fn area(&self) -> f64 {
        match self.semi_minor() {
            None => 0.0,
            Some(b) => std::f64::consts::PI * self.semi_major() * b,
        }
    }

    /// `true` when `s` lies inside or on the ellipse, i.e. the path
    /// `f1 → s → f2` is no longer than `major`.
    #[inline]
    pub fn contains(&self, s: Point) -> bool {
        self.f1.dist(s) + s.dist(self.f2) <= self.major
    }

    /// The axis-aligned bounding box of the ellipse (tight), or `None` when
    /// empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let b = self.semi_minor()?;
        let a = self.semi_major();
        let center = self.center();
        let d = self.f2 - self.f1;
        let len = d.norm();
        let (cos_t, sin_t) = if len == 0.0 {
            (1.0, 0.0)
        } else {
            (d.x / len, d.y / len)
        };
        // Extents of a rotated ellipse along the coordinate axes.
        let ex = ((a * cos_t).powi(2) + (b * sin_t).powi(2)).sqrt();
        let ey = ((a * sin_t).powi(2) + (b * cos_t).powi(2)).sqrt();
        Some(Rect {
            min: Point::new(center.x - ex, center.y - ey),
            max: Point::new(center.x + ex, center.y + ey),
        })
    }

    /// The affine transform mapping this ellipse onto the unit circle at the
    /// origin, as `(rotation cos, rotation sin, inv_a, inv_b, center)`.
    ///
    /// Returns `None` for empty or degenerate (zero-area) ellipses.
    /// Used by the exact ellipse–rectangle overlap computation: the map
    /// scales all areas by `1 / (a·b)`.
    pub(crate) fn to_unit_circle(self) -> Option<UnitCircleMap> {
        let b = self.semi_minor()?;
        let a = self.semi_major();
        if a == 0.0 || b == 0.0 {
            return None;
        }
        let center = self.center();
        let d = self.f2 - self.f1;
        let len = d.norm();
        let (cos_t, sin_t) = if len == 0.0 {
            (1.0, 0.0)
        } else {
            (d.x / len, d.y / len)
        };
        Some(UnitCircleMap {
            center,
            cos_t,
            sin_t,
            inv_a: 1.0 / a,
            inv_b: 1.0 / b,
            ab: a * b,
        })
    }
}

/// Affine map sending an ellipse to the unit circle (translate to origin,
/// rotate the focal axis onto x, scale the axes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitCircleMap {
    center: Point,
    cos_t: f64,
    sin_t: f64,
    inv_a: f64,
    inv_b: f64,
    /// Product of the semi-axes: areas in circle space scale by `ab` back to
    /// ellipse space.
    pub ab: f64,
}

impl UnitCircleMap {
    /// Applies the map to a point.
    #[inline]
    pub fn apply(&self, p: Point) -> Point {
        let v = p - self.center;
        // Rotate by −θ, then scale.
        let rx = v.x * self.cos_t + v.y * self.sin_t;
        let ry = -v.x * self.sin_t + v.y * self.cos_t;
        Point::new(rx * self.inv_a, ry * self.inv_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_as_degenerate_foci() {
        // Both foci at the same point: a circle of radius major/2.
        let e = Ellipse::new(Point::ORIGIN, Point::ORIGIN, 4.0);
        assert_eq!(e.semi_major(), 2.0);
        assert_eq!(e.semi_minor(), Some(2.0));
        assert!(e.contains(Point::new(2.0, 0.0)));
        assert!(!e.contains(Point::new(2.1, 0.0)));
        assert!((e.area() - 4.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn empty_when_major_below_focal_distance() {
        let e = Ellipse::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 9.0);
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(e.bounding_rect().is_none());
    }

    #[test]
    fn degenerate_segment_ellipse() {
        let e = Ellipse::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 10.0);
        assert!(!e.is_empty());
        assert!(e.is_degenerate());
        assert_eq!(e.area(), 0.0);
        assert!(e.contains(Point::new(5.0, 0.0)));
        assert!(!e.contains(Point::new(5.0, 0.1)));
    }

    #[test]
    fn axis_aligned_ellipse_geometry() {
        // Foci (±3, 0), major 10 → a = 5, b = 4.
        let e = Ellipse::new(Point::new(-3.0, 0.0), Point::new(3.0, 0.0), 10.0);
        assert_eq!(e.semi_major(), 5.0);
        assert_eq!(e.semi_minor(), Some(4.0));
        assert!(e.contains(Point::new(5.0, 0.0)));
        assert!(e.contains(Point::new(0.0, 4.0)));
        assert!(!e.contains(Point::new(0.0, 4.01)));
        let bb = e.bounding_rect().unwrap();
        assert!((bb.min.x + 5.0).abs() < 1e-12);
        assert!((bb.max.y - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rotated_ellipse_bounding_rect() {
        // Focal axis along the diagonal.
        let e = Ellipse::new(Point::new(-3.0, -3.0), Point::new(3.0, 3.0), 12.0);
        let bb = e.bounding_rect().unwrap();
        // a = 6, c = 3√2, b = sqrt(36 − 18) = 3√2 ≈ 4.2426.
        // Extents: sqrt(a²cos² + b²sin²) with cos = sin = √2/2.
        let expect = ((36.0 + 18.0) / 2.0f64).sqrt();
        assert!((bb.max.x - expect).abs() < 1e-9);
        assert!((bb.max.y - expect).abs() < 1e-9);
    }

    #[test]
    fn unit_circle_map_sends_boundary_to_unit_norm() {
        let e = Ellipse::new(Point::new(1.0, 2.0), Point::new(7.0, 2.0), 10.0);
        let map = e.to_unit_circle().unwrap();
        // Boundary point: right vertex of the ellipse: center (4,2), a = 5.
        let v = map.apply(Point::new(9.0, 2.0));
        assert!((v.norm() - 1.0).abs() < 1e-9);
        // Top co-vertex: b = 4 → (4, 6).
        let w = map.apply(Point::new(4.0, 6.0));
        assert!((w.norm() - 1.0).abs() < 1e-9);
        // Center maps to origin.
        assert!(map.apply(Point::new(4.0, 2.0)).norm() < 1e-12);
    }

    #[test]
    fn contains_matches_focal_sum() {
        let e = Ellipse::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0), 8.0);
        for (x, y) in [(2.0, 2.0), (-1.0, 0.5), (6.0, 0.0), (2.0, -2.6)] {
            let p = Point::new(x, y);
            let sum = e.f1.dist(p) + p.dist(e.f2);
            assert_eq!(e.contains(p), sum <= 8.0);
        }
    }
}
