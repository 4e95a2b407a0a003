//! Axis-aligned rectangles (minimal bounding rectangles, MBRs) and the
//! classical R-tree distance metrics.

use crate::{Point, Segment};

/// An axis-aligned rectangle, used as the minimal bounding rectangle (MBR)
/// of R-tree nodes. May be degenerate (zero width and/or height); such MBRs
/// arise naturally from collinear or single-point leaf nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

/// `f64::min` with `a` kept on a tie. `f64::min` may return either zero
/// for `min(-0.0, 0.0)`, and optimised and debug builds do pick
/// differently, which would give an MBR fold different bits per build.
#[inline]
fn lower(a: f64, b: f64) -> f64 {
    if b < a || a.is_nan() {
        b
    } else {
        a
    }
}

/// `f64::max` with `a` kept on a tie; see [`lower`].
#[inline]
fn upper(a: f64, b: f64) -> f64 {
    if b > a || a.is_nan() {
        b
    } else {
        a
    }
}

impl Rect {
    /// Creates a rectangle from two opposite corners given in any order.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from `(min_x, min_y, max_x, max_y)`.
    ///
    /// # Panics
    /// Panics in debug builds when `min > max` in either dimension.
    #[inline]
    pub fn from_coords(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rectangle");
        Rect {
            min: Point::new(min_x, min_y),
            max: Point::new(max_x, max_y),
        }
    }

    /// The degenerate rectangle covering a single point.
    #[inline]
    pub fn point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// The smallest rectangle enclosing all points of `pts`.
    ///
    /// Returns `None` for an empty slice.
    pub fn bounding(pts: &[Point]) -> Option<Self> {
        let first = *pts.first()?;
        let mut r = Rect::point(first);
        for &p in &pts[1..] {
            r.expand(p);
        }
        Some(r)
    }

    /// Grows the rectangle (in place) to cover `p`.
    #[inline]
    pub fn expand(&mut self, p: Point) {
        self.min.x = lower(self.min.x, p.x);
        self.min.y = lower(self.min.y, p.y);
        self.max.x = upper(self.max.x, p.x);
        self.max.y = upper(self.max.y, p.y);
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(
                lower(self.min.x, other.min.x),
                lower(self.min.y, other.min.y),
            ),
            max: Point::new(
                upper(self.max.x, other.max.x),
                upper(self.max.y, other.max.y),
            ),
        }
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// `true` when `other` lies entirely inside (or on the boundary of)
    /// `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// `true` when the two rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The four corners in counter-clockwise order starting from the
    /// lower-left corner.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// The four sides as segments, counter-clockwise (bottom, right, top,
    /// left). Sides may be degenerate for degenerate rectangles.
    #[inline]
    pub fn sides(&self) -> [Segment; 4] {
        let [a, b, c, d] = self.corners();
        [
            Segment::new(a, b),
            Segment::new(b, c),
            Segment::new(c, d),
            Segment::new(d, a),
        ]
    }

    /// The point of the rectangle closest to `p` (which is `p` itself when
    /// `p` is inside).
    #[inline]
    pub fn closest_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// `MinDist(p, R)`: the minimum distance from `p` to any point of the
    /// rectangle — the classical R-tree lower bound used to prune nodes
    /// during nearest-neighbor search. Zero when `p` is inside.
    #[inline]
    pub fn min_dist(&self, p: Point) -> f64 {
        self.min_dist_sq(p).sqrt()
    }

    /// Squared [`Rect::min_dist`], avoiding the square root for comparisons.
    #[inline]
    pub fn min_dist_sq(&self, p: Point) -> f64 {
        p.dist_sq(self.closest_point(p))
    }

    /// The maximum distance from `p` to any point of the rectangle
    /// (attained at one of the corners).
    #[inline]
    pub fn max_dist(&self, p: Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// `MinMaxDist(p, R)` of Roussopoulos et al. \[15\]: the smallest distance
    /// within which at least one data point of a *non-empty* R-tree node
    /// bounded by this MBR is guaranteed to exist (by the MBR face
    /// property: every face of an R-tree MBR touches at least one point).
    ///
    /// Used as a conservative upper bound to tighten nearest-neighbor
    /// searches before any actual point has been seen.
    #[inline]
    pub fn min_max_dist(&self, p: Point) -> f64 {
        self.min_max_dist_sq(p).sqrt()
    }

    /// Squared [`Rect::min_max_dist`], avoiding the square root for
    /// comparisons (the broadcast NN search runs its whole point-mode
    /// bound arithmetic in squared space).
    pub fn min_max_dist_sq(&self, p: Point) -> f64 {
        // For each axis k: take the *closer* face along k and the *farther*
        // coordinate along the other axis, then minimize over axes.
        let rm_x = if p.x <= (self.min.x + self.max.x) * 0.5 {
            self.min.x
        } else {
            self.max.x
        };
        let rm_y = if p.y <= (self.min.y + self.max.y) * 0.5 {
            self.min.y
        } else {
            self.max.y
        };
        let r_far_x = if p.x >= (self.min.x + self.max.x) * 0.5 {
            self.min.x
        } else {
            self.max.x
        };
        let r_far_y = if p.y >= (self.min.y + self.max.y) * 0.5 {
            self.min.y
        } else {
            self.max.y
        };
        let dx_near = p.x - rm_x;
        let dy_near = p.y - rm_y;
        let dx_far = p.x - r_far_x;
        let dy_far = p.y - r_far_y;
        let along_x = dx_near * dx_near + dy_far * dy_far;
        let along_y = dy_near * dy_near + dx_far * dx_far;
        along_x.min(along_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn new_normalizes_corner_order() {
        let r = Rect::new(Point::new(2.0, -1.0), Point::new(-3.0, 5.0));
        assert_eq!(r.min, Point::new(-3.0, -1.0));
        assert_eq!(r.max, Point::new(2.0, 5.0));
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(1.0, 4.0),
            Point::new(-2.0, 0.5),
            Point::new(3.0, 2.0),
        ];
        let r = Rect::bounding(&pts).unwrap();
        assert_eq!(r, Rect::from_coords(-2.0, 0.5, 3.0, 4.0));
        assert!(Rect::bounding(&[]).is_none());
    }

    #[test]
    fn union_and_contains_rect() {
        let a = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_coords(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, Rect::from_coords(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn union_and_expand_keep_the_left_zero_on_a_tie() {
        let bits = |r: Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
        let pos = Rect::point(Point::new(0.0, 0.0));
        let neg = Rect::point(Point::new(-0.0, -0.0));
        assert_eq!(bits(pos.union(&neg)), bits(pos));
        assert_eq!(bits(neg.union(&pos)), bits(neg));
        let mut grown = neg;
        grown.expand(Point::new(0.0, 0.0));
        assert_eq!(bits(grown), bits(neg));
        // NaN never wins over a number, as with `f64::min`/`f64::max`.
        let nan = Rect::point(Point::new(f64::NAN, f64::NAN));
        assert_eq!(bits(nan.union(&pos)), bits(pos));
        assert_eq!(bits(pos.union(&nan)), bits(pos));
    }

    #[test]
    fn geometry_accessors() {
        let r = Rect::from_coords(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn containment_includes_boundary() {
        let r = unit();
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.5, 1.0)));
        assert!(!r.contains(Point::new(1.0 + 1e-12, 0.5)));
    }

    #[test]
    fn intersects_touching_edges() {
        let a = unit();
        let b = Rect::from_coords(1.0, 0.0, 2.0, 1.0); // shares the x = 1 edge
        let c = Rect::from_coords(1.1, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn min_dist_outside_and_inside() {
        let r = unit();
        assert_eq!(r.min_dist(Point::new(0.5, 0.5)), 0.0);
        assert_eq!(r.min_dist(Point::new(2.0, 0.5)), 1.0);
        assert!((r.min_dist(Point::new(2.0, 2.0)) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn max_dist_is_farthest_corner() {
        let r = unit();
        let p = Point::new(-1.0, -1.0);
        // Farthest corner is (1, 1), at distance 2·√2.
        assert!((r.max_dist(p) - 2.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn min_max_dist_bounds() {
        let r = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        let p = Point::new(-1.0, 1.0);
        let mmd = r.min_max_dist(p);
        // MinMaxDist must lie between MinDist and the farthest-corner distance.
        assert!(mmd >= r.min_dist(p) - 1e-12);
        assert!(mmd <= r.max_dist(p) + 1e-12);
        // For this configuration the nearest face is x = 0; its farthest
        // y-coordinate from p is y = 2 at corner distance sqrt(1 + 1) wait:
        // closer face x=0, far y corner => sqrt(1^2 + 1^2). Along y: closer
        // face y=0 or y=2 equidistant (y=0 chosen), far x = 2 => sqrt(1+9).
        assert!((mmd - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_max_dist_degenerate_point_rect() {
        let p = Point::new(3.0, 4.0);
        let r = Rect::point(Point::new(0.0, 0.0));
        assert!((r.min_max_dist(p) - 5.0).abs() < 1e-12);
        assert!((r.min_dist(p) - 5.0).abs() < 1e-12);
        assert!((r.max_dist(p) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn corners_are_ccw() {
        let r = Rect::from_coords(0.0, 0.0, 2.0, 1.0);
        let c = r.corners();
        // Shoelace area of ccw polygon is positive.
        let mut area2 = 0.0;
        for i in 0..4 {
            area2 += c[i].cross(c[(i + 1) % 4]);
        }
        assert!(area2 > 0.0);
        assert_eq!(area2 * 0.5, r.area());
    }

    #[test]
    fn closest_point_clamps() {
        let r = unit();
        assert_eq!(r.closest_point(Point::new(2.0, 0.5)), Point::new(1.0, 0.5));
        assert_eq!(
            r.closest_point(Point::new(-1.0, -1.0)),
            Point::new(0.0, 0.0)
        );
        assert_eq!(r.closest_point(Point::new(0.3, 0.7)), Point::new(0.3, 0.7));
    }
}
