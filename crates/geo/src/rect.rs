use serde::{Deserialize, Serialize};

use crate::{GeoError, Point};

/// An axis-aligned rectangle, used for building footprints and bounding boxes.
///
/// Buildings in the campus model are rectangles; the random-movement mobility
/// model bounces nodes around inside one, and the classifier uses containment
/// tests to attribute location updates to regions.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mobigrid_geo::GeoError> {
/// use mobigrid_geo::{Point, Rect};
///
/// let b4 = Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 30.0))?;
/// assert!(b4.contains(Point::new(10.0, 10.0)));
/// assert_eq!(b4.area(), 1200.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates the rectangle with corners `min` (lower-left) and `max`
    /// (upper-right).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvertedRect`] when `min` exceeds `max` on either
    /// axis and [`GeoError::NonFiniteCoordinate`] for NaN/infinite corners.
    pub fn new(min: Point, max: Point) -> Result<Self, GeoError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(GeoError::NonFiniteCoordinate);
        }
        if min.x > max.x || min.y > max.y {
            return Err(GeoError::InvertedRect);
        }
        Ok(Rect { min, max })
    }

    /// Creates the rectangle spanning two arbitrary corner points.
    #[must_use]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates the rectangle centred on `center` with the given full `width`
    /// and `height`.
    #[must_use]
    pub fn centered(center: Point, width: f64, height: f64) -> Self {
        let hw = width.abs() / 2.0;
        let hh = height.abs() / 2.0;
        Rect {
            min: Point::new(center.x - hw, center.y - hh),
            max: Point::new(center.x + hw, center.y + hh),
        }
    }

    /// The smallest rectangle containing every point in `points`, or `None`
    /// for an empty iterator.
    #[must_use]
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut r = Rect {
            min: first,
            max: first,
        };
        for p in iter {
            r.min.x = r.min.x.min(p.x);
            r.min.y = r.min.y.min(p.y);
            r.max.x = r.max.x.max(p.x);
            r.max.y = r.max.y.max(p.y);
        }
        Some(r)
    }

    /// Lower-left corner.
    #[must_use]
    pub fn min(self) -> Point {
        self.min
    }

    /// Upper-right corner.
    #[must_use]
    pub fn max(self) -> Point {
        self.max
    }

    /// Width along the x axis.
    #[must_use]
    pub fn width(self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along the y axis.
    #[must_use]
    pub fn height(self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    #[must_use]
    pub fn area(self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point of the rectangle.
    #[must_use]
    pub fn center(self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The nearest point inside the rectangle to `p` (identity when `p` is
    /// already inside).
    #[must_use]
    pub fn clamp_point(self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Grows (or shrinks, for negative `margin`) the rectangle by `margin` on
    /// every side. Shrinking below a point collapses to the centre.
    #[must_use]
    pub fn inflated(self, margin: f64) -> Rect {
        let c = self.center();
        let hw = (self.width() / 2.0 + margin).max(0.0);
        let hh = (self.height() / 2.0 + margin).max(0.0);
        Rect {
            min: Point::new(c.x - hw, c.y - hh),
            max: Point::new(c.x + hw, c.y + hh),
        }
    }

    /// Maps unit-square coordinates `(u, v) ∈ [0, 1]²` to a point in the
    /// rectangle; used to sample uniform positions with caller-supplied
    /// randomness.
    #[must_use]
    pub fn point_at_uv(self, u: f64, v: f64) -> Point {
        Point::new(
            self.min.x + self.width() * u.clamp(0.0, 1.0),
            self.min.y + self.height() * v.clamp(0.0, 1.0),
        )
    }

    /// The four corners in counter-clockwise order starting at `min`.
    #[must_use]
    pub fn corners(self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap()
    }

    #[test]
    fn new_rejects_inverted_corners() {
        let r = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
        assert_eq!(r, Err(GeoError::InvertedRect));
    }

    #[test]
    fn from_corners_normalises_order() {
        let r = Rect::from_corners(Point::new(5.0, 1.0), Point::new(2.0, 7.0));
        assert_eq!(r.min(), Point::new(2.0, 1.0));
        assert_eq!(r.max(), Point::new(5.0, 7.0));
    }

    #[test]
    fn centered_has_expected_extent() {
        let r = Rect::centered(Point::new(10.0, 10.0), 4.0, 6.0);
        assert_eq!(r.min(), Point::new(8.0, 7.0));
        assert_eq!(r.max(), Point::new(12.0, 13.0));
    }

    #[test]
    fn contains_boundary_points() {
        let r = unit();
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.5, 0.5)));
        assert!(!r.contains(Point::new(1.0001, 0.5)));
    }

    #[test]
    fn clamp_point_projects_outside_points() {
        let r = unit();
        assert_eq!(r.clamp_point(Point::new(2.0, -1.0)), Point::new(1.0, 0.0));
        assert_eq!(r.clamp_point(Point::new(0.3, 0.4)), Point::new(0.3, 0.4));
    }

    #[test]
    fn bounding_box_of_points() {
        let r = Rect::bounding(vec![
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ])
        .unwrap();
        assert_eq!(r.min(), Point::new(-2.0, -1.0));
        assert_eq!(r.max(), Point::new(4.0, 5.0));
    }

    #[test]
    fn bounding_of_empty_is_none() {
        assert!(Rect::bounding(Vec::new()).is_none());
    }

    #[test]
    fn inflate_and_deflate() {
        let r = unit().inflated(1.0);
        assert_eq!(r.min(), Point::new(-1.0, -1.0));
        assert_eq!(r.max(), Point::new(2.0, 2.0));
        let collapsed = unit().inflated(-5.0);
        assert_eq!(collapsed.area(), 0.0);
        assert_eq!(collapsed.center(), unit().center());
    }

    #[test]
    fn point_at_uv_spans_rect() {
        let r = Rect::new(Point::new(2.0, 4.0), Point::new(6.0, 8.0)).unwrap();
        assert_eq!(r.point_at_uv(0.0, 0.0), r.min());
        assert_eq!(r.point_at_uv(1.0, 1.0), r.max());
        assert_eq!(r.point_at_uv(0.5, 0.5), r.center());
    }

    #[test]
    fn corners_are_counter_clockwise() {
        let c = unit().corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(1.0, 0.0));
        assert_eq!(c[2], Point::new(1.0, 1.0));
        assert_eq!(c[3], Point::new(0.0, 1.0));
    }
}
