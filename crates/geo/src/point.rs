use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::{GeoError, Vec2};

/// A location in the plane, in metres.
///
/// `Point` is the coordinate type every mobigrid crate exchanges: mobile-node
/// positions, gateway sites, waypoints and estimated locations are all
/// `Point`s. Subtracting two points yields the displacement [`Vec2`] between
/// them; adding a `Vec2` to a point moves it.
///
/// # Examples
///
/// ```
/// use mobigrid_geo::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// assert_eq!(a.midpoint(b), Point::new(1.5, 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// The origin of the local coordinate frame.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point at `(x, y)` metres.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Creates a point, rejecting NaN or infinite coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::NonFiniteCoordinate`] when either coordinate is
    /// NaN or infinite.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), mobigrid_geo::GeoError> {
    /// let p = mobigrid_geo::Point::try_new(1.0, 2.0)?;
    /// assert!(mobigrid_geo::Point::try_new(f64::NAN, 0.0).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn try_new(x: f64, y: f64) -> Result<Self, GeoError> {
        if x.is_finite() && y.is_finite() {
            Ok(Point { x, y })
        } else {
            Err(GeoError::NonFiniteCoordinate)
        }
    }

    /// Euclidean distance to `other`, in metres.
    #[must_use]
    pub fn distance_to(self, other: Point) -> f64 {
        (other - self).norm()
    }

    /// Squared Euclidean distance to `other`; avoids the square root when only
    /// comparisons are needed.
    #[must_use]
    pub fn distance_sq_to(self, other: Point) -> f64 {
        let d = other - self;
        d.dot(d)
    }

    /// The point halfway between `self` and `other`.
    #[must_use]
    pub fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Linear interpolation: `t = 0` yields `self`, `t = 1` yields `other`.
    ///
    /// Values of `t` outside `[0, 1]` extrapolate along the same line.
    #[must_use]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Returns `true` when both coordinates are finite numbers.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;

    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.dx, self.y + rhs.dy)
    }
}

impl AddAssign<Vec2> for Point {
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.dx;
        self.y += rhs.dy;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;

    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.dx, self.y - rhs.dy)
    }
}

impl SubAssign<Vec2> for Point {
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.dx;
        self.y -= rhs.dy;
    }
}

impl Sub for Point {
    type Output = Vec2;

    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.0);
        assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
    }

    #[test]
    fn distance_of_345_triangle() {
        assert_eq!(Point::ORIGIN.distance_to(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(2.0, -7.0);
        let b = Point::new(9.0, 1.5);
        assert!((a.distance_sq_to(b) - a.distance_to(b).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn midpoint_is_halfway() {
        let m = Point::new(0.0, 0.0).midpoint(Point::new(10.0, 20.0));
        assert_eq!(m, Point::new(5.0, 10.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 9.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn lerp_extrapolates() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(a.lerp(b, 2.0), Point::new(2.0, 0.0));
    }

    #[test]
    fn add_sub_vec_round_trips() {
        let p = Point::new(5.0, -2.0);
        let v = Vec2::new(1.25, 3.5);
        assert_eq!((p + v) - v, p);
    }

    #[test]
    fn point_difference_is_displacement() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 5.0);
        assert_eq!(b - a, Vec2::new(3.0, 4.0));
    }

    #[test]
    fn try_new_rejects_nan_and_infinity() {
        assert!(Point::try_new(f64::NAN, 0.0).is_err());
        assert!(Point::try_new(0.0, f64::INFINITY).is_err());
        assert!(Point::try_new(0.0, 0.0).is_ok());
    }

    #[test]
    fn conversion_round_trips_through_tuple() {
        let p = Point::new(2.5, -1.5);
        let t: (f64, f64) = p.into();
        assert_eq!(Point::from(t), p);
    }

    #[test]
    fn display_shows_both_coordinates() {
        assert_eq!(Point::new(1.0, 2.0).to_string(), "(1.000, 2.000)");
    }
}
