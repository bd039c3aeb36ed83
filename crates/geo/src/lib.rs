//! 2-D geometry substrate for the mobigrid workspace.
//!
//! Every other crate in the workspace — the campus map, the mobility models,
//! the wireless coverage model and the adaptive distance filter itself — works
//! in a flat two-dimensional metric space measured in metres. This crate
//! provides the shared vocabulary for that space:
//!
//! * [`Point`] — a location in the plane,
//! * [`Vec2`] — a displacement between locations,
//! * [`Heading`] — a direction of travel with correct angular wrap-around,
//! * [`Segment`], [`Polyline`] — straight paths and arc-length parametrised
//!   walks along multi-leg paths,
//! * [`Rect`] — axis-aligned regions with containment queries.
//!
//! # Examples
//!
//! ```
//! use mobigrid_geo::{Point, Vec2, Heading};
//!
//! let gate = Point::new(0.0, 0.0);
//! let library = Point::new(30.0, 40.0);
//! assert_eq!(gate.distance_to(library), 50.0);
//!
//! let step = Vec2::from_polar(10.0, Heading::from_degrees(90.0));
//! let moved = gate + step;
//! assert!((moved.y - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod heading;
mod point;
mod polyline;
mod rect;
mod segment;
mod vec2;

pub use error::GeoError;
pub use heading::{normalize_radians, Heading};
pub use point::Point;
pub use polyline::Polyline;
pub use rect::Rect;
pub use segment::Segment;
pub use vec2::Vec2;

/// Numeric tolerance used by approximate comparisons throughout the crate.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floating-point lengths are equal within [`EPSILON`].
///
/// # Examples
///
/// ```
/// assert!(mobigrid_geo::approx_eq(0.1 + 0.2, 0.3));
/// assert!(!mobigrid_geo::approx_eq(1.0, 1.1));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_accepts_tiny_differences() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
    }

    #[test]
    fn approx_eq_rejects_visible_differences() {
        assert!(!approx_eq(1.0, 1.001));
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1e12, 1e12 + 1.0e2));
    }
}
