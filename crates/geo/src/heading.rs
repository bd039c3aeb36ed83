use std::f64::consts::{PI, TAU};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Vec2;

/// A direction of travel, normalised to `[0, 2π)` radians.
///
/// The mobility-pattern classifier in the paper distinguishes *linear
/// movement* from *random movement* by asking whether a node's direction is
/// "constant" or "changes frequently" — which requires comparing angles with
/// correct wrap-around (359° and 1° are 2° apart, not 358°). `Heading`
/// encapsulates that arithmetic.
///
/// Angles are measured counter-clockwise from the positive x axis, in
/// radians.
///
/// # Examples
///
/// ```
/// use mobigrid_geo::Heading;
///
/// let a = Heading::from_degrees(359.0);
/// let b = Heading::from_degrees(1.0);
/// assert!((a.angle_to(b).to_degrees() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Heading {
    radians: f64,
}

impl Heading {
    /// Heading along the positive x axis (east).
    pub const EAST: Heading = Heading { radians: 0.0 };

    /// Creates a heading from an angle in radians; any finite value is
    /// normalised into `[0, 2π)`.
    #[must_use]
    pub fn from_radians(radians: f64) -> Self {
        Heading {
            radians: normalize_radians(radians),
        }
    }

    /// Creates a heading from an angle in degrees.
    #[must_use]
    pub fn from_degrees(degrees: f64) -> Self {
        Heading::from_radians(degrees.to_radians())
    }

    /// Heading along the positive y axis (north).
    #[must_use]
    pub fn north() -> Self {
        Heading::from_radians(PI / 2.0)
    }

    /// Heading along the negative x axis (west).
    #[must_use]
    pub fn west() -> Self {
        Heading::from_radians(PI)
    }

    /// Heading along the negative y axis (south).
    #[must_use]
    pub fn south() -> Self {
        Heading::from_radians(3.0 * PI / 2.0)
    }

    /// The angle in radians, guaranteed to lie in `[0, 2π)`.
    #[must_use]
    pub fn radians(self) -> f64 {
        self.radians
    }

    /// The angle in degrees, in `[0, 360)`.
    #[must_use]
    pub fn degrees(self) -> f64 {
        self.radians.to_degrees()
    }

    /// The signed shortest rotation from `self` to `other`, in `(-π, π]`.
    ///
    /// Positive values are counter-clockwise turns.
    #[must_use]
    pub fn signed_angle_to(self, other: Heading) -> f64 {
        let mut diff = other.radians - self.radians;
        while diff > PI {
            diff -= TAU;
        }
        while diff <= -PI {
            diff += TAU;
        }
        diff
    }

    /// The magnitude of the shortest rotation between two headings, in
    /// `[0, π]` radians.
    #[must_use]
    pub fn angle_to(self, other: Heading) -> f64 {
        self.signed_angle_to(other).abs()
    }

    /// Rotates the heading counter-clockwise by `delta` radians.
    #[must_use]
    pub fn rotated(self, delta: f64) -> Heading {
        Heading::from_radians(self.radians + delta)
    }

    /// The opposite direction.
    #[must_use]
    pub fn reversed(self) -> Heading {
        self.rotated(PI)
    }

    /// The unit displacement vector pointing along this heading.
    #[must_use]
    pub fn unit_vector(self) -> Vec2 {
        Vec2::from_polar(1.0, self)
    }
}

impl fmt::Display for Heading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.degrees())
    }
}

/// Normalises any finite angle in radians into `[0, 2π)`.
///
/// # Examples
///
/// ```
/// use std::f64::consts::TAU;
/// let a = mobigrid_geo::normalize_radians(-0.5);
/// assert!((a - (TAU - 0.5)).abs() < 1e-12);
/// ```
#[must_use]
pub fn normalize_radians(radians: f64) -> f64 {
    // Exact fast paths: on `[0, TAU)` and `(-TAU, 0)` the `fmod` inside
    // `rem_euclid` returns its input unchanged, so `rem_euclid` reduces to
    // the identity and to `r + TAU` respectively — the same bits, without
    // the `fmod` call.
    if (0.0..TAU).contains(&radians) {
        return radians;
    }
    let r = if radians > -TAU && radians < 0.0 {
        radians + TAU
    } else {
        radians.rem_euclid(TAU)
    };
    // `r + TAU` rounds to TAU itself for tiny negative inputs; fold that
    // back to zero so the invariant r < TAU holds.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn normalisation_wraps_negative_angles() {
        let h = Heading::from_radians(-FRAC_PI_2);
        assert!((h.radians() - 3.0 * FRAC_PI_2).abs() < 1e-12);
    }

    /// The fast paths must agree bit for bit with the plain `rem_euclid`
    /// fold they shortcut, including signed zeros, values whose `+ TAU`
    /// rounds to `TAU`, NaN and infinities.
    #[test]
    fn normalisation_fast_paths_match_rem_euclid() {
        fn reference(radians: f64) -> f64 {
            let r = radians.rem_euclid(TAU);
            if r >= TAU {
                0.0
            } else {
                r
            }
        }
        let mut inputs = vec![
            0.0,
            -0.0,
            TAU,
            -TAU,
            PI,
            -PI,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -5e-324,
            5e-324,
            -1e-17,
            -1e-300,
            TAU - 1e-15,
            -(TAU - 1e-15),
            f64::from_bits(TAU.to_bits() - 1),
            -f64::from_bits(TAU.to_bits() - 1),
            f64::from_bits(TAU.to_bits() + 1),
            -f64::from_bits(TAU.to_bits() + 1),
            1e6,
            -1e6,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // A deterministic xorshift sweep over (-3 TAU, 3 TAU).
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            inputs.push((unit * 6.0 - 3.0) * TAU);
        }
        for x in inputs {
            assert_eq!(
                normalize_radians(x).to_bits(),
                reference(x).to_bits(),
                "normalize_radians({x:e}) diverged from rem_euclid"
            );
        }
    }

    #[test]
    fn normalisation_wraps_large_angles() {
        let h = Heading::from_radians(5.0 * TAU + 1.0);
        assert!((h.radians() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn angle_across_the_wrap_is_short() {
        let a = Heading::from_degrees(350.0);
        let b = Heading::from_degrees(10.0);
        assert!((a.angle_to(b).to_degrees() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn signed_angle_direction() {
        let east = Heading::EAST;
        let north = Heading::north();
        assert!(east.signed_angle_to(north) > 0.0);
        assert!(north.signed_angle_to(east) < 0.0);
    }

    #[test]
    fn signed_angle_of_opposite_is_pi() {
        let a = Heading::EAST;
        assert!((a.signed_angle_to(a.reversed()) - PI).abs() < 1e-12);
    }

    #[test]
    fn reversed_twice_is_identity() {
        let h = Heading::from_degrees(123.0);
        let rr = h.reversed().reversed();
        assert!((rr.radians() - h.radians()).abs() < 1e-9);
    }

    #[test]
    fn unit_vector_has_unit_norm() {
        for deg in [0.0, 45.0, 137.0, 278.5] {
            let v = Heading::from_degrees(deg).unit_vector();
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn compass_constructors() {
        assert!((Heading::north().degrees() - 90.0).abs() < 1e-9);
        assert!((Heading::west().degrees() - 180.0).abs() < 1e-9);
        assert!((Heading::south().degrees() - 270.0).abs() < 1e-9);
    }

    #[test]
    fn display_in_degrees() {
        assert_eq!(Heading::from_degrees(90.0).to_string(), "90.0°");
    }
}
