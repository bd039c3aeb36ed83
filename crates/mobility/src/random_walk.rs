use rand::{Rng, RngCore};

use mobigrid_geo::{Heading, Point, Rect, Vec2};

use crate::{MobilityModel, MobilityPattern};

/// Random Movement State (RMS): slow, frequently turning movement inside a
/// footprint.
///
/// Models a student on a coffee break or moving between lab benches: each
/// step the node resamples its speed from `[0, max_speed]` and perturbs its
/// heading by a uniformly random turn up to ±`max_turn` radians. The walk is
/// confined to `bounds` — a step that would leave the rectangle reflects off
/// the wall.
///
/// Table 1 assigns this pattern to 30 nodes (five per building) with
/// `max_speed = 1 m/s`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mobigrid_geo::GeoError> {
/// use mobigrid_mobility::{MobilityModel, RandomWalk};
/// use mobigrid_geo::{Point, Rect};
/// use rand::SeedableRng;
///
/// let lab = Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 20.0))?;
/// let mut walk = RandomWalk::new(lab, Point::new(15.0, 10.0), 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// for _ in 0..600 {
///     let p = walk.step(1.0, &mut rng);
///     assert!(lab.contains(p));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWalk {
    bounds: Rect,
    position: Point,
    heading: Heading,
    max_speed: f64,
    max_turn: f64,
}

impl RandomWalk {
    /// Default maximum per-step heading change: ±90°.
    pub const DEFAULT_MAX_TURN: f64 = std::f64::consts::FRAC_PI_2;

    /// Creates a walk confined to `bounds`, starting at `start` (clamped
    /// into the bounds), with speeds in `[0, max_speed]` m/s.
    ///
    /// # Panics
    ///
    /// Panics when `max_speed` is negative or non-finite.
    #[must_use]
    pub fn new(bounds: Rect, start: Point, max_speed: f64) -> Self {
        assert!(
            max_speed.is_finite() && max_speed >= 0.0,
            "max speed must be non-negative"
        );
        RandomWalk {
            bounds,
            position: bounds.clamp_point(start),
            heading: Heading::EAST,
            max_speed,
            max_turn: Self::DEFAULT_MAX_TURN,
        }
    }

    /// The confining rectangle.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The configured speed ceiling in m/s.
    #[must_use]
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// Reflects `p` into the bounds, flipping the heading component that hit
    /// a wall.
    fn reflect(&mut self, p: Point) -> Point {
        let mut v = Vec2::from_polar(1.0, self.heading);
        let mut q = p;
        if q.x < self.bounds.min().x || q.x > self.bounds.max().x {
            v.dx = -v.dx;
            q.x = q.x.clamp(self.bounds.min().x, self.bounds.max().x);
        }
        if q.y < self.bounds.min().y || q.y > self.bounds.max().y {
            v.dy = -v.dy;
            q.y = q.y.clamp(self.bounds.min().y, self.bounds.max().y);
        }
        if let Some(h) = v.heading() {
            self.heading = h;
        }
        q
    }
}

impl MobilityModel for RandomWalk {
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> Point {
        if dt <= 0.0 {
            return self.position;
        }
        let turn = if self.max_turn > 0.0 {
            rng.gen_range(-self.max_turn..=self.max_turn)
        } else {
            0.0
        };
        self.heading = self.heading.rotated(turn);
        let speed = if self.max_speed > 0.0 {
            rng.gen_range(0.0..=self.max_speed)
        } else {
            0.0
        };
        let proposed = self.position + Vec2::from_polar(speed * dt, self.heading);
        self.position = self.reflect(proposed);
        self.position
    }

    fn position(&self) -> Point {
        self.position
    }

    fn pattern(&self) -> MobilityPattern {
        MobilityPattern::Random
    }

    /// Strictly stationary only when both the speed *and* turn caps are
    /// zero: a zero-speed walk with a positive turn cap never moves, but it
    /// still draws a turn from the RNG every step, so skipping its steps
    /// would desynchronise an RNG stream shared with a later phase.
    fn is_stationary(&self) -> bool {
        self.max_speed == 0.0 && self.max_turn == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lab() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 20.0)).unwrap()
    }

    #[test]
    fn stays_within_bounds() {
        let mut w = RandomWalk::new(lab(), Point::new(15.0, 10.0), 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let p = w.step(1.0, &mut rng);
            assert!(lab().contains(p), "escaped to {p}");
        }
    }

    #[test]
    fn start_outside_bounds_is_clamped() {
        let w = RandomWalk::new(lab(), Point::new(-10.0, 50.0), 1.0);
        assert_eq!(w.position(), Point::new(0.0, 20.0));
    }

    #[test]
    fn per_step_displacement_respects_speed_cap() {
        let mut w = RandomWalk::new(lab(), Point::new(15.0, 10.0), 0.7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut prev = w.position();
        for _ in 0..500 {
            let p = w.step(1.0, &mut rng);
            assert!(prev.distance_to(p) <= 0.7 + 1e-9);
            prev = p;
        }
    }

    #[test]
    fn zero_speed_is_stationary() {
        let mut w = RandomWalk::new(lab(), Point::new(5.0, 5.0), 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            assert_eq!(w.step(1.0, &mut rng), Point::new(5.0, 5.0));
        }
    }

    #[test]
    fn non_positive_dt_is_noop() {
        let mut w = RandomWalk::new(lab(), Point::new(5.0, 5.0), 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let before = w.position();
        assert_eq!(w.step(0.0, &mut rng), before);
        assert_eq!(w.step(-1.0, &mut rng), before);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| {
            let mut w = RandomWalk::new(lab(), Point::new(15.0, 10.0), 1.0);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| w.step(1.0, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn actually_moves_around() {
        let mut w = RandomWalk::new(lab(), Point::new(15.0, 10.0), 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let start = w.position();
        let mut max_dist: f64 = 0.0;
        for _ in 0..600 {
            let p = w.step(1.0, &mut rng);
            max_dist = max_dist.max(start.distance_to(p));
        }
        assert!(max_dist > 3.0, "walk barely moved: {max_dist}");
    }

    #[test]
    fn reports_random_pattern() {
        let w = RandomWalk::new(lab(), Point::ORIGIN, 1.0);
        assert_eq!(w.pattern(), MobilityPattern::Random);
        assert!(!w.is_finished());
    }
}
