use mobigrid_geo::{Heading, Point, Vec2};

use crate::{BrownDouble, ForecastError, Forecaster, SingleExponential};

/// Dead reckoning: extrapolates along the velocity between the last two
/// observations.
///
/// Cheap and accurate for straight-line motion, but it never forgets a turn —
/// a single noisy update sends the estimate off at full speed in the wrong
/// direction. Included as the middle rung between holding the last received
/// position and the paper's smoothed estimator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeadReckoning {
    last: Option<(f64, Point)>,
    velocity: Vec2,
}

impl DeadReckoning {
    /// Creates an estimator with no observations.
    #[must_use]
    pub fn new() -> Self {
        DeadReckoning::default()
    }

    /// Feeds a received location update; observation times must be
    /// non-decreasing.
    pub fn observe(&mut self, time_s: f64, position: Point) {
        if let Some((t0, p0)) = self.last {
            let dt = time_s - t0;
            if dt > 0.0 {
                self.velocity = (position - p0) / dt;
            }
        }
        self.last = Some((time_s, position));
    }

    /// Estimates the position at `time_s`, or `None` before any
    /// observation.
    pub fn estimate(&mut self, time_s: f64) -> Option<Point> {
        let (t0, p0) = self.last?;
        let dt = (time_s - t0).max(0.0);
        Some(p0 + self.velocity * dt)
    }

    /// Whether [`DeadReckoning::estimate`] returns the same bits for every
    /// query time until the next `observe`: before any observation (always
    /// `None`) and while the tracked velocity is exactly zero, since
    /// `p0 + (±0·dt)` preserves `p0`'s bits for every positive `dt` (the
    /// signed zero's sign is independent of `dt`).
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.last.is_none() || self.velocity == Vec2::ZERO
    }
}

/// The paper's location estimator: Brown's double exponential smoothing over
/// the node's **speed** and **direction**, advanced from the last reported
/// coordinate by trigonometry (§3.3).
///
/// Direction is smoothed as a continuously *unwrapped* angle so that a node
/// circling through 360° does not confuse the smoother at the 0/2π seam.
/// When the node reports two identical positions (zero speed), the previous
/// direction is retained rather than fabricating one.
///
/// Extrapolation is additionally scaled by a **direction-consistency gate**:
/// an exponentially smoothed mean of the unit heading vectors, whose norm is
/// ≈ 1 for a node walking steadily and ≈ 0 for one milling about at random.
/// A destination-directed walker is extrapolated at full predicted speed,
/// while a random mover degrades gracefully toward "hold the last reported
/// position" — which is the best unbiased guess for confined random motion,
/// and guarantees the estimator is never substantially worse than running no
/// estimator at all. (The paper does not specify how its estimator avoids
/// diverging on the 30 random-movement nodes; this gate is our resolution,
/// documented in `DESIGN.md`.)
///
/// # Examples
///
/// ```
/// use mobigrid_forecast::BrownPositionEstimator;
/// use mobigrid_geo::Point;
///
/// let mut est = BrownPositionEstimator::new(0.5).unwrap();
/// // A node walking east at 2 m/s, reporting every second.
/// for t in 0..20 {
///     est.observe(t as f64, Point::new(2.0 * t as f64, 0.0));
/// }
/// let p = est.estimate(21.0).unwrap();
/// assert!((p.x - 42.0).abs() < 1.0);
/// assert!(p.y.abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BrownPositionEstimator {
    speed: BrownDouble,
    direction: BrownDouble,
    last: Option<(f64, Point)>,
    unwrapped_heading: Option<f64>,
    /// Smoothed mean of unit heading vectors; its norm is the
    /// direction-consistency gate.
    dir_mean: Option<Vec2>,
    /// Smoothed mean speed *across silences* (displacement ÷ gap for gaps
    /// longer than [`Self::NOMINAL_DT`]). Extrapolation during a silence
    /// uses this instead of the send-time speed: an update being filtered
    /// is evidence the node slowed below its distance threshold, so the
    /// speed observed while it was reporting every second overestimates
    /// its speed now.
    silence_speed: SingleExponential,
    /// Running mean of every observed position — the long-horizon anchor.
    mean_pos: Point,
    obs_count: u64,
    /// Prior belief of where the node lives (its home region's centre),
    /// folded into the anchor with [`Self::HOME_PRIOR_WEIGHT`]
    /// pseudo-observations.
    home_prior: Option<Point>,
    /// The memoised state-only terms of [`BrownPositionEstimator::estimate`].
    plan: Plan,
}

/// The terms of [`BrownPositionEstimator`]'s estimate that depend only on
/// its state, not on the query time: derived by the first `estimate` after
/// a mutation and reused until the next `observe` or `set_home_anchor`. A
/// broker estimates a filtered node every tick but only a
/// received update changes these terms.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// Not derived since the last mutation.
    Stale,
    /// The smoothers are not warmed up: hold the last reported position.
    Hold,
    /// Extrapolate from the last report along the smoothed heading.
    Extrapolate {
        /// The clamped extrapolation speed, in m/s.
        speed: f64,
        /// The squared direction-consistency gate.
        gate: f64,
        /// Cosine and sine of the smoothed heading.
        cos: f64,
        sin: f64,
    },
}

impl BrownPositionEstimator {
    /// Smoothing factor of the direction-consistency gate: deliberately
    /// sluggish so a few chance-aligned random steps don't open the gate.
    pub const DEFAULT_CONSISTENCY_ALPHA: f64 = 0.15;

    /// Expected observation spacing in seconds; gaps meaningfully longer
    /// than this are silences.
    pub const NOMINAL_DT: f64 = 1.0;

    /// Weight of the home-anchor prior, in pseudo-observations: a node that
    /// has reported fewer than this many positions is anchored mostly by
    /// its home region; a long-observed node by its own history.
    pub const HOME_PRIOR_WEIGHT: f64 = 60.0;

    /// Silence time constant τ in seconds, the one
    /// [`BrownPositionEstimator::estimate`] uses: extrapolated displacement
    /// saturates at `v̂·τ` as dead time grows.
    ///
    /// Estimation is only invoked when an update was *filtered*, and under
    /// the paper's distance filter a filtered second means the node moved
    /// less than its threshold that second — silence is evidence of slow
    /// movement. The extrapolated displacement therefore saturates:
    /// `v̂·τ·(1 − e^(−Δt/τ))`, which is ≈ `v̂·Δt` for fresh gaps and at most
    /// `v̂·τ` for long ones, rather than walking the node off the map at its
    /// pre-silence speed.
    pub const DEFAULT_SILENCE_TAU_SECS: f64 = 15.0;

    /// Creates an estimator with smoothing factor `alpha ∈ (0, 1)` shared by
    /// the speed and direction smoothers.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidSmoothingFactor`] for invalid `alpha`.
    pub fn new(alpha: f64) -> Result<Self, ForecastError> {
        Ok(BrownPositionEstimator {
            speed: BrownDouble::new(alpha)?,
            direction: BrownDouble::new(alpha)?,
            last: None,
            unwrapped_heading: None,
            dir_mean: None,
            silence_speed: SingleExponential::new(0.3).expect("valid constant"),
            mean_pos: Point::ORIGIN,
            obs_count: 0,
            home_prior: None,
            plan: Plan::Stale,
        })
    }

    /// The estimator [`BrownPositionEstimator::observe`] leaves after the
    /// receipts `rest` counted, every one at `position`, the last at
    /// `time_s`: [`Self::new`] then the same receipts observed one by one,
    /// bit for bit, but in constant time.
    ///
    /// The first receipt is observed as such: it records the last report
    /// and folds `mean_pos` (`0 + (p − 0)/1`, so `−0.0` becomes `+0.0`).
    /// Every later one sits at a bit-equal finite position, so its step has
    /// displacement `(+0.0, +0.0)` and speed `+0.0`, no heading, and
    /// leaves the mean where the first put it (`m + (p − m)/n` is `m`,
    /// `+0.0` when `p` is `−0.0`). All it adds is a zero to the speed
    /// smoother when its gap is positive, a zero to the silence smoother
    /// when the gap is a silence, and one to the observation count.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidSmoothingFactor`] for invalid
    /// `alpha`.
    pub fn at_rest(
        alpha: f64,
        rest: RestPrefix,
        time_s: f64,
        position: Point,
    ) -> Result<Self, ForecastError> {
        debug_assert!(
            position.x.is_finite() && position.y.is_finite(),
            "a resting node's position is finite"
        );
        let mut estimator = Self::new(alpha)?;
        estimator.observe(time_s, position);
        estimator.speed.observe_zeros(u64::from(rest.steps));
        estimator
            .silence_speed
            .observe_zeros(u64::from(rest.silences));
        estimator.obs_count = u64::from(rest.receipts);
        Ok(estimator)
    }

    /// Whether an update `dt` seconds after the one before ends a
    /// silence: a gap meaningfully longer than [`Self::NOMINAL_DT`].
    fn ends_silence(dt: f64) -> bool {
        dt > 1.5 * Self::NOMINAL_DT
    }

    /// The blended long-horizon anchor: observation mean shrunk toward the
    /// home prior (when one is set).
    fn anchor(&self) -> Option<Point> {
        let n = self.obs_count as f64;
        match self.home_prior {
            Some(prior) => {
                let k = Self::HOME_PRIOR_WEIGHT;
                let total = k + n;
                Some(Point::new(
                    (k * prior.x + n * self.mean_pos.x) / total,
                    (k * prior.y + n * self.mean_pos.y) / total,
                ))
            }
            None if self.obs_count >= 8 => Some(self.mean_pos),
            None => None,
        }
    }

    /// The current direction-consistency gate in `[0, 1]`: ≈ 1 for steady
    /// walkers, ≈ 0 for random movers.
    #[must_use]
    pub fn direction_consistency(&self) -> f64 {
        self.dir_mean.map_or(0.0, |v| v.norm().clamp(0.0, 1.0))
    }

    /// Derives the state-only terms of [`BrownPositionEstimator::estimate`].
    fn derive_plan(&self) -> Plan {
        let (Some(speed), Some(dir)) = (self.speed.forecast(1.0), self.direction.forecast(1.0))
        else {
            // Not warmed up (fewer than two observations): fall back to the
            // last known coordinate, matching the broker's behaviour before
            // a node has any motion history.
            return Plan::Hold;
        };
        let speed = speed.max(0.0);
        // Once a silence is in progress (estimation *is* the silent case),
        // the learned silence speed is the better predictor; bound it by
        // the send-time speed so a single long-gap outlier cannot inflate
        // it.
        let speed = match self.silence_speed.forecast(0.0) {
            Some(s) => s.clamp(0.0, speed.max(0.0)).min(speed),
            None => speed,
        };
        let heading = Heading::from_radians(dir).radians();
        Plan::Extrapolate {
            speed,
            // The gate squares so that half-coherent motion extrapolates
            // only a quarter of the way — conservative by design.
            gate: self.direction_consistency().powi(2),
            cos: heading.cos(),
            sin: heading.sin(),
        }
    }

    /// Feeds a received location update; observation times must be
    /// non-decreasing.
    pub fn observe(&mut self, time_s: f64, position: Point) {
        self.plan = Plan::Stale;
        if let Some((t0, p0)) = self.last {
            let dt = time_s - t0;
            if dt > 0.0 {
                let delta = position - p0;
                let speed = delta.norm() / dt;
                self.speed.observe(speed);
                if Self::ends_silence(dt) {
                    // This update ends a silence: its mean speed is a
                    // direct sample of how fast the node moves while its
                    // updates are being filtered.
                    self.silence_speed.observe(speed);
                }

                // Unwrap the heading so the smoother sees a continuous angle.
                if let Some(h) = delta.heading() {
                    // Manoeuvre detection: when the observed heading jumps
                    // more than 90° away from the current direction
                    // forecast, the node has turned (a crossroads, a road
                    // end). Chasing the jump through the smoother would
                    // leave the forecast pointing sideways for several
                    // updates, so reset the direction state to the new
                    // heading instead — the standard track-reset used by
                    // manoeuvring-target filters.
                    if let Some(forecast) = self.direction.forecast(0.0) {
                        let predicted = Heading::from_radians(forecast);
                        if predicted.angle_to(h) > std::f64::consts::FRAC_PI_2 {
                            self.direction.reset();
                            self.unwrapped_heading = None;
                        }
                    }
                    let unwrapped = match self.unwrapped_heading {
                        None => h.radians(),
                        Some(prev) => {
                            let prev_heading = Heading::from_radians(prev);
                            prev + prev_heading.signed_angle_to(h)
                        }
                    };
                    self.unwrapped_heading = Some(unwrapped);
                    self.direction.observe(unwrapped);
                    // Fold the unit heading into the consistency gate.
                    let unit = h.unit_vector();
                    let a = Self::DEFAULT_CONSISTENCY_ALPHA;
                    self.dir_mean = Some(match self.dir_mean {
                        None => unit,
                        Some(prev) => prev * (1.0 - a) + unit * a,
                    });
                } else if let Some(prev) = self.unwrapped_heading {
                    // Stationary step: direction is unchanged.
                    self.direction.observe(prev);
                }
            }
        }
        self.obs_count += 1;
        let n = self.obs_count as f64;
        self.mean_pos = Point::new(
            self.mean_pos.x + (position.x - self.mean_pos.x) / n,
            self.mean_pos.y + (position.y - self.mean_pos.y) / n,
        );
        self.last = Some((time_s, position));
    }

    /// Estimates the position at `time_s` (typically later than the last
    /// observation), or `None` before any observation.
    ///
    /// Takes `&mut self` to memoise the terms of the answer that depend
    /// only on the estimator's state; the result does not depend on whether
    /// that memo is warm.
    #[inline]
    pub fn estimate(&mut self, time_s: f64) -> Option<Point> {
        self.estimate_with_tau(time_s, Self::DEFAULT_SILENCE_TAU_SECS)
    }

    /// [`BrownPositionEstimator::estimate`] under silence time constant
    /// `tau` (seconds) in place of [`Self::DEFAULT_SILENCE_TAU_SECS`], for
    /// the τ ablation. τ enters only the query-time terms, so the state
    /// and its memo are the same for every `tau`.
    pub fn estimate_with_tau(&mut self, time_s: f64, tau: f64) -> Option<Point> {
        let (t0, p0) = self.last?;
        let dt = (time_s - t0).max(0.0);
        if matches!(self.plan, Plan::Stale) {
            self.plan = self.derive_plan();
        }
        let Plan::Extrapolate {
            speed,
            gate,
            cos,
            sin,
        } = self.plan
        else {
            return Some(p0);
        };
        // Silence decay: ≈ dt while the gap is fresh, saturating at τ.
        let effective_dt = tau * (1.0 - (-dt / tau).exp());
        // `Vec2::from_polar` with the memoised cosine and sine.
        let magnitude = speed * effective_dt * gate;
        let linear = p0 + Vec2::new(magnitude * cos, magnitude * sin);

        // Long-horizon blend: once the last report is several τ stale, no
        // trajectory extrapolation is credible any more, but the node's
        // historical mean position (shrunk toward its home-region prior) is
        // — a patroller averages the road middle, an indoor wanderer its
        // building's centre. The Gaussian weight keeps short-horizon
        // behaviour purely linear (w ≈ 1 − (dt/2τ)², so a 1-second gap is
        // unaffected).
        match self.anchor() {
            Some(anchor) => {
                let w = (-(dt / (2.0 * tau)).powi(2)).exp();
                Some(linear.lerp(anchor, 1.0 - w))
            }
            None => Some(linear),
        }
    }

    /// Supplies prior knowledge of where the node *lives* (the centre of
    /// its registered home region), folded into the long-horizon anchor
    /// with [`Self::HOME_PRIOR_WEIGHT`] pseudo-observations.
    pub fn set_home_anchor(&mut self, anchor: Point) {
        self.plan = Plan::Stale;
        self.home_prior = Some(anchor);
    }

    /// Whether [`BrownPositionEstimator::estimate`] returns the same bits
    /// for every query time until the next mutation: true until the
    /// speed/direction smoothers warm up (fewer than two motion samples),
    /// when `estimate` falls back to the last reported coordinate whatever
    /// the query time. A node that never moves never derives a heading, so
    /// its smoother never warms and its estimate stays static for ever.
    /// Once warmed, the silence decay and anchor blend make the estimate
    /// genuinely time-dependent.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.last.is_none()
            || self.speed.forecast(1.0).is_none()
            || self.direction.forecast(1.0).is_none()
    }
}

/// The receipts of a node that has not moved, counted instead of folded
/// into a [`BrownPositionEstimator`]: how many there were, how many came
/// a positive gap after the one before (each a zero-speed sample) and how
/// many of those ended a silence (a gap over 1.5 ×
/// [`BrownPositionEstimator::NOMINAL_DT`]). [`BrownPositionEstimator::at_rest`]
/// builds the estimator these receipts would have left, once the node
/// moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestPrefix {
    receipts: u32,
    steps: u32,
    silences: u32,
}

impl RestPrefix {
    /// The prefix of a node's first receipt.
    pub const FIRST: RestPrefix = RestPrefix {
        receipts: 1,
        steps: 0,
        silences: 0,
    };

    /// Counts one more receipt at the resting position, `dt` seconds after
    /// the one before, as [`BrownPositionEstimator::observe`] would fold
    /// it. Returns `false`, counting nothing, when a count would overflow;
    /// the caller then builds the estimator instead.
    #[must_use]
    pub fn count(&mut self, dt: f64) -> bool {
        let step = u32::from(dt > 0.0);
        let silence = u32::from(BrownPositionEstimator::ends_silence(dt));
        let (Some(receipts), Some(steps), Some(silences)) = (
            self.receipts.checked_add(1),
            self.steps.checked_add(step),
            self.silences.checked_add(silence),
        ) else {
            return false;
        };
        *self = RestPrefix {
            receipts,
            steps,
            silences,
        };
        true
    }
}

/// A generic 2-D estimator that smooths the x and y coordinates
/// independently with any scalar [`Forecaster`].
///
/// Used by the estimator ablation to pit coordinate-space smoothing
/// against the paper's speed/direction formulation.
#[derive(Debug, Clone)]
pub struct AxisSmoothing<F> {
    x: F,
    y: F,
    nominal_dt: f64,
    last: Option<(f64, Point)>,
}

impl<F: Forecaster> AxisSmoothing<F> {
    /// Wraps per-axis forecasters; `nominal_dt` is the expected observation
    /// spacing in seconds (used to convert a wall-clock horizon into
    /// forecast steps).
    ///
    /// # Panics
    ///
    /// Panics when `nominal_dt` is not strictly positive.
    pub fn new(x: F, y: F, nominal_dt: f64) -> Self {
        assert!(
            nominal_dt > 0.0 && nominal_dt.is_finite(),
            "nominal_dt must be positive"
        );
        AxisSmoothing {
            x,
            y,
            nominal_dt,
            last: None,
        }
    }

    /// Feeds a received location update.
    pub fn observe(&mut self, time_s: f64, position: Point) {
        self.x.observe(position.x);
        self.y.observe(position.y);
        self.last = Some((time_s, position));
    }

    /// Estimates the position at `time_s`, or `None` before any
    /// observation; before both axes warm up, the last observation.
    pub fn estimate(&mut self, time_s: f64) -> Option<Point> {
        let (t0, p0) = self.last?;
        let horizon = ((time_s - t0).max(0.0)) / self.nominal_dt;
        match (self.x.forecast(horizon), self.y.forecast(horizon)) {
            (Some(x), Some(y)) => Some(Point::new(x, y)),
            _ => Some(p0),
        }
    }

    /// Whether [`AxisSmoothing::estimate`] returns the same bits for every
    /// query time until the next `observe`: true until both axis
    /// forecasters warm up, while `estimate` falls back to the last
    /// observation. (All in-tree forecasters decide warm-up from their
    /// observation count, never from the horizon, so a single probe per
    /// axis is decisive.)
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.last.is_none() || self.x.forecast(1.0).is_none() || self.y.forecast(1.0).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HoltLinear;

    #[test]
    fn dead_reckoning_extrapolates_linearly() {
        let mut dr = DeadReckoning::new();
        dr.observe(0.0, Point::new(0.0, 0.0));
        dr.observe(1.0, Point::new(2.0, 0.0));
        let p = dr.estimate(3.0).unwrap();
        assert!((p.x - 6.0).abs() < 1e-12);
    }

    #[test]
    fn dead_reckoning_single_observation_is_static() {
        let mut dr = DeadReckoning::new();
        dr.observe(0.0, Point::new(5.0, 5.0));
        assert_eq!(dr.estimate(10.0), Some(Point::new(5.0, 5.0)));
    }

    #[test]
    fn brown_tracks_straight_walk() {
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        for t in 0..30 {
            est.observe(t as f64, Point::new(0.0, 1.5 * t as f64));
        }
        let p = est.estimate(32.0).unwrap();
        assert!((p.y - 48.0).abs() < 1.0, "y = {}", p.y);
        assert!(p.x.abs() < 1.0);
    }

    #[test]
    fn brown_single_observation_falls_back_to_last_position() {
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        est.observe(0.0, Point::new(7.0, 8.0));
        assert_eq!(est.estimate(5.0), Some(Point::new(7.0, 8.0)));
    }

    #[test]
    fn brown_handles_stationary_node() {
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        for t in 0..10 {
            est.observe(t as f64, Point::new(4.0, 4.0));
        }
        let p = est.estimate(20.0).unwrap();
        assert!(p.distance_to(Point::new(4.0, 4.0)) < 1e-6);
    }

    #[test]
    fn brown_heading_survives_wraparound() {
        // Walk in a slow circle crossing the 0/2pi seam repeatedly; the
        // estimate should stay within the circle's neighbourhood.
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        let r = 10.0;
        for t in 0..200 {
            let angle = 0.1 * t as f64;
            est.observe(t as f64, Point::new(r * angle.cos(), r * angle.sin()));
        }
        let p = est.estimate(201.0).unwrap();
        assert!(p.distance_to(Point::ORIGIN) < 3.0 * r);
    }

    #[test]
    fn brown_ignores_non_advancing_time() {
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        est.observe(1.0, Point::new(0.0, 0.0));
        est.observe(1.0, Point::new(100.0, 0.0)); // dt = 0: no velocity sample
        est.observe(2.0, Point::new(101.0, 0.0));
        // Speed from the only valid interval is 1 m/s, not 100: one second
        // on, the estimate stays near x = 102, not x = 201.
        let p = est.estimate(3.0).unwrap();
        assert!((p.x - 102.0).abs() < 1.0, "x = {}", p.x);
    }

    #[test]
    fn axis_smoothing_with_holt_tracks_diagonal() {
        let make = || HoltLinear::new(0.7, 0.3).unwrap();
        let mut est = AxisSmoothing::new(make(), make(), 1.0);
        for t in 0..100 {
            est.observe(t as f64, Point::new(t as f64, 2.0 * t as f64));
        }
        let p = est.estimate(101.0).unwrap();
        assert!((p.x - 101.0).abs() < 1.0);
        assert!((p.y - 202.0).abs() < 2.0);
    }

    /// The estimate formula as it stood before the plan was memoised: every
    /// state-only term re-derived on every call. The oracle for
    /// `brown_memoised_estimate_matches_the_unmemoised_formula`.
    fn unmemoised_estimate(est: &BrownPositionEstimator, time_s: f64) -> Option<Point> {
        let (t0, p0) = est.last?;
        let dt = (time_s - t0).max(0.0);
        let (Some(speed), Some(dir)) = (est.speed.forecast(1.0), est.direction.forecast(1.0))
        else {
            return Some(p0);
        };
        let speed = speed.max(0.0);
        let speed = match est.silence_speed.forecast(0.0) {
            Some(s) => s.clamp(0.0, speed.max(0.0)).min(speed),
            None => speed,
        };
        let heading = Heading::from_radians(dir);
        let tau = BrownPositionEstimator::DEFAULT_SILENCE_TAU_SECS;
        let effective_dt = tau * (1.0 - (-dt / tau).exp());
        let gate = est.direction_consistency().powi(2);
        let linear = p0 + Vec2::from_polar(speed * effective_dt * gate, heading);
        match est.anchor() {
            Some(anchor) => {
                let w = (-(dt / (2.0 * tau)).powi(2)).exp();
                Some(linear.lerp(anchor, 1.0 - w))
            }
            None => Some(linear),
        }
    }

    #[test]
    fn brown_memoised_estimate_matches_the_unmemoised_formula() {
        let bits = |p: Option<Point>| p.map(|p| (p.x.to_bits(), p.y.to_bits()));
        // Asks at several horizons, twice each so the second call reads the
        // warm plan, and checks every answer against the oracle.
        let check = |est: &mut BrownPositionEstimator, t_last: f64, label: &str| {
            for _ in 0..2 {
                for gap in [0.0, 0.5, 1.0, 3.0, 17.0, 90.0, 1e4] {
                    let expect = unmemoised_estimate(est, t_last + gap);
                    assert_eq!(
                        bits(est.estimate(t_last + gap)),
                        bits(expect),
                        "{label}: gap {gap}"
                    );
                }
            }
        };
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        check(&mut est, 0.0, "empty");
        // Warm-up: one report holds, the second starts extrapolating.
        est.observe(0.0, Point::new(3.0, -2.0));
        check(&mut est, 0.0, "one report");
        est.observe(1.0, Point::new(4.5, -1.0));
        check(&mut est, 1.0, "warming");
        // A steady walk north-east, then a stationary report.
        let mut t = 1.0;
        let mut pos = Point::new(4.5, -1.0);
        for _ in 0..6 {
            t += 1.0;
            pos += Vec2::new(1.2, 0.9);
            est.observe(t, pos);
            check(&mut est, t, "walk");
        }
        t += 1.0;
        est.observe(t, pos);
        check(&mut est, t, "stationary step");
        // A manoeuvre: a turn of more than 90° resets the direction state.
        for _ in 0..3 {
            t += 1.0;
            pos += Vec2::new(-1.5, -0.2);
            est.observe(t, pos);
            check(&mut est, t, "manoeuvre");
        }
        // Silences: gaps well past the nominal spacing feed the silence
        // speed, which then caps the extrapolation speed.
        for gap in [4.0, 9.0] {
            t += gap;
            pos += Vec2::new(0.3 * gap, -0.4 * gap);
            est.observe(t, pos);
            check(&mut est, t, "silence");
        }
        // A home anchor set after observations reshapes the long horizon.
        est.set_home_anchor(Point::new(-40.0, 25.0));
        check(&mut est, t, "home anchor");
        t += 1.0;
        pos += Vec2::new(0.5, 0.5);
        est.observe(t, pos);
        check(&mut est, t, "after anchor");
    }

    #[test]
    fn is_static_tracks_warmup_state() {
        // Dead reckoning: static with no velocity, dynamic once one exists.
        let mut dr = DeadReckoning::new();
        assert!(dr.is_static());
        dr.observe(0.0, Point::new(0.0, 0.0));
        assert!(dr.is_static(), "single observation has zero velocity");
        dr.observe(1.0, Point::new(2.0, 0.0));
        assert!(!dr.is_static());
        dr.observe(2.0, Point::new(2.0, 0.0));
        assert!(dr.is_static(), "velocity re-zeroed by a repeat position");

        // Brown: static while unwarmed; a never-moving node stays static.
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        assert!(est.is_static());
        for t in 0..10 {
            est.observe(t as f64, Point::new(4.0, 4.0));
        }
        assert!(est.is_static(), "no heading ever derived");
        let mut moving = BrownPositionEstimator::new(0.5).unwrap();
        moving.observe(0.0, Point::new(0.0, 0.0));
        moving.observe(1.0, Point::new(2.0, 0.0));
        moving.observe(2.0, Point::new(4.0, 0.0));
        assert!(!moving.is_static());

        // The contract: a static estimator answers identically at any time.
        for t in [0.0, 1.0, 17.5, 1e6] {
            assert_eq!(est.estimate(t), Some(Point::new(4.0, 4.0)));
        }
    }

    #[test]
    fn axis_smoothing_is_static_until_warm() {
        let make = || HoltLinear::new(0.7, 0.3).unwrap();
        let mut est = AxisSmoothing::new(make(), make(), 1.0);
        assert!(est.is_static());
        est.observe(0.0, Point::new(1.0, 1.0));
        for t in 1..10 {
            est.observe(t as f64, Point::new(t as f64, 2.0 * t as f64));
        }
        assert!(!est.is_static());
    }
}
