use crate::{ForecastError, Forecaster};

/// Single (simple) exponential smoothing.
///
/// Maintains one smoothed level `sₜ = α·xₜ + (1 − α)·sₜ₋₁`. It has no trend
/// term, so every forecast horizon returns the current level — adequate for
/// near-stationary series (a node milling around a lab) but systematically
/// late on trending series (a node walking down a road). The paper's location
/// estimator therefore upgrades to [`BrownDouble`](crate::BrownDouble); this
/// type is the comparison baseline.
///
/// # Examples
///
/// ```
/// use mobigrid_forecast::{Forecaster, SingleExponential};
///
/// let mut ses = SingleExponential::new(0.5).unwrap();
/// ses.observe(10.0);
/// ses.observe(20.0);
/// assert_eq!(ses.forecast(1.0), Some(15.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SingleExponential {
    alpha: f64,
    /// The smoothed level; meaningful only once `count > 0` (`0.0`
    /// before), which keeps the smoother a word smaller than an `Option`.
    level: f64,
    count: u64,
}

impl SingleExponential {
    /// Creates a smoother with factor `alpha ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidSmoothingFactor`] for `alpha` outside
    /// `(0, 1]` or non-finite.
    pub fn new(alpha: f64) -> Result<Self, ForecastError> {
        if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
            return Err(ForecastError::InvalidSmoothingFactor { value: alpha });
        }
        Ok(SingleExponential {
            alpha,
            level: 0.0,
            count: 0,
        })
    }

    /// The smoothing factor.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current smoothed level, if any observation has been seen.
    #[must_use]
    pub fn level(&self) -> Option<f64> {
        (self.count > 0).then_some(self.level)
    }

    /// `n` observations of `+0.0` in one step, on a smoother that has seen
    /// nothing else: the level stays `+0.0` (`α·0 + (1 − α)·0`), only the
    /// count moves.
    pub(crate) fn observe_zeros(&mut self, n: u64) {
        debug_assert!(self.level.to_bits() == 0, "the smoother has seen only +0.0");
        self.count += n;
    }
}

impl Forecaster for SingleExponential {
    fn observe(&mut self, value: f64) {
        self.level = if self.count == 0 {
            // Standard initialisation: seed the level with the first sample.
            value
        } else {
            self.alpha * value + (1.0 - self.alpha) * self.level
        };
        self.count += 1;
    }

    fn forecast(&self, _horizon: f64) -> Option<f64> {
        self.level()
    }

    fn reset(&mut self) {
        self.level = 0.0;
        self.count = 0;
    }

    fn observations(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_alpha() {
        assert!(SingleExponential::new(0.0).is_err());
        assert!(SingleExponential::new(1.5).is_err());
        assert!(SingleExponential::new(f64::NAN).is_err());
        assert!(SingleExponential::new(1.0).is_ok());
    }

    #[test]
    fn empty_has_no_forecast() {
        let ses = SingleExponential::new(0.3).unwrap();
        assert_eq!(ses.forecast(1.0), None);
        assert_eq!(ses.observations(), 0);
    }

    #[test]
    fn first_observation_seeds_level() {
        let mut ses = SingleExponential::new(0.3).unwrap();
        ses.observe(42.0);
        assert_eq!(ses.level(), Some(42.0));
    }

    #[test]
    fn recurrence_matches_hand_computation() {
        let mut ses = SingleExponential::new(0.2).unwrap();
        ses.observe(10.0); // level = 10
        ses.observe(20.0); // level = 0.2*20 + 0.8*10 = 12
        ses.observe(0.0); //  level = 0.2*0  + 0.8*12 = 9.6
        assert!((ses.level().unwrap() - 9.6).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_tracks_input_exactly() {
        let mut ses = SingleExponential::new(1.0).unwrap();
        for x in [5.0, -3.0, 8.5] {
            ses.observe(x);
            assert_eq!(ses.level(), Some(x));
        }
    }

    #[test]
    fn forecast_is_horizon_independent() {
        let mut ses = SingleExponential::new(0.5).unwrap();
        ses.observe(4.0);
        assert_eq!(ses.forecast(1.0), ses.forecast(100.0));
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut ses = SingleExponential::new(0.4).unwrap();
        for _ in 0..200 {
            ses.observe(7.0);
        }
        assert!((ses.forecast(1.0).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut ses = SingleExponential::new(0.4).unwrap();
        ses.observe(1.0);
        ses.reset();
        assert_eq!(ses.forecast(1.0), None);
        assert_eq!(ses.observations(), 0);
    }
}
