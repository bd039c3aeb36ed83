use crate::{ForecastError, Forecaster};

/// Brown's double exponential smoothing — the paper's location estimator.
///
/// Two cascaded smoothings of the series,
/// `s′ₜ = α·xₜ + (1 − α)·s′ₜ₋₁` and `s″ₜ = α·s′ₜ + (1 − α)·s″ₜ₋₁`,
/// yield a level `aₜ = 2s′ₜ − s″ₜ` and trend `bₜ = α/(1 − α)·(s′ₜ − s″ₜ)`,
/// with forecast `x̂ₜ₊ₕ = aₜ + h·bₜ`. Unlike
/// [`SingleExponential`](crate::SingleExponential) it follows linear trends
/// without lag — exactly the property the grid broker needs to extrapolate a
/// node walking steadily down a road while its location updates are being
/// filtered.
///
/// The paper chose this method over ARIMA because it needs no training
/// dataset and its parameters are trivial to update online (§3.3).
///
/// # Examples
///
/// ```
/// use mobigrid_forecast::{BrownDouble, Forecaster};
///
/// let mut brown = BrownDouble::new(0.6).unwrap();
/// for t in 0..100 {
///     brown.observe(3.0 * t as f64);
/// }
/// // The one-step-ahead forecast tracks the trend.
/// assert!((brown.forecast(1.0).unwrap() - 300.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BrownDouble {
    alpha: f64,
    /// The two smoothed series `s′` and `s″`; meaningful only once
    /// `count > 0` (both are `0.0` before), which keeps the smoother two
    /// words smaller than a pair of `Option`s.
    s1: f64,
    s2: f64,
    count: u64,
}

impl BrownDouble {
    /// Creates a smoother with factor `alpha ∈ (0, 1)`.
    ///
    /// `alpha = 1` is rejected (the trend term divides by `1 − α`).
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidSmoothingFactor`] for `alpha` outside
    /// `(0, 1)` or non-finite.
    pub fn new(alpha: f64) -> Result<Self, ForecastError> {
        if !alpha.is_finite() || alpha <= 0.0 || alpha >= 1.0 {
            return Err(ForecastError::InvalidSmoothingFactor { value: alpha });
        }
        Ok(BrownDouble {
            alpha,
            s1: 0.0,
            s2: 0.0,
            count: 0,
        })
    }

    /// The smoothing factor.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current level estimate `aₜ = 2s′ₜ − s″ₜ`.
    #[must_use]
    pub fn level(&self) -> Option<f64> {
        (self.count > 0).then_some(2.0 * self.s1 - self.s2)
    }

    /// The current per-step trend estimate `bₜ = α/(1 − α)·(s′ₜ − s″ₜ)`.
    #[must_use]
    pub fn trend(&self) -> Option<f64> {
        (self.count > 0).then(|| self.alpha / (1.0 - self.alpha) * (self.s1 - self.s2))
    }

    /// `n` observations of `+0.0` in one step, on a smoother that has seen
    /// nothing else: the first seeds both series with `+0.0` and every
    /// later one computes `α·0 + (1 − α)·0 = +0.0`, so only the count
    /// moves.
    pub(crate) fn observe_zeros(&mut self, n: u64) {
        debug_assert!(
            self.s1.to_bits() == 0 && self.s2.to_bits() == 0,
            "the smoother has seen only +0.0"
        );
        self.count += n;
    }
}

impl Forecaster for BrownDouble {
    fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.s1 = value;
            self.s2 = value;
        } else {
            self.s1 = self.alpha * value + (1.0 - self.alpha) * self.s1;
            self.s2 = self.alpha * self.s1 + (1.0 - self.alpha) * self.s2;
        }
        self.count += 1;
    }

    fn forecast(&self, horizon: f64) -> Option<f64> {
        Some(self.level()? + horizon * self.trend()?)
    }

    fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
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
        assert!(BrownDouble::new(0.0).is_err());
        assert!(BrownDouble::new(1.0).is_err());
        assert!(BrownDouble::new(-0.3).is_err());
        assert!(BrownDouble::new(0.5).is_ok());
    }

    #[test]
    fn empty_has_no_forecast() {
        let b = BrownDouble::new(0.5).unwrap();
        assert_eq!(b.forecast(1.0), None);
        assert_eq!(b.level(), None);
        assert_eq!(b.trend(), None);
    }

    #[test]
    fn first_observation_has_zero_trend() {
        let mut b = BrownDouble::new(0.5).unwrap();
        b.observe(10.0);
        assert_eq!(b.level(), Some(10.0));
        assert_eq!(b.trend(), Some(0.0));
        assert_eq!(b.forecast(5.0), Some(10.0));
    }

    #[test]
    fn recurrence_matches_hand_computation() {
        // alpha = 0.5; x = [2, 4]
        // s1: 2, then 0.5*4 + 0.5*2 = 3
        // s2: 2, then 0.5*3 + 0.5*2 = 2.5
        // level = 2*3 - 2.5 = 3.5 ; trend = 1.0 * (3 - 2.5) = 0.5
        let mut b = BrownDouble::new(0.5).unwrap();
        b.observe(2.0);
        b.observe(4.0);
        assert!((b.level().unwrap() - 3.5).abs() < 1e-12);
        assert!((b.trend().unwrap() - 0.5).abs() < 1e-12);
        assert!((b.forecast(2.0).unwrap() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn converges_on_linear_trend() {
        let mut b = BrownDouble::new(0.4).unwrap();
        for t in 0..300 {
            b.observe(5.0 + 2.0 * t as f64);
        }
        assert!((b.trend().unwrap() - 2.0).abs() < 1e-6);
        let pred = b.forecast(1.0).unwrap();
        let truth = 5.0 + 2.0 * 300.0;
        assert!((pred - truth).abs() < 1e-4);
    }

    #[test]
    fn constant_signal_has_zero_trend() {
        let mut b = BrownDouble::new(0.3).unwrap();
        for _ in 0..100 {
            b.observe(9.0);
        }
        assert!(b.trend().unwrap().abs() < 1e-9);
        assert!((b.forecast(10.0).unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut b = BrownDouble::new(0.3).unwrap();
        b.observe(1.0);
        b.observe(2.0);
        b.reset();
        assert_eq!(b.observations(), 0);
        assert_eq!(b.forecast(1.0), None);
    }

    #[test]
    fn outperforms_single_smoothing_on_trends() {
        use crate::{Forecaster as _, SingleExponential};
        let mut brown = BrownDouble::new(0.4).unwrap();
        let mut ses = SingleExponential::new(0.4).unwrap();
        let mut brown_err = 0.0;
        let mut ses_err = 0.0;
        for t in 0..200 {
            let x = 1.5 * t as f64;
            if t > 10 {
                brown_err += (brown.forecast(1.0).unwrap() - x).abs();
                ses_err += (ses.forecast(1.0).unwrap() - x).abs();
            }
            brown.observe(x);
            ses.observe(x);
        }
        assert!(brown_err < ses_err / 2.0, "brown={brown_err} ses={ses_err}");
    }
}
