//! Time-series estimation substrate for the mobigrid workspace.
//!
//! When the adaptive distance filter suppresses a location update, the grid
//! broker no longer knows where a mobile node is; the paper closes that gap
//! with **Brown's double exponential smoothing** over the node's velocity and
//! direction (§3.3). This crate implements that estimator along with the
//! comparators the broker's estimator ablation arms use (simple exponential
//! smoothing, Holt's linear trend, a constant-velocity Kalman filter):
//!
//! * scalar forecasters: [`SingleExponential`], [`BrownDouble`],
//!   [`HoltLinear`],
//! * position trackers built on them: [`BrownPositionEstimator`],
//!   [`DeadReckoning`], [`AxisSmoothing`], plus the constant-velocity
//!   [`KalmanCv`], each with inherent `observe`, `estimate` and
//!   `is_static` methods (the paper's "without LE" arm needs no tracker:
//!   it holds the last received position),
//! * error metrics: [`metrics::rmse`], [`metrics::mae`], [`metrics::mape`].
//!
//! # Examples
//!
//! Forecasting a linear signal with Brown's method converges to zero error:
//!
//! ```
//! use mobigrid_forecast::{BrownDouble, Forecaster};
//!
//! let mut brown = BrownDouble::new(0.5).unwrap();
//! for t in 0..50 {
//!     brown.observe(2.0 * t as f64 + 1.0);
//! }
//! let pred = brown.forecast(1.0).unwrap();
//! assert!((pred - (2.0 * 50.0 + 1.0)).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brown;
mod error;
mod holt;
mod kalman;
pub mod metrics;
mod ses;
mod tracker;

pub use brown::BrownDouble;
pub use error::ForecastError;
pub use holt::HoltLinear;
pub use kalman::KalmanCv;
pub use ses::SingleExponential;
pub use tracker::{AxisSmoothing, BrownPositionEstimator, DeadReckoning};

/// A scalar one-dimensional forecaster.
///
/// Implementations consume a stream of equally-spaced observations via
/// [`Forecaster::observe`] and extrapolate `horizon` steps ahead via
/// [`Forecaster::forecast`]. A horizon of `0.0` is the smoothed estimate of
/// the current level.
pub trait Forecaster {
    /// Feeds the next observation of the series.
    fn observe(&mut self, value: f64);

    /// Predicts the series `horizon` steps past the last observation, or
    /// `None` when too few observations have been seen.
    fn forecast(&self, horizon: f64) -> Option<f64>;

    /// Forgets all state, returning to the freshly-constructed condition.
    fn reset(&mut self);

    /// Number of observations consumed since construction or reset.
    fn observations(&self) -> u64;
}
