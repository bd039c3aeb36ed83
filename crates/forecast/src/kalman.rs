//! A constant-velocity Kalman filter over 2-D position measurements.
//!
//! The textbook comparator for the paper's exponential-smoothing estimator:
//! state `[pₓ, p_y, vₓ, v_y]` with a white-acceleration process model and
//! position-only measurements. Included in the estimator ablation — it is
//! optimal for genuinely constant-velocity motion with Gaussian noise, and
//! instructively *not* optimal for the filtered-LU stream, where silence is
//! correlated with slowdown.

use mobigrid_geo::{Point, Vec2};

use crate::{ForecastError, PositionEstimator};

type Mat4 = [[f64; 4]; 4];
type Vec4 = [f64; 4];

fn mat_mul(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [[0.0; 4]; 4];
    for (i, row) in a.iter().enumerate() {
        for j in 0..4 {
            out[i][j] = (0..4).map(|k| row[k] * b[k][j]).sum();
        }
    }
    out
}

fn mat_vec(a: &Mat4, v: &Vec4) -> Vec4 {
    let mut out = [0.0; 4];
    for (i, row) in a.iter().enumerate() {
        out[i] = (0..4).map(|k| row[k] * v[k]).sum();
    }
    out
}

fn transpose(a: &Mat4) -> Mat4 {
    let mut out = [[0.0; 4]; 4];
    for (i, row) in a.iter().enumerate() {
        for (j, x) in row.iter().enumerate() {
            out[j][i] = *x;
        }
    }
    out
}

fn mat_add(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            out[i][j] = a[i][j] + b[i][j];
        }
    }
    out
}

fn identity() -> Mat4 {
    let mut m = [[0.0; 4]; 4];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

/// A constant-velocity Kalman position tracker.
///
/// # Examples
///
/// ```
/// use mobigrid_forecast::{KalmanCv, PositionEstimator};
/// use mobigrid_geo::Point;
///
/// let mut kf = KalmanCv::new(0.5, 0.5).unwrap();
/// for t in 0..20 {
///     kf.observe(t as f64, Point::new(2.0 * t as f64, 0.0));
/// }
/// let p = kf.estimate(21.0).unwrap();
/// assert!((p.x - 42.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanCv {
    /// White-acceleration process noise σₐ (m/s²).
    accel_sigma: f64,
    /// Measurement noise σ (m).
    measurement_sigma: f64,
    /// State estimate, when initialised.
    state: Option<(f64, Vec4)>,
    /// Covariance.
    p: Mat4,
}

impl KalmanCv {
    /// Creates a tracker with process noise `accel_sigma` (m/s²) and
    /// measurement noise `measurement_sigma` (m).
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidSmoothingFactor`] when either sigma
    /// is non-positive or non-finite.
    pub fn new(accel_sigma: f64, measurement_sigma: f64) -> Result<Self, ForecastError> {
        for v in [accel_sigma, measurement_sigma] {
            if !v.is_finite() || v <= 0.0 {
                return Err(ForecastError::InvalidSmoothingFactor { value: v });
            }
        }
        Ok(KalmanCv {
            accel_sigma,
            measurement_sigma,
            state: None,
            p: identity(),
        })
    }

    fn transition(dt: f64) -> Mat4 {
        let mut f = identity();
        f[0][2] = dt;
        f[1][3] = dt;
        f
    }

    fn process_noise(&self, dt: f64) -> Mat4 {
        let q = self.accel_sigma * self.accel_sigma;
        let dt2 = dt * dt;
        let dt3 = dt2 * dt;
        let dt4 = dt3 * dt;
        let (a, b, c) = (dt4 / 4.0 * q, dt3 / 2.0 * q, dt2 * q);
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [b, 0.0, c, 0.0],
            [0.0, b, 0.0, c],
        ]
    }

    fn predict_state(&self, dt: f64) -> Option<Vec4> {
        let (_, x) = self.state?;
        Some(mat_vec(&Self::transition(dt), &x))
    }

    /// The current velocity estimate, when initialised.
    #[must_use]
    pub fn velocity(&self) -> Option<Vec2> {
        self.state.map(|(_, x)| Vec2::new(x[2], x[3]))
    }
}

impl PositionEstimator for KalmanCv {
    fn observe(&mut self, time_s: f64, position: Point) {
        match self.state {
            None => {
                self.state = Some((time_s, [position.x, position.y, 0.0, 0.0]));
                // Large initial velocity uncertainty; position pinned to the
                // first measurement.
                let r = self.measurement_sigma * self.measurement_sigma;
                self.p = [
                    [r, 0.0, 0.0, 0.0],
                    [0.0, r, 0.0, 0.0],
                    [0.0, 0.0, 100.0, 0.0],
                    [0.0, 0.0, 0.0, 100.0],
                ];
            }
            Some((t0, x)) => {
                let dt = time_s - t0;
                if dt <= 0.0 {
                    return;
                }
                // Predict.
                let f = Self::transition(dt);
                let x_pred = mat_vec(&f, &x);
                let p_pred = mat_add(
                    &mat_mul(&mat_mul(&f, &self.p), &transpose(&f)),
                    &self.process_noise(dt),
                );

                // Update with the position measurement (H = [I₂ 0]).
                let r = self.measurement_sigma * self.measurement_sigma;
                let s00 = p_pred[0][0] + r;
                let s11 = p_pred[1][1] + r;
                let s01 = p_pred[0][1];
                let det = s00 * s11 - s01 * s01;
                if det.abs() < 1e-12 {
                    // Degenerate innovation covariance: keep the prediction.
                    self.state = Some((time_s, x_pred));
                    self.p = p_pred;
                    return;
                }
                let (i00, i01, i11) = (s11 / det, -s01 / det, s00 / det);
                // Kalman gain K = P Hᵀ S⁻¹ (4×2).
                let mut k = [[0.0; 2]; 4];
                for (i, row) in p_pred.iter().enumerate() {
                    k[i][0] = row[0] * i00 + row[1] * i01;
                    k[i][1] = row[0] * i01 + row[1] * i11;
                }
                let innov = [position.x - x_pred[0], position.y - x_pred[1]];
                let mut x_new = x_pred;
                for (i, gain_row) in k.iter().enumerate() {
                    x_new[i] += gain_row[0] * innov[0] + gain_row[1] * innov[1];
                }
                // P = (I − K H) P.
                let mut ikh = identity();
                for (i, gain_row) in k.iter().enumerate() {
                    ikh[i][0] -= gain_row[0];
                    ikh[i][1] -= gain_row[1];
                }
                self.p = mat_mul(&ikh, &p_pred);
                self.state = Some((time_s, x_new));
            }
        }
    }

    fn estimate(&mut self, time_s: f64) -> Option<Point> {
        let (t0, _) = self.state?;
        let dt = (time_s - t0).max(0.0);
        let x = self.predict_state(dt)?;
        Some(Point::new(x[0], x[1]))
    }

    /// Conservative: only the uninitialised filter (estimate `None`) is
    /// reported static. A single-observation filter holds its position in
    /// *value* but extrapolates through matrix arithmetic whose signed-zero
    /// handling is not worth certifying bit-stable.
    fn is_static(&self) -> bool {
        self.state.is_none()
    }

    fn reset(&mut self) {
        self.state = None;
        self.p = identity();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_sigmas() {
        assert!(KalmanCv::new(0.0, 1.0).is_err());
        assert!(KalmanCv::new(1.0, f64::NAN).is_err());
        assert!(KalmanCv::new(0.5, 0.5).is_ok());
    }

    #[test]
    fn converges_on_constant_velocity() {
        let mut kf = KalmanCv::new(0.3, 0.5).unwrap();
        for t in 0..50 {
            kf.observe(
                f64::from(t),
                Point::new(1.5 * f64::from(t), -0.5 * f64::from(t)),
            );
        }
        let v = kf.velocity().unwrap();
        assert!((v.dx - 1.5).abs() < 0.05, "vx = {}", v.dx);
        assert!((v.dy + 0.5).abs() < 0.05, "vy = {}", v.dy);
        let p = kf.estimate(52.0).unwrap();
        assert!((p.x - 78.0).abs() < 0.5);
    }

    #[test]
    fn single_observation_holds_position() {
        let mut kf = KalmanCv::new(0.5, 0.5).unwrap();
        kf.observe(0.0, Point::new(3.0, 4.0));
        // Velocity prior is zero, so prediction stays put.
        assert_eq!(kf.estimate(10.0), Some(Point::new(3.0, 4.0)));
    }

    #[test]
    fn filters_measurement_noise() {
        // Noisy measurements of a fixed point: the estimate's error should
        // be well under the noise amplitude after convergence.
        let mut kf = KalmanCv::new(0.05, 1.0).unwrap();
        let truth = Point::new(10.0, 10.0);
        for t in 0..100 {
            let jitter = if t % 2 == 0 { 0.8 } else { -0.8 };
            kf.observe(f64::from(t), Point::new(truth.x + jitter, truth.y - jitter));
        }
        let p = kf.estimate(100.0).unwrap();
        assert!(p.distance_to(truth) < 0.4, "err = {}", p.distance_to(truth));
    }

    #[test]
    fn non_advancing_time_is_ignored() {
        let mut kf = KalmanCv::new(0.5, 0.5).unwrap();
        kf.observe(1.0, Point::new(0.0, 0.0));
        kf.observe(1.0, Point::new(100.0, 100.0)); // dt = 0: ignored
        assert_eq!(kf.estimate(1.0), Some(Point::new(0.0, 0.0)));
    }

    #[test]
    fn reset_clears_state() {
        let mut kf = KalmanCv::new(0.5, 0.5).unwrap();
        kf.observe(0.0, Point::new(1.0, 1.0));
        kf.reset();
        assert_eq!(kf.estimate(1.0), None);
    }

    #[test]
    fn extrapolates_unboundedly_unlike_the_gated_estimator() {
        // Documents *why* the ablation shows Kalman losing on filtered
        // streams: it happily walks for ever at the last velocity.
        let mut kf = KalmanCv::new(0.3, 0.5).unwrap();
        for t in 0..20 {
            kf.observe(f64::from(t), Point::new(4.0 * f64::from(t), 0.0));
        }
        let far = kf.estimate(19.0 + 100.0).unwrap();
        assert!(far.x > 4.0 * 19.0 + 350.0, "x = {}", far.x);
    }
}
