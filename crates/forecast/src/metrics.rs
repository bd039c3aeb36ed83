//! Error metrics for comparing estimated against true series.
//!
//! The paper quantifies location error with the root-mean-square error
//! `RMSE = sqrt(Σ(RLᵢ − ELᵢ)²/n)` over real locations `RL` and estimated
//! locations `EL` (§4.2, citing Ghilani & Wolf). These helpers implement that
//! and the companion metrics used in the design ablations.

/// Root-mean-square error between paired samples.
///
/// # Panics
///
/// Panics when the slices differ in length.
///
/// # Examples
///
/// ```
/// let e = mobigrid_forecast::metrics::rmse(&[1.0, 2.0], &[1.0, 4.0]);
/// assert!((e - (2.0f64).sqrt() / (2.0f64).sqrt() * (2.0f64)/(2.0f64).sqrt()).abs() < 1.0);
/// assert!((e - (4.0f64 / 2.0).sqrt()).abs() < 1e-12);
/// ```
#[must_use]
pub fn rmse(actual: &[f64], estimated: &[f64]) -> f64 {
    assert_eq!(actual.len(), estimated.len(), "series must pair up");
    if actual.is_empty() {
        return 0.0;
    }
    let sum_sq: f64 = actual
        .iter()
        .zip(estimated)
        .map(|(a, e)| (a - e).powi(2))
        .sum();
    (sum_sq / actual.len() as f64).sqrt()
}

/// Mean absolute error between paired samples.
///
/// # Panics
///
/// Panics when the slices differ in length.
#[must_use]
pub fn mae(actual: &[f64], estimated: &[f64]) -> f64 {
    assert_eq!(actual.len(), estimated.len(), "series must pair up");
    if actual.is_empty() {
        return 0.0;
    }
    actual
        .iter()
        .zip(estimated)
        .map(|(a, e)| (a - e).abs())
        .sum::<f64>()
        / actual.len() as f64
}

/// Mean absolute percentage error between paired samples, in percent.
///
/// Samples where the actual value is zero are skipped (the percentage is
/// undefined there); returns zero when every sample is skipped.
///
/// # Panics
///
/// Panics when the slices differ in length.
#[must_use]
pub fn mape(actual: &[f64], estimated: &[f64]) -> f64 {
    assert_eq!(actual.len(), estimated.len(), "series must pair up");
    let mut sum = 0.0;
    let mut n = 0u32;
    for (a, e) in actual.iter().zip(estimated) {
        if *a != 0.0 {
            sum += ((a - e) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / f64::from(n)
    }
}

/// Maximum absolute error between paired samples.
///
/// # Panics
///
/// Panics when the slices differ in length.
#[must_use]
pub fn max_abs_error(actual: &[f64], estimated: &[f64]) -> f64 {
    assert_eq!(actual.len(), estimated.len(), "series must pair up");
    actual
        .iter()
        .zip(estimated)
        .map(|(a, e)| (a - e).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_of_identical_series_is_zero() {
        assert_eq!(rmse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn rmse_hand_computed() {
        // errors: 3, 4 -> rmse = sqrt((9+16)/2)
        let e = rmse(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((e - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_of_empty_is_zero() {
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn mae_hand_computed() {
        assert_eq!(mae(&[0.0, 0.0], &[3.0, -5.0]), 4.0);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        // Only the second sample counts: |(10-5)/10| = 50 %
        let m = mape(&[0.0, 10.0], &[99.0, 5.0]);
        assert!((m - 50.0).abs() < 1e-12);
    }

    #[test]
    fn mape_all_zero_actuals_is_zero() {
        assert_eq!(mape(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn max_abs_error_hand_computed() {
        assert_eq!(max_abs_error(&[1.0, 5.0], &[2.0, 1.0]), 4.0);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_lengths_panic() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn rmse_dominates_mae() {
        // RMSE >= MAE for any series (power-mean inequality).
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.5, 1.0, 4.0, 2.0];
        assert!(rmse(&a, &b) >= mae(&a, &b));
    }
}
