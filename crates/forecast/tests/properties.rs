//! Property-based tests for the forecasting substrate.

use mobigrid_forecast::{
    metrics, BrownDouble, BrownPositionEstimator, Forecaster, HoltLinear, SingleExponential,
};
use mobigrid_geo::Point;
use proptest::prelude::*;

proptest! {
    #[test]
    fn ses_level_stays_within_observed_range(
        alpha in 0.01..1.0f64,
        xs in prop::collection::vec(-1e3..1e3f64, 1..100),
    ) {
        let mut ses = SingleExponential::new(alpha).unwrap();
        for x in &xs {
            ses.observe(*x);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let level = ses.level().unwrap();
        prop_assert!(level >= lo - 1e-9 && level <= hi + 1e-9);
    }

    #[test]
    fn brown_is_exact_on_linear_signals_after_convergence(
        alpha in 0.2..0.9f64,
        slope in -10.0..10.0f64,
        intercept in -100.0..100.0f64,
    ) {
        let mut b = BrownDouble::new(alpha).unwrap();
        for t in 0..400 {
            b.observe(intercept + slope * t as f64);
        }
        let pred = b.forecast(1.0).unwrap();
        let truth = intercept + slope * 400.0;
        prop_assert!((pred - truth).abs() < 1e-3 * (1.0 + truth.abs()));
    }

    #[test]
    fn brown_and_holt_agree_on_linear_signals(slope in -5.0..5.0f64) {
        let mut b = BrownDouble::new(0.5).unwrap();
        let mut h = HoltLinear::new(0.5, 0.5).unwrap();
        for t in 0..300 {
            let x = slope * t as f64;
            b.observe(x);
            h.observe(x);
        }
        let pb = b.forecast(1.0).unwrap();
        let ph = h.forecast(1.0).unwrap();
        prop_assert!((pb - ph).abs() < 1e-3 * (1.0 + pb.abs()));
    }

    #[test]
    fn forecast_is_linear_in_horizon(
        alpha in 0.2..0.8f64,
        xs in prop::collection::vec(-100.0..100.0f64, 3..50),
    ) {
        let mut b = BrownDouble::new(alpha).unwrap();
        for x in &xs {
            b.observe(*x);
        }
        let f0 = b.forecast(0.0).unwrap();
        let f1 = b.forecast(1.0).unwrap();
        let f2 = b.forecast(2.0).unwrap();
        // level + h*trend is affine in h.
        prop_assert!(((f2 - f1) - (f1 - f0)).abs() < 1e-9 * (1.0 + f2.abs()));
    }

    #[test]
    fn brown_position_estimate_is_continuous_in_time(
        speed in 0.1..10.0f64,
        heading_deg in 0.0..360.0f64,
    ) {
        let h = mobigrid_geo::Heading::from_degrees(heading_deg);
        let v = mobigrid_geo::Vec2::from_polar(speed, h);
        let mut est = BrownPositionEstimator::new(0.5).unwrap();
        for t in 0..20 {
            est.observe(t as f64, Point::ORIGIN + v * (t as f64));
        }
        let p1 = est.estimate(20.0).unwrap();
        let p2 = est.estimate(20.001).unwrap();
        prop_assert!(p1.distance_to(p2) < 0.1);
    }

    #[test]
    fn rmse_bounds_mae(
        pairs in prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 1..100)
    ) {
        let (a, e): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        prop_assert!(metrics::rmse(&a, &e) + 1e-9 >= metrics::mae(&a, &e));
        prop_assert!(metrics::max_abs_error(&a, &e) + 1e-9 >= metrics::rmse(&a, &e));
    }

    #[test]
    fn rmse_is_translation_invariant(
        pairs in prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 1..100),
        shift in -1e3..1e3f64,
    ) {
        let (a, e): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let a2: Vec<f64> = a.iter().map(|x| x + shift).collect();
        let e2: Vec<f64> = e.iter().map(|x| x + shift).collect();
        prop_assert!((metrics::rmse(&a, &e) - metrics::rmse(&a2, &e2)).abs() < 1e-6);
    }
}
