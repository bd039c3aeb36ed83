//! Sample summaries. Every gated timing is a median of many samples per
//! segment, summarised over a run's segments by [`fast_decile`]; tail
//! percentiles and means are diagnostics and always travel with their
//! sample count.

use std::time::Duration;

/// Microseconds in a [`Duration`], as a float.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A sorted copy of a sample set, for quantile reads.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (which must hold no NaN).
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (NaN on an empty set).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    /// The median.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The arithmetic mean (NaN on an empty set).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// The median of a small set, e.g. repeated set-up times.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// The 10th percentile of per-segment medians: the run's typical cost on
/// the host's fast stretches (NaN when empty).
///
/// Every gated timing is this, over the fresh set-ups of a run, of each
/// set-up's median; `setup_s` is this over the set-ups themselves. On a shared 2-vCPU virtual machine the same work runs
/// at one of two or more speed levels, switching every few seconds and
/// drifting over minutes, with steal near zero: the host's neighbours,
/// not the program, set the level. Segment medians within one 35-s run
/// spread by 30% and more. Their median, or their interquartile mean,
/// follows how long the host spent slow, which differs from run to run;
/// their lower tail is the program's own cost under the least
/// interference, which every run reaches. A change that makes every
/// segment slower moves it fully.
#[must_use]
pub fn fast_decile(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).quantile(0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let segments: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(fast_decile(&segments), 2.0);
        assert!(fast_decile(&[]).is_nan());
        assert!(Samples::new(Vec::new()).median().is_nan());
    }
}
