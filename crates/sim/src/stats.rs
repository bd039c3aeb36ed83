//! Streaming statistics shared by the experiment harness.
//!
//! The paper reports averages (LUs per second), accumulations (total LUs over
//! 1800 s) and root-mean-square errors (location error). These accumulators
//! compute all three in one pass without storing samples, plus a
//! fixed-bin [`Histogram`] for inter-update intervals.

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long runs, O(1) memory.
///
/// # Examples
///
/// ```
/// use mobigrid_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by n); zero when empty.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// Accumulates squared errors and reports the root-mean-square error — the
/// paper's location-error metric `sqrt(Σ(RLᵢ − ELᵢ)² / n)`.
///
/// # Examples
///
/// ```
/// use mobigrid_sim::stats::Rmse;
///
/// let mut r = Rmse::new();
/// r.push(3.0); // an error of 3 m
/// r.push(4.0);
/// assert!((r.value() - (12.5f64).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rmse {
    sum_sq: f64,
    count: u64,
}

impl Rmse {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Rmse::default()
    }

    /// Adds one error observation (sign is irrelevant).
    pub fn push(&mut self, error: f64) {
        self.sum_sq += error * error;
        self.count += 1;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sum of the squared errors.
    #[must_use]
    pub fn sum_sq(&self) -> f64 {
        self.sum_sq
    }

    /// The RMSE; zero when empty.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq / self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Rmse) {
        self.sum_sq += other.sum_sq;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_mean_and_variance() {
        let w: Welford = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(w.count(), 5);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.population_variance(), 2.0);
        assert_eq!(w.min(), Some(1.0));
        assert_eq!(w.max(), Some(5.0));
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut both = Welford::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            both.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert!((a.mean() - both.mean()).abs() < 1e-9);
        assert!((a.population_variance() - both.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a: Welford = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn rmse_of_known_errors() {
        let mut r = Rmse::new();
        r.push(1.0);
        r.push(-1.0);
        assert_eq!(r.value(), 1.0);
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn rmse_empty_is_zero() {
        assert_eq!(Rmse::new().value(), 0.0);
    }

    #[test]
    fn rmse_merge() {
        let mut a = Rmse::new();
        a.push(3.0);
        let mut b = Rmse::new();
        b.push(4.0);
        a.merge(&b);
        assert!((a.value() - (12.5f64).sqrt()).abs() < 1e-12);
    }
}

/// A fixed-width-bin histogram over `[0, bin_width × bins)`, with an
/// overflow bin.
///
/// Used by the experiment harness for inter-update-interval distributions:
/// how long nodes of each mobility pattern stay silent under the filter.
///
/// # Examples
///
/// ```
/// use mobigrid_sim::stats::Histogram;
///
/// let mut h = Histogram::new(1.0, 10);
/// for x in [0.5, 1.5, 1.7, 100.0] {
///     h.record(x);
/// }
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(1), 2);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram of `bins` bins, each `bin_width` wide.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive width or zero bins.
    #[must_use]
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin width must be positive"
        );
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation. Negative values clamp into the first bin.
    pub fn record(&mut self, value: f64) {
        let idx = (value.max(0.0) / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += value.max(0.0);
    }

    /// Count in bin `idx` (covering `[idx·w, (idx+1)·w)`).
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    #[must_use]
    pub fn bin_count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Number of bins (excluding overflow).
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// The bin width.
    #[must_use]
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Observations beyond the last bin.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded values (clamped at zero), zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper edge of the bin where
    /// the cumulative count crosses `q·total`. Overflow resolves to
    /// positive infinity. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i + 1) as f64 * self.bin_width);
            }
        }
        Some(f64::INFINITY)
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::Histogram;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(2.0, 5);
        for x in [0.0, 1.9, 2.0, 9.9, 10.0, 55.0] {
            h.record(x);
        }
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(4), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn quantiles_walk_the_cdf() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..10 {
            h.record(f64::from(i) + 0.5);
        }
        assert_eq!(h.quantile(0.1), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn quantile_overflow_is_infinite() {
        let mut h = Histogram::new(1.0, 2);
        h.record(100.0);
        assert_eq!(h.quantile(0.5), Some(f64::INFINITY));
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new(1.0, 4);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn negative_values_clamp_to_first_bin() {
        let mut h = Histogram::new(1.0, 4);
        h.record(-5.0);
        assert_eq!(h.bin_count(0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = Histogram::new(0.0, 4);
    }
}
