use serde::{Deserialize, Serialize};

use mobigrid_geo::Point;

use crate::MotionStep;

/// The outcome of passing one location observation through a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The location update is transmitted to the grid broker.
    Sent,
    /// The location update is suppressed; the broker must estimate.
    Filtered,
}

impl Decision {
    /// Returns `true` for [`Decision::Sent`].
    #[must_use]
    pub fn is_sent(self) -> bool {
        matches!(self, Decision::Sent)
    }
}

/// Which reference position the moving distance is measured from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterReference {
    /// Distance moved since the **previous observation** — the paper's
    /// semantics ("compares the MN's moving distance with the DTH").
    /// A node moving steadily below its DTH is suppressed indefinitely, so
    /// the broker's error is unbounded without estimation; this is exactly
    /// why the paper pairs the filter with a location estimator.
    PreviousObservation,
    /// Distance moved since the **last transmitted** position — the
    /// dead-band variant common in moving-object databases. Slow nodes
    /// accumulate displacement and eventually report, bounding the broker's
    /// error by the DTH. Kept as an ablation arm.
    LastTransmitted,
}

/// The per-node distance filter (DF): suppress the location update while
/// the node's moving distance is below the Distance Threshold (DTH).
///
/// The first observation is always sent (the broker must learn the node
/// exists somewhere). See [`FilterReference`] for the two distance
/// semantics; the paper's is [`FilterReference::PreviousObservation`].
///
/// # Examples
///
/// ```
/// use mobigrid_adf::{Decision, DistanceFilter, FilterReference};
/// use mobigrid_geo::Point;
///
/// // Paper semantics: a node creeping at 1 m/tick under a 2 m DTH stays
/// // silent forever…
/// let mut df = DistanceFilter::new(2.0);
/// assert!(df.observe(Point::new(0.0, 0.0)).is_sent());
/// assert!(!df.observe(Point::new(1.0, 0.0)).is_sent());
/// assert!(!df.observe(Point::new(2.0, 0.0)).is_sent());
/// assert!(!df.observe(Point::new(3.0, 0.0)).is_sent());
///
/// // …while the dead-band variant reports once 2 m accumulate.
/// let mut db = DistanceFilter::with_reference(2.0, FilterReference::LastTransmitted);
/// assert!(db.observe(Point::new(0.0, 0.0)).is_sent());
/// assert!(!db.observe(Point::new(1.0, 0.0)).is_sent());
/// assert!(db.observe(Point::new(2.0, 0.0)).is_sent());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceFilter {
    dth: f64,
    reference: FilterReference,
    last_sent: Option<Point>,
    last_observed: Option<Point>,
    last_step: Option<f64>,
    sent: u64,
    filtered: u64,
}

impl DistanceFilter {
    /// Creates a filter with threshold `dth` metres and the paper's
    /// previous-observation semantics.
    ///
    /// # Panics
    ///
    /// Panics when `dth` is negative or non-finite. A zero DTH is allowed
    /// and sends every observation (the "ideal LU" behaviour).
    #[must_use]
    pub fn new(dth: f64) -> Self {
        DistanceFilter::with_reference(dth, FilterReference::PreviousObservation)
    }

    /// Creates a filter with an explicit distance reference.
    ///
    /// # Panics
    ///
    /// Panics when `dth` is negative or non-finite.
    #[must_use]
    pub fn with_reference(dth: f64, reference: FilterReference) -> Self {
        assert_valid_dth(dth);
        DistanceFilter {
            dth,
            reference,
            last_sent: None,
            last_observed: None,
            last_step: None,
            sent: 0,
            filtered: 0,
        }
    }

    /// The current distance threshold in metres.
    #[must_use]
    pub fn dth(&self) -> f64 {
        self.dth
    }

    /// The distance semantics in use.
    #[must_use]
    pub fn reference(&self) -> FilterReference {
        self.reference
    }

    /// Re-sizes the threshold (the ADF does this on every reclustering).
    ///
    /// # Panics
    ///
    /// Panics when `dth` is negative or non-finite.
    pub fn set_dth(&mut self, dth: f64) {
        assert_valid_dth(dth);
        self.dth = dth;
    }

    /// The filter of a node whose every observation so far sat at
    /// `position`, finite, bit for bit: `sent` of them sent, the first
    /// among them, and `filtered` suppressed. Equal, bit for bit, to the
    /// filter those observations built from
    /// [`DistanceFilter::with_reference`]: its anchors are `position`
    /// once it has observed anything, and each observation after the
    /// first measured a displacement of exactly `+0.0` (for finite `x`,
    /// `x - x` is `+0.0`). The ADF's resting nodes are built with it at
    /// their first motion.
    pub(crate) fn at_rest(
        dth: f64,
        reference: FilterReference,
        position: Point,
        sent: u64,
        filtered: u64,
    ) -> Self {
        let anchor = (sent > 0).then_some(position);
        DistanceFilter {
            last_sent: anchor,
            last_observed: anchor,
            last_step: (sent.saturating_add(filtered) > 1).then_some(0.0),
            sent,
            filtered,
            ..DistanceFilter::with_reference(dth, reference)
        }
    }

    /// The last transmitted position, if any update has been sent.
    #[must_use]
    pub fn last_sent(&self) -> Option<Point> {
        self.last_sent
    }

    /// Filters one observation.
    pub fn observe(&mut self, position: Point) -> Decision {
        self.observe_after(position, None)
    }

    /// Filters one observation, reusing the length of `step` — the motion
    /// step a [`MobilityClassifier`](crate::MobilityClassifier) derived
    /// from the same observation — when it measures exactly the distance
    /// [`DistanceFilter::observe`] would: the reference is
    /// [`FilterReference::PreviousObservation`] and the step starts at a
    /// point bit-identical to the last observed position. Both then compute
    /// `(position - from).norm()` from the same bits, so the decision and
    /// every piece of state are bit-identical to `observe`. Otherwise the
    /// step is ignored and the distance is measured as usual.
    pub(crate) fn observe_after(&mut self, position: Point, step: Option<MotionStep>) -> Decision {
        let anchor = match self.reference {
            FilterReference::PreviousObservation => self.last_observed,
            FilterReference::LastTransmitted => self.last_sent,
        };
        let dist = match (self.reference, anchor, step) {
            (FilterReference::PreviousObservation, Some(prev), Some(step))
                if same_bits(prev, step.from) =>
            {
                Some(step.length)
            }
            _ => anchor.map(|prev| prev.distance_to(position)),
        };
        let send = match dist {
            None => true,
            Some(d) => d >= self.dth,
        };
        self.last_step = dist;
        self.last_observed = Some(position);
        if send {
            self.last_sent = Some(position);
            self.sent += 1;
            Decision::Sent
        } else {
            self.filtered += 1;
            Decision::Filtered
        }
    }

    /// Filters a repeat observation known to sit exactly on the filter's
    /// anchor, bit-identically to [`DistanceFilter::observe`] but without
    /// the distance computation.
    ///
    /// Applies — returning `Some(decision)` with the same state mutations
    /// the full path would make — only under
    /// [`FilterReference::PreviousObservation`] when `position` is
    /// bit-identical to the last observed position and finite: the
    /// displacement is then exactly `+0.0` (for finite `x`, `x - x` is
    /// `+0.0` and `sqrt(+0.0)` is `+0.0`), so the decision reduces to
    /// `0.0 >= dth` — `Sent` during the zero-DTH warmup, `Filtered` once
    /// a positive DTH is assigned. Returns `None` with no state change
    /// when the fast path does not apply; the caller must then use
    /// [`DistanceFilter::observe`]. Like the classifier's twin, the ADF's
    /// sparse path calls it for every hinted parked node.
    pub fn observe_stationary(&mut self, position: Point) -> Option<Decision> {
        if !self.is_frozen_repeat(position) {
            return None;
        }
        self.last_step = Some(0.0);
        self.last_observed = Some(position);
        Some(if 0.0 >= self.dth {
            self.last_sent = Some(position);
            self.sent += 1;
            Decision::Sent
        } else {
            self.filtered += 1;
            Decision::Filtered
        })
    }

    /// Whether [`DistanceFilter::observe_stationary`] would apply to
    /// `position` and suppress it.
    pub(crate) fn suppresses_repeat(&self, position: Point) -> bool {
        self.is_frozen_repeat(position) && self.dth > 0.0
    }

    /// The stationary fast path's precondition (see
    /// [`DistanceFilter::observe_stationary`]).
    fn is_frozen_repeat(&self, position: Point) -> bool {
        self.reference == FilterReference::PreviousObservation
            && self
                .last_observed
                .is_some_and(|anchor| same_bits(anchor, position))
            && position.x.is_finite()
            && position.y.is_finite()
    }

    /// Applies `k` deferred [`DistanceFilter::observe_stationary`] calls
    /// that each returned [`Decision::Filtered`]: they bumped the filtered
    /// counter and re-wrote a zero displacement and the same anchor, so
    /// the counter is all that is left to do.
    pub(crate) fn catch_up_filtered(&mut self, k: u32) {
        debug_assert_eq!(self.last_step, Some(0.0));
        self.filtered += u64::from(k);
    }

    /// The displacement (metres against the filter's reference) measured
    /// by the most recent [`DistanceFilter::observe`] call — `None` until
    /// the filter has an anchor to measure from (the always-sent first
    /// observation). Feeds the flight recorder's decision events.
    #[must_use]
    pub fn last_displacement(&self) -> Option<f64> {
        self.last_step
    }

    /// Number of observations transmitted.
    #[must_use]
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Number of observations suppressed.
    #[must_use]
    pub fn filtered_count(&self) -> u64 {
        self.filtered
    }
}

/// Panics unless `dth` is a valid distance threshold: finite and
/// non-negative.
pub(crate) fn assert_valid_dth(dth: f64) {
    assert!(dth.is_finite() && dth >= 0.0, "DTH must be non-negative");
}

/// Whether two points have bit-identical coordinates.
pub(crate) fn same_bits(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_always_sent() {
        let mut df = DistanceFilter::new(100.0);
        assert_eq!(df.observe(Point::ORIGIN), Decision::Sent);
        assert_eq!(df.last_sent(), Some(Point::ORIGIN));
    }

    #[test]
    fn zero_dth_sends_everything() {
        for reference in [
            FilterReference::PreviousObservation,
            FilterReference::LastTransmitted,
        ] {
            let mut df = DistanceFilter::with_reference(0.0, reference);
            for i in 0..5 {
                assert!(df.observe(Point::new(f64::from(i) * 0.001, 0.0)).is_sent());
            }
            assert_eq!(df.sent_count(), 5);
        }
    }

    #[test]
    fn paper_semantics_suppress_steady_slow_movers_indefinitely() {
        let mut df = DistanceFilter::new(3.0);
        df.observe(Point::new(0.0, 0.0));
        for i in 1..100 {
            let d = df.observe(Point::new(f64::from(i) * 2.0, 0.0));
            assert!(!d.is_sent(), "step {i} sent despite moving < DTH per tick");
        }
        assert_eq!(df.sent_count(), 1);
    }

    #[test]
    fn paper_semantics_send_fast_steps() {
        let mut df = DistanceFilter::new(3.0);
        df.observe(Point::new(0.0, 0.0));
        assert!(df.observe(Point::new(5.0, 0.0)).is_sent());
        assert!(!df.observe(Point::new(6.0, 0.0)).is_sent());
        assert!(df.observe(Point::new(10.0, 0.0)).is_sent());
    }

    #[test]
    fn dead_band_accumulates_from_last_sent() {
        let mut df = DistanceFilter::with_reference(3.0, FilterReference::LastTransmitted);
        df.observe(Point::new(0.0, 0.0));
        assert!(!df.observe(Point::new(1.0, 0.0)).is_sent());
        assert!(!df.observe(Point::new(2.0, 0.0)).is_sent());
        assert!(df.observe(Point::new(3.0, 0.0)).is_sent());
        // Baseline resets to (3,0).
        assert!(!df.observe(Point::new(4.0, 0.0)).is_sent());
    }

    #[test]
    fn observe_stationary_matches_observe_in_both_dth_regimes() {
        // dth == 0 (warmup): every repeat is Sent; dth > 0: Filtered.
        for dth in [0.0, 2.5] {
            let mut full = DistanceFilter::new(dth);
            let mut fast = DistanceFilter::new(dth);
            let p = Point::new(-3.5, 12.0625);
            full.observe(p);
            fast.observe(p);
            for step in 0..20 {
                let expect = full.observe(p);
                let got = fast
                    .observe_stationary(p)
                    .expect("frozen repeat must take the fast path");
                assert_eq!(expect, got, "dth {dth} step {step}");
                assert_eq!(full.last_displacement(), fast.last_displacement());
                assert_eq!(full.sent_count(), fast.sent_count());
                assert_eq!(full.filtered_count(), fast.filtered_count());
                assert_eq!(full.last_sent(), fast.last_sent());
            }
        }
    }

    #[test]
    fn observe_stationary_refuses_when_the_fast_path_is_unsound() {
        // No anchor yet.
        let mut df = DistanceFilter::new(2.0);
        assert_eq!(df.observe_stationary(Point::ORIGIN), None);
        // Moved position.
        df.observe(Point::ORIGIN);
        assert_eq!(df.observe_stationary(Point::new(0.5, 0.0)), None);
        // Dead-band semantics measure from last-sent, not last-observed.
        let mut db = DistanceFilter::with_reference(2.0, FilterReference::LastTransmitted);
        db.observe(Point::new(1.0, 1.0));
        assert_eq!(db.observe_stationary(Point::new(1.0, 1.0)), None);
    }

    #[test]
    fn observe_after_matches_observe_given_the_classifier_step() {
        let path = [
            Point::new(0.0, 0.0),
            Point::new(1.25, -0.5),
            Point::new(1.25, -0.5),
            Point::new(4.0, 3.0),
            Point::new(-0.0, 3.5),
            Point::new(9.5, -7.25),
        ];
        // Under the dead-band semantics the step's length is not the
        // distance to the anchor, so reusing it there would show.
        for reference in [
            FilterReference::PreviousObservation,
            FilterReference::LastTransmitted,
        ] {
            let mut plain = DistanceFilter::with_reference(2.0, reference);
            let mut reused = DistanceFilter::with_reference(2.0, reference);
            let mut prev: Option<Point> = None;
            for (i, p) in path.iter().enumerate() {
                let step = prev.map(|from| MotionStep {
                    from,
                    length: (*p - from).norm(),
                });
                assert_eq!(
                    plain.observe(*p),
                    reused.observe_after(*p, step),
                    "step {i}"
                );
                assert_eq!(
                    plain.last_displacement().map(f64::to_bits),
                    reused.last_displacement().map(f64::to_bits),
                    "step {i}"
                );
                assert_eq!(plain, reused, "step {i}");
                prev = Some(*p);
            }
        }
    }

    #[test]
    fn observe_after_reuses_only_a_step_from_the_last_observation() {
        let mut df = DistanceFilter::new(2.0);
        df.observe(Point::new(-0.0, 1.0));
        // A step from a different point — here `+0.0` against the stored
        // `-0.0` — is ignored and the distance measured afresh.
        let elsewhere = MotionStep {
            from: Point::new(0.0, 1.0),
            length: 1e9,
        };
        assert!(!df
            .observe_after(Point::new(1.0, 1.0), Some(elsewhere))
            .is_sent());
        assert_eq!(df.last_displacement(), Some(1.0));
        // A step from the last observed position is trusted as given.
        let here = MotionStep {
            from: Point::new(1.0, 1.0),
            length: 5.0,
        };
        assert!(df.observe_after(Point::new(1.5, 1.0), Some(here)).is_sent());
        assert_eq!(df.last_displacement(), Some(5.0));
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut df = DistanceFilter::new(2.0);
        df.observe(Point::ORIGIN);
        assert!(df.observe(Point::new(2.0, 0.0)).is_sent());
    }

    #[test]
    fn stationary_node_sends_only_once() {
        for reference in [
            FilterReference::PreviousObservation,
            FilterReference::LastTransmitted,
        ] {
            let mut df = DistanceFilter::with_reference(1.0, reference);
            df.observe(Point::new(5.0, 5.0));
            for _ in 0..100 {
                assert!(!df.observe(Point::new(5.0, 5.0)).is_sent());
            }
            assert_eq!(df.sent_count(), 1);
            assert_eq!(df.filtered_count(), 100);
        }
    }

    #[test]
    fn oscillation_below_dth_is_fully_filtered() {
        // A node pacing between two points 1 m apart never exceeds a 2 m
        // DTH under either semantics — the RMS-in-a-lab case.
        for reference in [
            FilterReference::PreviousObservation,
            FilterReference::LastTransmitted,
        ] {
            let mut df = DistanceFilter::with_reference(2.0, reference);
            df.observe(Point::new(0.0, 0.0));
            for i in 0..50 {
                let x = if i % 2 == 0 { 1.0 } else { 0.0 };
                assert!(!df.observe(Point::new(x, 0.0)).is_sent());
            }
        }
    }

    #[test]
    fn set_dth_applies_immediately() {
        let mut df = DistanceFilter::new(10.0);
        df.observe(Point::ORIGIN);
        assert!(!df.observe(Point::new(5.0, 0.0)).is_sent());
        df.set_dth(4.0);
        assert!(df.observe(Point::new(10.0, 0.0)).is_sent());
    }

    #[test]
    fn reference_accessor_reports_semantics() {
        assert_eq!(
            DistanceFilter::new(1.0).reference(),
            FilterReference::PreviousObservation
        );
        assert_eq!(
            DistanceFilter::with_reference(1.0, FilterReference::LastTransmitted).reference(),
            FilterReference::LastTransmitted
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dth_panics() {
        let _ = DistanceFilter::new(-1.0);
    }

    #[test]
    fn last_displacement_tracks_each_observation() {
        let mut df = DistanceFilter::new(3.0);
        assert_eq!(df.last_displacement(), None);
        df.observe(Point::new(0.0, 0.0));
        assert_eq!(
            df.last_displacement(),
            None,
            "first observation has no anchor"
        );
        df.observe(Point::new(2.0, 0.0));
        assert_eq!(df.last_displacement(), Some(2.0));
        df.observe(Point::new(6.0, 0.0));
        assert_eq!(df.last_displacement(), Some(4.0));
        // Dead-band semantics measure from the last transmitted fix.
        let mut db = DistanceFilter::with_reference(3.0, FilterReference::LastTransmitted);
        db.observe(Point::new(0.0, 0.0));
        db.observe(Point::new(1.0, 0.0));
        db.observe(Point::new(2.0, 0.0));
        assert_eq!(
            db.last_displacement(),
            Some(2.0),
            "accumulated from last sent"
        );
    }
}
