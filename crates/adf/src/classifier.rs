use mobigrid_geo::{Heading, Point, Vec2};
use mobigrid_mobility::MobilityPattern;

use crate::filter::same_bits;
use crate::AdfConfig;

/// The motion step [`MobilityClassifier::observe`] derived from two
/// consecutive observations: where it started and how long it was. The
/// ADF's distance filter reuses the length instead of measuring the same
/// step again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionStep {
    /// The previous observed position, where the step starts.
    pub from: Point,
    /// The step's length in metres: `(position - from).norm()`.
    pub length: f64,
}

/// One window entry: the step's speed and its raw displacement. The
/// heading is a pure function of the displacement, so it is derived only
/// where it is read ([`MobilityClassifier::change_fraction`] and
/// [`MobilityClassifier::last_heading`]), not on every observation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WindowSample {
    speed: f64,
    delta: Vec2,
}

impl WindowSample {
    /// What an unfilled ring slot holds, and the sample a step between two
    /// bit-equal finite positions derives: speed `+0.0`, displacement
    /// `(+0.0, +0.0)`.
    const EMPTY: WindowSample = WindowSample {
        speed: 0.0,
        delta: Vec2::ZERO,
    };

    /// Whether this sample is bit-equal to [`WindowSample::EMPTY`]; a
    /// subnormal step whose speed underflows to `+0.0` is not.
    fn is_empty(self) -> bool {
        self.speed.to_bits() == 0 && self.delta.dx.to_bits() == 0 && self.delta.dy.to_bits() == 0
    }
}

/// The paper's Figure-2 mobility-pattern classification algorithm.
///
/// Feed timestamped positions with [`MobilityClassifier::observe`]; the
/// classifier derives per-step speed and heading over a sliding window of
/// [`AdfConfig::classifier_window`] steps and classifies:
///
/// * mean speed ≈ 0 → **Stop State**,
/// * mean speed > `v_walk` (running / vehicle) → **Linear Movement**,
/// * walking speed with steady velocity and direction → **Linear Movement**,
/// * walking speed with frequent velocity or direction changes → **Random
///   Movement**.
///
/// "Frequent" is quantified by the fraction of window steps whose heading
/// turned more than [`AdfConfig::direction_change_threshold`] or whose speed
/// jumped more than [`AdfConfig::speed_change_fraction`] of the window mean
/// (the paper leaves these constants unspecified; see `DESIGN.md`).
///
/// A classifier holds only its node's history. The thresholds apply to
/// every node of a policy alike, so the readings that use them take the
/// policy's [`AdfConfig`] as an argument instead of a per-node copy.
///
/// The window is one ring of exactly `classifier_window` samples. It is
/// allocated by the first sample that is not the empty one (speed `+0.0`,
/// displacement `(+0.0, +0.0)`), so a node that has never moved holds no
/// heap: until then every sample it took is that empty one, and the ring
/// is built full of them, with the head and length it would have had. It
/// is read oldest to newest, the order the samples arrived in, so
/// [`MobilityClassifier::mean_speed`] sums them in that order.
///
/// # Examples
///
/// ```
/// use mobigrid_adf::{AdfConfig, MobilityClassifier};
/// use mobigrid_geo::Point;
/// use mobigrid_mobility::MobilityPattern;
///
/// let cfg = AdfConfig::default();
/// let mut c = MobilityClassifier::new(&cfg);
/// for t in 0..10 {
///     c.observe(t as f64, Point::new(1.2 * t as f64, 0.0)); // steady walk east
/// }
/// assert_eq!(c.classify(&cfg), MobilityPattern::Linear);
/// ```
#[derive(Debug, Clone)]
pub struct MobilityClassifier {
    /// The window's slots, `None` until the first sample that is not
    /// [`WindowSample::EMPTY`]. While filling, samples sit in
    /// `ring[..len]`, oldest first; once full, the oldest is `ring[head]`
    /// and the newest the slot before it. `head` and `len` advance the same
    /// way whether or not the ring is built.
    ring: Option<Box<[WindowSample]>>,
    /// The window length, `classifier_window`.
    window: u32,
    /// Index of the oldest sample once the ring is full; `0` before.
    head: u32,
    /// Number of samples in the window.
    len: u32,
    /// Number of consecutive most-recent samples with speed exactly `+0.0`,
    /// saturating (every reading compares it with a length that fits a
    /// `u32`). Once this reaches the window length the whole window is
    /// zeros and [`MobilityClassifier::mean_speed`] short-circuits — the
    /// mean of `n` positive zeros is exactly `+0.0`, so the fast path is
    /// bit-identical to the summation it skips.
    zero_run: u32,
    last: Option<(f64, Point)>,
}

/// Two classifiers are equal when their windows hold the same samples in
/// the same order, whatever slot each sample sits in and whether or not
/// the ring is built.
impl PartialEq for MobilityClassifier {
    fn eq(&self, other: &Self) -> bool {
        self.window == other.window
            && self.samples().eq(other.samples())
            && self.last == other.last
            && self.zero_run == other.zero_run
    }
}

impl MobilityClassifier {
    /// Speed below which a node counts as stopped, in m/s.
    pub const DEFAULT_STOP_SPEED: f64 = 0.05;

    /// Default heading change counted as a direction change: 45°.
    pub const DEFAULT_DIRECTION_CHANGE: f64 = std::f64::consts::FRAC_PI_4;

    /// Default relative speed jump counted as a velocity change.
    pub const DEFAULT_SPEED_CHANGE_FRACTION: f64 = 0.5;

    /// Default fraction of changing steps that makes changes "frequent".
    pub const DEFAULT_FREQUENT_FRACTION: f64 = 0.35;

    /// Creates a classifier with an empty sliding window of
    /// `cfg.classifier_window` motion steps. It allocates nothing: the
    /// window's ring is built at the node's first motion.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.classifier_window < 2` or does not fit a `u32`.
    #[must_use]
    pub fn new(cfg: &AdfConfig) -> Self {
        let window = cfg.classifier_window;
        assert!(window >= 2, "classifier window must hold at least 2 steps");
        MobilityClassifier {
            ring: None,
            window: u32::try_from(window).expect("classifier window too long"),
            head: 0,
            len: 0,
            zero_run: 0,
            last: None,
        }
    }

    /// The classifier of a node that has not moved: observed last at
    /// `position` and `time_s`, with a trailing run of `zero_run` empty
    /// samples and stationary calls since its first observation. Equal to
    /// the classifier those calls built from [`MobilityClassifier::new`].
    /// Each of its samples was the empty one, and a stationary call comes
    /// only once the window is full, so the window holds
    /// `min(zero_run, window)` empty samples and the ring stays unbuilt.
    /// Which slot holds the oldest of a window of empty samples is not
    /// state (equality and every reading go by the samples' order), so the
    /// window starts at slot 0. The ADF's resting nodes are built with it
    /// at their first motion.
    pub(crate) fn at_rest(cfg: &AdfConfig, time_s: f64, position: Point, zero_run: u32) -> Self {
        let mut classifier = MobilityClassifier::new(cfg);
        classifier.len = zero_run.min(classifier.window);
        classifier.zero_run = zero_run;
        classifier.last = Some((time_s, position));
        classifier
    }

    /// The window's samples, oldest first.
    fn samples(&self) -> impl DoubleEndedIterator<Item = &WindowSample> {
        let (head, len) = (self.head as usize, self.len as usize);
        let (older, newer, unbuilt): (&[WindowSample], &[WindowSample], usize) = match &self.ring {
            Some(ring) => (&ring[head..len], &ring[..head], 0),
            // An unbuilt ring has taken only empty samples.
            None => (&[], &[], len),
        };
        older
            .iter()
            .chain(newer)
            .chain(std::iter::repeat_n(&WindowSample::EMPTY, unbuilt))
    }

    /// Appends `sample` as the newest, evicting the oldest once full. The
    /// first sample that is not [`WindowSample::EMPTY`] builds the ring:
    /// every sample before it was the empty one, so a ring of empty
    /// samples with `head` and `len` kept is the ring they would have
    /// filled.
    fn push(&mut self, sample: WindowSample) {
        if self.ring.is_none() && !sample.is_empty() {
            self.ring = Some(vec![WindowSample::EMPTY; self.window as usize].into_boxed_slice());
        }
        let len = self.len as usize;
        if self.len < self.window {
            if let Some(ring) = &mut self.ring {
                ring[len] = sample;
            }
            self.len += 1;
        } else {
            let head = self.head as usize;
            if let Some(ring) = &mut self.ring {
                ring[head] = sample;
            }
            self.head = if head + 1 == len { 0 } else { self.head + 1 };
        }
    }

    /// Feeds the node's position at `time_s`, deriving one motion step from
    /// the previous observation, and returns that step. Out-of-order or
    /// same-time observations are ignored and return `None`, as does the
    /// first observation (there is nothing to measure from).
    pub fn observe(&mut self, time_s: f64, position: Point) -> Option<MotionStep> {
        let mut step = None;
        if let Some((t0, p0)) = self.last {
            let dt = time_s - t0;
            if dt <= 0.0 {
                return None;
            }
            let delta = position - p0;
            let length = delta.norm();
            let sample = WindowSample {
                speed: length / dt,
                delta,
            };
            step = Some(MotionStep { from: p0, length });
            // Track the trailing run of exact positive zeros (`delta.norm()`
            // never produces `-0.0`): a stopped node's whole window becomes
            // zeros, which makes the mean trivially `+0.0`.
            if sample.speed.to_bits() == 0 {
                self.zero_run = self.zero_run.saturating_add(1);
            } else {
                self.zero_run = 0;
            }
            self.push(sample);
        }
        self.last = Some((time_s, position));
        step
    }

    /// Replays a repeat observation of a node pinned at the zero-motion
    /// fixpoint, bit-identically to [`MobilityClassifier::observe`] but
    /// without touching the sample window.
    ///
    /// Applies — and returns `true` — only when every step the full path
    /// would take is provably a no-op on the window:
    ///
    /// * `position` is bit-identical to the last observed position and
    ///   finite, so the derived step has speed exactly `+0.0` and
    ///   displacement `(+0.0, +0.0)` (for finite `x`, `x - x` is `+0.0`);
    /// * the window is full **and** saturated with zero-speed samples
    ///   (`zero_run >= window`), so the evicted oldest sample has the
    ///   same speed (`+0.0`) and no heading, like the one the full path
    ///   would add — every value read from the window is unchanged — and
    ///   `sample_count()` does not grow, so callers keyed
    ///   on sample growth (the ADF's global speed statistic) skip exactly
    ///   as they would on the full path.
    ///
    /// All that remains is the trailing-zero-run bump and the
    /// last-observation timestamp, which this method performs. When any
    /// precondition fails it returns `false` with no state change and the
    /// caller must use [`MobilityClassifier::observe`].
    ///
    /// The ADF's sparse path calls it for every hinted parked node; a
    /// 64-node block whose nodes all take it dozes, and the further calls
    /// the doze defers are applied in one step when the block wakes.
    pub fn observe_stationary(&mut self, time_s: f64, position: Point) -> bool {
        let Some((t0, p0)) = self.last else {
            return false;
        };
        let frozen = same_bits(p0, position) && position.x.is_finite() && position.y.is_finite();
        if !frozen || time_s - t0 <= 0.0 {
            return false;
        }
        if self.len < self.window || self.zero_run < self.window {
            return false;
        }
        self.zero_run = self.zero_run.saturating_add(1);
        self.last = Some((time_s, position));
        true
    }

    /// Applies `k` deferred [`MobilityClassifier::observe_stationary`]
    /// calls at once, the last of which observed the frozen position at
    /// `time_s`.
    ///
    /// Sound only while the node sat at the zero-motion fixpoint for all
    /// `k` calls: each would have bumped the trailing zero run and
    /// re-stamped the last observation's time, and nothing else. The
    /// position is already the last observed one. The ADF's doze
    /// ([`crate::AdaptiveDistanceFilter`]) defers exactly those calls.
    pub(crate) fn catch_up_stationary(&mut self, k: u32, time_s: f64) {
        self.zero_run = self.zero_run.saturating_add(k);
        if let Some((last_time, _)) = &mut self.last {
            *last_time = time_s;
        }
    }

    /// The last observation, `(time, position)`, bit for bit.
    #[cfg(test)]
    pub(crate) fn last_observation(&self) -> Option<(f64, Point)> {
        self.last
    }

    /// Number of motion steps currently in the window.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.len as usize
    }

    /// Mean speed over the window, in m/s (zero before any steps).
    #[must_use]
    pub fn mean_speed(&self) -> f64 {
        let len = self.sample_count();
        if len == 0 {
            return 0.0;
        }
        // Zero fixpoint: every sample in the window is `+0.0`, so the sum
        // and the mean are exactly `+0.0` — skip the window walk.
        if self.zero_run as usize >= len {
            return 0.0;
        }
        self.samples().map(|s| s.speed).sum::<f64>() / len as f64
    }

    /// The most recent heading observed while moving, if any.
    #[must_use]
    pub fn last_heading(&self) -> Option<Heading> {
        self.samples().rev().find_map(|s| s.delta.heading())
    }

    /// Fraction of window steps exhibiting a velocity or direction change,
    /// by `cfg`'s change thresholds.
    #[must_use]
    pub fn change_fraction(&self, cfg: &AdfConfig) -> f64 {
        if self.sample_count() < 2 {
            return 0.0;
        }
        let mean = self.mean_speed().max(1e-9);
        let mut changes = 0usize;
        let mut steps = 0usize;
        let mut prev: Option<(f64, Option<Heading>)> = None;
        for s in self.samples() {
            let heading = s.delta.heading();
            if let Some((p_speed, p_heading)) = prev {
                steps += 1;
                let speed_jump = (s.speed - p_speed).abs() > cfg.speed_change_fraction * mean;
                let turn = match (p_heading, heading) {
                    (Some(a), Some(b)) => a.angle_to(b) > cfg.direction_change_threshold,
                    // A transition between moving and stopped counts as a
                    // change of movement character.
                    (None, Some(_)) | (Some(_), None) => true,
                    (None, None) => false,
                };
                if speed_jump || turn {
                    changes += 1;
                }
            }
            prev = Some((s.speed, heading));
        }
        changes as f64 / steps as f64
    }

    /// Classifies the window per Figure 2, with `cfg`'s walking-velocity
    /// ceiling and change thresholds. With no motion history yet, returns
    /// [`MobilityPattern::Stop`].
    #[must_use]
    pub fn classify(&self, cfg: &AdfConfig) -> MobilityPattern {
        let v = self.mean_speed();
        if v <= Self::DEFAULT_STOP_SPEED {
            return MobilityPattern::Stop;
        }
        if v > cfg.v_walk {
            // Running or in a vehicle: destination-directed by assumption.
            return MobilityPattern::Linear;
        }
        if self.change_fraction(cfg) > cfg.frequent_fraction {
            MobilityPattern::Random
        } else {
            MobilityPattern::Linear
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The evaluation defaults with a `window`-step classifier window.
    fn cfg(window: usize) -> AdfConfig {
        AdfConfig {
            classifier_window: window,
            ..AdfConfig::default()
        }
    }

    fn feed_line(c: &mut MobilityClassifier, speed: f64, n: usize) {
        for t in 0..n {
            c.observe(t as f64, Point::new(speed * t as f64, 0.0));
        }
    }

    #[test]
    fn stationary_node_is_stop() {
        let mut c = MobilityClassifier::new(&cfg(10));
        for t in 0..10 {
            c.observe(t as f64, Point::new(3.0, 4.0));
        }
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Stop);
        assert_eq!(c.mean_speed(), 0.0);
    }

    #[test]
    fn no_history_defaults_to_stop() {
        let c = MobilityClassifier::new(&cfg(10));
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Stop);
    }

    #[test]
    fn observe_stationary_refuses_until_the_window_saturates_with_zeros() {
        let mut c = MobilityClassifier::new(&cfg(4));
        let p = Point::new(3.0, 4.0);
        assert!(!c.observe_stationary(0.0, p), "no history yet");
        c.observe(0.0, p);
        // The first observe only anchors `last`; the window fills over the
        // next four ticks, and until then the fast path must defer.
        for t in 1..5 {
            assert!(!c.observe_stationary(t as f64, p), "tick {t}: window short");
            c.observe(t as f64, p);
        }
        // Saturated all-zero window: the fast path applies.
        assert!(c.observe_stationary(5.0, p));
        // A different position, a time replay, or a moved node refuse.
        assert!(!c.observe_stationary(5.0, p), "same-time repeat must defer");
        assert!(!c.observe_stationary(6.0, Point::new(3.5, 4.0)));
        let mut moved = MobilityClassifier::new(&cfg(4));
        feed_line(&mut moved, 1.0, 6);
        assert!(!moved.observe_stationary(6.0, Point::new(5.0, 0.0)));
    }

    #[test]
    fn observe_stationary_matches_observe_bit_for_bit() {
        let mut full = MobilityClassifier::new(&cfg(5));
        let mut fast = MobilityClassifier::new(&cfg(5));
        let p = Point::new(-17.25, 9.125);
        for t in 0..40u32 {
            let time_s = f64::from(t) * 0.5;
            full.observe(time_s, p);
            if !fast.observe_stationary(time_s, p) {
                fast.observe(time_s, p);
            }
            assert_eq!(full.sample_count(), fast.sample_count(), "tick {t}");
            assert_eq!(
                full.mean_speed().to_bits(),
                fast.mean_speed().to_bits(),
                "tick {t}"
            );
            assert_eq!(
                full.classify(&AdfConfig::default()),
                fast.classify(&AdfConfig::default()),
                "tick {t}"
            );
        }
    }

    #[test]
    fn steady_walk_is_linear() {
        let mut c = MobilityClassifier::new(&cfg(10));
        feed_line(&mut c, 1.4, 12);
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Linear);
        assert!((c.mean_speed() - 1.4).abs() < 1e-9);
    }

    #[test]
    fn fast_movement_is_linear_even_if_jittery() {
        // A vehicle above v_walk is LMS regardless of direction changes.
        let mut c = MobilityClassifier::new(&cfg(10));
        let mut pos = Point::ORIGIN;
        for t in 0..12 {
            // Zig-zag at 8 m/s.
            let dir = if t % 2 == 0 { 1.0 } else { -1.0 };
            pos += mobigrid_geo::Vec2::new(8.0 * 0.7, 8.0 * 0.7 * dir);
            c.observe(t as f64, pos);
        }
        assert!(c.mean_speed() > 2.0);
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Linear);
    }

    #[test]
    fn jittery_slow_movement_is_random() {
        // Walking speed but turning sharply every step.
        let mut c = MobilityClassifier::new(&cfg(10));
        let mut pos = Point::ORIGIN;
        for t in 0..14 {
            let angle = (t as f64) * 2.5; // wild turns
            pos += mobigrid_geo::Vec2::from_polar(0.8, mobigrid_geo::Heading::from_radians(angle));
            c.observe(t as f64, pos);
        }
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Random);
    }

    #[test]
    fn walking_with_single_turn_stays_linear() {
        // Tom's case (8): a destination walk with one turn at a crossroads.
        let mut c = MobilityClassifier::new(&cfg(12));
        let mut t = 0.0;
        let mut pos = Point::ORIGIN;
        for _ in 0..6 {
            pos += mobigrid_geo::Vec2::new(1.2, 0.0);
            c.observe(t, pos);
            t += 1.0;
        }
        for _ in 0..6 {
            pos += mobigrid_geo::Vec2::new(0.0, 1.2);
            c.observe(t, pos);
            t += 1.0;
        }
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Linear);
    }

    #[test]
    fn window_slides_and_reclassifies() {
        let mut c = MobilityClassifier::new(&cfg(6));
        feed_line(&mut c, 1.0, 8);
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Linear);
        // Node stops: after the window refills with zero-speed steps the
        // pattern flips to Stop.
        let last = Point::new(7.0, 0.0);
        for t in 8..20 {
            c.observe(t as f64, last);
        }
        assert_eq!(c.classify(&AdfConfig::default()), MobilityPattern::Stop);
    }

    #[test]
    fn out_of_order_observations_ignored() {
        let mut c = MobilityClassifier::new(&cfg(10));
        c.observe(5.0, Point::ORIGIN);
        c.observe(4.0, Point::new(100.0, 0.0)); // ignored
        c.observe(5.0, Point::new(50.0, 0.0)); // same time: ignored
        assert_eq!(c.sample_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_window_panics() {
        let _ = MobilityClassifier::new(&cfg(1));
    }

    #[test]
    fn zero_fixpoint_fast_path_matches_full_summation() {
        // Fill the window with zero-speed steps, then compare the
        // short-circuited mean against a clone whose run counter is
        // artificially broken so it takes the summation path.
        let mut c = MobilityClassifier::new(&cfg(6));
        for t in 0..10 {
            c.observe(t as f64, Point::new(3.0, 4.0));
        }
        assert!(c.zero_run as usize >= c.sample_count());
        let mut slow = c.clone();
        slow.zero_run = 0;
        assert_eq!(c.mean_speed().to_bits(), slow.mean_speed().to_bits());
        assert_eq!(c.mean_speed().to_bits(), 0.0f64.to_bits());

        // A nonzero step resets the run and re-enables the full path.
        c.observe(10.0, Point::new(4.0, 4.0));
        assert_eq!(c.zero_run, 0);
        assert!(c.mean_speed() > 0.0);
    }

    /// The classifier as it was before the ring became lazy: its ring
    /// built at construction.
    fn eager(cfg: &AdfConfig) -> MobilityClassifier {
        let mut c = MobilityClassifier::new(cfg);
        c.ring = Some(vec![WindowSample::EMPTY; cfg.classifier_window].into_boxed_slice());
        c
    }

    /// A sample's bits, so `-0.0` and `NaN` compare exactly.
    fn bits(s: &WindowSample) -> [u64; 3] {
        [
            s.speed.to_bits(),
            s.delta.dx.to_bits(),
            s.delta.dy.to_bits(),
        ]
    }

    /// Everything a reader can see of a classifier, by bits.
    fn view(c: &MobilityClassifier, cfg: &AdfConfig) -> impl PartialEq + std::fmt::Debug {
        (
            c.samples().map(bits).collect::<Vec<_>>(),
            (c.head, c.len, c.zero_run),
            c.last
                .map(|(t, p)| [t.to_bits(), p.x.to_bits(), p.y.to_bits()]),
            c.mean_speed().to_bits(),
            c.last_heading().map(|h| h.radians().to_bits()),
            c.change_fraction(cfg).to_bits(),
            c.classify(cfg),
        )
    }

    /// One observation of [`lazy_and_eager_rings_agree`]'s streams: the
    /// step after `(time_s, position)`, by `op`.
    fn next_observation(op: (u8, u8, f64), time_s: f64, position: Point) -> (f64, Point) {
        let (kind, gap, v) = op;
        // Same-time, one second, a silence, half a second, out of order.
        let time_s = time_s + [0.0, 1.0, 2.5, 0.5, -1.0][usize::from(gap % 5)];
        let position = match kind {
            // Stay put: repeats at one position, long rests.
            0..=3 => position,
            // Signed zeros: from `(+0.0, -0.0)` to `(-0.0, +0.0)` is a step
            // of zero speed whose displacement is `(-0.0, +0.0)`.
            4 => Point::new(-0.0, 0.0),
            5 => Point::new(0.0, -0.0),
            // A subnormal step from any zero: over a gap above one second
            // its speed underflows to +0.0, its displacement does not.
            6 => Point::new(5e-324, 0.0),
            // Motion.
            _ => Point::new(v, v * 0.5 - 3.0),
        };
        (time_s, position)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A lazy ring and an eager one agree sample for sample and on
        /// every reading, the stationary fast path included, over streams
        /// of rests, signed zeros, subnormal steps, same-time and
        /// out-of-order observations and motion after a long rest.
        #[test]
        fn lazy_and_eager_rings_agree(
            window in 2usize..7,
            start in 0usize..3,
            rest in 0u32..40,
            ops in proptest::collection::vec((0u8..9, 0u8..5, -40.0..40.0f64), 0..60),
        ) {
            let cfg = cfg(window);
            let (mut lazy, mut eager) = (MobilityClassifier::new(&cfg), eager(&cfg));
            let starts = [Point::new(0.0, -0.0), Point::new(-0.0, 0.0), Point::new(3.0, -7.5)];
            let (mut time_s, mut position) = (0.0, starts[start]);
            let rests = (0..rest).map(|_| (0, 1, 0.0));
            for (i, op) in rests.chain(ops).enumerate() {
                (time_s, position) = next_observation(op, time_s, position);
                let fast = lazy.clone().observe_stationary(time_s, position);
                proptest::prop_assert_eq!(fast, eager.clone().observe_stationary(time_s, position));
                let (a, b) = (lazy.observe(time_s, position), eager.observe(time_s, position));
                proptest::prop_assert_eq!(a, b, "step {}", i);
                proptest::prop_assert_eq!(view(&lazy, &cfg), view(&eager, &cfg), "step {}", i);
                proptest::prop_assert!(lazy == eager, "step {}", i);
            }
        }
    }

    #[test]
    fn the_ring_reads_oldest_first_whatever_slot_it_starts_at() {
        // Speeds 1, 2, ..., 11 through a 4-step window: the window holds
        // the last four, oldest first, after the ring has wrapped twice.
        let mut c = MobilityClassifier::new(&cfg(4));
        let mut x = 0.0;
        c.observe(0.0, Point::new(x, 0.0));
        for t in 1..=11 {
            x += f64::from(t);
            c.observe(f64::from(t), Point::new(x, 0.0));
        }
        let speeds: Vec<f64> = c.samples().map(|s| s.speed).collect();
        assert_eq!(speeds, [8.0, 9.0, 10.0, 11.0]);
        assert_eq!(c.mean_speed(), 9.5);

        // The same window reached through a different number of wraps
        // compares equal: equality is by the samples' order, not slots.
        let mut d = MobilityClassifier::new(&cfg(4));
        let mut x = 0.0;
        d.observe(5.0, Point::new(x, 0.0));
        for t in 6..=11 {
            x += f64::from(t);
            d.observe(f64::from(t), Point::new(x, 0.0));
        }
        assert_ne!(c.head, d.head);
        let mut c_shifted = c.clone();
        c_shifted.last = d.last;
        assert_eq!(c_shifted, d);
    }
}
