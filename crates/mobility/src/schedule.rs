use rand::RngCore;

use mobigrid_geo::Point;

use crate::{MobilityModel, MobilityPattern, Quiescence, StopModel};

/// One leg of a [`Schedule`]: a mobility model plus an optional time limit.
///
/// A phase ends when its model reports
/// [`is_finished`](MobilityModel::is_finished) (a travel leg arriving), or
/// when its `duration` elapses (a timed stay), whichever comes first.
pub struct Phase {
    model: Box<dyn MobilityModel + Send>,
    duration: Option<f64>,
    label: String,
}

impl Phase {
    /// A phase that runs until its model finishes (e.g. a
    /// [`PathFollower`](crate::PathFollower) in `Once` mode reaching its
    /// destination).
    pub fn until_arrival(
        label: impl Into<String>,
        model: impl MobilityModel + Send + 'static,
    ) -> Self {
        Phase {
            model: Box::new(model),
            duration: None,
            label: label.into(),
        }
    }

    /// A phase that runs for a fixed `duration` seconds.
    ///
    /// # Panics
    ///
    /// Panics when `duration` is not strictly positive.
    pub fn timed(
        label: impl Into<String>,
        duration: f64,
        model: impl MobilityModel + Send + 'static,
    ) -> Self {
        assert!(
            duration.is_finite() && duration > 0.0,
            "phase duration must be positive"
        );
        Phase {
            model: Box::new(model),
            duration: Some(duration),
            label: label.into(),
        }
    }

    /// The phase's human-readable label (e.g. `"study in library"`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl std::fmt::Debug for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phase")
            .field("label", &self.label)
            .field("duration", &self.duration)
            .field("pattern", &self.model.pattern())
            .finish()
    }
}

/// A day in the life of a mobile node: an ordered sequence of [`Phase`]s.
///
/// This composes the primitive models into the paper's §3.1 scenario —
/// "walk to the library, study for an hour, walk to class, …". When the last
/// phase completes the node parks at its final position.
///
/// # Examples
///
/// ```
/// use mobigrid_mobility::{LoopMode, MobilityModel, PathFollower, Phase, Schedule, StopModel};
/// use mobigrid_geo::{Point, Polyline};
/// use rand::SeedableRng;
///
/// let walk = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)]).unwrap();
/// let mut day = Schedule::new(vec![
///     Phase::until_arrival("walk to desk", PathFollower::new(walk, 2.0, LoopMode::Once)),
///     Phase::timed("study", 10.0, StopModel::new(Point::new(6.0, 0.0))),
/// ]);
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// for _ in 0..3 {
///     day.step(1.0, &mut rng); // arrives after 3 s
/// }
/// assert_eq!(day.current_phase_index(), 1);
/// ```
#[derive(Debug)]
pub struct Schedule {
    phases: Vec<Phase>,
    current: usize,
    elapsed_in_phase: f64,
    /// Park-at-the-end model once every phase completes.
    parked: Option<StopModel>,
}

impl Schedule {
    /// Creates a schedule from its phases, starting in the first.
    ///
    /// # Panics
    ///
    /// Panics on an empty phase list.
    #[must_use]
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "schedule needs at least one phase");
        Schedule {
            phases,
            current: 0,
            elapsed_in_phase: 0.0,
            parked: None,
        }
    }

    /// Index of the phase currently executing (or the last phase once the
    /// schedule has completed).
    #[must_use]
    pub fn current_phase_index(&self) -> usize {
        self.current.min(self.phases.len() - 1)
    }

    /// Label of the phase currently executing.
    #[must_use]
    pub fn current_phase_label(&self) -> &str {
        self.phases[self.current_phase_index()].label()
    }

    fn phase_done(&self) -> bool {
        let phase = &self.phases[self.current];
        if phase.model.is_finished() {
            return true;
        }
        match phase.duration {
            Some(d) => self.elapsed_in_phase >= d,
            None => false,
        }
    }

    fn advance_phase(&mut self) {
        let pos = self.phases[self.current].model.position();
        if self.current + 1 < self.phases.len() {
            self.current += 1;
            self.elapsed_in_phase = 0.0;
        } else {
            self.parked = Some(StopModel::new(pos));
        }
    }

    /// How many future `dt`-second steps are provably position- and
    /// RNG-preserving from the schedule's current state.
    ///
    /// A parked schedule is quiescent forever. A stationary untimed phase
    /// (a [`StopModel`] waiting for an arrival that can never come) is
    /// quiescent forever too. A stationary *timed* phase is quiescent up to
    /// and including the step on which its duration elapses — that step
    /// still returns the unchanged position; only the *next* step runs the
    /// successor phase — and the count is derived by replaying the exact
    /// `elapsed += dt` f64 sequence the dense driver would execute, so a
    /// wake scheduled `Until(n)` steps out lands precisely on the first
    /// step that can move the node.
    #[must_use]
    pub fn quiescence(&self, dt: f64) -> Quiescence {
        if dt <= 0.0 {
            return Quiescence::Active;
        }
        if self.parked.is_some() {
            return Quiescence::Forever;
        }
        let phase = &self.phases[self.current];
        if !phase.model.is_stationary() || phase.model.is_finished() {
            return Quiescence::Active;
        }
        match phase.duration {
            None => Quiescence::Forever,
            Some(d) => {
                // Replay the dense driver's accumulator bit-for-bit: each
                // step adds dt and then tests `elapsed >= d`. The step that
                // crosses the deadline is still a positional no-op (the
                // phase transition happens after the step's position is
                // taken), so it is included in the quiescent window.
                let mut elapsed = self.elapsed_in_phase;
                let mut steps = 0u64;
                loop {
                    elapsed += dt;
                    steps += 1;
                    if elapsed >= d {
                        return Quiescence::Until(steps);
                    }
                }
            }
        }
    }

    /// Replays `ticks` skipped steps of a quiescent window: advances the
    /// phase clock (and any due phase transitions) exactly as the dense
    /// driver would have, without stepping the stationary model.
    ///
    /// Only valid for steps covered by a [`Schedule::quiescence`] window —
    /// the caller must not replay past the reported `Until` bound.
    pub fn replay_stationary(&mut self, ticks: u64, dt: f64) {
        for _ in 0..ticks {
            if self.parked.is_some() {
                // A parked step mutates nothing.
                continue;
            }
            self.elapsed_in_phase += dt;
            if self.phase_done() {
                self.advance_phase();
            }
        }
    }
}

impl MobilityModel for Schedule {
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> Point {
        if dt <= 0.0 {
            return self.position();
        }
        if let Some(parked) = &mut self.parked {
            return parked.step(dt, rng);
        }
        // A single step may span a phase boundary; hand the full dt to the
        // active phase (phase granularity is 1 tick, like the paper's 1 s
        // sampling), then roll over if it completed.
        let pos = self.phases[self.current].model.step(dt, rng);
        self.elapsed_in_phase += dt;
        if self.phase_done() {
            self.advance_phase();
        }
        pos
    }

    fn position(&self) -> Point {
        if let Some(parked) = &self.parked {
            return parked.position();
        }
        self.phases[self.current].model.position()
    }

    fn pattern(&self) -> MobilityPattern {
        if self.parked.is_some() {
            return MobilityPattern::Stop;
        }
        self.phases[self.current].model.pattern()
    }

    fn is_finished(&self) -> bool {
        self.parked.is_some()
    }

    /// Conservative: only the parked end-state is reported stationary.
    /// Mid-schedule stationary phases are visible through the finer-grained
    /// [`Schedule::quiescence`], which also bounds *how long* they last.
    fn is_stationary(&self) -> bool {
        self.parked.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopMode, PathFollower, RandomWalk};
    use mobigrid_geo::{Polyline, Rect};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn walk_to(x: f64, speed: f64) -> PathFollower {
        let p = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(x, 0.0)]).unwrap();
        PathFollower::new(p, speed, LoopMode::Once)
    }

    #[test]
    fn runs_phases_in_order() {
        let mut s = Schedule::new(vec![
            Phase::until_arrival("walk", walk_to(4.0, 2.0)),
            Phase::timed("rest", 3.0, StopModel::new(Point::new(4.0, 0.0))),
        ]);
        let mut r = rng();
        assert_eq!(s.current_phase_label(), "walk");
        s.step(1.0, &mut r);
        assert_eq!(s.current_phase_index(), 0);
        s.step(1.0, &mut r); // arrives at 4.0
        assert_eq!(s.current_phase_index(), 1);
        assert_eq!(s.current_phase_label(), "rest");
        assert_eq!(s.pattern(), MobilityPattern::Stop);
    }

    #[test]
    fn completes_and_parks() {
        let mut s = Schedule::new(vec![Phase::timed(
            "brief stop",
            2.0,
            StopModel::new(Point::new(1.0, 1.0)),
        )]);
        let mut r = rng();
        s.step(1.0, &mut r);
        assert!(!s.is_finished());
        s.step(1.0, &mut r);
        assert!(s.is_finished());
        // Parked forever at the final position.
        for _ in 0..5 {
            assert_eq!(s.step(1.0, &mut r), Point::new(1.0, 1.0));
        }
        assert_eq!(s.pattern(), MobilityPattern::Stop);
    }

    #[test]
    fn timed_random_phase_then_walk() {
        let lab = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let mut s = Schedule::new(vec![
            Phase::timed(
                "coffee",
                5.0,
                RandomWalk::new(lab, Point::new(5.0, 5.0), 1.0),
            ),
            Phase::until_arrival("leave", walk_to(8.0, 4.0)),
        ]);
        let mut r = rng();
        for _ in 0..5 {
            assert_eq!(s.pattern(), MobilityPattern::Random);
            s.step(1.0, &mut r);
        }
        assert_eq!(s.pattern(), MobilityPattern::Linear);
    }

    #[test]
    fn pattern_reflects_current_phase() {
        let mut s = Schedule::new(vec![
            Phase::until_arrival("walk", walk_to(2.0, 2.0)),
            Phase::timed("sit", 1.0, StopModel::new(Point::new(2.0, 0.0))),
        ]);
        assert_eq!(s.pattern(), MobilityPattern::Linear);
        let mut r = rng();
        s.step(1.0, &mut r);
        assert_eq!(s.pattern(), MobilityPattern::Stop);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_panics() {
        let _ = Schedule::new(vec![]);
    }

    #[test]
    fn quiescence_tracks_phase_kind() {
        let mut s = Schedule::new(vec![
            Phase::until_arrival("walk", walk_to(4.0, 2.0)),
            Phase::timed("rest", 3.0, StopModel::new(Point::new(4.0, 0.0))),
        ]);
        let mut r = rng();
        // A moving phase promises nothing.
        assert_eq!(s.quiescence(1.0), Quiescence::Active);
        s.step(1.0, &mut r);
        // arrives; now in the timed rest
        s.step(1.0, &mut r);
        // Three stationary seconds left, and the third (deadline-crossing)
        // step is still a positional no-op.
        assert_eq!(s.quiescence(1.0), Quiescence::Until(3));
        s.step(1.0, &mut r);
        assert_eq!(s.quiescence(1.0), Quiescence::Until(2));
    }

    #[test]
    fn untimed_stationary_phase_is_quiescent_forever() {
        let s = Schedule::new(vec![Phase::until_arrival(
            "wait forever",
            StopModel::new(Point::ORIGIN),
        )]);
        assert_eq!(s.quiescence(1.0), Quiescence::Forever);
    }

    #[test]
    fn parked_schedule_is_quiescent_forever() {
        let mut s = Schedule::new(vec![Phase::timed(
            "brief stop",
            1.0,
            StopModel::new(Point::ORIGIN),
        )]);
        let mut r = rng();
        s.step(1.0, &mut r);
        assert!(s.is_finished());
        assert!(s.is_stationary());
        assert_eq!(s.quiescence(1.0), Quiescence::Forever);
        // Replaying a parked schedule mutates nothing.
        s.replay_stationary(5, 1.0);
        assert_eq!(s.position(), Point::ORIGIN);
    }

    #[test]
    fn zero_speed_random_phase_is_not_quiescent() {
        // A zero-speed RandomWalk never moves but draws a turn per step;
        // inside a schedule that shares the RNG with later phases it must
        // stay Active.
        let lab = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let s = Schedule::new(vec![
            Phase::timed("mill", 5.0, RandomWalk::new(lab, Point::new(5.0, 5.0), 0.0)),
            Phase::until_arrival("leave", walk_to(8.0, 4.0)),
        ]);
        assert_eq!(s.quiescence(1.0), Quiescence::Active);
    }

    #[test]
    fn replay_performs_due_phase_transitions() {
        let mut dense = Schedule::new(vec![
            Phase::timed("sit", 4.0, StopModel::new(Point::new(1.0, 0.0))),
            Phase::until_arrival("walk", walk_to(6.0, 2.0)),
        ]);
        let mut sparse = Schedule::new(vec![
            Phase::timed("sit", 4.0, StopModel::new(Point::new(1.0, 0.0))),
            Phase::until_arrival("walk", walk_to(6.0, 2.0)),
        ]);
        let mut r = rng();
        for _ in 0..4 {
            dense.step(1.0, &mut r);
        }
        assert_eq!(sparse.quiescence(1.0), Quiescence::Until(4));
        sparse.replay_stationary(4, 1.0);
        assert_eq!(sparse.current_phase_index(), dense.current_phase_index());
        assert_eq!(sparse.current_phase_label(), "walk");
        // Both resume identically.
        let mut ra = rng();
        let mut rb = rng();
        for _ in 0..3 {
            assert_eq!(dense.step(1.0, &mut ra), sparse.step(1.0, &mut rb));
        }
    }

    #[test]
    fn phase_labels() {
        let s = Schedule::new(vec![
            Phase::until_arrival("a", walk_to(1.0, 1.0)),
            Phase::until_arrival("b", walk_to(2.0, 1.0)),
        ]);
        assert_eq!(s.current_phase_label(), "a");
    }
}
