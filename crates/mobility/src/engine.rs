use rand::RngCore;

use mobigrid_geo::Point;

use crate::{
    IndoorWalker, MobilityModel, MobilityPattern, PathFollower, RandomWalk, RoadPatroller,
    Schedule, StopModel,
};

/// How long a mobility engine is guaranteed to hold its current position.
///
/// Computed by [`MobilityEngine::quiescence`] and consumed by the sparse
/// tick driver: a quiescent node's movement steps are provably no-ops, so
/// the driver can put it to sleep on its wake wheel instead of stepping it
/// every tick.
///
/// The guarantee is about *observable* simulation state: positions are
/// bit-unchanged for the whole window. For top-level engines the node's RNG
/// stream is private to its own movement, so a variant may be reported
/// quiescent even though the dense driver would keep drawing from the
/// stream (a zero-speed [`RandomWalk`] still draws turns); composite models
/// ([`Schedule`]) use the stricter [`MobilityModel::is_stationary`]
/// contract internally, because their phases share the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quiescence {
    /// The node may move on the next step: step it every tick.
    Active,
    /// The next `n` steps are provably position-preserving; the step after
    /// the window may move the node. Skipped steps must be replayed with
    /// [`MobilityEngine::replay_quiescent`] before the engine steps again.
    Until(u64),
    /// No future step can ever move the node.
    Forever,
}

/// Compact discriminant of a [`MobilityEngine`] variant.
///
/// Stored as a dense column by the simulation's SoA node store so tick
/// kernels can branch on one byte instead of chasing a vtable pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MobilityKind {
    /// [`StopModel`] — a fixed position (SS).
    Stop,
    /// [`RandomWalk`] — bounded jitter inside a footprint (RMS).
    RandomWalk,
    /// [`IndoorWalker`] — straight hallway legs between targets (indoor LMS).
    IndoorWalk,
    /// [`RoadPatroller`] — ping-pong patrolling along a road spine (LMS).
    RoadPatrol,
    /// [`PathFollower`] — arc-length travel along a route (LMS).
    Path,
    /// [`Schedule`] — phases composed into a day.
    Schedule,
}

/// Every in-tree mobility model as one enum, dispatched by `match` instead
/// of a `Box<dyn MobilityModel>` vtable.
///
/// The simulation stores one engine per node in a dense column; enum
/// dispatch keeps the movement kernel branch-predictable. A parked node's
/// [`StopModel`] sits inline and every larger model behind one box, so an
/// engine is 24 B and a parked node carries no padding for the largest
/// variant (a moving node pays one pointer for its 64–104-B model).
///
/// # Examples
///
/// ```
/// use mobigrid_mobility::{MobilityEngine, MobilityKind, MobilityModel, StopModel};
/// use mobigrid_geo::Point;
/// use rand::SeedableRng;
///
/// let mut engine = MobilityEngine::from(StopModel::new(Point::new(1.0, 2.0)));
/// assert_eq!(engine.kind(), MobilityKind::Stop);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert_eq!(engine.step(1.0, &mut rng), Point::new(1.0, 2.0));
/// ```
pub enum MobilityEngine {
    /// A parked node.
    Stop(StopModel),
    /// A bounded random walker.
    RandomWalk(Box<RandomWalk>),
    /// An indoor hallway walker.
    IndoorWalk(Box<IndoorWalker>),
    /// A road patroller.
    RoadPatrol(Box<RoadPatroller>),
    /// A route follower.
    Path(Box<PathFollower>),
    /// A phase schedule.
    Schedule(Box<Schedule>),
}

impl MobilityEngine {
    /// This engine's variant discriminant.
    #[must_use]
    pub fn kind(&self) -> MobilityKind {
        match self {
            MobilityEngine::Stop(_) => MobilityKind::Stop,
            MobilityEngine::RandomWalk(_) => MobilityKind::RandomWalk,
            MobilityEngine::IndoorWalk(_) => MobilityKind::IndoorWalk,
            MobilityEngine::RoadPatrol(_) => MobilityKind::RoadPatrol,
            MobilityEngine::Path(_) => MobilityKind::Path,
            MobilityEngine::Schedule(_) => MobilityKind::Schedule,
        }
    }

    /// How long this engine is guaranteed to hold its current position when
    /// stepped with `dt`-second ticks. See [`Quiescence`] for the contract.
    #[must_use]
    pub fn quiescence(&self, dt: f64) -> Quiescence {
        if dt <= 0.0 {
            return Quiescence::Active;
        }
        match self {
            MobilityEngine::Stop(_) => Quiescence::Forever,
            // A zero-speed walk never moves: the turn draw only rotates the
            // heading, and displacement is scaled by speed = 0. The node's
            // RNG stream diverges from the dense driver's, but it is
            // private to this (permanently parked) engine.
            MobilityEngine::RandomWalk(m) if m.max_speed() == 0.0 => Quiescence::Forever,
            // A zero-speed indoor walker early-returns before any draw.
            MobilityEngine::IndoorWalk(m) if m.speed() == 0.0 => Quiescence::Forever,
            MobilityEngine::Schedule(m) => m.quiescence(dt),
            _ => Quiescence::Active,
        }
    }

    /// Replays `ticks` skipped steps of a quiescent window, advancing any
    /// internal clock (phase elapsed time, due phase transitions) exactly
    /// as the dense driver would have — without moving the node or touching
    /// the RNG. A no-op for stateless-while-quiescent engines.
    pub fn replay_quiescent(&mut self, ticks: u64, dt: f64) {
        if let MobilityEngine::Schedule(m) = self {
            m.replay_stationary(ticks, dt);
        }
    }

    /// The wrapped model as a trait object (read-only).
    fn inner(&self) -> &dyn MobilityModel {
        match self {
            MobilityEngine::Stop(m) => m,
            MobilityEngine::RandomWalk(m) => &**m,
            MobilityEngine::IndoorWalk(m) => &**m,
            MobilityEngine::RoadPatrol(m) => &**m,
            MobilityEngine::Path(m) => &**m,
            MobilityEngine::Schedule(m) => &**m,
        }
    }
}

impl MobilityModel for MobilityEngine {
    #[inline]
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> Point {
        match self {
            MobilityEngine::Stop(m) => m.step(dt, rng),
            MobilityEngine::RandomWalk(m) => m.step(dt, rng),
            MobilityEngine::IndoorWalk(m) => m.step(dt, rng),
            MobilityEngine::RoadPatrol(m) => m.step(dt, rng),
            MobilityEngine::Path(m) => m.step(dt, rng),
            MobilityEngine::Schedule(m) => m.step(dt, rng),
        }
    }

    fn position(&self) -> Point {
        self.inner().position()
    }

    fn pattern(&self) -> MobilityPattern {
        self.inner().pattern()
    }

    fn is_finished(&self) -> bool {
        self.inner().is_finished()
    }

    fn is_stationary(&self) -> bool {
        self.inner().is_stationary()
    }
}

impl std::fmt::Debug for MobilityEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobilityEngine")
            .field("kind", &self.kind())
            .field("pattern", &self.pattern())
            .field("position", &self.position())
            .finish()
    }
}

impl From<StopModel> for MobilityEngine {
    fn from(m: StopModel) -> Self {
        MobilityEngine::Stop(m)
    }
}
impl From<RandomWalk> for MobilityEngine {
    fn from(m: RandomWalk) -> Self {
        MobilityEngine::RandomWalk(Box::new(m))
    }
}
impl From<IndoorWalker> for MobilityEngine {
    fn from(m: IndoorWalker) -> Self {
        MobilityEngine::IndoorWalk(Box::new(m))
    }
}
impl From<RoadPatroller> for MobilityEngine {
    fn from(m: RoadPatroller) -> Self {
        MobilityEngine::RoadPatrol(Box::new(m))
    }
}
impl From<PathFollower> for MobilityEngine {
    fn from(m: PathFollower) -> Self {
        MobilityEngine::Path(Box::new(m))
    }
}
impl From<Schedule> for MobilityEngine {
    fn from(m: Schedule) -> Self {
        MobilityEngine::Schedule(Box::new(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_geo::Rect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bounds() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)).unwrap()
    }

    #[test]
    fn kind_tracks_variant() {
        let e = MobilityEngine::from(StopModel::new(Point::new(0.0, 0.0)));
        assert_eq!(e.kind(), MobilityKind::Stop);
        let e = MobilityEngine::from(RandomWalk::new(bounds(), Point::new(5.0, 5.0), 1.0));
        assert_eq!(e.kind(), MobilityKind::RandomWalk);
    }

    /// Enum dispatch is a pure reorganisation: stepping an engine with a
    /// given RNG stream yields bit-identical positions to stepping the bare
    /// model with an identically seeded RNG.
    #[test]
    fn enum_dispatch_matches_direct_dispatch() {
        let start = Point::new(10.0, 10.0);
        let mut direct = RandomWalk::new(bounds(), start, 1.5);
        let mut engine = MobilityEngine::from(RandomWalk::new(bounds(), start, 1.5));
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            assert_eq!(direct.step(1.0, &mut rng_a), engine.step(1.0, &mut rng_b));
        }
        assert_eq!(direct.position(), engine.position());
        assert_eq!(direct.pattern(), engine.pattern());
    }

    #[test]
    fn debug_is_informative() {
        let e = MobilityEngine::from(StopModel::new(Point::new(1.0, 2.0)));
        let s = format!("{e:?}");
        assert!(s.contains("Stop"), "{s}");
    }

    #[test]
    fn quiescence_by_variant() {
        let stop = MobilityEngine::from(StopModel::new(Point::ORIGIN));
        assert_eq!(stop.quiescence(1.0), Quiescence::Forever);
        // Non-positive dt never promises anything.
        assert_eq!(stop.quiescence(0.0), Quiescence::Active);

        let frozen = MobilityEngine::from(RandomWalk::new(bounds(), Point::new(5.0, 5.0), 0.0));
        assert_eq!(frozen.quiescence(1.0), Quiescence::Forever);
        let jitter = MobilityEngine::from(RandomWalk::new(bounds(), Point::new(5.0, 5.0), 1.0));
        assert_eq!(jitter.quiescence(1.0), Quiescence::Active);

        let parked = MobilityEngine::from(IndoorWalker::new(bounds(), Point::new(5.0, 5.0), 0.0));
        assert_eq!(parked.quiescence(1.0), Quiescence::Forever);
        let walker = MobilityEngine::from(IndoorWalker::new(bounds(), Point::new(5.0, 5.0), 1.0));
        assert_eq!(walker.quiescence(1.0), Quiescence::Active);
    }

    /// Sleeping through a quiescent window and replaying it must leave the
    /// engine in a state whose *future positions* match dense stepping.
    #[test]
    fn schedule_replay_matches_dense_stepping() {
        use crate::{LoopMode, PathFollower, Phase, Schedule};
        use mobigrid_geo::Polyline;

        let make = || {
            let road =
                Polyline::new(vec![Point::new(6.0, 0.0), Point::new(0.0, 0.0)]).expect("valid");
            MobilityEngine::from(Schedule::new(vec![
                Phase::timed("sit", 10.0, StopModel::new(Point::new(6.0, 0.0))),
                Phase::until_arrival("leave", PathFollower::new(road, 2.0, LoopMode::Once)),
            ]))
        };

        // Dense: step every tick.
        let mut dense = make();
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut dense_trace = Vec::new();
        for _ in 0..16 {
            dense_trace.push(dense.step(1.0, &mut rng_a));
        }

        // Sparse: consume the announced window via replay, then resume.
        let mut sparse = make();
        let mut rng_b = StdRng::seed_from_u64(3);
        let Quiescence::Until(n) = sparse.quiescence(1.0) else {
            panic!("timed stationary phase must be Until");
        };
        assert_eq!(n, 10);
        let frozen = sparse.position();
        sparse.replay_quiescent(n, 1.0);
        let mut sparse_trace = vec![frozen; n as usize];
        for _ in n..16 {
            sparse_trace.push(sparse.step(1.0, &mut rng_b));
        }
        assert_eq!(dense_trace, sparse_trace);
    }
}
