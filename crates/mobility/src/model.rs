use rand::RngCore;

use mobigrid_geo::Point;

use crate::MobilityPattern;

/// A mobility generator: owns a node's kinematic state and advances it in
/// discrete time steps.
///
/// Models take the RNG by `&mut dyn RngCore` so the trait stays
/// object-safe — schedules hold heterogeneous boxed phases — while the caller
/// keeps control of seeding (one deterministic stream per node).
pub trait MobilityModel {
    /// Advances the node by `dt` seconds and returns the new position.
    ///
    /// Implementations must treat `dt <= 0` as a no-op.
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> Point;

    /// The node's current position.
    fn position(&self) -> Point;

    /// The mobility pattern this model realises.
    fn pattern(&self) -> MobilityPattern;

    /// Whether the model has finished its motion (reached its destination).
    /// Perpetual models (stopping, wandering, patrolling) never finish.
    fn is_finished(&self) -> bool {
        false
    }

    /// Whether the model is *provably parked*: every future
    /// [`step`](MobilityModel::step) is guaranteed to return the current
    /// position bit-unchanged **and** consume no randomness, for as long as
    /// the model is not mutated through another path.
    ///
    /// The contract is strict by design — a model that merely happens to
    /// stand still this second, or that burns RNG draws while stationary,
    /// must return `false`: a composite model (e.g. a
    /// [`Schedule`](crate::Schedule) phase) shares the node's RNG stream
    /// with whatever runs after it, so skipping a draw would desynchronise
    /// the remainder of the day. The sparse tick driver uses this to skip
    /// provably no-op steps. The default is the safe `false`.
    fn is_stationary(&self) -> bool {
        false
    }
}

/// A boxed model is a model, so a model taken out of one of
/// [`MobilityEngine`](crate::MobilityEngine)'s boxed variants still steps,
/// and boxes again as a `Box<dyn MobilityModel>`.
impl<M: MobilityModel + ?Sized> MobilityModel for Box<M> {
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> Point {
        (**self).step(dt, rng)
    }

    fn position(&self) -> Point {
        (**self).position()
    }

    fn pattern(&self) -> MobilityPattern {
        (**self).pattern()
    }

    fn is_finished(&self) -> bool {
        (**self).is_finished()
    }

    fn is_stationary(&self) -> bool {
        (**self).is_stationary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _assert(_: &dyn MobilityModel) {}
    }
}
