//! Mobility models for mobile-grid nodes.
//!
//! Section 3.1 of the paper reduces the movements of campus users to three
//! patterns: **Stop State** (SS — sitting in a library), **Random Movement
//! State** (RMS — milling around a lab or coffee corner) and **Linear
//! Movement State** (LMS — walking or driving toward a destination). This
//! crate implements generators for each, plus the machinery to compose them
//! into daily schedules:
//!
//! * [`StopModel`] — SS: a fixed position,
//! * [`RandomWalk`] — RMS: bounded jittery movement inside a footprint,
//! * [`PathFollower`] — LMS: arc-length travel along a route, with
//!   ping-pong patrolling for road nodes,
//! * [`IndoorWalker`] — LMS indoors: straight hallway legs between random
//!   targets,
//! * [`Schedule`] — phases composed into a day (Tom's §3.1 scenario).
//!
//! All models implement [`MobilityModel`] and advance with an explicit
//! `dt`-second step and caller-supplied RNG, so whole populations evolve
//! deterministically from one master seed.
//!
//! # Examples
//!
//! ```
//! use mobigrid_mobility::{MobilityModel, PathFollower, LoopMode};
//! use mobigrid_geo::{Point, Polyline};
//! use rand::SeedableRng;
//!
//! let road = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]).unwrap();
//! let mut walker = PathFollower::new(road, 2.0, LoopMode::Once);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! for _ in 0..10 {
//!     walker.step(1.0, &mut rng);
//! }
//! assert_eq!(walker.position(), Point::new(20.0, 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod indoor;
mod linear;
mod model;
mod patrol;
mod pattern;
mod random_walk;
mod schedule;
mod stop;

pub use engine::{MobilityEngine, MobilityKind, Quiescence};
pub use indoor::IndoorWalker;
pub use linear::{LoopMode, PathFollower};
pub use model::MobilityModel;
pub use patrol::RoadPatroller;
pub use pattern::{MobilityPattern, NodeType};
pub use random_walk::RandomWalk;
pub use schedule::{Phase, Schedule};
pub use stop::StopModel;
