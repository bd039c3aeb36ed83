//! Deterministic execution substrate for the mobigrid tick loop.
//!
//! The simulator advances on a fixed 1 s tick over columnar node state;
//! this crate holds the pieces that keep that loop reproducible at any
//! thread count:
//!
//! * [`SeedStream`] — reproducible per-entity random seeds, and
//!   [`SplitMix64`] — the canonical single-word generator those seeds drive,
//! * [`par::ShardPool`] — deterministic sharded parallel execution with
//!   shard-ordered reduction (results are bit-identical across thread
//!   counts),
//! * [`WakeWheel`] — a deterministic timer wheel for sparse event-driven
//!   ticking (due sets drain in ascending node-id order),
//! * [`stats`] — streaming statistics ([`stats::Welford`] mean/variance,
//!   [`stats::Rmse`] accumulators and a fixed-bin [`stats::Histogram`])
//!   shared by the experiment harness.
//!
//! # Examples
//!
//! ```
//! use mobigrid_sim::{SeedStream, WakeWheel};
//!
//! // Per-node seeds are a pure function of the master seed and the id.
//! let seeds = SeedStream::new(7);
//! assert_eq!(seeds.seed_for(3), SeedStream::new(7).seed_for(3));
//!
//! // Wakes due on the same tick drain in ascending node-id order.
//! let mut wheel = WakeWheel::new(4);
//! wheel.schedule(2, 5);
//! wheel.schedule(0, 5);
//! assert_eq!(wheel.advance(5), &[0, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;
mod rng;
pub mod stats;
mod wheel;

pub use rng::{SeedStream, SplitMix64};
pub use wheel::WakeWheel;
