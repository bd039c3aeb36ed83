//! The Adaptive Distance Filter (ADF) — the paper's contribution.
//!
//! Mobile nodes in a grid must keep the grid broker informed of their
//! location, but naive once-a-second location updates (LUs) saturate the
//! wireless uplink. The ADF (Kim, Jang & Lee, ICDCS Workshops 2007) cuts
//! that traffic in three moves:
//!
//! 1. **Classify** each node's mobility pattern — Stop, Random Movement or
//!    Linear Movement — from its velocity and direction history
//!    ([`MobilityClassifier`], the paper's Figure 2 algorithm).
//! 2. **Cluster** the moving nodes by velocity with sequential clustering,
//!    and give each cluster a Distance Threshold (DTH) proportional to the
//!    *cluster's* average velocity ([`AdaptiveDistanceFilter`]). The
//!    non-adaptive baseline ([`GeneralDistanceFilter`]) uses one global
//!    DTH.
//! 3. **Filter**: suppress a node's LU while its displacement since the
//!    last *transmitted* LU is under its DTH ([`DistanceFilter`]).
//!
//! Filtering creates location error at the broker; the paper compensates
//! with a **location estimator** — Brown's double exponential smoothing over
//! speed and direction — hosted in the [`GridBroker`].
//!
//! [`MobileGridSim`] wires nodes, filter policy, access network and brokers
//! into the full evaluation pipeline that regenerates the paper's figures.
//!
//! # Examples
//!
//! Filtering a single walking node with a 2 m threshold:
//!
//! ```
//! use mobigrid_adf::{Decision, DistanceFilter};
//! use mobigrid_geo::Point;
//!
//! let mut df = DistanceFilter::new(2.0);
//! assert_eq!(df.observe(Point::new(0.0, 0.0)), Decision::Sent); // first LU
//! assert_eq!(df.observe(Point::new(1.0, 0.0)), Decision::Filtered); // moved < 2 m
//! assert_eq!(df.observe(Point::new(3.5, 0.0)), Decision::Sent); // moved 2.5 m
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod classifier;
pub mod columns;
mod config;
mod filter;
mod node;
mod pipeline;
mod policy;
mod runtime;
mod stats;
mod store;

pub use broker::{
    ApplyInfo, BrokerDelta, BrokerShard, EstimatorKind, GridBroker, LocationRecord, StateDigest,
};
pub use classifier::{MobilityClassifier, MotionStep};
pub use columns::{MovementShard, NodeColumns, NodeView};
pub use config::AdfConfig;
pub use filter::{Decision, DistanceFilter, FilterReference};
pub use node::MobileNode;
pub use pipeline::{error_bucket_spec, MobileGridSim, SimBuilder, TickStats, WakeStats};
pub use policy::{
    AdaptiveDistanceFilter, FilterPolicy, FilterProbe, GeneralDistanceFilter, IdealPolicy,
    SleepBlock, SLEEP_BLOCK,
};
pub use runtime::{FaultSpec, RuntimeOptions, SimError, TickDriver};
pub use stats::{KindTally, RegionTally};
pub use store::{BrokerStore, CensusReport, StalenessReport, StoreStats};
