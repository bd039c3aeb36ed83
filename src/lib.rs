//! # mobigrid — adaptive distance filter-based traffic reduction for mobile grids
//!
//! A from-scratch Rust reproduction of *Adaptive Distance Filter-based
//! Traffic Reduction for Mobile Grid* (Kim, Jang & Lee, ICDCS Workshops
//! 2007): the ADF algorithm itself plus every substrate its evaluation
//! depends on — campus model, mobility generators, wireless access layer, a
//! miniature HLA run-time infrastructure, statistical estimators and the
//! experiment harness regenerating each of the paper's tables and figures.
//!
//! This umbrella crate re-exports the workspace crates under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geo`] | `mobigrid-geo` | 2-D geometry: points, headings, polylines, regions |
//! | [`sim`] | `mobigrid-sim` | Seed streams, sharded executor, wake wheel, statistics |
//! | [`hla`] | `mobigrid-hla` | Mini HLA 1.3 RTI: pub/sub, object, time management |
//! | [`campus`] | `mobigrid-campus` | The Figure-1 experiment site and routing |
//! | [`mobility`] | `mobigrid-mobility` | SS/RMS/LMS mobility models, schedules, traces |
//! | [`wireless`] | `mobigrid-wireless` | Gateways, coverage, LU frames, traffic meters |
//! | [`forecast`] | `mobigrid-forecast` | Brown DES and comparators, position estimators |
//! | [`cluster`] | `mobigrid-cluster` | Sequential clustering (BSAS) |
//! | [`adf`] | `mobigrid-adf` | **The paper's contribution**: classifier, filters, broker, pipeline |
//! | [`experiments`] | `mobigrid-experiments` | Table-1 workload and figure regeneration |
//! | [`serve`] | `mobigrid-broker-serve` | The broker as a live service: ingest, query RPC, loadgen |
//!
//! # Quickstart
//!
//! Build the paper's campus through the unified [`prelude::SimConfig`]
//! front door and run it for one simulated minute:
//!
//! ```
//! use mobigrid::prelude::*;
//!
//! let mut sim = SimConfig::scenario("campus_140").seed(42).build().unwrap();
//! let stats = sim.run(60); // one simulated minute
//! let sent: u32 = stats.iter().map(|t| t.sent).sum();
//! let observed: u32 = stats.iter().map(|t| t.observed).sum();
//! assert!(sent < observed); // the filter reduced traffic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mobigrid_adf as adf;
pub use mobigrid_broker_serve as serve;
pub use mobigrid_campus as campus;
pub use mobigrid_cluster as cluster;
pub use mobigrid_experiments as experiments;
pub use mobigrid_forecast as forecast;
pub use mobigrid_geo as geo;
pub use mobigrid_hla as hla;
pub use mobigrid_mobility as mobility;
pub use mobigrid_sim as sim;
pub use mobigrid_wireless as wireless;

pub mod prelude {
    //! The one-stop import for driving the simulator and the broker
    //! service programmatically.
    //!
    //! Everything a typical embedding needs: the [`SimConfig`] builder
    //! (the single typed front door replacing the old
    //! `SimBuilder`/`ExperimentConfig`/`RuntimeOptions` spelling), the
    //! simulation and broker types it produces, the sharded
    //! [`BrokerStore`], and the serve-side [`Server`]/[`InProcClient`]
    //! pair for in-process hosting.

    pub use mobigrid_adf::{
        AdaptiveDistanceFilter, AdfConfig, BrokerStore, CensusReport, EstimatorKind, FilterPolicy,
        GridBroker, LocationRecord, MobileGridSim, RuntimeOptions, SimError, StalenessReport,
        StateDigest, StoreStats, TickDriver, TickStats,
    };
    pub use mobigrid_broker_serve::{InProcClient, ServeConfig, Server};
    pub use mobigrid_experiments::{ConfigError, PolicySpec, SimConfig};
    pub use mobigrid_geo::{Point, Rect};
    pub use mobigrid_wireless::{
        decode_batch, encode_batch, FaultPlan, IngestRecord, LocationUpdate, MnId,
    };
}
