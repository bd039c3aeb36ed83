//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! The evaluation runs 140 mobile nodes for 1800 seconds on the campus of
//! Figure 1, comparing the adaptive distance filter at three DTH sizes
//! (0.75 av, 1.0 av, 1.25 av) against the ideal (unfiltered) location-update
//! policy, and measuring both traffic (Figures 4–6) and location error with
//! and without the broker's estimator (Figures 7–9).
//!
//! * [`workload`] — the Table-1 population generator,
//! * [`config::ExperimentConfig`] — knobs with the paper's defaults,
//! * [`campaign`] — runs all policies once and shares the data,
//! * [`table1`], [`fig4`] … [`fig89`] — one module per table/figure, each
//!   with a `compute` function and a printable report.
//!
//! # Examples
//!
//! Regenerate a small version of Figure 4:
//!
//! ```
//! use mobigrid_experiments::{campaign, config::ExperimentConfig};
//!
//! let cfg = ExperimentConfig { duration_ticks: 60, ..ExperimentConfig::default() };
//! let data = campaign::run_campaign(&cfg);
//! let fig4 = mobigrid_experiments::fig4::compute(&data);
//! assert!(fig4.mean_lu_per_sec[0].1 > fig4.mean_lu_per_sec[3].1); // ideal > 1.25av
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod config;
pub mod experiment;

pub use campaign::PolicySpec;
pub use simconfig::{ConfigError, SimConfig};

#[cfg(test)]
pub(crate) mod test_support {
    //! One shared medium-length campaign so every figure test exercises the
    //! same steady-state data without recomputing it.

    use std::sync::OnceLock;

    use crate::campaign::{run_campaign, CampaignData};
    use crate::config::ExperimentConfig;

    /// 600 ticks: long enough for the filter, clusters and estimators to
    /// reach steady state, short enough for test time.
    pub fn shared_campaign() -> &'static CampaignData {
        static DATA: OnceLock<CampaignData> = OnceLock::new();
        DATA.get_or_init(|| {
            run_campaign(&ExperimentConfig {
                duration_ticks: 600,
                ..ExperimentConfig::default()
            })
        })
    }
}
pub mod extensions;
pub mod fault_matrix;
pub mod federated;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig89;
pub mod intervals;
pub mod report;
pub mod robustness;
pub mod scalability;
pub mod scale;
pub mod scenarios;
pub mod serve_bench;
pub mod simconfig;
pub mod table1;
pub mod trace;
pub mod workload;
