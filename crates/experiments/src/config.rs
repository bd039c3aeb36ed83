//! Experiment configuration with the paper's defaults.

use mobigrid_adf::{AdfConfig, EstimatorKind, RuntimeOptions};

use crate::campaign::PolicySpec;
use crate::simconfig::SimConfig;

/// The scenario every campaign run simulates: the paper's 140-node campus.
const CAMPUS: &str = "campus_140";

/// Knobs for one evaluation campaign. Defaults reproduce §4: the 140-node
/// campus for 1800 ticks, DTH factors {0.75, 1.0, 1.25}, Brown location
/// estimation.
///
/// Every run is built from [`ExperimentConfig::sim`], which fills the
/// campus recipe with this struct's shared values and the run's policy.
/// Thread budgets change how a campaign executes but — by the determinism
/// contract — never what it computes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Number of ticks per run (the paper: 1800).
    pub duration_ticks: u64,
    /// DTH factors to evaluate (the paper: 0.75, 1.0, 1.25 × av).
    pub dth_factors: Vec<f64>,
    /// Base ADF configuration; each run's policy replaces `dth_factor`.
    pub adf: AdfConfig,
    /// The "with LE" broker's estimator.
    pub estimator: EstimatorKind,
    /// Attach the wireless access network for traffic accounting.
    pub with_network: bool,
    /// Execution options of each run (`threads` parallelizes its ticks).
    pub runtime: RuntimeOptions,
    /// Worker threads running whole runs (the ideal baseline plus one run
    /// per DTH factor) concurrently; must be at least 1. Composes with
    /// `runtime.threads`; results are bit-identical for every combination.
    pub campaign_threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let recipe = SimConfig::scenario(CAMPUS);
        ExperimentConfig {
            seed: recipe.seed,
            duration_ticks: 1800,
            dth_factors: vec![0.75, 1.0, 1.25],
            adf: recipe.adf,
            estimator: recipe.estimator,
            with_network: true,
            runtime: recipe.runtime,
            campaign_threads: 1,
        }
    }
}

impl ExperimentConfig {
    /// The recipe of one campus run under `policy`.
    #[must_use]
    pub fn sim(&self, policy: PolicySpec) -> SimConfig {
        SimConfig {
            scenario: CAMPUS.into(),
            seed: self.seed,
            policy,
            adf: self.adf,
            estimator: self.estimator,
            with_network: self.with_network,
            runtime: self.runtime.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ExperimentConfig::default();
        assert_eq!(c.duration_ticks, 1800);
        assert_eq!(c.dth_factors, vec![0.75, 1.0, 1.25]);
        assert_eq!(c.runtime, RuntimeOptions::default());
        assert_eq!(c.sim(PolicySpec::Ideal).scenario, CAMPUS);
    }
}
