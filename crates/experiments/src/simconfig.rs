//! [`SimConfig`] — the one recipe for a simulation of a named scenario.
//!
//! Construction has two layers and no third. `SimBuilder` (in the `adf`
//! crate) assembles a simulation from a caller-supplied population;
//! [`SimConfig`] names a scenario and builds its population, network and
//! filter policy through it, with every cross-field rule checked at
//! [`SimConfig::build`] and reported through one [`ConfigError`] enum
//! (with [`std::error::Error::source`] chaining into the engine's
//! `SimError`). A campaign's `ExperimentConfig` holds one `SimConfig` and
//! adds only campaign-level values.
//!
//! # Examples
//!
//! ```
//! use mobigrid_experiments::simconfig::SimConfig;
//!
//! let mut sim = SimConfig::scenario("campus_140")
//!     .seed(7)
//!     .threads(2)
//!     .build()
//!     .unwrap();
//! assert_eq!(sim.step().observed, 140);
//! ```

use std::error::Error;
use std::fmt;

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, EstimatorKind, FaultSpec, GeneralDistanceFilter,
    IdealPolicy, MobileGridSim, MobileNode, RuntimeOptions, SimBuilder, SimError,
};
use mobigrid_wireless::{AccessNetwork, FaultPlan};

use crate::campaign::PolicySpec;
use crate::scenarios;
use crate::workload;

/// Why a [`SimConfig`] could not be built. Marked `#[non_exhaustive]`:
/// future validation rules may add variants without a breaking release,
/// so match with a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The named scenario is not registered (see
    /// [`scenarios::ALL`]).
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
    },
    /// The filter policy's parameters were rejected.
    Policy {
        /// The validation message.
        reason: String,
    },
    /// Simulation assembly failed; the underlying engine error is
    /// available through [`std::error::Error::source`].
    Sim(SimError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownScenario { name } => {
                write!(f, "unknown scenario {name:?} (try one of: ")?;
                for (i, s) in scenarios::ALL.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", s.name)?;
                }
                write!(f, ")")
            }
            ConfigError::Policy { reason } => write!(f, "invalid filter policy: {reason}"),
            ConfigError::Sim(_) => write!(f, "simulation assembly failed"),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ConfigError {
    fn from(e: SimError) -> Self {
        ConfigError::Sim(e)
    }
}

/// A typed, validating recipe for one runnable simulation over a named
/// scenario: workload seed, filter policy, base ADF configuration,
/// estimator, optional access network and execution options. Fields are
/// public, with chainable shorthands for the seed, the thread budget and a
/// fault plan; nothing is checked until [`SimConfig::build`], so the
/// recipe is inert and cloneable.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The scenario name (one of [`scenarios::ALL`]).
    pub scenario: String,
    /// Workload seed: the population is a pure function of
    /// `(scenario, seed)`.
    pub seed: u64,
    /// The filter policy under test.
    pub policy: PolicySpec,
    /// Base ADF configuration. The policy's DTH factor replaces its
    /// `dth_factor`; the non-adaptive filter reads its `warmup_ticks`.
    pub adf: AdfConfig,
    /// The "with LE" broker's estimator.
    pub estimator: EstimatorKind,
    /// Attach the scenario's default access network (gateways per the
    /// Table-1 map) for traffic accounting and fault injection.
    pub with_network: bool,
    /// Execution options, validated at build time.
    pub runtime: RuntimeOptions,
}

impl SimConfig {
    /// Starts a configuration over the named scenario with the paper's
    /// defaults: seed 42, the adaptive distance filter at the default
    /// [`AdfConfig`] (1.0 av), the default [`EstimatorKind`] (Brown,
    /// α = 0.5), no network, serial dense execution, and the engine's 1 s
    /// ticks.
    #[must_use]
    pub fn scenario(name: impl Into<String>) -> Self {
        let adf = AdfConfig::default();
        SimConfig {
            scenario: name.into(),
            seed: 42,
            policy: PolicySpec::Adf(adf.dth_factor),
            adf,
            estimator: EstimatorKind::default(),
            with_network: false,
            runtime: RuntimeOptions::default(),
        }
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects deterministic channel faults, and attaches the network they
    /// act on.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.runtime.faults = Some(FaultSpec { plan, seed });
        self.with_network = true;
        self
    }

    /// Sets the tick-level worker-thread budget (`0` clamps to 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.runtime.threads = threads.max(1);
        self
    }

    /// Validates the whole recipe and assembles the scenario's simulation.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownScenario`] for an unregistered scenario name,
    /// and everything [`SimConfig::build_over`] rejects.
    pub fn build(self) -> Result<MobileGridSim, ConfigError> {
        let scenario =
            scenarios::find(&self.scenario).ok_or_else(|| ConfigError::UnknownScenario {
                name: self.scenario.clone(),
            })?;
        let network = self
            .with_network
            .then(|| workload::default_network(&scenario.campus()));
        let nodes = scenario.population(self.seed);
        self.build_over(nodes, network)
    }

    /// Assembles the recipe's policy, estimator and execution options over
    /// a caller-supplied population and access network (the scenario, seed
    /// and `with_network` are not read). This is the one place a
    /// [`PolicySpec`] becomes a filter policy.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Policy`] for rejected filter parameters, and
    /// [`ConfigError::Sim`] (source-chained) for everything the engine's
    /// own build validation rejects — invalid estimator parameters,
    /// out-of-range fault rates, zero thread budgets.
    pub fn build_over(
        self,
        nodes: Vec<MobileNode>,
        network: Option<AccessNetwork>,
    ) -> Result<MobileGridSim, ConfigError> {
        let mut builder = SimBuilder::new()
            .nodes(nodes)
            .estimator(self.estimator)
            .runtime(self.runtime);
        if let Some(network) = network {
            builder = builder.network(network);
        }
        let sim = match self.policy {
            PolicySpec::Ideal => builder.policy(IdealPolicy::new()).build()?,
            PolicySpec::GeneralDf(factor) => builder
                .policy(GeneralDistanceFilter::new(factor, self.adf.warmup_ticks))
                .build()?,
            PolicySpec::Adf(factor) => {
                let adf_cfg = AdfConfig {
                    dth_factor: factor,
                    ..self.adf
                };
                let policy = AdaptiveDistanceFilter::new(adf_cfg)
                    .map_err(|reason| ConfigError::Policy { reason })?;
                builder.policy(policy).build()?
            }
        };
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_adf::TickDriver;

    #[test]
    fn builds_the_default_scenario() {
        let mut sim = SimConfig::scenario("campus_140").seed(3).build().unwrap();
        assert_eq!(sim.step().observed, 140);
    }

    #[test]
    fn scenario_sims_step() {
        for driver in [TickDriver::Dense, TickDriver::Sparse] {
            let mut cfg = SimConfig::scenario("campus_140").seed(3);
            cfg.runtime.driver = driver;
            let mut sim = cfg.build().unwrap();
            assert_eq!(sim.step().observed, 140, "{driver:?}");
        }
    }

    #[test]
    fn unknown_scenario_is_a_typed_error() {
        let err = SimConfig::scenario("atlantis").build().unwrap_err();
        assert!(matches!(err, ConfigError::UnknownScenario { .. }));
        let msg = err.to_string();
        assert!(
            msg.contains("atlantis") && msg.contains("campus_140"),
            "{msg}"
        );
        assert!(err.source().is_none());
    }

    #[test]
    fn engine_errors_chain_through_source() {
        let mut cfg = SimConfig::scenario("campus_140");
        cfg.runtime.threads = 0;
        let err = cfg.build().unwrap_err();
        let ConfigError::Sim(_) = &err else {
            panic!("expected a Sim error, got {err}");
        };
        let source = err.source().expect("SimError must chain as source");
        assert!(source.to_string().contains("threads"), "{source}");
    }

    #[test]
    fn invalid_policy_is_rejected_at_build() {
        let err = SimConfig {
            policy: PolicySpec::Adf(f64::NAN),
            ..SimConfig::scenario("campus_140")
        }
        .build()
        .unwrap_err();
        assert!(matches!(err, ConfigError::Policy { .. }), "{err}");
    }

    #[test]
    fn faults_imply_a_network() {
        let mut sim = SimConfig::scenario("campus_140")
            .faults(FaultPlan::lossless(), 9)
            .build()
            .unwrap();
        sim.step();
        assert!(sim.network().is_some(), "faults must attach the network");
    }
}
