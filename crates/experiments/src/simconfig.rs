//! [`SimConfig`] — the one front door for constructing simulations.
//!
//! Historically three overlapping knob surfaces grew side by side:
//! `SimBuilder` (engine-level: nodes, policy, estimator, network),
//! `ExperimentConfig` (campaign-level: seed, duration, DTH factors) and
//! `RuntimeOptions` (execution: threads, driver, faults). External
//! consumers — the broker service, the loadgen, library users — need a
//! single typed builder that names a scenario and gets a runnable sim,
//! with every cross-field rule checked in one place at [`SimConfig::build`]
//! and violations reported through one [`ConfigError`] enum (with
//! [`std::error::Error::source`] chaining into the engine's `SimError`).
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
    AdaptiveDistanceFilter, AdfConfig, EstimatorKind, GeneralDistanceFilter, IdealPolicy,
    MobileGridSim, RuntimeOptions, SimBuilder, SimError, TickDriver,
};
use mobigrid_wireless::FaultPlan;

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

/// A typed, validating recipe for one runnable simulation: scenario,
/// workload seed, filter policy, estimator, optional access network and
/// fault plan, plus execution options. Everything is checked at
/// [`SimConfig::build`]; until then the builder is inert and cloneable.
#[derive(Debug, Clone)]
pub struct SimConfig {
    scenario: String,
    seed: u64,
    policy: PolicySpec,
    adf: AdfConfig,
    estimator: EstimatorKind,
    with_network: bool,
    runtime: RuntimeOptions,
    dt: f64,
}

impl SimConfig {
    /// Starts a configuration over the named scenario with the paper's
    /// defaults: seed 42, the adaptive distance filter at 1.0 av, Brown
    /// α = 0.5 estimation, no network, serial dense execution, 1 s ticks.
    #[must_use]
    pub fn scenario(name: impl Into<String>) -> Self {
        SimConfig {
            scenario: name.into(),
            seed: 42,
            policy: PolicySpec::Adf(1.0),
            adf: AdfConfig::new(1.0),
            estimator: EstimatorKind::Brown { alpha: 0.5 },
            with_network: false,
            runtime: RuntimeOptions::default(),
            dt: 1.0,
        }
    }

    /// Sets the workload seed (the population is a pure function of
    /// `(scenario, seed)`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the filter policy under test.
    #[must_use]
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the base ADF configuration (the policy's DTH factor still
    /// comes from [`SimConfig::policy`]).
    #[must_use]
    pub fn adf(mut self, adf: AdfConfig) -> Self {
        self.adf = adf;
        self
    }

    /// Sets the "with LE" broker's estimator.
    #[must_use]
    pub fn estimator(mut self, kind: EstimatorKind) -> Self {
        self.estimator = kind;
        self
    }

    /// Attaches the scenario's default access network (gateways per the
    /// Table-1 map) for traffic accounting and fault injection.
    #[must_use]
    pub fn with_network(mut self, with_network: bool) -> Self {
        self.with_network = with_network;
        self
    }

    /// Injects deterministic channel faults (implies
    /// [`SimConfig::with_network`]; a fault plan needs a channel to act
    /// on).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.runtime.faults = Some(mobigrid_adf::FaultSpec { plan, seed });
        self.with_network = true;
        self
    }

    /// Sets the tick-level worker-thread budget.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.runtime.threads = threads.max(1);
        self
    }

    /// Selects the tick driver (dense or sparse; bit-identical results).
    #[must_use]
    pub fn driver(mut self, driver: TickDriver) -> Self {
        self.runtime.driver = driver;
        self
    }

    /// Replaces the whole execution-option set; unlike the convenience
    /// setters the options pass through validation unclamped.
    #[must_use]
    pub fn runtime(mut self, runtime: RuntimeOptions) -> Self {
        self.runtime = runtime;
        self
    }

    /// Overrides the tick length in seconds.
    #[must_use]
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Validates the whole recipe and assembles the simulation.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownScenario`] for an unregistered scenario name,
    /// [`ConfigError::Policy`] for rejected filter parameters, and
    /// [`ConfigError::Sim`] (source-chained) for everything the engine's
    /// own build validation rejects — invalid estimator parameters,
    /// out-of-range fault rates, zero thread budgets, non-positive `dt`.
    pub fn build(self) -> Result<MobileGridSim, ConfigError> {
        let scenario =
            scenarios::find(&self.scenario).ok_or_else(|| ConfigError::UnknownScenario {
                name: self.scenario.clone(),
            })?;
        let campus = scenario.campus();
        let mut builder = SimBuilder::new()
            .nodes(scenario.population(self.seed))
            .estimator(self.estimator)
            .runtime(self.runtime)
            .dt(self.dt);
        if self.with_network {
            builder = builder.network(workload::default_network(&campus));
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

    #[test]
    fn builds_the_default_scenario() {
        let mut sim = SimConfig::scenario("campus_140").seed(3).build().unwrap();
        assert_eq!(sim.step().observed, 140);
    }

    #[test]
    fn scenario_sims_step() {
        for driver in [TickDriver::Dense, TickDriver::Sparse] {
            let mut sim = SimConfig::scenario("campus_140")
                .seed(3)
                .threads(1)
                .driver(driver)
                .build()
                .unwrap();
            assert_eq!(sim.step().observed, 140, "{driver:?}");
        }
    }

    #[test]
    fn unknown_scenario_is_a_typed_error() {
        let err = SimConfig::scenario("atlantis").build().unwrap_err();
        assert!(matches!(err, ConfigError::UnknownScenario { .. }));
        let msg = err.to_string();
        assert!(msg.contains("atlantis") && msg.contains("campus_140"), "{msg}");
        assert!(err.source().is_none());
    }

    #[test]
    fn engine_errors_chain_through_source() {
        let err = SimConfig::scenario("campus_140")
            .dt(0.0)
            .build()
            .unwrap_err();
        let ConfigError::Sim(_) = &err else {
            panic!("expected a Sim error, got {err}");
        };
        let source = err.source().expect("SimError must chain as source");
        assert!(source.to_string().contains("dt"), "{source}");
    }

    #[test]
    fn invalid_policy_is_rejected_at_build() {
        let err = SimConfig::scenario("campus_140")
            .policy(PolicySpec::Adf(f64::NAN))
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
