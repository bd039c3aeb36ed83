//! Typed runtime options for the simulation and experiment layers, and
//! the consolidated simulation error type.
//!
//! [`RuntimeOptions`] is the one validated struct for what a simulation
//! reads about *how* it executes — thread budget, tick driver, fault
//! plan, default retry policy — but, by the determinism contract, never
//! *what* it computes. [`RuntimeOptions::validate`] runs at build time and
//! rejects impossible settings (`threads == 0`, fault rates outside
//! `[0, 1]`, inconsistent retry policies) before any simulation state
//! exists.

use std::error::Error;
use std::fmt;

use mobigrid_wireless::{FaultPlan, RetryPolicy, WirelessError};

/// Which per-tick execution strategy the simulation uses.
///
/// Both drivers compute **bit-identical** results — positions, statistics
/// and telemetry — at any thread count; the driver only changes how much
/// work a tick performs. [`TickDriver::Dense`] steps every node's mobility
/// model and evaluates every broker slot from scratch each tick.
/// [`TickDriver::Sparse`] keeps a deterministic wake wheel: nodes whose
/// mobility is provably quiescent (see `mobigrid_mobility::Quiescence`)
/// sleep until their next due wake, and broker slots whose estimator is
/// provably time-invariant replay their cached evaluation instead of
/// recomputing it. Quiescent-heavy populations tick much faster; fully
/// mobile populations pay only a small bookkeeping overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TickDriver {
    /// Step and evaluate every node every tick (the historical behavior).
    #[default]
    Dense,
    /// Event-driven ticking: skip provably unchanged work, waking nodes
    /// from a deterministic timer wheel.
    Sparse,
}

impl fmt::Display for TickDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TickDriver::Dense => f.write_str("dense"),
            TickDriver::Sparse => f.write_str("sparse"),
        }
    }
}

impl std::str::FromStr for TickDriver {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(TickDriver::Dense),
            "sparse" => Ok(TickDriver::Sparse),
            other => Err(format!("unknown tick driver {other:?} (dense|sparse)")),
        }
    }
}

/// A fault plan plus the dedicated seed for its hash stream (independent
/// of the workload seed, so the same mobility replays under every plan).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The fault mixture to inject.
    pub plan: FaultPlan,
    /// Seed of the channel's `SplitMix64` fate stream.
    pub seed: u64,
}

/// Execution options of one simulation, passed whole to `SimBuilder`.
///
/// `Default` matches the historical behavior exactly: one tick worker
/// thread, the dense driver, no fault injection, no default retry policy.
///
/// # Examples
///
/// ```
/// use mobigrid_adf::RuntimeOptions;
///
/// let opts = RuntimeOptions {
///     threads: 4,
///     ..RuntimeOptions::default()
/// };
/// assert!(opts.validate().is_ok());
/// assert!(RuntimeOptions { threads: 0, ..RuntimeOptions::default() }
///     .validate()
///     .is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOptions {
    /// Worker threads for the parallel tick phases (≥ 1). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Wrap the access network in a deterministic fault channel.
    pub faults: Option<FaultSpec>,
    /// Default retry policy applied to every node that does not carry its
    /// own (`MobileNode::with_retry_policy` still wins per node).
    pub retry: Option<RetryPolicy>,
    /// Per-tick execution strategy. Results are bit-identical for both
    /// drivers; see [`TickDriver`].
    pub driver: TickDriver,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            threads: 1,
            faults: None,
            retry: None,
            driver: TickDriver::Dense,
        }
    }
}

impl RuntimeOptions {
    /// Checks every option for consistency.
    ///
    /// # Errors
    ///
    /// Rejects `threads == 0`, fault rates outside `[0, 1]` (or otherwise
    /// invalid plans), and invalid retry policies.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.threads == 0 {
            return Err(SimError::Config(
                "threads must be at least 1 (got 0)".to_string(),
            ));
        }
        if let Some(spec) = &self.faults {
            spec.plan.validate()?;
        }
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        Ok(())
    }
}

/// Everything that can go wrong assembling or configuring a simulation.
///
/// One consolidated surface instead of bare `String`s: configuration
/// mistakes stay descriptive, wireless-layer failures keep their typed
/// [`WirelessError`] (reachable through [`Error::source`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A structural configuration mistake (missing policy, non-dense node
    /// ids, bad tick length, zero thread budget, …).
    Config(String),
    /// The wireless layer rejected part of the configuration (fault
    /// rates, retry backoff, outage windows, …).
    Wireless(WirelessError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(msg) => f.write_str(msg),
            SimError::Wireless(e) => write!(f, "wireless configuration rejected: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(_) => None,
            SimError::Wireless(e) => Some(e),
        }
    }
}

impl From<WirelessError> for SimError {
    fn from(e: WirelessError) -> Self {
        SimError::Wireless(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_historical_behavior() {
        let d = RuntimeOptions::default();
        assert_eq!(d.threads, 1);
        assert!(d.faults.is_none() && d.retry.is_none());
        assert_eq!(d.driver, TickDriver::Dense);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn tick_driver_parses_and_displays() {
        assert_eq!("dense".parse::<TickDriver>().unwrap(), TickDriver::Dense);
        assert_eq!("sparse".parse::<TickDriver>().unwrap(), TickDriver::Sparse);
        assert!("eager".parse::<TickDriver>().is_err());
        assert_eq!(TickDriver::Sparse.to_string(), "sparse");
    }

    #[test]
    fn zero_thread_budgets_are_rejected() {
        let opts = RuntimeOptions {
            threads: 0,
            ..RuntimeOptions::default()
        };
        let err = opts.validate().unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn invalid_fault_rates_are_rejected_with_a_typed_source() {
        let opts = RuntimeOptions {
            faults: Some(FaultSpec {
                plan: FaultPlan {
                    drop_rate: 1.5,
                    ..FaultPlan::lossless()
                },
                seed: 7,
            }),
            ..RuntimeOptions::default()
        };
        let err = opts.validate().unwrap_err();
        assert!(matches!(err, SimError::Wireless(_)));
        assert!(
            Error::source(&err).is_some(),
            "source must expose the wireless error"
        );
    }

    #[test]
    fn display_is_human_readable() {
        let e = SimError::Config("threads must be at least 1 (got 0)".into());
        assert!(e.to_string().contains("threads"));
    }
}
