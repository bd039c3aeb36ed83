//! Runs the full evaluation campaign once and shares the raw data with
//! every figure module.

use mobigrid_adf::{RegionTally, TickStats};
use mobigrid_sim::par::ShardPool;
use mobigrid_telemetry::{NoopRecorder, Recorder};

use crate::config::ExperimentConfig;

/// Which filter policy a run evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// The unfiltered baseline ("ideal LU").
    Ideal,
    /// The non-adaptive distance filter at the given DTH factor.
    GeneralDf(f64),
    /// The adaptive distance filter at the given DTH factor.
    Adf(f64),
}

impl PolicySpec {
    /// A short label for reports (e.g. `"adf-1.00av"`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Ideal => "ideal".to_string(),
            PolicySpec::GeneralDf(f) => format!("df-{f:.2}av"),
            PolicySpec::Adf(f) => format!("adf-{f:.2}av"),
        }
    }
}

/// The raw outcome of one policy run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The policy's report label.
    pub label: String,
    /// Per-tick statistics, one entry per simulated second.
    pub ticks: Vec<TickStats>,
    /// Whole-run tallies per region kind.
    pub cumulative: RegionTally,
    /// Messages carried by the access network (0 when detached).
    pub network_messages: u64,
    /// Bytes carried by the access network (0 when detached).
    pub network_bytes: u64,
}

impl RunResult {
    /// Mean transmitted LUs per second over the run.
    #[must_use]
    pub fn mean_lu_per_sec(&self) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        self.ticks.iter().map(|t| f64::from(t.sent)).sum::<f64>() / self.ticks.len() as f64
    }

    /// Total LUs transmitted over the run.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.ticks.iter().map(|t| u64::from(t.sent)).sum()
    }

    /// Mean RMSE over the run, with and without the location estimator.
    #[must_use]
    pub fn mean_rmse(&self) -> (f64, f64) {
        if self.ticks.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.ticks.len() as f64;
        let with = self.ticks.iter().map(|t| t.rmse_with_le).sum::<f64>() / n;
        let without = self.ticks.iter().map(|t| t.rmse_without_le).sum::<f64>() / n;
        (with, without)
    }
}

/// Runs a single policy over the full workload.
#[must_use]
pub fn run_policy(cfg: &ExperimentConfig, spec: PolicySpec) -> RunResult {
    run_policy_recorded(cfg, spec, &mut NoopRecorder)
}

/// Runs a single policy over the full workload, streaming telemetry into
/// `rec` (see [`mobigrid_adf::MobileGridSim::step_recorded`]). The sim is
/// built from `cfg.sim(spec)`.
///
/// # Panics
///
/// Panics if the recipe does not build (invalid parameters).
#[must_use]
pub fn run_policy_recorded(
    cfg: &ExperimentConfig,
    spec: PolicySpec,
    rec: &mut dyn Recorder,
) -> RunResult {
    let mut sim = cfg.sim(spec).build().expect("validated configuration");
    let ticks = sim.run_recorded(cfg.duration_ticks, rec);
    let (network_messages, network_bytes) = sim
        .network()
        .map_or((0, 0), |n| (n.meter().messages(), n.meter().bytes()));
    RunResult {
        label: spec.label(),
        ticks,
        cumulative: sim.cumulative_tally(),
        network_messages,
        network_bytes,
    }
}

/// All the data the figures need: one ideal run plus one ADF run per DTH
/// factor.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignData {
    /// The configuration that produced this data.
    pub config: ExperimentConfig,
    /// The unfiltered baseline run.
    pub ideal: RunResult,
    /// One ADF run per configured DTH factor, in `dth_factors` order.
    pub adf: Vec<(f64, RunResult)>,
}

/// Runs the ideal baseline and every configured ADF factor, serially.
#[must_use]
pub fn run_campaign(cfg: &ExperimentConfig) -> CampaignData {
    let ideal = run_policy(cfg, PolicySpec::Ideal);
    let adf = cfg
        .dth_factors
        .iter()
        .map(|&f| (f, run_policy(cfg, PolicySpec::Adf(f))))
        .collect();
    CampaignData {
        config: cfg.clone(),
        ideal,
        adf,
    }
}

/// Runs the campaign with its runs (the ideal baseline plus one per DTH
/// factor) fanned out across `cfg.campaign_threads` workers.
///
/// Each run is an independent simulation built from the same seed, and the
/// [`ShardPool`] hands results back in submission order, so the returned
/// [`CampaignData`] is **bit-identical** to [`run_campaign`]'s for every
/// thread count — `campaign_threads: 1` literally executes the same serial
/// sequence inline. This is the campaign-level analogue of the tick-level
/// `runtime.threads`: ticks within one run parallelize with that,
/// whole runs with `campaign_threads`, and the two compose.
#[must_use]
pub fn run_campaign_parallel(cfg: &ExperimentConfig) -> CampaignData {
    run_campaign_recorded(cfg, &mut NoopRecorder)
}

/// Runs the campaign like [`run_campaign_parallel`], streaming telemetry
/// into `rec`.
///
/// Each parallel run records into a private child recorder obtained with
/// [`Recorder::fork`]; after the pool returns, the children are absorbed
/// back into `rec` **in submission order** — the same fixed-order
/// reduction the tick pipeline uses for its shard partials — so the
/// merged telemetry is bit-identical for every `campaign_threads` value.
///
/// # Panics
///
/// Panics if `cfg.campaign_threads` is 0 or a run does not build.
#[must_use]
pub fn run_campaign_recorded(cfg: &ExperimentConfig, rec: &mut dyn Recorder) -> CampaignData {
    assert!(
        cfg.campaign_threads >= 1,
        "campaign_threads must be at least 1"
    );
    let mut specs = Vec::with_capacity(cfg.dth_factors.len() + 1);
    specs.push(PolicySpec::Ideal);
    specs.extend(cfg.dth_factors.iter().map(|&f| PolicySpec::Adf(f)));
    let parent: &dyn Recorder = rec;
    let results = ShardPool::new(cfg.campaign_threads).run(specs, |_, spec| {
        let mut child = parent.fork();
        let run = run_policy_recorded(cfg, spec, child.as_mut());
        (run, child)
    });
    let mut runs = Vec::with_capacity(results.len());
    for (run, child) in results {
        rec.absorb(child);
        runs.push(run);
    }
    let mut runs = runs.into_iter();
    let ideal = runs.next().expect("the ideal run always executes");
    let adf = cfg.dth_factors.iter().copied().zip(runs).collect();
    CampaignData {
        config: cfg.clone(),
        ideal,
        adf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            duration_ticks: 90,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn ideal_run_sends_everything() {
        let r = run_policy(&quick(), PolicySpec::Ideal);
        assert_eq!(r.total_sent(), 90 * 140);
        assert_eq!(r.network_messages, 90 * 140);
        assert!((r.mean_lu_per_sec() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn adf_reduces_traffic_monotonically_in_factor() {
        let data = crate::test_support::shared_campaign();
        let ideal = data.ideal.total_sent();
        let mut last = ideal;
        for (f, run) in &data.adf {
            let sent = run.total_sent();
            assert!(sent < ideal, "factor {f} did not reduce traffic");
            assert!(
                sent <= last,
                "traffic not monotone: factor {f} sent {sent} > previous {last}"
            );
            last = sent;
        }
    }

    #[test]
    fn general_df_also_reduces_but_policy_labels_differ() {
        let cfg = quick();
        let df = run_policy(&cfg, PolicySpec::GeneralDf(1.0));
        assert!(df.total_sent() < 90 * 140);
        assert_eq!(df.label, "df-1.00av");
        assert_eq!(PolicySpec::Adf(0.75).label(), "adf-0.75av");
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = quick();
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.ideal.total_sent(), b.ideal.total_sent());
        for ((_, x), (_, y)) in a.adf.iter().zip(&b.adf) {
            assert_eq!(x.total_sent(), y.total_sent());
            assert_eq!(x.mean_rmse(), y.mean_rmse());
        }
    }

    #[test]
    fn parallel_campaign_is_bit_identical_to_serial() {
        let serial = run_campaign(&quick());
        for campaign_threads in [1, 2, 4] {
            let cfg = ExperimentConfig {
                campaign_threads,
                ..quick()
            };
            let parallel = run_campaign_parallel(&cfg);
            assert_eq!(parallel.ideal, serial.ideal);
            assert_eq!(parallel.adf, serial.adf);
        }
    }

    #[test]
    #[should_panic(expected = "campaign_threads must be at least 1")]
    fn zero_campaign_threads_are_rejected() {
        let cfg = ExperimentConfig {
            campaign_threads: 0,
            ..quick()
        };
        let _ = run_campaign_parallel(&cfg);
    }

    #[test]
    fn recorded_campaign_telemetry_is_campaign_thread_invariant() {
        use mobigrid_telemetry::MemoryRecorder;
        let mut exports = Vec::new();
        for campaign_threads in [1, 2, 4] {
            let cfg = ExperimentConfig {
                duration_ticks: 60,
                campaign_threads,
                ..ExperimentConfig::default()
            };
            let mut rec = MemoryRecorder::new();
            let data = run_campaign_recorded(&cfg, &mut rec);
            let expected: u64 =
                data.ideal.total_sent() + data.adf.iter().map(|(_, r)| r.total_sent()).sum::<u64>();
            assert_eq!(rec.counter("sim.sent"), expected);
            exports.push(rec.to_jsonl());
        }
        assert_eq!(exports[0], exports[1]);
        assert_eq!(exports[0], exports[2]);
    }

    #[test]
    fn le_reduces_error_for_adf_runs() {
        let data = crate::test_support::shared_campaign();
        for (factor, run) in &data.adf {
            let (with, without) = run.mean_rmse();
            assert!(
                with < without,
                "estimator did not help at {factor}: with={with} without={without}"
            );
        }
    }
}
