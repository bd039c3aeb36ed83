//! The fault-matrix experiment: how the ADF's traffic/accuracy trade-off
//! holds up on a lossy channel.
//!
//! The paper's evaluation assumes a perfect access network; this extension
//! sweeps a *loss-rate × DTH-factor* grid. Each cell runs the standard
//! 140-node campus workload through a deterministic [`FaultPlan`] scaled by
//! the cell's loss rate (drops dominate, with proportional corruption,
//! delay and duplication), with every node retrying dropped updates under a
//! bounded exponential-backoff [`RetryPolicy`]. The report shows, per cell,
//! the airtime actually consumed (including retransmissions), how many
//! updates were lost or arrived late, and the broker's location error with
//! and without the estimator.
//!
//! Fault fates are pure hashes of `(fault seed, node, seq, attempt)`, so
//! the whole matrix is bit-identical for every `--threads` /
//! `--campaign-threads` setting.

use std::fmt;

use mobigrid_adf::{FaultSpec, RuntimeOptions};
use mobigrid_sim::par::ShardPool;
use mobigrid_telemetry::{NoopRecorder, Recorder};
use mobigrid_wireless::{FaultPlan, RetryPolicy};

use crate::campaign::PolicySpec;
use crate::config::ExperimentConfig;
use crate::report::{csv, text_table};
use crate::simconfig::SimConfig;

/// Knobs for the fault matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMatrixConfig {
    /// The shared campaign configuration (seed, duration, DTH factors,
    /// threads). The access network is always attached here.
    pub base: ExperimentConfig,
    /// Loss rates to sweep (each becomes one [`FaultPlan`] via
    /// [`FaultMatrixConfig::plan_for`]).
    pub loss_rates: Vec<f64>,
    /// Seed for the fault channel's hash stream, independent of the
    /// workload seed so the same mobility replays under every plan.
    pub fault_seed: u64,
    /// Retry policy attached to every node.
    pub retry: RetryPolicy,
}

impl Default for FaultMatrixConfig {
    fn default() -> Self {
        FaultMatrixConfig {
            base: ExperimentConfig::default(),
            loss_rates: vec![0.0, 0.05, 0.1, 0.2],
            fault_seed: 0x00FA_0175,
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultMatrixConfig {
    /// The fault plan one loss rate expands to: `loss` is the drop
    /// probability, with corruption at a quarter of it, deferral (up to
    /// 3 ticks) at half, and duplication at a quarter — a fixed mixture so
    /// a single knob scales the whole fault surface.
    #[must_use]
    pub fn plan_for(loss: f64) -> FaultPlan {
        FaultPlan {
            drop_rate: loss,
            corrupt_rate: loss / 4.0,
            delay_rate: loss / 2.0,
            max_delay_ticks: if loss > 0.0 { 3 } else { 0 },
            duplicate_rate: loss / 4.0,
            flaps: Vec::new(),
        }
    }
}

/// Aggregates of one (loss rate, DTH factor) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCell {
    /// The cell's loss rate.
    pub loss_rate: f64,
    /// The cell's DTH factor.
    pub dth_factor: f64,
    /// Frames that reached the air, retransmissions included.
    pub sent: u64,
    /// Retransmissions among them.
    pub retries: u64,
    /// Updates that failed to arrive at their send tick.
    pub lost: u64,
    /// Deferred updates that arrived on a later tick.
    pub late: u64,
    /// Bytes carried by the access network.
    pub network_bytes: u64,
    /// Mean RMSE with the location estimator.
    pub rmse_with_le: f64,
    /// Mean RMSE without it.
    pub rmse_without_le: f64,
    /// Mean number of nodes the broker marked stale per tick.
    pub mean_stale_nodes: f64,
}

/// Runs one cell of the matrix.
#[must_use]
pub fn run_cell(cfg: &FaultMatrixConfig, loss_rate: f64, dth_factor: f64) -> FaultCell {
    run_cell_recorded(cfg, loss_rate, dth_factor, &mut NoopRecorder)
}

/// Runs one cell of the matrix, streaming telemetry into `rec`.
///
/// # Panics
///
/// Panics if the base recipe does not build (invalid parameters).
#[must_use]
pub fn run_cell_recorded(
    cfg: &FaultMatrixConfig,
    loss_rate: f64,
    dth_factor: f64,
    rec: &mut dyn Recorder,
) -> FaultCell {
    // The cell's fault plan and the shared retry default ride on the
    // base runtime options, so `--threads` still applies per tick.
    let mut sim = SimConfig {
        with_network: true,
        runtime: RuntimeOptions {
            faults: Some(FaultSpec {
                plan: FaultMatrixConfig::plan_for(loss_rate),
                seed: cfg.fault_seed,
            }),
            retry: Some(cfg.retry),
            ..cfg.base.runtime.clone()
        },
        ..cfg.base.sim(PolicySpec::Adf(dth_factor))
    }
    .build()
    .expect("validated configuration");
    let ticks = sim.run_recorded(cfg.base.duration_ticks, rec);
    let n = ticks.len().max(1) as f64;
    FaultCell {
        loss_rate,
        dth_factor,
        sent: ticks.iter().map(|t| u64::from(t.sent)).sum(),
        retries: ticks.iter().map(|t| u64::from(t.retries)).sum(),
        lost: ticks.iter().map(|t| u64::from(t.lost)).sum(),
        late: ticks.iter().map(|t| u64::from(t.late)).sum(),
        network_bytes: sim.network().expect("attached").meter().bytes(),
        rmse_with_le: ticks.iter().map(|t| t.rmse_with_le).sum::<f64>() / n,
        rmse_without_le: ticks.iter().map(|t| t.rmse_without_le).sum::<f64>() / n,
        mean_stale_nodes: ticks.iter().map(|t| f64::from(t.stale_nodes)).sum::<f64>() / n,
    }
}

/// The whole matrix, cells in row-major `(loss rate, DTH factor)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMatrixData {
    /// The configuration that produced the matrix.
    pub config: FaultMatrixConfig,
    /// One cell per (loss rate, DTH factor) pair.
    pub cells: Vec<FaultCell>,
}

/// Computes every cell, fanned out over `base.campaign_threads` workers.
/// The [`ShardPool`] returns results in submission order and each cell is
/// an independent simulation, so the matrix is bit-identical for every
/// thread count.
#[must_use]
pub fn compute(cfg: &FaultMatrixConfig) -> FaultMatrixData {
    compute_recorded(cfg, &mut NoopRecorder)
}

/// Computes every cell like [`compute`], streaming telemetry into `rec`.
/// Each cell records into a forked child recorder; children are absorbed
/// in submission (row-major) order, so the merged telemetry is
/// bit-identical for every thread count.
///
/// # Panics
///
/// Panics if `cfg.base.campaign_threads` is 0 or a cell does not build.
#[must_use]
pub fn compute_recorded(cfg: &FaultMatrixConfig, rec: &mut dyn Recorder) -> FaultMatrixData {
    assert!(
        cfg.base.campaign_threads >= 1,
        "campaign_threads must be at least 1"
    );
    let mut specs = Vec::with_capacity(cfg.loss_rates.len() * cfg.base.dth_factors.len());
    for &loss in &cfg.loss_rates {
        for &factor in &cfg.base.dth_factors {
            specs.push((loss, factor));
        }
    }
    let parent: &dyn Recorder = rec;
    let results = ShardPool::new(cfg.base.campaign_threads).run(specs, |_, (loss, factor)| {
        let mut child = parent.fork();
        let cell = run_cell_recorded(cfg, loss, factor, child.as_mut());
        (cell, child)
    });
    let mut cells = Vec::with_capacity(results.len());
    for (cell, child) in results {
        rec.absorb(child);
        cells.push(cell);
    }
    FaultMatrixData {
        config: cfg.clone(),
        cells,
    }
}

impl FaultMatrixData {
    fn rows(&self) -> Vec<Vec<String>> {
        self.cells
            .iter()
            .map(|c| {
                vec![
                    format!("{:.2}", c.loss_rate),
                    format!("{:.2}", c.dth_factor),
                    c.sent.to_string(),
                    c.retries.to_string(),
                    c.lost.to_string(),
                    c.late.to_string(),
                    format!("{:.2}", c.rmse_with_le),
                    format!("{:.2}", c.rmse_without_le),
                    format!("{:.1}", c.mean_stale_nodes),
                ]
            })
            .collect()
    }

    const HEADERS: [&'static str; 9] = [
        "loss",
        "dth",
        "sent",
        "retries",
        "lost",
        "late",
        "RMSE w/ LE",
        "RMSE w/o LE",
        "stale/tick",
    ];

    /// The matrix as machine-readable CSV.
    #[must_use]
    pub fn csv(&self) -> String {
        csv(&Self::HEADERS, &self.rows())
    }
}

impl fmt::Display for FaultMatrixData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault matrix: {} ticks, workload seed {}, fault seed {:#x}",
            self.config.base.duration_ticks, self.config.base.seed, self.config.fault_seed
        )?;
        writeln!(f, "{}", text_table(&Self::HEADERS, &self.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FaultMatrixConfig {
        FaultMatrixConfig {
            base: ExperimentConfig {
                duration_ticks: 60,
                dth_factors: vec![0.75, 1.25],
                ..ExperimentConfig::default()
            },
            loss_rates: vec![0.0, 0.2],
            ..FaultMatrixConfig::default()
        }
    }

    #[test]
    fn matrix_covers_the_full_grid_in_order() {
        let data = compute(&quick());
        assert_eq!(data.cells.len(), 4);
        let coords: Vec<(f64, f64)> = data
            .cells
            .iter()
            .map(|c| (c.loss_rate, c.dth_factor))
            .collect();
        assert_eq!(
            coords,
            vec![(0.0, 0.75), (0.0, 1.25), (0.2, 0.75), (0.2, 1.25)]
        );
    }

    #[test]
    fn zero_loss_cell_matches_a_faultless_run() {
        // At loss 0.0 the plan is lossless and the retry policy never
        // fires, so the cell must reproduce the plain campaign numbers.
        let cfg = quick();
        let cell = run_cell(&cfg, 0.0, 1.25);
        assert_eq!((cell.retries, cell.lost, cell.late), (0, 0, 0));
        assert_eq!(cell.mean_stale_nodes, 0.0);

        let plain = crate::campaign::run_policy(
            &ExperimentConfig {
                dth_factors: vec![1.25],
                ..cfg.base.clone()
            },
            PolicySpec::Adf(1.25),
        );
        assert_eq!(cell.sent, plain.total_sent());
        assert_eq!(cell.network_bytes, plain.network_bytes);
        let (with, without) = plain.mean_rmse();
        assert_eq!(cell.rmse_with_le, with);
        assert_eq!(cell.rmse_without_le, without);
    }

    #[test]
    fn losses_inject_retries_and_degradation() {
        let cfg = quick();
        let faulty = run_cell(&cfg, 0.2, 1.25);
        assert!(faulty.lost > 0, "no update was ever lost at 20% loss");
        assert!(faulty.retries > 0, "the retry policy never fired");
        assert!(faulty.late > 0, "no deferred frame ever arrived");
        assert!(faulty.mean_stale_nodes > 0.0);

        let clean = run_cell(&cfg, 0.0, 1.25);
        assert!(
            faulty.sent > clean.sent,
            "retransmissions must consume extra airtime: {} vs {}",
            faulty.sent,
            clean.sent
        );
    }

    #[test]
    #[should_panic(expected = "campaign_threads must be at least 1")]
    fn zero_campaign_threads_are_rejected() {
        let mut cfg = quick();
        cfg.base.campaign_threads = 0;
        let _ = compute(&cfg);
    }

    #[test]
    fn campaign_threads_do_not_change_the_matrix() {
        let serial = compute(&quick());
        for campaign_threads in [2, 4] {
            let cfg = FaultMatrixConfig {
                base: ExperimentConfig {
                    campaign_threads,
                    ..quick().base
                },
                ..quick()
            };
            assert_eq!(compute(&cfg).cells, serial.cells);
        }
    }

    #[test]
    fn reports_render_every_cell() {
        let data = compute(&quick());
        let text = data.to_string();
        let csv = data.csv();
        assert!(text.contains("0.20"));
        assert_eq!(csv.lines().count(), 1 + data.cells.len());
    }
}
