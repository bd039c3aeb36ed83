//! Scalability: how the ADF behaves as the deployment outgrows the paper's
//! 140-node campus.
//!
//! Uses [`Campus::grid_city`] to generate structurally comparable maps of
//! increasing size with the Table-1 per-region node densities, then runs the
//! ideal and ADF policies on each and reports traffic reduction and runtime.

use std::fmt;
use std::time::Instant;

use mobigrid_adf::{MobileGridSim, MobileNode};
use mobigrid_campus::Campus;

use crate::campaign::PolicySpec;
use crate::config::ExperimentConfig;
use crate::report::text_table;
use crate::workload;

/// One city size's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// City dimensions in blocks.
    pub blocks: (usize, usize),
    /// Regions on the map.
    pub regions: usize,
    /// Node population.
    pub nodes: usize,
    /// Traffic reduction vs ideal, percent.
    pub reduction_pct: f64,
    /// Mean RMSE with the location estimator, metres.
    pub rmse_with_le: f64,
    /// Wall-clock seconds for the ADF run.
    pub runtime_s: f64,
}

/// The sweep's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityReport {
    /// Ticks simulated per run.
    pub duration_ticks: u64,
    /// One row per city size, smallest first.
    pub rows: Vec<ScaleRow>,
}

/// Runs the scalability sweep over the given city dimensions.
///
/// # Panics
///
/// Panics on an empty size list or zero-sized cities.
#[must_use]
pub fn sweep_city_sizes(cfg: &ExperimentConfig, sizes: &[(usize, usize)]) -> ScalabilityReport {
    assert!(!sizes.is_empty(), "sweep needs at least one city size");
    let mut rows = Vec::with_capacity(sizes.len());
    for &(bx, by) in sizes {
        let city = Campus::grid_city(bx, by);
        let nodes = workload::populate(&city, cfg.seed);
        let population = nodes.len();

        // Ideal baseline: every observation is transmitted, so the total is
        // population × ticks without running the simulation twice.
        let ideal_sent = population as u64 * cfg.duration_ticks;

        let started = Instant::now();
        let mut sim = city_sim(cfg, nodes);
        let stats = sim.run(cfg.duration_ticks);
        let runtime_s = started.elapsed().as_secs_f64();

        let sent: u64 = stats.iter().map(|t| u64::from(t.sent)).sum();
        let rmse_with_le =
            stats.iter().map(|t| t.rmse_with_le).sum::<f64>() / stats.len().max(1) as f64;
        rows.push(ScaleRow {
            blocks: (bx, by),
            regions: city.regions().len(),
            nodes: population,
            reduction_pct: 100.0 * (1.0 - sent as f64 / ideal_sent as f64),
            rmse_with_le,
            runtime_s,
        });
    }
    ScalabilityReport {
        duration_ticks: cfg.duration_ticks,
        rows,
    }
}

/// The sim the sweep runs: the base ADF recipe over one city's `nodes`.
fn city_sim(cfg: &ExperimentConfig, nodes: Vec<MobileNode>) -> MobileGridSim {
    cfg.sim(PolicySpec::Adf(cfg.adf.dth_factor))
        .build_over(nodes, None)
        .expect("validated configuration")
}

impl ScalabilityReport {
    /// Whether the filter's effectiveness is scale-stable: the reduction at
    /// the largest city is within `tolerance_pct` points of the smallest.
    #[must_use]
    pub fn reduction_is_scale_stable(&self, tolerance_pct: f64) -> bool {
        match (self.rows.first(), self.rows.last()) {
            (Some(a), Some(b)) => (a.reduction_pct - b.reduction_pct).abs() <= tolerance_pct,
            _ => true,
        }
    }
}

impl fmt::Display for ScalabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Scalability sweep (ADF, {} simulated seconds per city)",
            self.duration_ticks
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}x{}", r.blocks.0, r.blocks.1),
                    r.regions.to_string(),
                    r.nodes.to_string(),
                    format!("{:.1}%", r.reduction_pct),
                    format!("{:.1}", r.rmse_with_le),
                    format!("{:.2}s", r.runtime_s),
                ]
            })
            .collect();
        let t = text_table(
            &[
                "city",
                "regions",
                "nodes",
                "traffic cut",
                "RMSE w/ LE",
                "runtime",
            ],
            &rows,
        );
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_scales_population_with_city_size() {
        let cfg = ExperimentConfig {
            duration_ticks: 60,
            ..ExperimentConfig::default()
        };
        let report = sweep_city_sizes(&cfg, &[(1, 1), (2, 2)]);
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows[1].nodes > report.rows[0].nodes);
        // 1x1: 4 roads x 10 + 1 building x 15 = 55.
        assert_eq!(report.rows[0].nodes, 55);
        // 2x2: 6 roads x 10 + 4 buildings x 15 = 120.
        assert_eq!(report.rows[1].nodes, 120);
    }

    #[test]
    fn reduction_is_meaningful_at_every_size() {
        let cfg = ExperimentConfig {
            duration_ticks: 120,
            ..ExperimentConfig::default()
        };
        let report = sweep_city_sizes(&cfg, &[(1, 1), (3, 3)]);
        for row in &report.rows {
            assert!(
                row.reduction_pct > 20.0,
                "no meaningful reduction at {:?}: {report}",
                row.blocks
            );
        }
        assert!(report.reduction_is_scale_stable(25.0), "{report}");
    }

    #[test]
    fn city_sims_take_the_whole_runtime() {
        let mut cfg = ExperimentConfig::default();
        cfg.runtime.driver = mobigrid_adf::TickDriver::Sparse;
        cfg.runtime.threads = 2;
        let sim = city_sim(&cfg, workload::populate(&Campus::grid_city(1, 1), 1));
        assert_eq!(sim.driver(), mobigrid_adf::TickDriver::Sparse);
        assert_eq!(sim.threads(), 2);
    }

    #[test]
    fn report_renders() {
        let cfg = ExperimentConfig {
            duration_ticks: 30,
            ..ExperimentConfig::default()
        };
        let text = sweep_city_sizes(&cfg, &[(1, 1)]).to_string();
        assert!(text.contains("Scalability sweep"));
        assert!(text.contains("1x1"));
    }
}
