//! Extension experiments beyond the paper's evaluation.
//!
//! The paper *motivates* the ADF with the mobile node's constraints — "low
//! bandwidth, low battery capacity, frequent disconnectivity" — but only
//! measures bandwidth (LU counts). These experiments quantify the other two:
//!
//! * [`energy_extension`] — battery-life gained by filtering, under a linear
//!   radio energy model,
//! * [`outage_resilience`] — location error under scheduled gateway
//!   outages, showing the location estimator riding out disconnections.

use std::fmt;

use mobigrid_campus::Campus;
use mobigrid_wireless::{EnergyModel, GatewayId, LocationUpdate, OutageSchedule};

use mobigrid_adf::MobileGridSim;

use crate::campaign::{run_policy, PolicySpec};
use crate::config::ExperimentConfig;
use crate::report::text_table;
use crate::workload;

/// One policy's energy summary.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Policy label.
    pub label: String,
    /// Mean LUs per node-hour.
    pub lu_per_node_hour: f64,
    /// Radio energy per node-hour, in joules.
    pub joules_per_node_hour: f64,
    /// Battery-life multiplier relative to the ideal policy.
    pub battery_life_multiplier: f64,
}

/// The energy extension's result.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// One row per policy, ideal first.
    pub rows: Vec<EnergyRow>,
    /// The radio model used.
    pub model: EnergyModel,
}

/// Quantifies the battery saving of each filter policy.
#[must_use]
pub fn energy_extension(cfg: &ExperimentConfig) -> EnergyReport {
    let model = EnergyModel::default();
    let frame_j = model.frame_cost_j(LocationUpdate::WIRE_SIZE);
    let node_hours = workload::POPULATION as f64 * cfg.duration_ticks as f64 / 3600.0;

    let mut rows = Vec::new();
    let mut ideal_joules = None;
    for spec in [
        PolicySpec::Ideal,
        PolicySpec::Adf(0.75),
        PolicySpec::Adf(1.0),
        PolicySpec::Adf(1.25),
    ] {
        let run = run_policy(cfg, spec);
        let joules_per_node_hour = run.total_sent() as f64 * frame_j / node_hours;
        let ideal = *ideal_joules.get_or_insert(joules_per_node_hour);
        rows.push(EnergyRow {
            label: run.label.clone(),
            lu_per_node_hour: run.total_sent() as f64 / node_hours,
            joules_per_node_hour,
            battery_life_multiplier: if joules_per_node_hour > 0.0 {
                ideal / joules_per_node_hour
            } else {
                f64::INFINITY
            },
        });
    }
    EnergyReport { rows, model }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Energy extension (radio model: {:.1} mJ/frame + {:.1} µJ/byte)",
            self.model.base_j * 1e3,
            self.model.per_byte_j * 1e6
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.0}", r.lu_per_node_hour),
                    format!("{:.2}", r.joules_per_node_hour),
                    format!("{:.2}x", r.battery_life_multiplier),
                ]
            })
            .collect();
        let t = text_table(
            &["policy", "LU/node-hour", "J/node-hour", "battery life"],
            &rows,
        );
        writeln!(f, "{t}")
    }
}

/// The outage experiment's result: error with and without infrastructure
/// outages, for both broker arms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageReport {
    /// Updates dropped due to outages.
    pub dropped: u64,
    /// Mean RMSE without outages: (with LE, without LE).
    pub baseline_rmse: (f64, f64),
    /// Mean RMSE with the outage schedule: (with LE, without LE).
    pub outage_rmse: (f64, f64),
}

impl fmt::Display for OutageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Outage resilience (ADF at 1.0 av)")?;
        let rows = vec![
            vec![
                "no outages".to_string(),
                format!("{:.2}", self.baseline_rmse.1),
                format!("{:.2}", self.baseline_rmse.0),
                "-".to_string(),
            ],
            vec![
                "APs down 60 s / 300 s".to_string(),
                format!("{:.2}", self.outage_rmse.1),
                format!("{:.2}", self.outage_rmse.0),
                self.dropped.to_string(),
            ],
        ];
        let t = text_table(
            &["scenario", "RMSE w/o LE", "RMSE w/ LE", "LUs dropped"],
            &rows,
        );
        writeln!(f, "{t}")
    }
}

/// Runs the ADF under a staggered access-point outage schedule: each of the
/// six building APs goes dark for 60 s out of every 300 s. Building nodes
/// fall back to the campus base station, which stays up, so the interesting
/// effect is on the error of updates lost in flight.
#[must_use]
pub fn outage_resilience(cfg: &ExperimentConfig) -> OutageReport {
    let run = |with_outages: bool| {
        let mut sim = outage_sim(cfg, with_outages);
        let stats = sim.run(cfg.duration_ticks);
        let n = stats.len() as f64;
        let with: f64 = stats.iter().map(|t| t.rmse_with_le).sum::<f64>() / n;
        let without: f64 = stats.iter().map(|t| t.rmse_without_le).sum::<f64>() / n;
        let dropped = sim.network().expect("attached").dropped();
        ((with, without), dropped)
    };

    let (baseline_rmse, _) = run(false);
    let (outage_rmse, dropped) = run(true);
    OutageReport {
        dropped,
        baseline_rmse,
        outage_rmse,
    }
}

/// The sim of [`outage_resilience`]: the base ADF recipe over the campus
/// population, on the default network with or without the outages.
fn outage_sim(cfg: &ExperimentConfig, with_outages: bool) -> MobileGridSim {
    let campus = Campus::inha_like();
    let mut network = workload::default_network(&campus);
    if with_outages {
        let mut sched = OutageSchedule::new();
        // Gateway 0 is the base station; 1..=6 are the building APs.
        // Also take the base station down briefly so road nodes see
        // real disconnections.
        for ap in 1..=6u32 {
            let mut start = f64::from(ap) * 50.0;
            while start < cfg.duration_ticks as f64 {
                sched
                    .add_window(GatewayId::new(ap), start, start + 60.0)
                    .expect("well-formed outage window");
                start += 300.0;
            }
        }
        let mut start = 120.0;
        while start < cfg.duration_ticks as f64 {
            sched
                .add_window(GatewayId::new(0), start, start + 20.0)
                .expect("well-formed outage window");
            start += 400.0;
        }
        network = network.with_outages(sched);
    }
    let nodes = workload::populate(&campus, cfg.seed);
    cfg.sim(PolicySpec::Adf(cfg.adf.dth_factor))
        .build_over(nodes, Some(network))
        .expect("validated configuration")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            duration_ticks: 200,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn energy_report_orders_battery_life_by_factor() {
        let report = energy_extension(&cfg());
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[0].label, "ideal");
        assert!((report.rows[0].battery_life_multiplier - 1.0).abs() < 1e-9);
        for w in report.rows[1..].windows(2) {
            assert!(
                w[1].battery_life_multiplier >= w[0].battery_life_multiplier,
                "battery life should grow with the factor: {report}"
            );
        }
        assert!(report.rows[3].battery_life_multiplier > 2.0);
    }

    #[test]
    fn energy_report_renders() {
        let text = energy_extension(&cfg()).to_string();
        assert!(text.contains("battery life"));
        assert!(text.contains("ideal"));
    }

    #[test]
    fn outage_sims_take_the_whole_runtime() {
        let mut cfg = cfg();
        cfg.runtime.driver = mobigrid_adf::TickDriver::Sparse;
        cfg.runtime.threads = 2;
        for with_outages in [false, true] {
            let sim = outage_sim(&cfg, with_outages);
            assert_eq!(sim.driver(), mobigrid_adf::TickDriver::Sparse);
            assert_eq!(sim.threads(), 2);
        }
    }

    #[test]
    fn outages_drop_updates_and_raise_error() {
        let report = outage_resilience(&cfg());
        assert!(report.dropped > 0, "schedule produced no drops");
        // Outages can only make the stale broker worse (or equal).
        assert!(report.outage_rmse.1 - report.baseline_rmse.1 > -1.0);
        let text = report.to_string();
        assert!(text.contains("LUs dropped"));
    }
}
