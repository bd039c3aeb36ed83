//! Scale sweep: cost and accuracy across the named scenarios.
//!
//! Drives the ADF pipeline over `campus_140` → `city_1140` → `metro_100k`
//! and reports, at each scale, what the engine costs (ns/tick and
//! location-update throughput, observations processed per wall-clock
//! second) and what the filter buys (the share of updates sent, and the
//! mean location RMSE with the estimator). The first shows whether the
//! engine keeps up as the map grows, the other two whether the filter
//! stays effective. The tick budget is capped per scenario so the sweep
//! stays bounded — `metro_100k` runs tens of ticks, not the campus's
//! hundreds.

use std::fmt;
use std::time::Instant;

use mobigrid_adf::TickDriver;

use crate::config::ExperimentConfig;
use crate::report::text_table;
use crate::scenarios::Scenario;
use crate::simconfig::SimConfig;

/// Node-ticks each scenario may spend before its tick budget is cut.
const NODE_TICK_BUDGET: u64 = 5_000_000;

/// Ticks left unmeasured at the front of each run: first-contact broker
/// registrations and scratch-buffer growth happen here, so the measured
/// window reflects the steady state.
const WARMUP_TICKS: u64 = 10;

/// One scenario's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Population size.
    pub nodes: usize,
    /// Measured (post-warmup) ticks.
    pub ticks: u64,
    /// Mean wall-clock nanoseconds per tick over the measured window.
    pub ns_per_tick: f64,
    /// Location updates (observations) processed per wall-clock second.
    pub lu_per_s: f64,
    /// Fraction of observations the filter let through, percent.
    pub sent_pct: f64,
    /// Mean RMSE with the location estimator over the measured window,
    /// metres.
    pub rmse_with_le: f64,
}

/// The sweep's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchReport {
    /// Worker threads used per simulation.
    pub threads: usize,
    /// Tick driver used per simulation (results are bit-identical for
    /// both; only wall-clock changes).
    pub driver: TickDriver,
    /// One row per scenario, smallest first.
    pub rows: Vec<ScaleBenchRow>,
}

/// Ticks a scenario runs: the configured duration, capped by the
/// node-tick budget, never below 10.
#[must_use]
pub fn ticks_for(cfg: &ExperimentConfig, nodes: usize) -> u64 {
    let cap = NODE_TICK_BUDGET / (nodes as u64).max(1);
    cfg.duration_ticks.min(cap).max(10)
}

/// Runs the scale sweep over `scenarios`.
///
/// # Panics
///
/// Panics on an empty scenario list.
#[must_use]
pub fn run_scale(cfg: &ExperimentConfig, scenarios: &[&Scenario]) -> ScaleBenchReport {
    assert!(!scenarios.is_empty(), "sweep needs at least one scenario");
    let runtime = &cfg.runtime;
    let mut rows = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let ticks = ticks_for(cfg, s.nodes);
        let mut sim = SimConfig {
            seed: cfg.seed,
            runtime: runtime.clone(),
            ..SimConfig::scenario(s.name)
        }
        .build()
        .expect("registered scenario");
        sim.run(WARMUP_TICKS);

        let started = Instant::now();
        let stats = sim.run(ticks);
        let elapsed = started.elapsed();

        let observed: u64 = stats.iter().map(|t| u64::from(t.observed)).sum();
        let sent: u64 = stats.iter().map(|t| u64::from(t.sent)).sum();
        let secs = elapsed.as_secs_f64();
        rows.push(ScaleBenchRow {
            scenario: s.name,
            nodes: s.nodes,
            ticks,
            ns_per_tick: elapsed.as_nanos() as f64 / ticks as f64,
            lu_per_s: if secs > 0.0 {
                observed as f64 / secs
            } else {
                0.0
            },
            sent_pct: 100.0 * sent as f64 / observed.max(1) as f64,
            rmse_with_le: stats.iter().map(|t| t.rmse_with_le).sum::<f64>()
                / stats.len().max(1) as f64,
        });
    }
    ScaleBenchReport {
        threads: runtime.threads,
        driver: runtime.driver,
        rows,
    }
}

impl ScaleBenchReport {
    /// Machine-readable CSV, one row per scenario.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("scenario,nodes,ticks,ns_per_tick,lu_per_s,sent_pct,rmse_with_le\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.0},{:.0},{:.2},{:.3}\n",
                r.scenario, r.nodes, r.ticks, r.ns_per_tick, r.lu_per_s, r.sent_pct, r.rmse_with_le
            ));
        }
        out
    }
}

impl fmt::Display for ScaleBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Scale sweep (ADF tick engine, {} thread{}, {} driver)",
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.driver,
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.to_string(),
                    r.nodes.to_string(),
                    r.ticks.to_string(),
                    format!("{:.0}", r.ns_per_tick),
                    format!("{:.2e}", r.lu_per_s),
                    format!("{:.1}%", r.sent_pct),
                    format!("{:.2}", r.rmse_with_le),
                ]
            })
            .collect();
        let t = text_table(
            &[
                "scenario",
                "nodes",
                "ticks",
                "ns/tick",
                "LU/s",
                "sent",
                "RMSE w/ LE",
            ],
            &rows,
        );
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn tick_budget_caps_large_scenarios() {
        let cfg = ExperimentConfig::default(); // 1800 ticks
        assert_eq!(ticks_for(&cfg, 140), 1800);
        assert_eq!(ticks_for(&cfg, 1_140), 1800);
        let metro = ticks_for(&cfg, 100_055);
        assert!((10..200).contains(&metro), "metro ticks = {metro}");
        assert_eq!(ticks_for(&cfg, 1_003_640), 10);
    }

    #[test]
    fn sweep_honors_the_sparse_driver() {
        let mut cfg = ExperimentConfig {
            duration_ticks: 15,
            ..ExperimentConfig::default()
        };
        cfg.runtime.driver = TickDriver::Sparse;
        let small = [scenarios::find("campus_140").unwrap()];
        let report = run_scale(&cfg, &small);
        assert_eq!(report.driver, TickDriver::Sparse);
        assert!(report.to_string().contains("sparse driver"));
    }

    #[test]
    fn sweep_measures_each_scenario() {
        let cfg = ExperimentConfig {
            duration_ticks: 20,
            ..ExperimentConfig::default()
        };
        let small = [scenarios::find("campus_140").unwrap()];
        let report = run_scale(&cfg, &small);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.nodes, 140);
        assert_eq!(row.ticks, 20);
        assert!(row.ns_per_tick > 0.0);
        assert!(row.lu_per_s > 0.0);
        assert!((0.0..=100.0).contains(&row.sent_pct));
        assert!(row.rmse_with_le.is_finite());
        let text = report.to_string();
        assert!(text.contains("campus_140"));
        assert!(report.to_csv().starts_with("scenario,"));
    }

    /// The filter's cut holds as the map grows: the campus and the city
    /// both send well under every observation, by similar shares, and every
    /// row carries a finite error.
    #[test]
    fn traffic_cut_is_meaningful_and_stable_across_scales() {
        let cfg = ExperimentConfig {
            duration_ticks: 120,
            ..ExperimentConfig::default()
        };
        let sweep = [
            scenarios::find("campus_140").unwrap(),
            scenarios::find("city_1140").unwrap(),
        ];
        let report = run_scale(&cfg, &sweep);
        for row in &report.rows {
            assert!(
                row.sent_pct < 80.0,
                "no meaningful cut at {}: {report}",
                row.scenario
            );
            assert!(row.rmse_with_le.is_finite(), "{report}");
        }
        let (campus, city) = (&report.rows[0], &report.rows[1]);
        assert!(
            (campus.sent_pct - city.sent_pct).abs() <= 25.0,
            "cut is not scale-stable: {report}"
        );
        assert!(report.to_csv().lines().all(|l| l.split(',').count() == 7));
    }
}
