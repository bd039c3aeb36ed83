//! The unified experiment API: every table and figure behind one trait,
//! one registry, one CLI.
//!
//! Each entry of the paper's evaluation (and each extension experiment)
//! implements [`Experiment`]: a stable [`name`](Experiment::name) used on
//! the command line, a one-line [`description`](Experiment::description),
//! and [`run`](Experiment::run), which executes the experiment against an
//! [`ExperimentConfig`] while streaming telemetry into a
//! [`Recorder`] and returns a printable [`Report`].
//!
//! Experiments backed by the shared evaluation campaign additionally
//! implement [`Experiment::run_on`], so callers holding an
//! already-computed [`CampaignData`] (the `all-experiments` path) render
//! every figure from **one** campaign instead of recomputing it per
//! figure.

use crate::campaign::{run_campaign_recorded, run_policy, CampaignData, PolicySpec};
use crate::config::ExperimentConfig;
use crate::fault_matrix::{self, FaultMatrixConfig};
use crate::federated::run_federated_adf;
use crate::report::text_table;
use crate::{extensions, fig4, fig5, fig6, fig7, fig89, intervals, robustness, scale, table1};
use mobigrid_telemetry::Recorder;

/// The rendered outcome of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The experiment's registry name (e.g. `"fig4"`).
    pub name: &'static str,
    /// The human-readable text report, ready to print.
    pub text: String,
    /// Machine-readable CSV, when the experiment defines one.
    pub csv: Option<String>,
}

/// One table, figure or extension experiment of the evaluation.
pub trait Experiment: Sync {
    /// Stable registry name, usable as `--experiment <name>`.
    fn name(&self) -> &'static str;

    /// One-line description for `--list`.
    fn description(&self) -> &'static str;

    /// Executes the experiment, streaming telemetry into `rec`.
    fn run(&self, cfg: &ExperimentConfig, rec: &mut dyn Recorder) -> Report;

    /// Renders the report from an already-computed campaign, for callers
    /// that share one campaign across several figures. Returns `None`
    /// when the experiment is not campaign-backed (it needs its own
    /// simulations).
    fn run_on(&self, _data: &CampaignData) -> Option<Report> {
        None
    }
}

/// `run` for campaign-backed experiments: compute the campaign (recorded),
/// then render through `run_on`.
fn run_via_campaign(
    exp: &dyn Experiment,
    cfg: &ExperimentConfig,
    rec: &mut dyn Recorder,
) -> Report {
    let data = run_campaign_recorded(cfg, rec);
    exp.run_on(&data)
        .expect("campaign-backed experiments implement run_on")
}

/// Renders a [`fig89`] arm (Figure 8 without LE, Figure 9 with LE) the way
/// the original standalone binaries did.
fn kind_error_table(rows: &[fig89::KindErrorRow]) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}av", r.factor),
                format!("{:.3}", r.road),
                format!("{:.3}", r.building),
                format!("{:.2}x", r.road_to_building_ratio()),
            ]
        })
        .collect();
    text_table(&["DTH", "road", "building", "road/building"], &rows)
}

struct Table1Exp;
impl Experiment for Table1Exp {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn description(&self) -> &'static str {
        "Table 1: the mobile-node specification (no simulation needed)"
    }
    fn run(&self, _cfg: &ExperimentConfig, _rec: &mut dyn Recorder) -> Report {
        Report {
            name: self.name(),
            text: table1::compute().to_string(),
            csv: None,
        }
    }
    fn run_on(&self, _data: &CampaignData) -> Option<Report> {
        // The specification is static; any campaign renders it.
        Some(Report {
            name: self.name(),
            text: table1::compute().to_string(),
            csv: None,
        })
    }
}

macro_rules! campaign_figure {
    ($ty:ident, $name:literal, $desc:literal, $module:ident) => {
        struct $ty;
        impl Experiment for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn description(&self) -> &'static str {
                $desc
            }
            fn run(&self, cfg: &ExperimentConfig, rec: &mut dyn Recorder) -> Report {
                run_via_campaign(self, cfg, rec)
            }
            fn run_on(&self, data: &CampaignData) -> Option<Report> {
                let fig = $module::compute(data);
                Some(Report {
                    name: self.name(),
                    text: fig.to_string(),
                    csv: Some(fig.to_csv()),
                })
            }
        }
    };
}

campaign_figure!(
    Fig4Exp,
    "fig4",
    "Figure 4: transmitted location updates per second",
    fig4
);
campaign_figure!(
    Fig5Exp,
    "fig5",
    "Figure 5: traffic reduction rate vs the ideal policy",
    fig5
);
campaign_figure!(
    Fig6Exp,
    "fig6",
    "Figure 6: transmission rate by region kind (road vs building)",
    fig6
);
campaign_figure!(
    Fig7Exp,
    "fig7",
    "Figure 7: location RMSE with and without the estimator",
    fig7
);
campaign_figure!(
    Fig89Exp,
    "fig89",
    "Figures 8+9: per-region RMSE, both broker arms",
    fig89
);

struct Fig8Exp;
impl Experiment for Fig8Exp {
    fn name(&self) -> &'static str {
        "fig8"
    }
    fn description(&self) -> &'static str {
        "Figure 8: per-region RMSE without the estimator"
    }
    fn run(&self, cfg: &ExperimentConfig, rec: &mut dyn Recorder) -> Report {
        run_via_campaign(self, cfg, rec)
    }
    fn run_on(&self, data: &CampaignData) -> Option<Report> {
        let fig = fig89::compute(data);
        Some(Report {
            name: self.name(),
            text: format!(
                "Figure 8. RMSE by region, without LE (metres)\n{}",
                kind_error_table(&fig.without_le)
            ),
            csv: Some(fig.to_csv()),
        })
    }
}

struct Fig9Exp;
impl Experiment for Fig9Exp {
    fn name(&self) -> &'static str {
        "fig9"
    }
    fn description(&self) -> &'static str {
        "Figure 9: per-region RMSE with the estimator"
    }
    fn run(&self, cfg: &ExperimentConfig, rec: &mut dyn Recorder) -> Report {
        run_via_campaign(self, cfg, rec)
    }
    fn run_on(&self, data: &CampaignData) -> Option<Report> {
        let fig = fig89::compute(data);
        Some(Report {
            name: self.name(),
            text: format!(
                "Figure 9. RMSE by region, with LE (metres)\n{}",
                kind_error_table(&fig.with_le)
            ),
            csv: Some(fig.to_csv()),
        })
    }
}

struct FaultMatrixExp;
impl Experiment for FaultMatrixExp {
    fn name(&self) -> &'static str {
        "fault_matrix"
    }
    fn description(&self) -> &'static str {
        "Fault matrix: traffic/accuracy trade-off on a lossy channel"
    }
    fn run(&self, cfg: &ExperimentConfig, rec: &mut dyn Recorder) -> Report {
        let matrix_cfg = FaultMatrixConfig {
            base: cfg.clone(),
            ..FaultMatrixConfig::default()
        };
        let data = fault_matrix::compute_recorded(&matrix_cfg, rec);
        Report {
            name: self.name(),
            text: data.to_string(),
            csv: Some(data.csv()),
        }
    }
}

struct IntervalsExp;
impl Experiment for IntervalsExp {
    fn name(&self) -> &'static str {
        "intervals"
    }
    fn description(&self) -> &'static str {
        "Inter-update interval distributions per mobility pattern"
    }
    fn run(&self, cfg: &ExperimentConfig, _rec: &mut dyn Recorder) -> Report {
        let text = cfg
            .dth_factors
            .iter()
            .map(|&factor| intervals::measure_intervals(cfg, factor).to_string())
            .collect::<Vec<_>>()
            .join("\n");
        Report {
            name: self.name(),
            text,
            csv: None,
        }
    }
}

struct ScaleExp;
impl Experiment for ScaleExp {
    fn name(&self) -> &'static str {
        "scale"
    }
    fn description(&self) -> &'static str {
        "Scale sweep: ns/tick, LU/s, sent share and RMSE over campus_140 -> city_1140 -> metro_100k"
    }
    fn run(&self, cfg: &ExperimentConfig, _rec: &mut dyn Recorder) -> Report {
        let sweep: Vec<&crate::scenarios::Scenario> = ["campus_140", "city_1140", "metro_100k"]
            .iter()
            .map(|n| crate::scenarios::find(n).expect("registered scenario"))
            .collect();
        let report = scale::run_scale(cfg, &sweep);
        Report {
            name: self.name(),
            text: report.to_string(),
            csv: Some(report.to_csv()),
        }
    }
}

struct SeedsExp;
impl Experiment for SeedsExp {
    fn name(&self) -> &'static str {
        "seeds"
    }
    fn description(&self) -> &'static str {
        "Seed-sweep robustness: mean ± std of the headline metrics"
    }
    fn run(&self, cfg: &ExperimentConfig, _rec: &mut dyn Recorder) -> Report {
        let seeds: Vec<u64> = (1..=5).map(|i| cfg.seed.wrapping_add(i)).collect();
        Report {
            name: self.name(),
            text: robustness::sweep_seeds(cfg, &seeds).to_string(),
            csv: None,
        }
    }
}

struct ExtensionsExp;
impl Experiment for ExtensionsExp {
    fn name(&self) -> &'static str {
        "extensions"
    }
    fn description(&self) -> &'static str {
        "Extensions: energy saving and outage resilience"
    }
    fn run(&self, cfg: &ExperimentConfig, _rec: &mut dyn Recorder) -> Report {
        let text = format!(
            "{}\n{}",
            extensions::energy_extension(cfg),
            extensions::outage_resilience(cfg)
        );
        Report {
            name: self.name(),
            text,
            csv: None,
        }
    }
}

struct FederatedExp;
impl Experiment for FederatedExp {
    fn name(&self) -> &'static str {
        "federated"
    }
    fn description(&self) -> &'static str {
        "Figure 3 on the HLA RTI: MN, ADF and broker federates against the in-process ADF run"
    }
    fn run(&self, cfg: &ExperimentConfig, _rec: &mut dyn Recorder) -> Report {
        // The federation models no access network, so neither does the
        // in-process arm it is compared with.
        let local_cfg = ExperimentConfig {
            with_network: false,
            ..cfg.clone()
        };
        let share = |sent: u64, observed: u64| 100.0 * sent as f64 / observed.max(1) as f64;
        let rows: Vec<Vec<String>> = cfg
            .dth_factors
            .iter()
            .map(|&factor| {
                let fed = run_federated_adf(cfg, factor);
                let local = run_policy(&local_cfg, PolicySpec::Adf(factor));
                let parity = fed
                    .ticks
                    .iter()
                    .map(|t| t.sent)
                    .eq(local.ticks.iter().map(|t| t.sent));
                let local_observed = local.ticks.iter().map(|t| u64::from(t.observed)).sum();
                let (fed_le, fed_nole) = fed.mean_rmse();
                let (local_le, local_nole) = local.mean_rmse();
                vec![
                    format!("{factor:.2}av"),
                    format!("{:.2}", share(fed.total_sent(), fed.total_observed())),
                    format!("{:.2}", share(local.total_sent(), local_observed)),
                    if parity { "yes" } else { "no" }.to_string(),
                    format!("{fed_le:.3}"),
                    format!("{local_le:.3}"),
                    format!("{fed_nole:.3}"),
                    format!("{local_nole:.3}"),
                ]
            })
            .collect();
        let table = text_table(
            &[
                "DTH",
                "sent% fed",
                "sent% sim",
                "sent parity",
                "LE fed",
                "LE sim",
                "no-LE fed",
                "no-LE sim",
            ],
            &rows,
        );
        Report {
            name: self.name(),
            text: format!(
                "Figure 3 federation (MN -> ADF -> broker on the RTI) vs the in-process ADF, {} ticks\n\
                 (mean RMSE in metres; the federated broker gets each forwarded LU at its next grant, one tick late)\n{table}",
                cfg.duration_ticks
            ),
            csv: None,
        }
    }
}

/// Every registered experiment, in presentation order.
#[must_use]
pub fn all() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 14] = [
        &Table1Exp,
        &Fig4Exp,
        &Fig5Exp,
        &Fig6Exp,
        &Fig7Exp,
        &Fig8Exp,
        &Fig9Exp,
        &Fig89Exp,
        &FaultMatrixExp,
        &IntervalsExp,
        &ScaleExp,
        &SeedsExp,
        &ExtensionsExp,
        &FederatedExp,
    ];
    &REGISTRY
}

/// Looks an experiment up by its registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    all().iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_telemetry::{MemoryRecorder, NoopRecorder};

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut seen = std::collections::BTreeSet::new();
        for exp in all() {
            assert!(seen.insert(exp.name()), "duplicate name {}", exp.name());
            assert!(!exp.description().is_empty());
            assert_eq!(find(exp.name()).unwrap().name(), exp.name());
        }
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn campaign_backed_experiments_share_one_campaign() {
        let cfg = ExperimentConfig {
            duration_ticks: 60,
            ..ExperimentConfig::default()
        };
        let data = run_campaign_recorded(&cfg, &mut NoopRecorder);
        let mut rendered = 0;
        for exp in all() {
            if let Some(report) = exp.run_on(&data) {
                assert!(!report.text.is_empty(), "{} rendered nothing", exp.name());
                rendered += 1;
            }
        }
        // table1 + fig4..fig9 + fig89.
        assert_eq!(rendered, 8);
    }

    #[test]
    fn federated_report_is_thread_invariant_with_sent_parity() {
        let run = |threads| {
            let mut cfg = ExperimentConfig {
                duration_ticks: 60,
                ..ExperimentConfig::default()
            };
            cfg.runtime.threads = threads;
            find("federated").unwrap().run(&cfg, &mut NoopRecorder)
        };
        let one = run(1);
        assert_eq!(one.text, run(2).text);
        let rows: Vec<&str> = one.text.lines().filter(|l| l.contains("av ")).collect();
        assert_eq!(rows.len(), 3, "one row per DTH factor:\n{}", one.text);
        for row in rows {
            assert_eq!(row.split_whitespace().nth(3), Some("yes"), "{row}");
        }
    }

    #[test]
    fn fig4_run_records_telemetry_and_reports_csv() {
        let cfg = ExperimentConfig {
            duration_ticks: 60,
            ..ExperimentConfig::default()
        };
        let mut rec = MemoryRecorder::new();
        let report = find("fig4").unwrap().run(&cfg, &mut rec);
        assert_eq!(report.name, "fig4");
        assert!(report.text.contains("Figure 4"));
        assert!(report.csv.is_some());
        // One campaign = ideal + 3 ADF runs, 60 ticks each.
        assert_eq!(rec.counter("sim.ticks"), 4 * 60);
    }
}
