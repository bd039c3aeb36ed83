//! Inter-update interval analysis: how long does the filter keep each kind
//! of node silent?
//!
//! The paper reports only aggregate LU counts; the *distribution* of gaps
//! between surviving updates explains the error results — building LMS
//! nodes at 1.25 av go silent for minutes, which is where the broker's
//! estimator earns its keep. This experiment runs the ADF once per DTH
//! factor and histograms the per-node gaps by declared mobility pattern.

use std::collections::BTreeMap;
use std::fmt;

use mobigrid_adf::{AdaptiveDistanceFilter, AdfConfig, FilterPolicy};
use mobigrid_campus::Campus;
use mobigrid_mobility::MobilityPattern;
use mobigrid_sim::stats::Histogram;

use crate::config::ExperimentConfig;
use crate::report::text_table;
use crate::workload;

/// Gap statistics for one mobility pattern under one DTH factor.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternIntervals {
    /// The declared pattern of the contributing nodes.
    pub pattern: MobilityPattern,
    /// Histogram of gaps between transmitted updates, in seconds
    /// (1 s bins, 120 bins plus overflow).
    pub histogram: Histogram,
}

/// The per-factor interval analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalReport {
    /// DTH factor (× av).
    pub factor: f64,
    /// One entry per mobility pattern present in the workload.
    pub per_pattern: Vec<PatternIntervals>,
}

/// Measures inter-update intervals under the ADF at `factor`.
#[must_use]
pub fn measure_intervals(cfg: &ExperimentConfig, factor: f64) -> IntervalReport {
    let campus = Campus::inha_like();
    let mut nodes = workload::populate(&campus, cfg.seed);
    let adf_cfg = AdfConfig {
        dth_factor: factor,
        ..cfg.adf
    };
    let mut policy = AdaptiveDistanceFilter::new(adf_cfg).expect("validated configuration");

    // Per-node time of last transmitted update. Histograms keyed by the
    // pattern's abbreviation (`MobilityPattern` itself does not implement
    // `Ord`).
    let mut last_sent: Vec<Option<f64>> = vec![None; nodes.len()];
    let mut by_key: BTreeMap<&'static str, (MobilityPattern, Histogram)> = BTreeMap::new();

    for t in 1..=cfg.duration_ticks {
        let time_s = t as f64;
        let obs: Vec<_> = nodes
            .iter_mut()
            .map(|n| {
                let p = n.step(time_s, 1.0);
                (n.id(), p)
            })
            .collect();
        let decisions = policy.decide_tick(time_s, &obs);
        for (node, decision) in nodes.iter().zip(&decisions) {
            if decision.is_sent() {
                let idx = node.id().index();
                if let Some(prev) = last_sent[idx] {
                    let pattern = node.declared_pattern();
                    let entry = by_key
                        .entry(pattern.abbreviation())
                        .or_insert_with(|| (pattern, Histogram::new(1.0, 120)));
                    entry.1.record(time_s - prev);
                }
                last_sent[idx] = Some(time_s);
            }
        }
    }

    IntervalReport {
        factor,
        per_pattern: by_key
            .into_values()
            .map(|(pattern, histogram)| PatternIntervals { pattern, histogram })
            .collect(),
    }
}

impl fmt::Display for IntervalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Inter-update intervals under ADF at {:.2}av (seconds)",
            self.factor
        )?;
        let rows: Vec<Vec<String>> = self
            .per_pattern
            .iter()
            .map(|p| {
                let h = &p.histogram;
                let q = |q: f64| match h.quantile(q) {
                    Some(v) if v.is_finite() => format!("{v:.0}"),
                    Some(_) => ">120".to_string(),
                    None => "-".to_string(),
                };
                vec![
                    p.pattern.to_string(),
                    h.total().to_string(),
                    format!("{:.1}", h.mean()),
                    q(0.5),
                    q(0.9),
                    q(0.99),
                ]
            })
            .collect();
        let t = text_table(&["pattern", "gaps", "mean", "p50", "p90", "p99"], &rows);
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            duration_ticks: 300,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn larger_factors_stretch_the_gaps() {
        let small = measure_intervals(&cfg(), 0.75);
        let large = measure_intervals(&cfg(), 1.25);
        let mean_gap = |r: &IntervalReport, p: MobilityPattern| {
            r.per_pattern
                .iter()
                .find(|e| e.pattern == p)
                .map(|e| e.histogram.mean())
                .unwrap_or(0.0)
        };
        // Linear movers' gaps grow with the threshold.
        assert!(
            mean_gap(&large, MobilityPattern::Linear) > mean_gap(&small, MobilityPattern::Linear),
            "gaps did not stretch"
        );
    }

    #[test]
    fn stopped_nodes_only_report_during_warmup() {
        // Before the initial clustering every update passes (DTH = 0), so
        // each of the 30 SS nodes transmits a handful of times; after it,
        // they go silent for good — every recorded gap is a 1 s warmup gap.
        let config = cfg();
        let r = measure_intervals(&config, 1.0);
        let ss = r
            .per_pattern
            .iter()
            .find(|p| p.pattern == MobilityPattern::Stop)
            .expect("SS nodes transmitted during warmup");
        assert!(
            ss.histogram.total() <= 30 * config.adf.warmup_ticks,
            "too many SS gaps: {}",
            ss.histogram.total()
        );
        assert!(ss.histogram.mean() <= 1.5, "SS gaps should be warmup-tight");
        assert_eq!(ss.histogram.overflow(), 0);
    }

    #[test]
    fn report_renders_with_quantiles() {
        let text = measure_intervals(&cfg(), 1.0).to_string();
        assert!(text.contains("p90"));
        assert!(text.contains("LMS"));
    }
}
