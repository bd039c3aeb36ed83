//! Seed-sweep robustness: are the paper's conclusions an artefact of one
//! random workload, or stable across draws?
//!
//! The paper reports a single simulation run. This module repeats the
//! campaign over several seeds and reports the mean ± standard deviation of
//! every headline metric, so each qualitative claim can be checked for
//! seed-robustness.

use std::fmt;

use mobigrid_sim::stats::Welford;

use crate::campaign::run_campaign;
use crate::config::ExperimentConfig;
use crate::report::text_table;

/// Aggregated statistics for one DTH factor across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorStats {
    /// The DTH factor (× av).
    pub factor: f64,
    /// Traffic reduction vs ideal, percent.
    pub reduction_pct: Welford,
    /// RMSE without the location estimator, metres.
    pub rmse_without_le: Welford,
    /// RMSE with the location estimator, metres.
    pub rmse_with_le: Welford,
}

/// The sweep's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSweep {
    /// The seeds evaluated.
    pub seeds: Vec<u64>,
    /// Ticks per run.
    pub duration_ticks: u64,
    /// One aggregate per DTH factor, in configuration order.
    pub factors: Vec<FactorStats>,
}

/// Runs the campaign once per seed — campaigns on separate threads, one per
/// seed — and aggregates the headline metrics in seed order (so the result
/// is identical to a sequential sweep).
///
/// # Panics
///
/// Panics on an empty seed list or if a worker thread panics.
#[must_use]
pub fn sweep_seeds(base: &ExperimentConfig, seeds: &[u64]) -> SeedSweep {
    assert!(!seeds.is_empty(), "sweep needs at least one seed");
    let mut factors: Vec<FactorStats> = base
        .dth_factors
        .iter()
        .map(|&factor| FactorStats {
            factor,
            reduction_pct: Welford::new(),
            rmse_without_le: Welford::new(),
            rmse_with_le: Welford::new(),
        })
        .collect();

    // Each seed's campaign is independent; fan out with scoped threads.
    let campaigns = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let mut cfg = base.clone();
                cfg.seed = seed;
                scope.spawn(move |_| run_campaign(&cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("sweep scope panicked");

    for data in &campaigns {
        let ideal = data.ideal.total_sent() as f64;
        for (stats, (_, run)) in factors.iter_mut().zip(&data.adf) {
            stats
                .reduction_pct
                .push(100.0 * (1.0 - run.total_sent() as f64 / ideal));
            let (with, without) = run.mean_rmse();
            stats.rmse_with_le.push(with);
            stats.rmse_without_le.push(without);
        }
    }

    SeedSweep {
        seeds: seeds.to_vec(),
        duration_ticks: base.duration_ticks,
        factors,
    }
}

impl SeedSweep {
    /// Whether every headline claim held for every aggregate:
    ///
    /// * traffic reduction grows with the DTH factor,
    /// * wherever there is substantial error to recover (mean unassisted
    ///   RMSE above 10 m), the location estimator strictly reduces it,
    /// * and the estimator never meaningfully degrades accuracy anywhere
    ///   (within 5 % where the unassisted error is already small — at
    ///   0.75 av the filter passes most updates and both brokers are nearly
    ///   exact, so LE is a statistical dead heat there).
    #[must_use]
    pub fn conclusions_hold(&self) -> bool {
        let reductions_monotone = self
            .factors
            .windows(2)
            .all(|w| w[1].reduction_pct.mean() > w[0].reduction_pct.mean());
        let le_helps = self.factors.iter().all(|f| {
            let with = f.rmse_with_le.mean();
            let without = f.rmse_without_le.mean();
            if without > 10.0 {
                with < without
            } else {
                with <= without * 1.05
            }
        });
        reductions_monotone && le_helps
    }
}

fn mean_std(w: &Welford) -> String {
    format!("{:.1} ± {:.1}", w.mean(), w.std_dev())
}

impl fmt::Display for SeedSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Seed sweep: {} seeds × {} ticks",
            self.seeds.len(),
            self.duration_ticks
        )?;
        let rows: Vec<Vec<String>> = self
            .factors
            .iter()
            .map(|s| {
                vec![
                    format!("{:.2}av", s.factor),
                    mean_std(&s.reduction_pct),
                    mean_std(&s.rmse_without_le),
                    mean_std(&s.rmse_with_le),
                ]
            })
            .collect();
        let t = text_table(&["DTH", "reduction %", "RMSE w/o LE", "RMSE w/ LE"], &rows);
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "headline conclusions hold across seeds: {}",
            if self.conclusions_hold() { "yes" } else { "NO" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_aggregates_across_seeds() {
        let cfg = ExperimentConfig {
            duration_ticks: 400,
            ..ExperimentConfig::default()
        };
        let sweep = sweep_seeds(&cfg, &[1, 2, 3]);
        assert_eq!(sweep.factors.len(), 3);
        for s in &sweep.factors {
            assert_eq!(s.reduction_pct.count(), 3);
        }
        assert!(
            sweep.conclusions_hold(),
            "paper conclusions failed the sweep:\n{sweep}"
        );
        let text = sweep.to_string();
        assert!(text.contains("±"));
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_panics() {
        let _ = sweep_seeds(&ExperimentConfig::default(), &[]);
    }
}
