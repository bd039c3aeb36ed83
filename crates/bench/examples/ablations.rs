//! Quality ablations over the design choices called out in `DESIGN.md`.
//!
//! This example prints comparison tables rather than timings: each
//! ablation holds the workload fixed (same seed) and varies exactly one
//! design choice.
//!
//! ```text
//! cargo run --release -p mobigrid-bench --example ablations
//! ```

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, EstimatorKind, FilterPolicy, FilterReference,
};
use mobigrid_campus::Campus;
use mobigrid_experiments::campaign::{run_policy, PolicySpec, RunResult};
use mobigrid_experiments::config::ExperimentConfig;
use mobigrid_experiments::report::text_table;
use mobigrid_experiments::workload;

const TICKS: u64 = 400;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        duration_ticks: TICKS,
        ..ExperimentConfig::default()
    }
}

fn summarise(run: &RunResult, ideal_sent: u64) -> (f64, f64, f64) {
    let reduction = 100.0 * (1.0 - run.total_sent() as f64 / ideal_sent as f64);
    let (with, without) = run.mean_rmse();
    (reduction, without, with)
}

/// Ablation 1 — adaptive per-cluster DTH vs one global DTH at equal factor.
fn ablation_adf_vs_general_df() {
    println!("== Ablation: ADF (per-cluster DTH) vs general DF (global DTH) ==");
    let cfg = cfg();
    let ideal = run_policy(&cfg, PolicySpec::Ideal).total_sent();
    let mut rows = Vec::new();
    for factor in [0.75, 1.0, 1.25] {
        for spec in [PolicySpec::GeneralDf(factor), PolicySpec::Adf(factor)] {
            let run = run_policy(&cfg, spec);
            let (red, rmse_raw, rmse_le) = summarise(&run, ideal);
            rows.push(vec![
                run.label.clone(),
                format!("{red:.1}%"),
                format!("{rmse_raw:.1}"),
                format!("{rmse_le:.1}"),
            ]);
        }
    }
    println!(
        "{}",
        text_table(
            &["policy", "traffic cut", "RMSE w/o LE", "RMSE w/ LE"],
            &rows
        )
    );
}

/// Ablation 2 — broker-side estimator choice at a fixed filter.
fn ablation_estimators() {
    println!("== Ablation: location estimator (ADF at 1.0 av) ==");
    let kinds: [(&str, EstimatorKind); 5] = [
        ("without LE", EstimatorKind::WithoutLe),
        ("dead reckoning", EstimatorKind::DeadReckoning),
        (
            "Brown speed+dir (paper)",
            EstimatorKind::Brown { alpha: 0.5 },
        ),
        (
            "Holt per axis",
            EstimatorKind::HoltAxes {
                alpha: 0.7,
                beta: 0.2,
            },
        ),
        (
            "Kalman const-velocity",
            EstimatorKind::KalmanCv {
                accel_sigma: 0.5,
                measurement_sigma: 0.5,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, kind) in kinds {
        let mut config = cfg();
        config.estimator = kind;
        let run = run_policy(&config, PolicySpec::Adf(1.0));
        let (with, without) = run.mean_rmse();
        rows.push(vec![
            name.to_string(),
            format!("{with:.2}"),
            format!("{:.1}%", 100.0 * with / without),
        ]);
    }
    println!(
        "{}",
        text_table(&["estimator", "RMSE (m)", "% of stale error"], &rows)
    );
}

/// Ablation 3 — sensitivity to the clustering similarity bound α.
fn ablation_alpha() {
    println!("== Ablation: sequential-clustering similarity bound α ==");
    let base = cfg();
    let ideal = run_policy(&base, PolicySpec::Ideal).total_sent();
    let mut rows = Vec::new();
    for alpha in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut config = base.clone();
        config.adf.alpha = alpha;
        let run = run_policy(&config, PolicySpec::Adf(1.0));
        let (red, rmse_raw, rmse_le) = summarise(&run, ideal);
        rows.push(vec![
            format!("{alpha}"),
            format!("{red:.1}%"),
            format!("{rmse_raw:.1}"),
            format!("{rmse_le:.1}"),
        ]);
    }
    println!(
        "{}",
        text_table(
            &["alpha (m/s)", "traffic cut", "RMSE w/o LE", "RMSE w/ LE"],
            &rows
        )
    );
}

/// Ablation 4 — classifier window length vs classification accuracy.
fn ablation_classifier_window() {
    println!("== Ablation: classifier window vs pattern-recovery accuracy ==");
    let campus = Campus::inha_like();
    let mut rows = Vec::new();
    for window in [4usize, 10, 20, 40] {
        let mut nodes = workload::populate(&campus, 42);
        let mut adf = AdaptiveDistanceFilter::new(AdfConfig {
            classifier_window: window,
            ..AdfConfig::new(1.0)
        })
        .expect("valid config");
        for t in 1..=120u64 {
            let obs: Vec<_> = nodes
                .iter_mut()
                .map(|n| {
                    let p = n.step(t as f64, 1.0);
                    (n.id(), p)
                })
                .collect();
            adf.decide_tick(t as f64, &obs);
        }
        let mut correct = 0usize;
        for n in &nodes {
            if adf.pattern_of(n.id()) == Some(n.declared_pattern()) {
                correct += 1;
            }
        }
        rows.push(vec![
            window.to_string(),
            format!("{correct}/{}", nodes.len()),
            format!("{:.1}%", 100.0 * correct as f64 / nodes.len() as f64),
        ]);
    }
    println!(
        "{}",
        text_table(&["window (ticks)", "recovered", "accuracy"], &rows)
    );
}

/// Ablation 5 — the paper's per-observation distance semantics vs the
/// dead-band (last-transmitted) variant.
fn ablation_filter_reference() {
    println!("== Ablation: distance reference semantics (ADF at 1.0 av) ==");
    let base = cfg();
    let ideal = run_policy(&base, PolicySpec::Ideal).total_sent();
    let mut rows = Vec::new();
    for (name, reference) in [
        (
            "previous observation (paper)",
            FilterReference::PreviousObservation,
        ),
        (
            "last transmitted (dead band)",
            FilterReference::LastTransmitted,
        ),
    ] {
        let mut config = base.clone();
        config.adf.reference = reference;
        let run = run_policy(&config, PolicySpec::Adf(1.0));
        let (red, rmse_raw, rmse_le) = summarise(&run, ideal);
        rows.push(vec![
            name.to_string(),
            format!("{red:.1}%"),
            format!("{rmse_raw:.2}"),
            format!("{rmse_le:.2}"),
        ]);
    }
    println!(
        "{}",
        text_table(
            &["semantics", "traffic cut", "RMSE w/o LE", "RMSE w/ LE"],
            &rows
        )
    );
    println!("(the dead band bounds the stale error by the DTH, trading traffic for accuracy)\n");
}

/// Ablation 6 — the estimator's silence time constant τ.
fn ablation_silence_tau() {
    use mobigrid_forecast::{BrownPositionEstimator, PositionEstimator};
    use mobigrid_geo::Point;

    println!("== Ablation: estimator silence time constant τ ==");
    // One slow-traversal silence, reconstructed offline: a walker reports
    // at 3 m/s for 20 s, then moves at 1 m/s silently for 60 s.
    let mut rows = Vec::new();
    for tau in [5.0, 15.0, 30.0, 60.0] {
        let mut est = BrownPositionEstimator::new(0.5)
            .expect("valid alpha")
            .with_silence_tau(tau);
        for t in 0..20 {
            est.observe(f64::from(t), Point::new(3.0 * f64::from(t), 0.0));
        }
        let last_reported = Point::new(57.0, 0.0);
        let mut worst: f64 = 0.0;
        let mut total = 0.0;
        for s in 1..=60u32 {
            let truth = last_reported + mobigrid_geo::Vec2::new(f64::from(s), 0.0);
            let err = est
                .estimate(19.0 + f64::from(s))
                .expect("warmed up")
                .distance_to(truth);
            worst = worst.max(err);
            total += err;
        }
        rows.push(vec![
            format!("{tau:.0}s"),
            format!("{:.1}", total / 60.0),
            format!("{worst:.1}"),
        ]);
    }
    println!(
        "{}",
        text_table(&["tau", "mean error (m)", "worst error (m)"], &rows)
    );
    println!("(the best τ depends on how much slower silent nodes move: this single-slowdown");
    println!(" microbenchmark favours ~30 s, while the full campus workload — where silences");
    println!(" often end in reversals — is served better by the conservative 15 s default)\n");
}

fn main() {
    println!("mobigrid design ablations — {TICKS} simulated seconds each, seed 42\n");
    ablation_adf_vs_general_df();
    ablation_estimators();
    ablation_alpha();
    ablation_classifier_window();
    ablation_filter_reference();
    ablation_silence_tau();
}
