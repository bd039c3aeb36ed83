//! One Criterion benchmark per paper table/figure: times regenerating each
//! artefact from scratch (workload generation + simulation + aggregation)
//! at a reduced duration, and asserts the qualitative shape as a guard.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mobigrid_experiments::campaign::{run_campaign, run_policy, PolicySpec};
use mobigrid_experiments::config::ExperimentConfig;
use mobigrid_experiments::{fig4, fig5, fig6, fig89, table1};

const TICKS: u64 = 120;

/// The paper's campaign shortened to `TICKS`.
fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        duration_ticks: TICKS,
        ..ExperimentConfig::default()
    }
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_spec", |b| {
        b.iter(|| {
            let t = table1::compute();
            assert_eq!(t.total(), 140);
            black_box(t.to_string())
        });
    });
}

fn bench_fig4_lu_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_lu_rate");
    g.sample_size(10);
    g.bench_function("ideal_vs_adf", |b| {
        b.iter(|| {
            let data = run_campaign(&bench_config());
            let fig = fig4::compute(&data);
            assert!(fig.reduction_pct.last().expect("rows").1 > 0.0);
            black_box(fig)
        });
    });
    g.finish();
}

fn bench_fig5_accumulated(c: &mut Criterion) {
    let data = run_campaign(&bench_config());
    c.bench_function("fig5_accumulated", |b| {
        b.iter(|| {
            let fig = fig5::compute(black_box(&data));
            assert!(fig.saved_vs_ideal.last().expect("rows").1 > 0);
            black_box(fig)
        });
    });
}

fn bench_fig6_by_region(c: &mut Criterion) {
    let data = run_campaign(&bench_config());
    c.bench_function("fig6_by_region", |b| {
        b.iter(|| {
            let fig = fig6::compute(black_box(&data));
            assert_eq!(fig.rates.len(), 3);
            black_box(fig)
        });
    });
}

fn bench_fig7_rmse(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_rmse");
    g.sample_size(10);
    g.bench_function("with_and_without_le", |b| {
        b.iter(|| {
            let run = run_policy(&bench_config(), PolicySpec::Adf(1.0));
            let (with, without) = run.mean_rmse();
            assert!(with.is_finite() && without.is_finite());
            black_box((with, without))
        });
    });
    g.finish();
}

fn bench_fig8_fig9_rmse_by_region(c: &mut Criterion) {
    let data = run_campaign(&bench_config());
    c.bench_function("fig8_fig9_rmse_by_region", |b| {
        b.iter(|| {
            let fig = fig89::compute(black_box(&data));
            assert_eq!(fig.without_le.len(), fig.with_le.len());
            black_box(fig)
        });
    });
}

// The group function `criterion_group!` expands to is public; a private
// module keeps it out of the crate's documented surface.
mod groups {
    use super::*;

    criterion_group!(
        figures,
        bench_table1,
        bench_fig4_lu_rate,
        bench_fig5_accumulated,
        bench_fig6_by_region,
        bench_fig7_rmse,
        bench_fig8_fig9_rmse_by_region
    );
}
criterion_main!(groups::figures);
