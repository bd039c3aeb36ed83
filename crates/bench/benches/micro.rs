//! Micro-benchmarks of the algorithmic kernels on the simulation's hot
//! path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mobigrid_adf::{DistanceFilter, MobileGridSim, MobilityClassifier};
use mobigrid_bench::build_city_sim;
use mobigrid_campus::Campus;
use mobigrid_cluster::Bsas;
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_forecast::{BrownPositionEstimator, Forecaster, PositionEstimator};
use mobigrid_geo::{Point, Polyline};
use mobigrid_hla::{FedTime, ObjectModel, Rti};

fn bench_bsas_clustering(c: &mut Criterion) {
    // 110 moving nodes' velocity features, the per-recluster workload.
    let features: Vec<Vec<f64>> = (0..110)
        .map(|i| vec![1.0 + f64::from(i % 10) * 0.9])
        .collect();
    c.bench_function("bsas_cluster_110_nodes", |b| {
        b.iter(|| black_box(Bsas::new(1.0).cluster(black_box(&features))));
    });
}

fn bench_brown_smoother(c: &mut Criterion) {
    c.bench_function("brown_observe_forecast", |b| {
        let mut brown = mobigrid_forecast::BrownDouble::new(0.5).expect("valid");
        let mut x = 0.0;
        b.iter(|| {
            x += 1.0;
            brown.observe(black_box(x));
            black_box(brown.forecast(1.0))
        });
    });
}

fn bench_position_estimator(c: &mut Criterion) {
    c.bench_function("brown_position_observe_estimate", |b| {
        let mut est = BrownPositionEstimator::new(0.5).expect("valid");
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            est.observe(t, Point::new(1.3 * t, 0.2 * t));
            black_box(est.estimate(t + 1.0))
        });
    });
}

fn bench_distance_filter(c: &mut Criterion) {
    c.bench_function("distance_filter_observe", |b| {
        let mut df = DistanceFilter::new(2.0);
        let mut x = 0.0;
        b.iter(|| {
            x += 1.7;
            black_box(df.observe(Point::new(x, 0.0)))
        });
    });
}

fn bench_classifier(c: &mut Criterion) {
    c.bench_function("classifier_observe_classify", |b| {
        let mut cl = MobilityClassifier::new(10, 2.0);
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            cl.observe(t, Point::new(1.2 * t, (t * 0.3).sin()));
            black_box(cl.classify())
        });
    });
}

fn bench_polyline_walk(c: &mut Criterion) {
    let road = Polyline::new(
        (0..20)
            .map(|i| Point::new(f64::from(i) * 25.0, f64::from(i % 3) * 10.0))
            .collect(),
    )
    .expect("valid polyline");
    let total = road.length();
    c.bench_function("polyline_point_at_distance", |b| {
        let mut s = 0.0;
        b.iter(|| {
            s = (s + 13.7) % total;
            black_box(road.point_at_distance(black_box(s)))
        });
    });
}

fn bench_campus_routing(c: &mut Criterion) {
    let campus = Campus::inha_like();
    let from = campus.waypoint("gate_a").expect("exists");
    let to = campus.entrance("B4").expect("exists");
    c.bench_function("campus_dijkstra_route", |b| {
        b.iter(|| black_box(campus.route(black_box(from), black_box(to))));
    });
}

fn bench_hla_update_reflect(c: &mut Criterion) {
    let mut fom = ObjectModel::new();
    let class = fom.add_object_class("C");
    let attr = fom.add_attribute(class, "a").expect("fresh");
    let rti = Rti::new();
    rti.create_federation("bench", fom).expect("fresh");
    let tx = rti.join("bench", "tx").expect("exists");
    let rx = rti.join("bench", "rx").expect("exists");
    tx.publish_object_class(class).expect("declared");
    rx.subscribe_object_class(class, &[attr]).expect("declared");
    tx.enable_time_regulation(FedTime::ZERO).expect("first");
    let obj = tx.register_object(class).expect("published");
    rx.tick().expect("joined");

    c.bench_function("hla_update_reflect_roundtrip", |b| {
        b.iter(|| {
            tx.update_attributes(obj, vec![(attr, vec![1, 2, 3, 4])], None)
                .expect("owned");
            black_box(rx.tick().expect("joined"))
        });
    });
}

/// The paper's 140-node campus under the ADF at 1.0 av, workload seed 11.
fn campus_sim(threads: usize) -> MobileGridSim {
    SimConfig::scenario("campus_140")
        .seed(11)
        .threads(threads)
        .build()
        .expect("registered scenario")
}

/// A named scenario under the given tick driver, workload seed 11.
fn driven_sim(name: &str, driver: mobigrid_adf::TickDriver) -> MobileGridSim {
    let mut cfg = SimConfig::scenario(name).seed(11);
    cfg.runtime.driver = driver;
    cfg.build().expect("registered scenario")
}

fn bench_full_sim_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.bench_function("full_140_node_tick", |b| {
        let mut sim = campus_sim(1);
        b.iter(|| black_box(sim.step()));
    });
    g.finish();
}

/// Steady-state tick: the same pipelines as `tick_throughput`, but warmed
/// past first-contact registrations, classifier-window fill and the scratch
/// buffers' high-water marks before measurement begins. Post-warmup the
/// single-threaded tick path performs zero heap allocations (pinned by
/// `tests/zero_alloc.rs`), so this group is the honest per-tick cost of a
/// long campaign — `BENCH_tick.json`'s `steady_state` series.
fn bench_steady_state_tick(c: &mut Criterion) {
    const WARMUP_TICKS: u64 = 60;
    let mut g = c.benchmark_group("steady_state");
    g.sample_size(20);
    g.bench_function("campus_140_node_tick_warm", |b| {
        let mut sim = campus_sim(1);
        sim.run(WARMUP_TICKS);
        b.iter(|| black_box(sim.step()));
    });
    g.bench_function("city_1140_node_tick_warm", |b| {
        let mut sim = build_city_sim(11, (8, 8), 1);
        sim.run(WARMUP_TICKS);
        b.iter(|| black_box(sim.step()));
    });
    g.finish();
}

/// What the flight recorder costs per tick: the warmed campus pipeline
/// stepped through `step_recorded` with the zero-sized [`NoopRecorder`]
/// (the `step()` fast path — must match `steady_state`) and with a
/// [`MemoryRecorder`], whose bounded ring absorbs the full causal event
/// stream (~5 events per node per tick). The gap between the two series
/// is the price of `--telemetry`, recorded in `BENCH_telemetry.json`.
fn bench_recording_overhead(c: &mut Criterion) {
    use mobigrid_telemetry::{MemoryRecorder, NoopRecorder};
    const WARMUP_TICKS: u64 = 60;
    let mut g = c.benchmark_group("recording_overhead");
    g.sample_size(20);
    g.bench_function("campus_140_node_tick_noop", |b| {
        let mut sim = campus_sim(1);
        sim.run(WARMUP_TICKS);
        let mut rec = NoopRecorder;
        b.iter(|| black_box(sim.step_recorded(&mut rec)));
    });
    g.bench_function("campus_140_node_tick_memory", |b| {
        let mut sim = campus_sim(1);
        sim.run(WARMUP_TICKS);
        let mut rec = MemoryRecorder::new();
        b.iter(|| black_box(sim.step_recorded(&mut rec)));
    });
    g.finish();
}

/// The fault channel's per-transmission overhead: the same frame pushed
/// through a lossless plan (pure hash rolls, no fault taken) and through a
/// lossy mix (drops, CRC-checked corruption, deferral bookkeeping). This
/// bounds what a fault plan adds to every transmitted update.
fn bench_fault_channel(c: &mut Criterion) {
    use mobigrid_wireless::{
        AccessNetwork, FaultChannel, FaultPlan, Gateway, GatewayKind, LocationUpdate, MnId,
    };
    let mut g = c.benchmark_group("fault_channel");
    let plans = [
        ("lossless", FaultPlan::lossless()),
        (
            "lossy_mix",
            FaultPlan {
                drop_rate: 0.1,
                corrupt_rate: 0.05,
                delay_rate: 0.05,
                max_delay_ticks: 4,
                duplicate_rate: 0.05,
                flaps: Vec::new(),
            },
        ),
    ];
    for (name, plan) in plans {
        g.bench_function(BenchmarkId::new("transmit", name), |b| {
            let mut net = AccessNetwork::new(vec![Gateway::new(
                0,
                GatewayKind::BaseStation,
                Point::new(0.0, 0.0),
                1e6,
            )]);
            let mut ch = FaultChannel::new(plan.clone(), 7).expect("valid plan");
            let mut seq = 0u32;
            let mut scratch = Vec::new();
            b.iter(|| {
                seq = seq.wrapping_add(1);
                let lu =
                    LocationUpdate::new(MnId::new(1), f64::from(seq), Point::new(10.0, 20.0), seq);
                let event = ch.transmit(black_box(&mut net), black_box(&lu), 0, u64::from(seq));
                // Keep the in-flight queue bounded: drain due deferrals.
                ch.drain_due(u64::from(seq), &mut scratch);
                scratch.clear();
                black_box(event)
            });
        });
    }
    g.finish();
}

/// Tick throughput across the population × thread-count matrix: the paper's
/// 140-node campus and an 1140-node 8×8 grid city, each at 1–8 worker
/// threads. Results are bit-identical across the thread axis; only
/// wall-clock time changes. The single-thread rows are the baselines
/// recorded in `BENCH_tick.json`.
fn bench_tick_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("tick_throughput");
    g.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        g.bench_function(BenchmarkId::new("campus_140_nodes", threads), |b| {
            let mut sim = campus_sim(threads);
            b.iter(|| black_box(sim.step()));
        });
        g.bench_function(BenchmarkId::new("city_1140_nodes", threads), |b| {
            let mut sim = build_city_sim(11, (8, 8), threads);
            b.iter(|| black_box(sim.step()));
        });
    }
    g.finish();
}

/// The columnar (SoA) engine across the scenario × thread matrix, plus
/// the `metro_100k` headline. Sims are built once and warmed before
/// measurement (the steady state is the allocation-free column sweep), so
/// this group is cheap enough to include the 100k-node city; its
/// single-thread ns/tick is the `metro_100k` row of `BENCH_tick.json`.
fn bench_soa_tick(c: &mut Criterion) {
    const WARMUP_TICKS: u64 = 30;
    let mut g = c.benchmark_group("soa_tick");
    g.sample_size(10);
    for name in ["campus_140", "city_1140"] {
        for &threads in &[1usize, 2, 4] {
            let mut sim = SimConfig::scenario(name)
                .seed(11)
                .threads(threads)
                .build()
                .expect("registered scenario");
            sim.run(WARMUP_TICKS);
            g.bench_function(BenchmarkId::new(name, threads), |b| {
                b.iter(|| black_box(sim.step()));
            });
        }
    }
    let mut sim = SimConfig::scenario("metro_100k")
        .seed(11)
        .build()
        .expect("registered scenario");
    sim.run(5);
    g.bench_function(BenchmarkId::new("metro_100k", 1), |b| {
        b.iter(|| black_box(sim.step()));
    });
    g.finish();
}

/// Dense vs sparse tick driver, interleaved per workload so both sides of
/// each pair share the container's noise phase. The named scenarios
/// (campus/city/metro) measure the sparse driver's overhead-to-win ratio
/// on mixed populations; `idle_20k` (20,000 parked nodes + 200 walkers)
/// is the quiescent-dominated regime the wake wheel targets, where the
/// sparse driver skips almost all movement and broker work. Results are
/// bit-identical across the driver axis; single-thread ns/tick pairs are
/// recorded in `BENCH_tick.json` under `sparse_driver`.
fn bench_sparse_tick(c: &mut Criterion) {
    use mobigrid_adf::TickDriver;
    use mobigrid_bench::build_idle_sim;
    const WARMUP_TICKS: u64 = 80;
    const DRIVERS: [(&str, TickDriver); 2] =
        [("dense", TickDriver::Dense), ("sparse", TickDriver::Sparse)];
    let mut g = c.benchmark_group("sparse_tick");
    g.sample_size(10);
    for name in ["campus_140", "city_1140"] {
        for (label, driver) in DRIVERS {
            let mut sim = driven_sim(name, driver);
            sim.run(WARMUP_TICKS);
            g.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter(|| black_box(sim.step()));
            });
        }
    }
    for (label, driver) in DRIVERS {
        let mut sim = driven_sim("metro_100k", driver);
        sim.run(5);
        g.bench_function(BenchmarkId::new("metro_100k", label), |b| {
            b.iter(|| black_box(sim.step()));
        });
    }
    for (label, driver) in DRIVERS {
        let mut sim = build_idle_sim(11, 20_000, 200, driver);
        sim.run(WARMUP_TICKS);
        g.bench_function(BenchmarkId::new("idle_20k", label), |b| {
            b.iter(|| black_box(sim.step()));
        });
    }
    g.finish();
}

// The group function `criterion_group!` expands to is public; a private
// module keeps it out of the crate's documented surface.
mod groups {
    use super::*;

    criterion_group!(
        micro,
        bench_bsas_clustering,
        bench_brown_smoother,
        bench_position_estimator,
        bench_distance_filter,
        bench_classifier,
        bench_polyline_walk,
        bench_campus_routing,
        bench_hla_update_reflect,
        bench_full_sim_tick,
        bench_steady_state_tick,
        bench_recording_overhead,
        bench_fault_channel,
        bench_tick_throughput,
        bench_soa_tick,
        bench_sparse_tick
    );
}
criterion_main!(groups::micro);
