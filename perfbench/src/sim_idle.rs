//! `sim_idle`: 20,000 parked nodes plus 200 walkers under the sparse
//! driver, at 1 thread. The workload's operation is one tick.
//! `op_us_p50` and `setup_s` are the median over the run's segments of
//! each segment's median tick and of the set-ups, not `sim_city`'s 10th
//! percentile. On a shared host this workload runs slow for minutes at a
//! time (CPU time per tick of identical work up 25-40%). In such
//! stretches nearly every segment is slow, so the 10th percentile rests
//! on the few fast ones and spanned 17% over five runs, while the
//! median stayed within 2.2%.
//!
//! Most nodes sleep in the wake wheel and their broker evaluations are
//! replayed from the idle cache, so a change to the dense movement, filter
//! or estimate kernels should barely move this workload; a change that
//! weakens sleeping or idle replay shows here and nowhere else. The
//! parked positions and walker paths are fixed; the seed only seeds the
//! per-node random streams, which these mobility models do not draw from,
//! so every seed gives the same run.
//!
//! The traced run steps the same population under the dense driver in
//! lockstep, which must end in the same state, and reads the wheel's
//! counters.

use std::time::Instant;

use mobigrid_adf::{MobileGridSim, TickDriver, WakeStats};
use mobigrid_bench::build_idle_sim;

use crate::procstat::{peak_rss_mb, Sched};
use crate::report::Report;
use crate::sims::{
    check_invariants, check_same_run, time_segment, Window, MIN_SEGMENTS, SEGMENT_TICKS,
};
use crate::stats::{fast_decile, median, us, Samples};
use crate::tracer::Tracer;
use crate::Opts;

/// Parked (permanently stationary) nodes.
pub const PARKED: usize = 20_000;

/// Walkers (ping-pong path followers).
pub const WALKERS: usize = 200;

/// Ticks stepped before timing: long enough for the parked nodes to fall
/// asleep and for several staleness-refresh rounds to pass.
pub const WARMUP_TICKS: u64 = 100;

/// Timed ticks per segment of an untraced run: half of `sim_city`'s, as a
/// tick here is about three of `sim_city`'s, for more segments a run.
/// `lu_sent_pct` and `rmse_le_m` are taken over these ticks.
pub const IDLE_SEGMENT_TICKS: u64 = 500;

fn build(seed: u64, driver: TickDriver) -> MobileGridSim {
    build_idle_sim(seed, PARKED, WALKERS, driver)
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

fn untraced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let sched = Sched::now();
    let (mut setups, mut p50s, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Window> = None;
    let mut rss_mb = None;
    let deadline = Instant::now() + opts.duration();
    while setups.len() < MIN_SEGMENTS || Instant::now() < deadline {
        let started = Instant::now();
        let mut sim = build(opts.seed, TickDriver::Sparse);
        for _ in 0..WARMUP_TICKS {
            sim.step();
        }
        setups.push(started.elapsed().as_secs_f64());

        let (times, window) = time_segment(&mut sim, IDLE_SEGMENT_TICKS);
        report.ok(IDLE_SEGMENT_TICKS);
        check_invariants(&mut report, &sim, "sparse");
        // Every segment replays the same ticks of the same seed.
        let reference = *first.get_or_insert(window);
        report.check(reference.same_bits(&window), || {
            format!("segment traffic differs from the first: {window:?} vs {reference:?}")
        });
        p50s.push(Samples::new(times.clone()).median());
        all.extend(times);
        // Read after a fixed amount of work, so that a faster host, which
        // runs more segments, does not read higher.
        if setups.len() == MIN_SEGMENTS {
            rss_mb = peak_rss_mb("self");
        }
    }
    let window = first.expect("at least one segment ran");

    let times = Samples::new(all);
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", rss_mb.unwrap_or(f64::NAN), "MB");
    report.metric("op_us_p50", median(&p50s), "us");
    report.metric("lu_sent_pct", window.sent_pct(), "%");
    report.metric("rmse_le_m", window.rmse_le_mean(), "m");
    report.diagnostic("setup_s.fast_decile", fast_decile(&setups), "s");
    report.diagnostic("segments", setups.len() as f64, "count");
    report.diagnostic("op_us_p50.fast_decile", fast_decile(&p50s), "us");
    report.diagnostic("ticks.samples", times.len() as f64, "count");
    report.diagnostic("tick_us_p99", times.p99(), "us");
    report.diagnostic("tick_us_mean", times.mean(), "us");
    report.hygiene(&sched, times.len() as u64, false);
    report
}

fn traced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut plain = build(opts.seed, TickDriver::Sparse);
    let mut sparse = build(opts.seed, TickDriver::Sparse);
    let mut dense = build(opts.seed, TickDriver::Dense);
    for _ in 0..WARMUP_TICKS {
        plain.step();
        sparse.step();
        dense.step();
    }
    let wake = |sim: &MobileGridSim| -> WakeStats {
        sim.wake_stats()
            .expect("the sparse driver reports wake stats")
    };
    let before = wake(&sparse);

    let sched = Sched::now();
    let mut tracer = Tracer::new();
    let (mut t_plain, mut t_dense) = (Vec::new(), Vec::new());
    let mut w = [Window::default(); 3];
    let deadline = Instant::now() + opts.duration();
    let mut tick = WARMUP_TICKS;
    while w[0].ticks < SEGMENT_TICKS || Instant::now() < deadline {
        tick += 1;
        let a = Instant::now();
        w[0].add(&plain.step());
        t_plain.push(us(a.elapsed()));
        w[1].add(&tracer.time("sim.tick", tick, None, || sparse.step()));
        let a = Instant::now();
        w[2].add(&dense.step());
        t_dense.push(us(a.elapsed()));
    }
    let ticks = w[0].ticks;
    report.ok(3 * ticks);
    check_same_run(
        &mut report,
        (&plain, &w[0]),
        (&sparse, &w[1]),
        "plain vs traced",
    );
    check_same_run(
        &mut report,
        (&sparse, &w[1]),
        (&dense, &w[2]),
        "sparse vs dense",
    );
    for (sim, label) in [(&plain, "plain"), (&sparse, "traced"), (&dense, "dense")] {
        check_invariants(&mut report, sim, label);
    }

    let after = wake(&sparse);
    let nodes = sparse.node_count() as f64;
    let wakes = (after.mobility_wakes + after.refresh_wakes)
        - (before.mobility_wakes + before.refresh_wakes);
    report.metric("wheel.asleep_pct", after.asleep as f64 / nodes * 100.0, "%");
    report.metric(
        "wheel.replayed_pct",
        (after.replayed_node_ticks - before.replayed_node_ticks) as f64 / (nodes * ticks as f64)
            * 100.0,
        "%",
    );
    report.metric("wheel.wakes_per_tick", wakes as f64 / ticks as f64, "count");
    let (t_plain, t_dense) = (Samples::new(t_plain), Samples::new(t_dense));
    report.metric("wheel.dense_tick_us_p50", t_dense.median(), "us");
    let span_p50 = tracer.durations_us("sim.tick").median();
    report.metric("trace.tick_span_us_p50", span_p50, "us");
    report.metric(
        "trace.overhead_pct",
        (span_p50 / t_plain.median() - 1.0) * 100.0,
        "%",
    );
    report.metric("ticks.samples", t_plain.len() as f64, "count");
    report.metric("tick_us_p99", t_plain.p99(), "us");
    report.metric("tick_us_mean", t_plain.mean(), "us");
    report.hygiene(&sched, 3 * ticks, true);
    opts.write_spans("sim_idle", &tracer, &mut report);
    report
}
