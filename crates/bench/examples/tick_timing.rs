//! Minimal steady-state tick timer for interleaved A/B comparisons.
//!
//! ```text
//! cargo run --release -p mobigrid-bench --example tick_timing -- \
//!     [blocks_x] [blocks_y] [threads] [warmup] [ticks] [reps]
//! cargo run --release -p mobigrid-bench --example tick_timing -- \
//!     idle [parked] [walkers] [threads] [warmup] [ticks] [reps]
//! ```
//!
//! The first form builds the grid-city ADF simulation (dense driver), the
//! second the idle-dominated population of `build_idle_sim` (sparse
//! driver; defaults 20,000 parked nodes and 200 walkers, perfbench's
//! `sim_idle`). Either is warmed past first-contact registrations and
//! scratch high-water marks, then `ticks` steps are timed `reps` times.
//! Each rep prints its mean ns/tick; the summary prints the best-of mean,
//! the per-tick p50/p90/p99 over every timed tick, and the median time of
//! each tick phase: observe, filter, transmit, estimate (apply/measure)
//! and the rest of the tick (the monitors' scalar laws and bookkeeping).
//! Phases are read off the tick's phase spans by a recorder that is not
//! enabled, so the timed tick takes the unrecorded path.
//!
//! On noisy shared hosts only best-of or interleaved readings are
//! meaningful; the gated, recorded numbers come from `perfbench` and its
//! ledger `BENCH_perfbench.json`.

use std::any::Any;
use std::time::Instant;

use mobigrid_adf::{MobileGridSim, RuntimeOptions, TickDriver};
use mobigrid_bench::{build_city_sim, build_idle_sim_with};
use mobigrid_telemetry::{NoopRecorder, Phase, Recorder};

/// The timed phases, in tick order; the last column is the rest of the
/// tick after the estimate span.
const PHASES: [&str; 5] = ["observe", "filter", "transmit", "estimate", "rest"];

/// A recorder that stores nothing but the wall time between the tick's
/// start and each phase span. It is not enabled, so the tick it times
/// runs exactly the unrecorded path.
struct PhaseClock {
    mark: Instant,
    /// This tick's phase times in µs, indexed like [`PHASES`].
    tick: [f64; 5],
}

impl Recorder for PhaseClock {
    fn tick_start(&mut self, _tick: u64) {
        self.tick = [0.0; 5];
        self.mark = Instant::now();
    }

    fn span(&mut self, phase: Phase, _items: u64) {
        let k = match phase {
            Phase::Observe => 0,
            Phase::Filter => 1,
            Phase::Transmit => 2,
            Phase::Estimate => 3,
            _ => return,
        };
        let now = Instant::now();
        self.tick[k] = (now - self.mark).as_secs_f64() * 1e6;
        self.mark = now;
    }

    fn fork(&self) -> Box<dyn Recorder> {
        Box::new(NoopRecorder)
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// The `q`-quantile of `sorted` (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let idle = args.first().is_some_and(|a| a == "idle");
    if idle {
        args.remove(0);
    }
    let args: Vec<u64> = args
        .iter()
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let arg = |i: usize, default: u64| *args.get(i).unwrap_or(&default);
    let (a, b) = if idle {
        (arg(0, 20_000), arg(1, 200))
    } else {
        (arg(0, 8), arg(1, 8))
    };
    let threads = arg(2, 1) as usize;
    let warmup = arg(3, if idle { 100 } else { 60 });
    let ticks = arg(4, 200).max(1);
    let reps = arg(5, 5).max(1);

    let (mut sim, label): (MobileGridSim, String) = if idle {
        let runtime = RuntimeOptions {
            driver: TickDriver::Sparse,
            threads,
            ..RuntimeOptions::default()
        };
        let sim = build_idle_sim_with(41, a as usize, b as usize, runtime);
        (sim, format!("idle {a}+{b}"))
    } else {
        let sim = build_city_sim(11, (a as usize, b as usize), threads);
        (sim, format!("{a}x{b} city"))
    };
    sim.run(warmup);

    let mut clock = PhaseClock {
        mark: Instant::now(),
        tick: [0.0; 5],
    };
    let mut totals = Vec::new();
    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut best = u128::MAX;
    for rep in 0..reps {
        let started = Instant::now();
        for _ in 0..ticks {
            let tick_start = Instant::now();
            sim.step_recorded(&mut clock);
            let total = tick_start.elapsed().as_secs_f64() * 1e6;
            let [observe, filter, transmit, estimate, _] = clock.tick;
            clock.tick[4] = total - (observe + filter + transmit + estimate);
            totals.push(total);
            for (column, t) in phases.iter_mut().zip(clock.tick) {
                column.push(t);
            }
        }
        let per_tick = started.elapsed().as_nanos() / u128::from(ticks);
        best = best.min(per_tick);
        println!("rep {rep}: {per_tick} ns/tick");
    }
    println!("best: {best} ns/tick ({label}, {threads} threads)");
    totals.sort_by(f64::total_cmp);
    println!(
        "tick us: p50 {:.1} p90 {:.1} p99 {:.1} ({} ticks)",
        quantile(&totals, 0.5),
        quantile(&totals, 0.9),
        quantile(&totals, 0.99),
        totals.len()
    );
    let medians: Vec<String> = PHASES
        .iter()
        .zip(phases.iter_mut())
        .map(|(name, column)| {
            column.sort_by(f64::total_cmp);
            format!("{name} {:.1}", quantile(column, 0.5))
        })
        .collect();
    println!("phase us p50: {}", medians.join(" "));
}
