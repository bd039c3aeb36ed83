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
//! The idle form also times a walkers-only control (`idle 0 [walkers]`),
//! its reps interleaved with the parked run's, and prints each phase's
//! parked overhead: the parked run's phase median minus the control's.
//! That is what the parked nodes cost each phase, read in one session.
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

/// One simulation under the timer, with every timed tick's readings.
struct Timed {
    sim: MobileGridSim,
    label: String,
    /// Every timed tick's wall time in µs.
    totals: Vec<f64>,
    /// Every timed tick's phase times in µs, one column per [`PHASES`].
    phases: [Vec<f64>; 5],
    /// The best rep's mean ns/tick.
    best: u128,
}

impl Timed {
    fn new(mut sim: MobileGridSim, label: String, warmup: u64) -> Self {
        sim.run(warmup);
        Timed {
            sim,
            label,
            totals: Vec::new(),
            phases: Default::default(),
            best: u128::MAX,
        }
    }

    /// Times `ticks` steps and returns their mean ns/tick.
    fn rep(&mut self, clock: &mut PhaseClock, ticks: u64) -> u128 {
        let started = Instant::now();
        for _ in 0..ticks {
            let tick_start = Instant::now();
            self.sim.step_recorded(clock);
            let total = tick_start.elapsed().as_secs_f64() * 1e6;
            let [observe, filter, transmit, estimate, _] = clock.tick;
            clock.tick[4] = total - (observe + filter + transmit + estimate);
            self.totals.push(total);
            for (column, t) in self.phases.iter_mut().zip(clock.tick) {
                column.push(t);
            }
        }
        let per_tick = started.elapsed().as_nanos() / u128::from(ticks);
        self.best = self.best.min(per_tick);
        per_tick
    }

    /// Prints the summary and returns the phase medians.
    fn summary(&mut self, threads: usize) -> [f64; 5] {
        println!(
            "best: {} ns/tick ({}, {threads} threads)",
            self.best, self.label
        );
        self.totals.sort_by(f64::total_cmp);
        println!(
            "tick us: p50 {:.1} p90 {:.1} p99 {:.1} ({} ticks)",
            quantile(&self.totals, 0.5),
            quantile(&self.totals, 0.9),
            quantile(&self.totals, 0.99),
            self.totals.len()
        );
        let medians = self.phases.each_mut().map(|column| {
            column.sort_by(f64::total_cmp);
            quantile(column, 0.5)
        });
        print_phases("phase us p50", medians);
        medians
    }
}

/// Prints one value per [`PHASES`] after `title`.
fn print_phases(title: &str, values: [f64; 5]) {
    let columns: Vec<String> = PHASES
        .iter()
        .zip(values)
        .map(|(name, v)| format!("{name} {v:.1}"))
        .collect();
    println!("{title}: {}", columns.join(" "));
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

    let mut runs = if idle {
        let runtime = RuntimeOptions {
            driver: TickDriver::Sparse,
            threads,
            ..RuntimeOptions::default()
        };
        let idle_run = |parked: u64| {
            let sim = build_idle_sim_with(41, parked as usize, b as usize, runtime.clone());
            Timed::new(sim, format!("idle {parked}+{b}"), warmup)
        };
        // The walkers-only control, interleaved rep by rep.
        vec![idle_run(a), idle_run(0)]
    } else {
        let sim = build_city_sim(11, (a as usize, b as usize), threads);
        vec![Timed::new(sim, format!("{a}x{b} city"), warmup)]
    };

    let mut clock = PhaseClock {
        mark: Instant::now(),
        tick: [0.0; 5],
    };
    for rep in 0..reps {
        let readings: Vec<String> = runs
            .iter_mut()
            .map(|run| format!("{} ns/tick", run.rep(&mut clock, ticks)))
            .collect();
        println!("rep {rep}: {}", readings.join(", "));
    }
    let medians: Vec<[f64; 5]> = runs.iter_mut().map(|run| run.summary(threads)).collect();
    if let [parked, control] = medians[..] {
        let overhead = std::array::from_fn(|k| parked[k] - control[k]);
        print_phases("parked overhead us p50", overhead);
    }
}
