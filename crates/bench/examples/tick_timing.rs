//! Minimal steady-state tick timer for interleaved A/B comparisons.
//!
//! ```text
//! cargo run --release -p mobigrid-bench --example tick_timing -- \
//!     [blocks_x] [blocks_y] [threads] [warmup] [ticks] [reps]
//! ```
//!
//! Builds the grid-city ADF simulation, warms it past first-contact
//! registrations and scratch high-water marks, then times `ticks` steps
//! `reps` times and prints each reading plus the best ns/tick. On noisy
//! shared hosts only best-of or interleaved readings are meaningful; the
//! gated, recorded numbers come from `perfbench` and its ledger
//! `BENCH_perfbench.json`.

use std::time::Instant;

use mobigrid_bench::build_city_sim;

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let bx = *args.first().unwrap_or(&8) as usize;
    let by = *args.get(1).unwrap_or(&8) as usize;
    let threads = *args.get(2).unwrap_or(&1) as usize;
    let warmup = *args.get(3).unwrap_or(&60);
    let ticks = *args.get(4).unwrap_or(&200);
    let reps = *args.get(5).unwrap_or(&5);

    let mut sim = build_city_sim(11, (bx, by), threads);
    sim.run(warmup);

    let mut best = u128::MAX;
    for rep in 0..reps {
        let started = Instant::now();
        sim.run(ticks);
        let per_tick = started.elapsed().as_nanos() / u128::from(ticks.max(1));
        best = best.min(per_tick);
        println!("rep {rep}: {per_tick} ns/tick");
    }
    println!("best: {best} ns/tick ({bx}x{by} city, {threads} threads)");
}
