//! Thread-count determinism: the sharded parallel tick engine must be
//! invisible in the results. A full paper-scale run (140 nodes, 1800
//! ticks) produces bit-identical [`TickStats`] on one worker thread and
//! on four.
//!
//! Shard geometry is a pure function of the population size and all
//! per-shard partials are reduced in shard order, so the only thing a
//! thread count may change is wall-clock time.
//!
//! [`TickStats`]: mobigrid_adf::TickStats

use mobigrid_adf::{MobileGridSim, TickStats};
use mobigrid_experiments::SimConfig;

/// The paper's campus (seed 42, ADF at 1.0 av) on its access network.
fn build(threads: usize) -> MobileGridSim {
    SimConfig {
        with_network: true,
        ..SimConfig::scenario("campus_140")
    }
    .threads(threads)
    .build()
    .expect("valid simulation")
}

#[test]
fn full_run_is_bit_identical_across_thread_counts() {
    let mut serial = build(1);
    let mut parallel = build(4);
    assert_eq!(serial.threads(), 1);
    assert_eq!(parallel.threads(), 4);

    let a: Vec<TickStats> = serial.run(1800);
    let b: Vec<TickStats> = parallel.run(1800);

    assert_eq!(a.len(), 1800);
    assert_eq!(a.first().map(|s| s.observed), Some(140));
    for (tick, (sa, sb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(sa, sb, "tick {tick} diverged between 1 and 4 threads");
        // PartialEq on f64 fields already demands equality; make the
        // bit-level contract explicit for the RMSE series.
        assert_eq!(
            sa.rmse_with_le.to_bits(),
            sb.rmse_with_le.to_bits(),
            "tick {tick}: estimated RMSE not bit-identical"
        );
        assert_eq!(
            sa.rmse_without_le.to_bits(),
            sb.rmse_without_le.to_bits(),
            "tick {tick}: raw RMSE not bit-identical"
        );
    }

    // The cumulative accounting agrees too, including network effects.
    assert_eq!(serial.cumulative_tally(), parallel.cumulative_tally());
    let (na, nb) = (
        serial.network().expect("attached"),
        parallel.network().expect("attached"),
    );
    assert_eq!(na.meter().messages(), nb.meter().messages());
    assert_eq!(na.meter().bytes(), nb.meter().bytes());
}
