//! Quickstart: run the paper's headline experiment for two simulated
//! minutes and print the traffic reduction and location error.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mobigrid::experiments::SimConfig;

fn main() {
    // The paper's recipe: the Table-1 population of 140 nodes on the
    // Figure-1 campus (deterministic from the seed), the adaptive distance
    // filter at DTH = 1.0 × cluster average velocity, Brown location
    // estimation, and the campus access network.
    let mut sim = SimConfig {
        with_network: true,
        ..SimConfig::scenario("campus_140")
    }
    .build()
    .expect("valid simulation");
    println!("population: {} mobile nodes", sim.node_count());

    let stats = sim.run(120);

    let sent: u64 = stats.iter().map(|t| u64::from(t.sent)).sum();
    let observed: u64 = stats.iter().map(|t| u64::from(t.observed)).sum();
    let reduction = 100.0 * (1.0 - sent as f64 / observed as f64);
    println!("\nafter {} simulated seconds:", stats.len());
    println!("  location updates observed:    {observed}");
    println!("  location updates transmitted: {sent} ({reduction:.1}% reduction)");

    let meter = sim.network().expect("network attached").meter();
    println!("  bytes over the air:           {}", meter.bytes());

    let last = stats.last().expect("ran at least one tick");
    println!(
        "  location RMSE without LE:     {:.2} m",
        last.rmse_without_le
    );
    println!("  location RMSE with LE:        {:.2} m", last.rmse_with_le);
}
