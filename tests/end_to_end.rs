//! Cross-crate integration tests: the full 140-node pipeline built from the
//! public API of the umbrella crate.

use mobigrid::adf::{
    AdaptiveDistanceFilter, AdfConfig, EstimatorKind, IdealPolicy, MobileNode, SimBuilder,
    TickStats,
};
use mobigrid::campus::Campus;
use mobigrid::experiments::workload;

fn run_adf(seed: u64, factor: f64, ticks: u64) -> Vec<TickStats> {
    let campus = Campus::inha_like();
    let nodes = workload::populate(&campus, seed);
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(factor)).expect("valid config"))
        .network(workload::default_network(&campus))
        .build()
        .expect("valid simulation");
    sim.run(ticks)
}

#[test]
fn whole_pipeline_is_deterministic_from_the_seed() {
    let a = run_adf(7, 1.0, 200);
    let b = run_adf(7, 1.0, 200);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.sent, y.sent);
        assert_eq!(x.rmse_with_le.to_bits(), y.rmse_with_le.to_bits());
        assert_eq!(x.rmse_without_le.to_bits(), y.rmse_without_le.to_bits());
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let a = run_adf(1, 1.0, 120);
    let b = run_adf(2, 1.0, 120);
    let sent_a: u64 = a.iter().map(|t| u64::from(t.sent)).sum();
    let sent_b: u64 = b.iter().map(|t| u64::from(t.sent)).sum();
    assert_ne!(sent_a, sent_b, "seeds should perturb the workload");
}

#[test]
fn accounting_conservation_sent_plus_filtered_equals_observed() {
    let stats = run_adf(42, 1.0, 300);
    for t in &stats {
        assert_eq!(t.observed, 140, "every node observed every tick");
        assert_eq!(
            t.region.total_observed(),
            u64::from(t.observed),
            "tallies must cover every observation at t={}",
            t.time_s
        );
        assert_eq!(
            t.region.total_sent(),
            u64::from(t.sent),
            "tallies must match the sent count at t={}",
            t.time_s
        );
        assert!(t.sent <= t.observed);
    }
}

#[test]
fn network_byte_accounting_matches_sent_updates() {
    let campus = Campus::inha_like();
    let nodes = workload::populate(&campus, 5);
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid config"))
        .network(workload::default_network(&campus))
        .build()
        .expect("valid simulation");
    let stats = sim.run(150);
    let sent: u64 = stats.iter().map(|t| u64::from(t.sent)).sum();
    let meter = sim.network().expect("attached").meter();
    assert_eq!(meter.messages(), sent);
    assert_eq!(
        meter.bytes(),
        sent * mobigrid::wireless::LocationUpdate::WIRE_SIZE as u64
    );
    assert_eq!(
        sim.network().expect("attached").dropped(),
        0,
        "full coverage"
    );
}

#[test]
fn broker_learns_every_node_under_ideal_updates() {
    let campus = Campus::inha_like();
    let nodes = workload::populate(&campus, 9);
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(IdealPolicy::new())
        .estimator(EstimatorKind::Brown { alpha: 0.5 })
        .build()
        .expect("valid simulation");
    sim.step();
    assert_eq!(sim.broker_with_le().node_count(), 140);
    assert_eq!(sim.broker_without_le().node_count(), 140);
    // Under ideal updates both brokers are exact.
    let s = sim.step();
    assert_eq!(s.rmse_with_le, 0.0);
    assert_eq!(s.rmse_without_le, 0.0);
}

#[test]
fn nodes_stay_inside_their_home_regions() {
    let campus = Campus::inha_like();
    let nodes = workload::populate(&campus, 3);
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(IdealPolicy::new())
        .build()
        .expect("valid simulation");
    sim.run(200);
    for node in (0..sim.node_count()).map(|i| sim.node(i)) {
        let region = campus.region(node.region());
        // Road nodes ride the spine; building nodes the footprint. Allow a
        // small tolerance for corridor-width rounding.
        let inside = region.contains(node.position());
        assert!(
            inside,
            "{} strayed from {} to {}",
            node.id(),
            region.name(),
            node.position()
        );
    }
}

#[test]
fn ground_truth_traces_are_recorded_when_opted_in() {
    // Trace recording is off by default (the steady-state tick path is
    // allocation-free); analyses that want ground-truth traces opt in
    // per node.
    let campus = Campus::inha_like();
    let nodes: Vec<_> = workload::populate(&campus, 4)
        .into_iter()
        .map(MobileNode::with_trace_recording)
        .collect();
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(IdealPolicy::new())
        .build()
        .expect("valid simulation");
    sim.run(50);
    for node in (0..sim.node_count()).map(|i| sim.node(i)) {
        assert_eq!(node.trace().len(), 50);
        assert!((node.trace().duration() - 49.0).abs() < 1e-9);
    }
}

#[test]
fn traces_stay_empty_by_default() {
    let campus = Campus::inha_like();
    let nodes = workload::populate(&campus, 4);
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(IdealPolicy::new())
        .build()
        .expect("valid simulation");
    sim.run(50);
    for node in (0..sim.node_count()).map(|i| sim.node(i)) {
        assert!(node.trace().is_empty());
    }
}
