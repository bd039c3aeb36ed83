//! Location estimation shoot-out: when the filter silences a node, how well
//! do different broker-side estimators reconstruct its position?
//!
//! One road node patrols R1 while an aggressive distance filter suppresses
//! most of its updates; four estimators race against ground truth.
//!
//! ```text
//! cargo run --example location_estimation
//! ```

use mobigrid::adf::{DistanceFilter, EstimatorKind, GridBroker};
use mobigrid::campus::{Campus, RegionShape};
use mobigrid::forecast::metrics;
use mobigrid::mobility::{MobilityModel, RoadPatroller};
use mobigrid::wireless::{IngestRecord, LocationUpdate, MnId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let campus = Campus::inha_like();
    let road = campus.region_by_name("R1").expect("R1 exists");
    let RegionShape::Corridor { spine, .. } = road.shape() else {
        unreachable!("roads are corridors");
    };

    let mut node = RoadPatroller::new(spine.clone(), (1.0, 4.0), 0.0);
    let mut rng = StdRng::seed_from_u64(11);
    let mut filter = DistanceFilter::new(2.5);
    let mn = MnId::new(0);

    let kinds = [
        ("without LE (stale)", EstimatorKind::WithoutLe),
        ("dead reckoning", EstimatorKind::DeadReckoning),
        ("Brown (paper)", EstimatorKind::Brown { alpha: 0.5 }),
        (
            "Holt per axis",
            EstimatorKind::HoltAxes {
                alpha: 0.7,
                beta: 0.2,
            },
        ),
    ];
    let mut brokers: Vec<GridBroker> = kinds
        .iter()
        .map(|(_, k)| GridBroker::new(*k).expect("valid estimator"))
        .collect();

    let mut truth_x = Vec::new();
    let mut truth_y = Vec::new();
    let mut beliefs: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); kinds.len()];
    let mut sent = 0u32;
    let ticks = 600u32;

    for t in 0..ticks {
        let time_s = f64::from(t);
        let pos = node.step(1.0, &mut rng);
        let decision = filter.observe(pos);
        let op = if decision.is_sent() {
            IngestRecord::Update(LocationUpdate::new(mn, time_s, pos, t))
        } else {
            IngestRecord::Filtered { node: mn, time_s }
        };
        for broker in &mut brokers {
            broker.apply(&op);
        }
        if decision.is_sent() {
            sent += 1;
        }
        truth_x.push(pos.x);
        truth_y.push(pos.y);
        for (i, broker) in brokers.iter().enumerate() {
            let b = broker.location(mn).expect("record exists after first LU");
            beliefs[i].0.push(b.position.x);
            beliefs[i].1.push(b.position.y);
        }
    }

    println!(
        "road node, {ticks} s, DTH 2.5 m: {sent} updates sent ({:.1}% filtered)\n",
        100.0 * (1.0 - f64::from(sent) / f64::from(ticks))
    );
    println!("{:<22} {:>10} {:>10}", "estimator", "RMSE x", "RMSE y");
    println!("{}", "-".repeat(44));
    for ((name, _), (bx, by)) in kinds.iter().zip(&beliefs) {
        println!(
            "{name:<22} {:>10.2} {:>10.2}",
            metrics::rmse(&truth_x, bx),
            metrics::rmse(&truth_y, by)
        );
    }
}
