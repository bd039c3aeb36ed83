//! Exercises the umbrella crate's public surface the way a downstream user
//! would: everything reachable through `mobigrid::…` paths.

use mobigrid::adf::{EstimatorKind, GridBroker};
use mobigrid::campus::Campus;
use mobigrid::cluster::Bsas;
use mobigrid::forecast::{BrownDouble, Forecaster};
use mobigrid::geo::{Heading, Point, Vec2};
use mobigrid::mobility::{MobilityModel, StopModel};
use mobigrid::sim::{SeedStream, SimTime, TickDriver};
use mobigrid::wireless::{IngestRecord, LocationUpdate, MnId};

#[test]
fn geometry_reexports_work() {
    let p = Point::new(3.0, 4.0);
    assert_eq!(Point::ORIGIN.distance_to(p), 5.0);
    let v = Vec2::from_polar(1.0, Heading::north());
    assert!((v.dy - 1.0).abs() < 1e-12);
}

#[test]
fn sim_kernel_reexports_work() {
    let ticks: Vec<_> = TickDriver::new(SimTime::from_secs(1), 3).collect();
    assert_eq!(ticks.len(), 3);
    assert_eq!(
        SeedStream::new(1).seed_for(2),
        SeedStream::new(1).seed_for(2)
    );
}

#[test]
fn campus_routing_through_umbrella() {
    let campus = Campus::inha_like();
    let from = campus.waypoint("gate_a").expect("gate A exists");
    let to = campus.entrance("B3").expect("B3 has an entrance");
    let route = campus.route(from, to).expect("reachable");
    assert!(route.length() > 100.0);
}

#[test]
fn forecasting_and_clustering_through_umbrella() {
    let mut b = BrownDouble::new(0.5).expect("valid alpha");
    for t in 0..50 {
        b.observe(f64::from(t));
    }
    assert!((b.forecast(1.0).expect("warmed up") - 50.0).abs() < 0.1);

    let clusters = Bsas::new(1.0).cluster(&[vec![1.0], vec![1.2], vec![9.0]]);
    assert_eq!(clusters.cluster_count(), 2);
}

#[test]
fn broker_and_wireless_through_umbrella() {
    let mut broker = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).expect("valid");
    let mn = MnId::new(1);
    for t in 0..5 {
        broker.apply(&IngestRecord::Update(LocationUpdate::new(
            mn,
            f64::from(t),
            Point::new(f64::from(t), 0.0),
            t,
        )));
    }
    broker.apply(&IngestRecord::Filtered {
        node: mn,
        time_s: 6.0,
    });
    assert!(broker.location(mn).expect("known node").estimated);
}

#[test]
fn mobility_models_through_umbrella() {
    let mut m = StopModel::new(Point::new(1.0, 2.0));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    assert_eq!(m.step(1.0, &mut rng), Point::new(1.0, 2.0));
}
