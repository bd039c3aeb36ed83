//! The paper's distributed-simulation architecture on the mini HLA RTI:
//! a mobile-node federate publishes raw locations, the ADF federate filters
//! them and republishes the surviving updates, and the grid-broker federate
//! maintains its location DB — all under conservative time management.
//!
//! ```text
//! cargo run --example hla_federation
//! ```

use mobigrid::adf::{DistanceFilter, EstimatorKind, GridBroker};
use mobigrid::campus::{Campus, RegionShape};
use mobigrid::geo::Point;
use mobigrid::hla::{Callback, FedTime, ObjectModel, Rti};
use mobigrid::mobility::{MobilityModel, RoadPatroller};
use mobigrid::wireless::{IngestRecord, LocationUpdate, MnId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn encode(lu: &LocationUpdate) -> Vec<u8> {
    lu.encode().to_vec()
}

fn main() {
    // --- Federation object model: raw and filtered location classes ------
    let mut fom = ObjectModel::new();
    let raw_class = fom.add_object_class("RawLocation");
    let raw_attr = fom.add_attribute(raw_class, "lu").expect("fresh attribute");
    let filtered_class = fom.add_object_class("FilteredLocation");
    let filtered_attr = fom
        .add_attribute(filtered_class, "lu")
        .expect("fresh attribute");

    let rti = Rti::new();
    rti.create_federation("campus", fom).expect("fresh name");
    let mn_fed = rti
        .join("campus", "mn-federate")
        .expect("federation exists");
    let adf_fed = rti
        .join("campus", "adf-federate")
        .expect("federation exists");
    let broker_fed = rti
        .join("campus", "broker-federate")
        .expect("federation exists");

    mn_fed.publish_object_class(raw_class).expect("declared");
    adf_fed
        .subscribe_object_class(raw_class, &[raw_attr])
        .expect("declared");
    adf_fed
        .publish_object_class(filtered_class)
        .expect("declared");
    broker_fed
        .subscribe_object_class(filtered_class, &[filtered_attr])
        .expect("declared");

    let lookahead = FedTime::from_secs_f64(0.5);
    for f in [&mn_fed, &adf_fed, &broker_fed] {
        f.enable_time_regulation(lookahead).expect("first enable");
        f.enable_time_constrained().expect("first enable");
    }

    let raw_obj = mn_fed.register_object(raw_class).expect("published");
    let filtered_obj = adf_fed.register_object(filtered_class).expect("published");
    adf_fed.tick().expect("joined");
    broker_fed.tick().expect("joined");

    // --- The simulated world behind the MN federate ----------------------
    let campus = Campus::inha_like();
    let road = campus.region_by_name("R2").expect("R2 exists");
    let RegionShape::Corridor { spine, .. } = road.shape() else {
        unreachable!("roads are corridors");
    };
    let mut node = RoadPatroller::new(spine.clone(), (1.0, 4.0), 20.0);
    let mut rng = StdRng::seed_from_u64(3);
    let mn = MnId::new(0);

    // --- The ADF federate's filter and the broker federate's DB ----------
    let mut filter = DistanceFilter::new(2.0);
    let mut broker = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).expect("valid");

    let mut raw_updates = 0u32;
    let mut forwarded = 0u32;

    for step in 1..=120u64 {
        let now = FedTime::from_secs(step);
        let pos = node.step(1.0, &mut rng);
        let lu = LocationUpdate::new(mn, step as f64, pos, step as u32);
        mn_fed
            .update_attributes(raw_obj, vec![(raw_attr, encode(&lu))], Some(now))
            .expect("owned object");

        for f in [&mn_fed, &adf_fed, &broker_fed] {
            f.request_time_advance(now).expect("monotone");
        }

        // ADF federate: reflect raw updates, filter, forward survivors.
        for cb in adf_fed.tick().expect("joined") {
            if let Callback::ReflectAttributes { values, .. } = cb {
                let lu = LocationUpdate::decode(&values[0].1).expect("well-formed frame");
                raw_updates += 1;
                if filter.observe(lu.position).is_sent() {
                    forwarded += 1;
                    adf_fed
                        .update_attributes(
                            filtered_obj,
                            vec![(filtered_attr, encode(&lu))],
                            Some(now + lookahead),
                        )
                        .expect("owned object");
                } else {
                    broker.apply(&IngestRecord::Filtered {
                        node: lu.node,
                        time_s: lu.time_s,
                    });
                }
            }
        }

        // Broker federate: reflect filtered updates into the location DB.
        for cb in broker_fed.tick().expect("joined") {
            if let Callback::ReceiveInteraction { .. } = cb {
                unreachable!("no interactions declared");
            } else if let Callback::ReflectAttributes { values, .. } = cb {
                let lu = LocationUpdate::decode(&values[0].1).expect("well-formed frame");
                broker.apply(&IngestRecord::Update(lu));
            }
        }
        mn_fed.tick().expect("joined");
    }

    println!(
        "federates: {:?}",
        rti.federate_names("campus").expect("exists")
    );
    println!("raw location updates reflected at the ADF federate: {raw_updates}");
    println!(
        "forwarded to the broker federate: {forwarded} ({:.1}% filtered)",
        100.0 * (1.0 - f64::from(forwarded) / f64::from(raw_updates))
    );
    let belief = broker.location(mn).expect("node known");
    let truth: Point = node.position();
    println!(
        "broker belief {} vs truth {} — error {:.2} m (estimated: {})",
        belief.position,
        truth,
        belief.position.distance_to(truth),
        belief.estimated
    );
}
