//! Tom's day (§3.1 of the paper): compose the scenario from mobility
//! phases, walk it on the campus, and watch the ADF's classifier recover
//! the SS/RMS/LMS pattern of each phase from raw positions.
//!
//! ```text
//! cargo run --example campus_day
//! ```

use mobigrid::adf::{AdfConfig, MobilityClassifier};
use mobigrid::campus::Campus;
use mobigrid::geo::Rect;
use mobigrid::mobility::{
    LoopMode, MobilityModel, PathFollower, Phase, RandomWalk, Schedule, StopModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn footprint(campus: &Campus, name: &str) -> Rect {
    campus
        .region_by_name(name)
        .expect("region exists")
        .shape()
        .bounding_box()
}

fn main() {
    let campus = Campus::inha_like();

    // Tom arrives at the bus stop and walks to the library (B4)…
    let bus_stop = campus.waypoint("bus_stop").expect("bus stop exists");
    let library_door = campus.entrance("B4").expect("library has an entrance");
    let to_library = campus
        .route(bus_stop, library_door)
        .expect("library reachable");
    let library_desk = footprint(&campus, "B4").center();

    // …then to class in B6, back, coffee break, and off to the lab in B3.
    let class_door = campus.entrance("B6").expect("B6 has an entrance");
    let to_class = campus.route(library_door, class_door).expect("reachable");
    let back_to_library = campus.route(class_door, library_door).expect("reachable");
    let lab_door = campus.entrance("B3").expect("B3 has an entrance");
    let to_lab = campus.route(library_door, lab_door).expect("reachable");
    let lab = footprint(&campus, "B3");

    // Scale the §3.1 scenario to minutes so the example runs quickly; the
    // mobility *patterns* per phase are what matters.
    let mut day = Schedule::new(vec![
        Phase::until_arrival(
            "(1) walk to library",
            PathFollower::new(to_library, 1.4, LoopMode::Once),
        ),
        Phase::timed("(2) study in library", 120.0, StopModel::new(library_desk)),
        Phase::until_arrival(
            "(3) walk to class",
            PathFollower::new(to_class, 1.4, LoopMode::Once),
        ),
        Phase::timed(
            "(4) attend class",
            120.0,
            StopModel::new(footprint(&campus, "B6").center()),
        ),
        Phase::until_arrival(
            "(5) back to library",
            PathFollower::new(back_to_library, 1.4, LoopMode::Once),
        ),
        Phase::timed(
            "(7) coffee break",
            90.0,
            RandomWalk::new(footprint(&campus, "B4"), library_desk, 0.8),
        ),
        Phase::until_arrival(
            "(8) walk to the lab",
            PathFollower::new(to_lab, 1.3, LoopMode::Once),
        ),
        Phase::timed(
            "(10) experiment in the lab",
            120.0,
            RandomWalk::new(lab, lab.center(), 0.8),
        ),
    ]);

    let mut rng = StdRng::seed_from_u64(7);
    let adf = AdfConfig::default();
    let mut classifier = MobilityClassifier::new(&adf);
    let mut last_phase = usize::MAX;

    for t in 0..1200u32 {
        let pos = day.step(1.0, &mut rng);
        classifier.observe(f64::from(t), pos);

        if day.current_phase_index() != last_phase {
            last_phase = day.current_phase_index();
            println!("t={t:>4}s  {}", day.current_phase_label());
        }
        if t % 60 == 0 && t > 0 {
            let region = campus.locate(pos).map_or("between regions", |r| r.name());
            println!(
                "t={t:>4}s    at {pos} in {region}: intended {}, classifier sees {}",
                day.pattern(),
                classifier.classify(&adf)
            );
        }
        if day.is_finished() {
            println!("t={t:>4}s  day complete — Tom heads to the bus stop");
            break;
        }
    }
}
