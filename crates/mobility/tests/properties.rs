//! Property-based tests for the mobility models.

use mobigrid_geo::{Point, Polyline, Rect};
use mobigrid_mobility::{
    IndoorWalker, LoopMode, MobilityModel, PathFollower, RandomWalk, StopModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn random_walk_never_escapes_bounds(
        seed in any::<u64>(),
        w in 5.0..100.0f64,
        h in 5.0..100.0f64,
        speed in 0.0..5.0f64,
    ) {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(w, h)).unwrap();
        let mut walk = RandomWalk::new(bounds, bounds.center(), speed);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(bounds.contains(walk.step(1.0, &mut rng)));
        }
    }

    #[test]
    fn random_walk_step_length_bounded_by_speed(
        seed in any::<u64>(),
        speed in 0.1..5.0f64,
        dt in 0.1..3.0f64,
    ) {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(200.0, 200.0)).unwrap();
        let mut walk = RandomWalk::new(bounds, bounds.center(), speed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prev = walk.position();
        for _ in 0..100 {
            let p = walk.step(dt, &mut rng);
            prop_assert!(prev.distance_to(p) <= speed * dt + 1e-9);
            prev = p;
        }
    }

    #[test]
    fn path_follower_distance_travelled_matches_speed(
        speed in 0.1..10.0f64,
        steps in 1usize..50,
    ) {
        let path = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1000.0, 0.0),
        ]).unwrap();
        let mut m = PathFollower::new(path, speed, LoopMode::Once);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..steps {
            m.step(1.0, &mut rng);
        }
        let expected = (speed * steps as f64).min(1000.0);
        prop_assert!((m.position().x - expected).abs() < 1e-6);
    }

    #[test]
    fn ping_pong_position_stays_on_path(
        speed in 0.1..20.0f64,
        steps in 1usize..200,
    ) {
        let path = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(50.0, 30.0),
        ]).unwrap();
        let mut m = PathFollower::new(path.clone(), speed, LoopMode::PingPong);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..steps {
            let p = m.step(1.0, &mut rng);
            prop_assert!(path.distance_to_point(p) < 1e-6);
        }
    }

    #[test]
    fn indoor_walker_never_escapes(
        seed in any::<u64>(),
        speed in 0.1..3.0f64,
    ) {
        let hall = Rect::new(Point::new(10.0, 10.0), Point::new(70.0, 50.0)).unwrap();
        let mut w = IndoorWalker::new(hall, hall.center(), speed);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..300 {
            prop_assert!(hall.contains(w.step(1.0, &mut rng)));
        }
    }

    #[test]
    fn stop_model_is_exactly_stationary(x in -1e4..1e4f64, y in -1e4..1e4f64, seed in any::<u64>()) {
        let p = Point::new(x, y);
        let mut m = StopModel::new(p);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert_eq!(m.step(1.0, &mut rng), p);
        }
    }
}
