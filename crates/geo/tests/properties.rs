//! Property-based tests for the geometry substrate.

use mobigrid_geo::{Heading, Point, Polyline, Rect, Segment, Vec2};
use proptest::prelude::*;

const COORD: std::ops::Range<f64> = -1.0e4..1.0e4;

fn point() -> impl Strategy<Value = Point> {
    (COORD, COORD).prop_map(|(x, y)| Point::new(x, y))
}

fn vec2() -> impl Strategy<Value = Vec2> {
    (COORD, COORD).prop_map(|(dx, dy)| Vec2::new(dx, dy))
}

proptest! {
    #[test]
    fn distance_satisfies_triangle_inequality(a in point(), b in point(), c in point()) {
        let direct = a.distance_to(c);
        let detour = a.distance_to(b) + b.distance_to(c);
        prop_assert!(direct <= detour + 1e-6);
    }

    #[test]
    fn distance_is_translation_invariant(a in point(), b in point(), t in vec2()) {
        let before = a.distance_to(b);
        let after = (a + t).distance_to(b + t);
        prop_assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn heading_round_trips_through_vector(deg in 0.0..360.0f64, mag in 0.001..1.0e4f64) {
        let h = Heading::from_degrees(deg);
        let v = Vec2::from_polar(mag, h);
        let back = v.heading().unwrap();
        prop_assert!(h.angle_to(back) < 1e-9);
        prop_assert!((v.norm() - mag).abs() < 1e-6 * mag.max(1.0));
    }

    #[test]
    fn heading_angle_is_symmetric_and_bounded(a in 0.0..360.0f64, b in 0.0..360.0f64) {
        let ha = Heading::from_degrees(a);
        let hb = Heading::from_degrees(b);
        prop_assert!((ha.angle_to(hb) - hb.angle_to(ha)).abs() < 1e-12);
        prop_assert!(ha.angle_to(hb) <= std::f64::consts::PI + 1e-12);
    }

    #[test]
    fn rotation_preserves_norm(v in vec2(), angle in -10.0..10.0f64) {
        prop_assert!((v.rotated(angle).norm() - v.norm()).abs() < 1e-6);
    }

    #[test]
    fn segment_closest_point_is_no_farther_than_endpoints(
        a in point(), b in point(), p in point()
    ) {
        let s = Segment::new(a, b);
        let d = s.distance_to_point(p);
        prop_assert!(d <= p.distance_to(a) + 1e-9);
        prop_assert!(d <= p.distance_to(b) + 1e-9);
    }

    #[test]
    fn polyline_arc_length_parametrisation_is_monotone(
        pts in prop::collection::vec((COORD, COORD), 2..8),
        s1 in 0.0..1.0f64,
        s2 in 0.0..1.0f64,
    ) {
        let pts: Vec<Point> = pts.into_iter().map(Point::from).collect();
        let pl = Polyline::new(pts).unwrap();
        let total = pl.length();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        // Walking further along the path never moves you backwards along it:
        // the projection of the reached point is within the travelled range.
        let p = pl.point_at_distance(hi * total);
        let proj = pl.project(p);
        prop_assert!(proj <= total + 1e-6);
        let q = pl.point_at_distance(lo * total);
        // Distance travelled between the two samples is at most the arc gap.
        prop_assert!(q.distance_to(p) <= (hi - lo) * total + 1e-6);
    }

    #[test]
    fn polyline_endpoint_clamping(pts in prop::collection::vec((COORD, COORD), 2..8)) {
        let pts: Vec<Point> = pts.into_iter().map(Point::from).collect();
        let pl = Polyline::new(pts).unwrap();
        prop_assert_eq!(pl.point_at_distance(-1.0), pl.start());
        prop_assert_eq!(pl.point_at_distance(pl.length() + 1.0), pl.end());
    }

    #[test]
    fn rect_clamped_points_are_contained(a in point(), b in point(), p in point()) {
        let r = Rect::from_corners(a, b);
        prop_assert!(r.contains(r.clamp_point(p)));
    }

    #[test]
    fn rect_uv_sampling_stays_inside(a in point(), b in point(), u in 0.0..1.0f64, v in 0.0..1.0f64) {
        let r = Rect::from_corners(a, b);
        prop_assert!(r.contains(r.point_at_uv(u, v)));
    }
}
