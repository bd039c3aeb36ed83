//! A parametric grid-city layout for the scale scenarios.
//!
//! The paper evaluates one campus with 11 regions and 140 nodes. To ask how
//! the ADF behaves as the deployment grows — more regions, more clusters,
//! more nodes — we need arbitrarily large but structurally comparable maps:
//! a Manhattan grid of blocks, each block holding one building, with roads
//! along every grid line.

use mobigrid_geo::{Point, Polyline, Rect};

use crate::{Campus, CampusBuilder};

/// Side length of one city block, in metres.
pub const BLOCK_SIZE: f64 = 120.0;

/// Margin between a block's roads and its building footprint, in metres.
pub const BUILDING_INSET: f64 = 20.0;

impl Campus {
    /// Builds a grid city of `blocks_x × blocks_y` blocks.
    ///
    /// The layout has `blocks_x + 1` vertical roads (`V0…`), `blocks_y + 1`
    /// horizontal roads (`H0…`), and one building per block (`B0…`, row
    /// major). Every road intersection is a waypoint; each building's
    /// entrance connects to its south-west intersection, so the whole graph
    /// is connected.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mobigrid_campus::{Campus, RegionKind};
    ///
    /// let city = Campus::grid_city(3, 2);
    /// assert_eq!(city.regions_of_kind(RegionKind::Road).count(), 4 + 3);
    /// assert_eq!(city.regions_of_kind(RegionKind::Building).count(), 6);
    /// ```
    #[must_use]
    pub fn grid_city(blocks_x: usize, blocks_y: usize) -> Campus {
        assert!(
            blocks_x > 0 && blocks_y > 0,
            "city needs at least one block"
        );
        let mut b: CampusBuilder = Campus::builder();
        let width = blocks_x as f64 * BLOCK_SIZE;
        let height = blocks_y as f64 * BLOCK_SIZE;

        // Buildings first so entrances can reference them by name.
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let name = format!("B{}", by * blocks_x + bx);
                let min = Point::new(
                    bx as f64 * BLOCK_SIZE + BUILDING_INSET,
                    by as f64 * BLOCK_SIZE + BUILDING_INSET,
                );
                let max = Point::new(
                    (bx + 1) as f64 * BLOCK_SIZE - BUILDING_INSET,
                    (by + 1) as f64 * BLOCK_SIZE - BUILDING_INSET,
                );
                let rect = Rect::new(min, max).expect("inset < block size");
                b.add_building(name, rect).expect("unique block name");
            }
        }

        // Roads along every grid line.
        for i in 0..=blocks_x {
            let x = i as f64 * BLOCK_SIZE;
            let spine = Polyline::new(vec![Point::new(x, 0.0), Point::new(x, height)])
                .expect("two distinct points");
            b.add_road(format!("V{i}"), spine, crate::ROAD_WIDTH)
                .expect("unique road name");
        }
        for j in 0..=blocks_y {
            let y = j as f64 * BLOCK_SIZE;
            let spine = Polyline::new(vec![Point::new(0.0, y), Point::new(width, y)])
                .expect("two distinct points");
            b.add_road(format!("H{j}"), spine, crate::ROAD_WIDTH)
                .expect("unique road name");
        }

        // Intersection waypoints and the Manhattan edge lattice. Index
        // symmetry between the two passes reads clearer than iterator
        // adapters here.
        #[allow(clippy::needless_range_loop)]
        let junctions = {
            let mut junctions = vec![vec![None; blocks_x + 1]; blocks_y + 1];
            for j in 0..=blocks_y {
                for i in 0..=blocks_x {
                    let node = b
                        .add_waypoint(
                            format!("x{i}y{j}"),
                            Point::new(i as f64 * BLOCK_SIZE, j as f64 * BLOCK_SIZE),
                        )
                        .expect("unique junction name");
                    junctions[j][i] = Some(node);
                }
            }
            for j in 0..=blocks_y {
                for i in 0..=blocks_x {
                    let here = junctions[j][i].expect("created above");
                    if i > 0 {
                        b.connect(junctions[j][i - 1].expect("created"), here)
                            .expect("nodes exist");
                    }
                    if j > 0 {
                        b.connect(junctions[j - 1][i].expect("created"), here)
                            .expect("nodes exist");
                    }
                }
            }
            junctions
        };

        // Building entrances hang off the south-west intersection.
        #[allow(clippy::needless_range_loop)]
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let name = format!("B{}", by * blocks_x + bx);
                let door = Point::new(
                    bx as f64 * BLOCK_SIZE + BUILDING_INSET,
                    by as f64 * BLOCK_SIZE + BUILDING_INSET,
                );
                let entrance = b.add_entrance(&name, door).expect("building exists");
                b.connect(junctions[by][bx].expect("created"), entrance)
                    .expect("nodes exist");
            }
        }

        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegionKind;

    #[test]
    fn region_counts_scale_with_dimensions() {
        let city = Campus::grid_city(4, 3);
        assert_eq!(city.regions_of_kind(RegionKind::Road).count(), 5 + 4);
        assert_eq!(city.regions_of_kind(RegionKind::Building).count(), 12);
    }

    #[test]
    fn single_block_city_is_valid() {
        let city = Campus::grid_city(1, 1);
        assert_eq!(city.regions().len(), 4 + 1);
        assert!(city.entrance("B0").is_some());
    }

    #[test]
    fn whole_graph_is_connected() {
        let city = Campus::grid_city(3, 3);
        let g = city.graph();
        let origin = city.waypoint("x0y0").expect("corner junction");
        for target in g.node_ids() {
            if target != origin {
                assert!(
                    g.shortest_path_nodes(origin, target).is_some(),
                    "node {target} unreachable"
                );
            }
        }
    }

    #[test]
    fn buildings_do_not_overlap_roads() {
        let city = Campus::grid_city(2, 2);
        for building in city.regions_of_kind(RegionKind::Building) {
            let anchor = building.anchor();
            for road in city.regions_of_kind(RegionKind::Road) {
                assert!(
                    !road.contains(anchor),
                    "{} centre sits on {}",
                    building.name(),
                    road.name()
                );
            }
        }
    }

    #[test]
    fn routes_span_the_city() {
        let city = Campus::grid_city(5, 5);
        let from = city.waypoint("x0y0").expect("exists");
        let to = city.waypoint("x5y5").expect("exists");
        let route = city.route(from, to).expect("reachable");
        // Manhattan distance: 5 blocks east + 5 blocks north.
        assert!((route.length() - 10.0 * BLOCK_SIZE).abs() < 1e-6);
    }
}
