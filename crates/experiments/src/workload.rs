//! The Table-1 workload: 140 mobile nodes placed on the campus.
//!
//! | Region   | Pattern | Type    | Count | Velocity      |
//! |----------|---------|---------|-------|---------------|
//! | 5 roads  | LMS     | human   | 25    | 1–4 m/s       |
//! | 5 roads  | LMS     | vehicle | 25    | 4–10 m/s      |
//! | 6 bldgs  | SS      | human   | 30    | 0 m/s         |
//! | 6 bldgs  | RMS     | human   | 30    | 0–1 m/s       |
//! | 6 bldgs  | LMS     | human   | 30    | ≤ 1.5 m/s     |

use rand::Rng;

use mobigrid_adf::MobileNode;
use mobigrid_campus::{Campus, Region, RegionKind, RegionShape};
use mobigrid_geo::Point;
use mobigrid_mobility::{
    IndoorWalker, MobilityEngine, MobilityPattern, NodeType, RandomWalk, RoadPatroller, StopModel,
};
use mobigrid_sim::SeedStream;
use mobigrid_wireless::{AccessNetwork, Gateway, GatewayKind, MnId};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRow {
    /// Region kind hosting the nodes.
    pub region_kind: RegionKind,
    /// Number of regions of that kind.
    pub region_count: usize,
    /// Mobility pattern assigned.
    pub pattern: MobilityPattern,
    /// Human or vehicle.
    pub node_type: NodeType,
    /// Total nodes of this row across all its regions.
    pub count: usize,
    /// Velocity range in m/s, `(min, max)`.
    pub velocity_range: (f64, f64),
}

/// Table 1 as data: the specification of the 140-node population.
#[must_use]
pub fn table1_rows() -> Vec<SpecRow> {
    vec![
        SpecRow {
            region_kind: RegionKind::Road,
            region_count: 5,
            pattern: MobilityPattern::Linear,
            node_type: NodeType::Human,
            count: 25,
            velocity_range: (1.0, 4.0),
        },
        SpecRow {
            region_kind: RegionKind::Road,
            region_count: 5,
            pattern: MobilityPattern::Linear,
            node_type: NodeType::Vehicle,
            count: 25,
            velocity_range: (4.0, 10.0),
        },
        SpecRow {
            region_kind: RegionKind::Building,
            region_count: 6,
            pattern: MobilityPattern::Stop,
            node_type: NodeType::Human,
            count: 30,
            velocity_range: (0.0, 0.0),
        },
        SpecRow {
            region_kind: RegionKind::Building,
            region_count: 6,
            pattern: MobilityPattern::Random,
            node_type: NodeType::Human,
            count: 30,
            velocity_range: (0.0, 1.0),
        },
        SpecRow {
            region_kind: RegionKind::Building,
            region_count: 6,
            pattern: MobilityPattern::Linear,
            node_type: NodeType::Human,
            count: 30,
            velocity_range: (1.0, 1.5),
        },
    ]
}

/// Total population size of Table 1.
pub const POPULATION: usize = 140;

/// Nodes hosted by each road (5 human + 5 vehicle).
pub const NODES_PER_ROAD: usize = 10;

/// Nodes hosted by each building (5 SS + 5 RMS + 5 LMS).
pub const NODES_PER_BUILDING: usize = 15;

fn road_model(region: &Region, speed_range: (f64, f64), start_fraction: f64) -> RoadPatroller {
    let RegionShape::Corridor { spine, .. } = region.shape() else {
        panic!("road regions are corridors");
    };
    // Stagger starting positions along the road so nodes don't bunch up.
    let offset = start_fraction * spine.length();
    RoadPatroller::new(spine.clone(), speed_range, offset)
}

fn building_rect(region: &Region) -> mobigrid_geo::Rect {
    match region.shape() {
        RegionShape::Rect(r) => *r,
        RegionShape::Corridor { .. } => panic!("building regions are rects"),
    }
}

/// Populates a campus with the Table-1 per-region densities: 10 nodes per
/// road (5 human LMS + 5 vehicle LMS) and 15 per building (5 SS + 5 RMS +
/// 5 LMS). On [`Campus::inha_like`] that is the paper's 140 nodes; the
/// scalability experiments use [`Campus::grid_city`] layouts.
///
/// Every node draws its velocity, start position and RNG from
/// `SeedStream::new(seed)`, so two calls with the same seed produce
/// identical workloads.
#[must_use]
pub fn populate(campus: &Campus, seed: u64) -> Vec<MobileNode> {
    let stream = SeedStream::new(seed);
    let roads: Vec<&Region> = campus.regions_of_kind(RegionKind::Road).collect();
    let buildings: Vec<&Region> = campus.regions_of_kind(RegionKind::Building).collect();
    let mut nodes: Vec<MobileNode> =
        Vec::with_capacity(roads.len() * NODES_PER_ROAD + buildings.len() * NODES_PER_BUILDING);

    let mut next_id = 0u32;
    let mut make_id = |nodes: &Vec<MobileNode>| {
        debug_assert_eq!(nodes.len(), next_id as usize);
        let id = MnId::new(next_id);
        next_id += 1;
        id
    };

    // --- Roads: 5 human LMS + 5 vehicle LMS each -------------------------
    for road in &roads {
        for k in 0..NODES_PER_ROAD {
            let id = make_id(&nodes);
            let setup = stream.substream(1000 + u64::from(id.raw()));
            let mut rng = setup.rng_for(0);
            let (node_type, speed_range) = if k < 5 {
                (NodeType::Human, (1.0, 4.0))
            } else {
                (NodeType::Vehicle, (4.0, 10.0))
            };
            let start_fraction: f64 = rng.gen();
            let model = road_model(road, speed_range, start_fraction);
            nodes.push(
                MobileNode::new(
                    id,
                    road.id(),
                    RegionKind::Road,
                    node_type,
                    MobilityPattern::Linear,
                    model,
                    setup.seed_for(1),
                )
                .with_home_anchor(road.anchor()),
            );
        }
    }

    // --- Buildings: 5 SS + 5 RMS + 5 LMS each ----------------------------
    for building in &buildings {
        let rect = building_rect(building);
        for k in 0..NODES_PER_BUILDING {
            let id = make_id(&nodes);
            let setup = stream.substream(1000 + u64::from(id.raw()));
            let mut rng = setup.rng_for(0);
            let start = rect.point_at_uv(rng.gen(), rng.gen());
            let (pattern, model): (MobilityPattern, MobilityEngine) = if k < 5 {
                (MobilityPattern::Stop, StopModel::new(start).into())
            } else if k < 10 {
                let max_speed = rng.gen_range(0.4..=1.0);
                (
                    MobilityPattern::Random,
                    RandomWalk::new(rect, start, max_speed).into(),
                )
            } else {
                (
                    MobilityPattern::Linear,
                    IndoorWalker::with_speed_range(rect, start, (1.0, 1.5)).into(),
                )
            };
            nodes.push(
                MobileNode::new(
                    id,
                    building.id(),
                    RegionKind::Building,
                    NodeType::Human,
                    pattern,
                    model,
                    setup.seed_for(1),
                )
                .with_home_anchor(building.anchor()),
            );
        }
    }

    nodes
}

/// Builds the campus access network: one wide-area base station plus an
/// access point per building, giving complete coverage of the experiment
/// site (the paper: "cellular network services are provided for the roads
/// and buildings within the campus, and wireless Internet access is
/// provided for 6 buildings").
#[must_use]
pub fn default_network(campus: &Campus) -> AccessNetwork {
    let bbox = campus.bounding_box();
    let center = bbox.center();
    let radius = center.distance_to(bbox.max()) + 50.0;
    let mut gateways = vec![Gateway::new(0, GatewayKind::BaseStation, center, radius)];
    for (i, b) in campus.regions_of_kind(RegionKind::Building).enumerate() {
        let site: Point = b.anchor();
        gateways.push(Gateway::new(
            (i + 1) as u32,
            GatewayKind::AccessPoint,
            site,
            80.0,
        ));
    }
    AccessNetwork::new(gateways)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sums_to_140() {
        let rows = table1_rows();
        let total: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, POPULATION);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn population_matches_table1() {
        let campus = Campus::inha_like();
        let nodes = populate(&campus, 7);
        assert_eq!(nodes.len(), POPULATION);

        let road_nodes = nodes
            .iter()
            .filter(|n| n.region_kind() == RegionKind::Road)
            .count();
        assert_eq!(road_nodes, 50);

        let vehicles = nodes
            .iter()
            .filter(|n| n.node_type() == NodeType::Vehicle)
            .count();
        assert_eq!(vehicles, 25);

        let per_pattern = |p| nodes.iter().filter(|n| n.declared_pattern() == p).count();
        assert_eq!(per_pattern(MobilityPattern::Stop), 30);
        assert_eq!(per_pattern(MobilityPattern::Random), 30);
        assert_eq!(per_pattern(MobilityPattern::Linear), 80);
    }

    #[test]
    fn ids_are_dense() {
        let campus = Campus::inha_like();
        let nodes = populate(&campus, 7);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id().index(), i);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let campus = Campus::inha_like();
        let a = populate(&campus, 3);
        let b = populate(&campus, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.position(), y.position());
            assert_eq!(x.declared_pattern(), y.declared_pattern());
        }
        let c = populate(&campus, 4);
        // A different seed moves at least some starting positions.
        let moved = a
            .iter()
            .zip(&c)
            .filter(|(x, y)| x.position() != y.position())
            .count();
        assert!(moved > 50);
    }

    #[test]
    fn start_positions_are_inside_home_regions() {
        let campus = Campus::inha_like();
        let nodes = populate(&campus, 11);
        for n in &nodes {
            let region = campus.region(n.region());
            assert!(
                region.contains(n.position()),
                "{} starts at {} outside {}",
                n.id(),
                n.position(),
                region.name()
            );
        }
    }

    #[test]
    fn network_covers_every_start_position() {
        let campus = Campus::inha_like();
        let net = default_network(&campus);
        let nodes = populate(&campus, 5);
        for n in &nodes {
            assert!(
                net.best_gateway(n.position()).is_some(),
                "{} uncovered at {}",
                n.id(),
                n.position()
            );
        }
    }

    #[test]
    fn network_has_base_station_and_aps() {
        let campus = Campus::inha_like();
        let net = default_network(&campus);
        assert_eq!(net.gateways().len(), 7);
        assert_eq!(net.gateways()[0].kind(), GatewayKind::BaseStation);
        assert_eq!(net.gateways()[1].kind(), GatewayKind::AccessPoint);
    }
}
