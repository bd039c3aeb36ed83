use std::collections::BTreeMap;

use mobigrid_geo::{Point, Polyline, Rect};

use crate::{CampusError, NodeId, Region, RegionId, RegionKind, WaypointGraph};

/// A complete campus: the region set, the walkable waypoint graph, named
/// waypoints (gates, junctions) and region entrances.
///
/// Construct one with [`CampusBuilder`] or use the paper-shaped default
/// [`Campus::inha_like`].
#[derive(Debug, Clone, PartialEq)]
pub struct Campus {
    regions: Vec<Region>,
    graph: WaypointGraph,
    named_waypoints: BTreeMap<String, NodeId>,
    entrances: BTreeMap<String, NodeId>,
}

impl Campus {
    /// Starts building a campus.
    #[must_use]
    pub fn builder() -> CampusBuilder {
        CampusBuilder::new()
    }

    /// All regions, indexed by [`RegionId::index`].
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Looks up a region by id.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this campus.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Looks up a region by name.
    #[must_use]
    pub fn region_by_name(&self, name: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.name() == name)
    }

    /// The region containing `p`, if any; buildings take precedence over
    /// roads when footprints overlap (e.g. at an entrance).
    #[must_use]
    pub fn locate(&self, p: Point) -> Option<&Region> {
        self.regions
            .iter()
            .filter(|r| r.contains(p))
            .max_by_key(|r| match r.kind() {
                RegionKind::Building => 1,
                RegionKind::Road => 0,
            })
    }

    /// The walkable waypoint graph.
    #[must_use]
    pub fn graph(&self) -> &WaypointGraph {
        &self.graph
    }

    /// Looks up a named waypoint (e.g. `"gate_a"`).
    #[must_use]
    pub fn waypoint(&self, name: &str) -> Option<NodeId> {
        self.named_waypoints.get(name).copied()
    }

    /// The entrance waypoint of the named region, if registered.
    #[must_use]
    pub fn entrance(&self, region_name: &str) -> Option<NodeId> {
        self.entrances.get(region_name).copied()
    }

    /// Shortest walkable route between two waypoints.
    #[must_use]
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Polyline> {
        self.graph.shortest_path(from, to)
    }

    /// Bounding box of every region footprint.
    ///
    /// # Panics
    ///
    /// Panics on a campus with no regions.
    #[must_use]
    pub fn bounding_box(&self) -> Rect {
        let mut boxes = self.regions.iter().map(|r| r.shape().bounding_box());
        let first = boxes.next().expect("campus has regions");
        boxes.fold(first, |acc, b| {
            Rect::bounding([acc.min(), acc.max(), b.min(), b.max()]).expect("non-empty")
        })
    }

    /// Regions of the given kind, in id order.
    pub fn regions_of_kind(&self, kind: RegionKind) -> impl Iterator<Item = &Region> {
        self.regions.iter().filter(move |r| r.kind() == kind)
    }
}

/// Incremental [`Campus`] constructor.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use mobigrid_campus::{Campus, RegionKind};
/// use mobigrid_geo::{Point, Polyline, Rect};
///
/// let mut b = Campus::builder();
/// let hall = b.add_building("Hall", Rect::new(Point::new(0.0, 10.0), Point::new(40.0, 40.0))?)?;
/// let road = b.add_road(
///     "Main",
///     Polyline::new(vec![Point::new(-50.0, 0.0), Point::new(50.0, 0.0)])?,
///     8.0,
/// )?;
/// let gate = b.add_waypoint("gate", Point::new(-50.0, 0.0))?;
/// let door = b.add_entrance("Hall", Point::new(20.0, 10.0))?;
/// b.connect(gate, door)?;
/// let campus = b.build();
/// assert_eq!(campus.regions().len(), 2);
/// assert_eq!(campus.region(hall).kind(), RegionKind::Building);
/// assert_eq!(campus.region(road).kind(), RegionKind::Road);
/// assert!(campus.route(gate, door).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CampusBuilder {
    regions: Vec<Region>,
    graph: WaypointGraph,
    named_waypoints: BTreeMap<String, NodeId>,
    entrances: BTreeMap<String, NodeId>,
}

impl CampusBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        CampusBuilder::default()
    }

    fn check_region_name(&self, name: &str) -> Result<(), CampusError> {
        if self.regions.iter().any(|r| r.name() == name) {
            return Err(CampusError::DuplicateRegion {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Registers a building with a rectangular footprint.
    ///
    /// # Errors
    ///
    /// Returns [`CampusError::DuplicateRegion`] when the name is taken.
    pub fn add_building(
        &mut self,
        name: impl Into<String>,
        footprint: Rect,
    ) -> Result<RegionId, CampusError> {
        let name = name.into();
        self.check_region_name(&name)?;
        let id = RegionId::from_index(self.regions.len() as u32);
        self.regions.push(Region::building(id, name, footprint));
        Ok(id)
    }

    /// Registers a road corridor.
    ///
    /// # Errors
    ///
    /// Returns [`CampusError::DuplicateRegion`] when the name is taken and
    /// [`CampusError::InvalidCorridorWidth`] for non-positive widths.
    pub fn add_road(
        &mut self,
        name: impl Into<String>,
        spine: Polyline,
        width: f64,
    ) -> Result<RegionId, CampusError> {
        let name = name.into();
        self.check_region_name(&name)?;
        let id = RegionId::from_index(self.regions.len() as u32);
        self.regions.push(Region::road(id, name, spine, width)?);
        Ok(id)
    }

    /// Registers a named waypoint (gate, junction).
    ///
    /// # Errors
    ///
    /// Returns [`CampusError::DuplicateWaypoint`] when the name is taken.
    pub fn add_waypoint(
        &mut self,
        name: impl Into<String>,
        at: Point,
    ) -> Result<NodeId, CampusError> {
        let name = name.into();
        if self.named_waypoints.contains_key(&name) {
            return Err(CampusError::DuplicateWaypoint { name });
        }
        let id = self.graph.add_node(at);
        self.named_waypoints.insert(name, id);
        Ok(id)
    }

    /// Registers the entrance waypoint of an existing region.
    ///
    /// # Errors
    ///
    /// Returns [`CampusError::UnknownRegion`] when no region has that name.
    pub fn add_entrance(&mut self, region_name: &str, at: Point) -> Result<NodeId, CampusError> {
        if !self.regions.iter().any(|r| r.name() == region_name) {
            return Err(CampusError::UnknownRegion {
                name: region_name.to_string(),
            });
        }
        let id = self.graph.add_node(at);
        self.entrances.insert(region_name.to_string(), id);
        Ok(id)
    }

    /// Connects two waypoints with a walkable edge.
    ///
    /// # Errors
    ///
    /// Returns [`CampusError::UnknownNode`] when either waypoint is unknown.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> Result<(), CampusError> {
        self.graph.add_edge(a, b)
    }

    /// Finalises the campus.
    #[must_use]
    pub fn build(self) -> Campus {
        Campus {
            regions: self.regions,
            graph: self.graph,
            named_waypoints: self.named_waypoints,
            entrances: self.entrances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_geo::Polyline;

    fn sample_campus() -> Campus {
        let mut b = Campus::builder();
        b.add_building(
            "B1",
            Rect::new(Point::new(0.0, 10.0), Point::new(30.0, 30.0)).unwrap(),
        )
        .unwrap();
        b.add_road(
            "R1",
            Polyline::new(vec![Point::new(-50.0, 0.0), Point::new(50.0, 0.0)]).unwrap(),
            8.0,
        )
        .unwrap();
        let g = b.add_waypoint("gate", Point::new(-50.0, 0.0)).unwrap();
        let e = b.add_entrance("B1", Point::new(15.0, 10.0)).unwrap();
        let j = b.add_waypoint("junction", Point::new(15.0, 0.0)).unwrap();
        b.connect(g, j).unwrap();
        b.connect(j, e).unwrap();
        b.build()
    }

    #[test]
    fn locate_prefers_buildings_over_roads() {
        let mut b = Campus::builder();
        // A building overlapping the road corridor.
        b.add_building(
            "B1",
            Rect::new(Point::new(-5.0, -5.0), Point::new(5.0, 5.0)).unwrap(),
        )
        .unwrap();
        b.add_road(
            "R1",
            Polyline::new(vec![Point::new(-50.0, 0.0), Point::new(50.0, 0.0)]).unwrap(),
            8.0,
        )
        .unwrap();
        let c = b.build();
        assert_eq!(c.locate(Point::new(0.0, 0.0)).unwrap().name(), "B1");
        assert_eq!(c.locate(Point::new(20.0, 0.0)).unwrap().name(), "R1");
        assert!(c.locate(Point::new(0.0, 100.0)).is_none());
    }

    #[test]
    fn duplicate_region_names_rejected() {
        let mut b = Campus::builder();
        b.add_building(
            "B1",
            Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap(),
        )
        .unwrap();
        let err = b
            .add_building(
                "B1",
                Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0)).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, CampusError::DuplicateRegion { .. }));
    }

    #[test]
    fn entrance_requires_existing_region() {
        let mut b = Campus::builder();
        let err = b.add_entrance("B9", Point::ORIGIN).unwrap_err();
        assert!(matches!(err, CampusError::UnknownRegion { .. }));
    }

    #[test]
    fn route_from_gate_to_entrance() {
        let c = sample_campus();
        let gate = c.waypoint("gate").unwrap();
        let door = c.entrance("B1").unwrap();
        let path = c.route(gate, door).unwrap();
        assert_eq!(path.length(), 65.0 + 10.0);
    }

    #[test]
    fn region_lookup_by_name_and_id() {
        let c = sample_campus();
        let b1 = c.region_by_name("B1").unwrap();
        assert_eq!(c.region(b1.id()).name(), "B1");
        assert!(c.region_by_name("Z9").is_none());
    }

    #[test]
    fn bounding_box_covers_all_regions() {
        let c = sample_campus();
        let bb = c.bounding_box();
        assert!(bb.contains(Point::new(-50.0, 0.0)));
        assert!(bb.contains(Point::new(30.0, 30.0)));
    }

    #[test]
    fn regions_of_kind_filters() {
        let c = sample_campus();
        assert_eq!(c.regions_of_kind(RegionKind::Building).count(), 1);
        assert_eq!(c.regions_of_kind(RegionKind::Road).count(), 1);
    }
}
