use std::collections::BTreeMap;

use mobigrid_geo::Point;

use crate::{
    Gateway, GatewayId, LocationUpdate, MnId, OutageSchedule, TrafficMeter, WirelessError,
};

/// A uniform-grid spatial index over gateway coverage discs.
///
/// The cell size is the largest coverage radius, so any point's covering
/// gateways all sit in the candidate list of the point's own cell: a
/// gateway covering `p` is within `range ≤ cell` of it, and each gateway is
/// inserted into every cell its coverage disc's bounding box overlaps.
/// Lookups therefore scan one cell's candidates instead of every gateway.
///
/// Per-cell candidate lists are stored in ascending gateway-id order
/// (insertion follows the dense id order), which keeps the nearest-gateway
/// tie-breaking identical to a linear scan over `gateways`. Outages are
/// filtered at query time, so the index never goes stale when the
/// [`OutageSchedule`] changes.
#[derive(Debug, Clone, Default, PartialEq)]
struct GatewayGrid {
    /// Cell edge length in metres (0 when there are no gateways).
    cell_m: f64,
    /// World coordinates of cell (0, 0)'s minimum corner.
    origin: Point,
    /// Candidate gateway indices per occupied cell.
    cells: BTreeMap<(i64, i64), Vec<u32>>,
}

impl GatewayGrid {
    fn build(gateways: &[Gateway]) -> Self {
        let Some(cell_m) = gateways
            .iter()
            .map(Gateway::range)
            .max_by(|a, b| a.partial_cmp(b).expect("finite ranges"))
        else {
            return GatewayGrid::default();
        };
        let origin = Point::new(
            gateways
                .iter()
                .map(|g| g.site().x - g.range())
                .fold(f64::INFINITY, f64::min),
            gateways
                .iter()
                .map(|g| g.site().y - g.range())
                .fold(f64::INFINITY, f64::min),
        );
        let mut cells: BTreeMap<(i64, i64), Vec<u32>> = BTreeMap::new();
        for (i, gw) in gateways.iter().enumerate() {
            let (lo_x, lo_y) = Self::cell_of(
                origin,
                cell_m,
                gw.site().x - gw.range(),
                gw.site().y - gw.range(),
            );
            let (hi_x, hi_y) = Self::cell_of(
                origin,
                cell_m,
                gw.site().x + gw.range(),
                gw.site().y + gw.range(),
            );
            for cx in lo_x..=hi_x {
                for cy in lo_y..=hi_y {
                    cells.entry((cx, cy)).or_default().push(i as u32);
                }
            }
        }
        GatewayGrid {
            cell_m,
            origin,
            cells,
        }
    }

    fn cell_of(origin: Point, cell_m: f64, x: f64, y: f64) -> (i64, i64) {
        (
            ((x - origin.x) / cell_m).floor() as i64,
            ((y - origin.y) / cell_m).floor() as i64,
        )
    }

    /// The candidate gateway indices for `p`'s cell. Every gateway covering
    /// `p` is in this list; the caller still filters by actual coverage.
    fn candidates(&self, p: Point) -> &[u32] {
        if self.cell_m <= 0.0 {
            return &[];
        }
        let cell = Self::cell_of(self.origin, self.cell_m, p.x, p.y);
        self.cells.get(&cell).map_or(&[], Vec::as_slice)
    }
}

/// The campus access network: a set of gateways with association, handoff
/// tracking and aggregate traffic accounting.
///
/// A node transmits through the *nearest covering* gateway. The network
/// remembers each node's previous association so the experiments can count
/// handoffs — the events that force a fresh location update regardless of
/// the filter.
///
/// # Examples
///
/// ```
/// use mobigrid_wireless::{AccessNetwork, Gateway, GatewayKind, LocationUpdate, MnId};
/// use mobigrid_geo::Point;
///
/// let mut net = AccessNetwork::new(vec![
///     Gateway::new(0, GatewayKind::BaseStation, Point::new(0.0, 0.0), 100.0),
///     Gateway::new(1, GatewayKind::BaseStation, Point::new(300.0, 0.0), 100.0),
/// ]);
/// let mn = MnId::new(1);
/// net.transmit(&LocationUpdate::new(mn, 0.0, Point::new(10.0, 0.0), 0)).unwrap();
/// net.transmit(&LocationUpdate::new(mn, 1.0, Point::new(290.0, 0.0), 1)).unwrap();
/// assert_eq!(net.handoffs(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessNetwork {
    gateways: Vec<Gateway>,
    grid: GatewayGrid,
    meter: TrafficMeter,
    associations: BTreeMap<MnId, GatewayId>,
    handoffs: u64,
    dropped: u64,
    outages: OutageSchedule,
}

impl AccessNetwork {
    /// Creates a network from its gateways.
    ///
    /// # Panics
    ///
    /// Panics when gateway ids are not the dense sequence `0..n` — the
    /// spatial index's candidate lists rely on id order matching insertion
    /// order.
    #[must_use]
    pub fn new(gateways: Vec<Gateway>) -> Self {
        for (i, gw) in gateways.iter().enumerate() {
            assert_eq!(gw.id().index(), i, "gateway ids must be dense 0..n");
        }
        let grid = GatewayGrid::build(&gateways);
        AccessNetwork {
            gateways,
            grid,
            meter: TrafficMeter::new(),
            associations: BTreeMap::new(),
            handoffs: 0,
            dropped: 0,
            outages: OutageSchedule::new(),
        }
    }

    /// Attaches a gateway outage schedule ("frequent disconnectivity"):
    /// transmissions choose among gateways that are up at the frame's
    /// timestamp.
    #[must_use]
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = outages;
        self
    }

    /// The attached outage schedule.
    #[must_use]
    pub fn outages(&self) -> &OutageSchedule {
        &self.outages
    }

    /// The registered gateways.
    #[must_use]
    pub fn gateways(&self) -> &[Gateway] {
        &self.gateways
    }

    /// The gateway a node at `p` would associate with: nearest covering
    /// site, ties broken by lowest id. Ignores outages (see
    /// [`AccessNetwork::best_gateway_at`]).
    ///
    /// Lookup goes through the uniform-grid spatial index: only the
    /// gateways whose coverage disc can reach `p`'s grid cell are examined,
    /// not the whole gateway list. Candidates are visited in ascending id
    /// order, so the result — including distance ties — is identical to a
    /// linear scan.
    #[must_use]
    pub fn best_gateway(&self, p: Point) -> Option<&Gateway> {
        self.grid
            .candidates(p)
            .iter()
            .map(|i| &self.gateways[*i as usize])
            .filter(|g| g.covers(p))
            .min_by(|a, b| {
                a.distance_to(p)
                    .partial_cmp(&b.distance_to(p))
                    .expect("finite distances")
            })
    }

    /// The nearest covering gateway that is *up* at `time_s`.
    ///
    /// Uses the same indexed lookup as [`AccessNetwork::best_gateway`];
    /// outages are filtered per query, so the index stays valid when the
    /// [`OutageSchedule`] changes.
    #[must_use]
    pub fn best_gateway_at(&self, p: Point, time_s: f64) -> Option<&Gateway> {
        self.grid
            .candidates(p)
            .iter()
            .map(|i| &self.gateways[*i as usize])
            .filter(|g| g.covers(p) && !self.outages.is_down(g.id(), time_s))
            .min_by(|a, b| {
                a.distance_to(p)
                    .partial_cmp(&b.distance_to(p))
                    .expect("finite distances")
            })
    }

    /// Transmits a location update from its reported position, returning the
    /// gateway that carried it.
    ///
    /// The update crosses the air interface as its wire encoding: it is
    /// serialised into a stack frame and parsed back zero-copy with
    /// [`LocationUpdate::decode`], so routing and accounting see
    /// exactly what the wire carries and the path never touches the heap.
    ///
    /// Counts the frame in the aggregate meter and records
    /// a handoff when the node's association changed.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::NoCoverage`] (and counts a drop) when no
    /// gateway covers the position.
    pub fn transmit(&mut self, lu: &LocationUpdate) -> Result<GatewayId, WirelessError> {
        let frame = lu.encode();
        let lu = LocationUpdate::decode(&frame).expect("self-encoded frame is well-formed");
        let Some(gw) = self
            .best_gateway_at(lu.position, lu.time_s)
            .map(Gateway::id)
        else {
            self.dropped += 1;
            return Err(WirelessError::NoCoverage {
                position: lu.position,
            });
        };
        self.meter.count(frame.len());
        match self.associations.insert(lu.node, gw) {
            Some(prev) if prev != gw => self.handoffs += 1,
            _ => {}
        }
        Ok(gw)
    }

    /// Aggregate traffic across all gateways.
    #[must_use]
    pub fn meter(&self) -> &TrafficMeter {
        &self.meter
    }

    /// The gateway a node is currently associated with, if it has ever
    /// transmitted.
    #[must_use]
    pub fn association(&self, node: MnId) -> Option<GatewayId> {
        self.associations.get(&node).copied()
    }

    /// Number of association changes observed.
    #[must_use]
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Number of transmissions dropped for lack of coverage.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the network's cumulative accounting (messages, bytes,
    /// handoffs, coverage drops) as `net.*` gauges on `rec`. Gauges are
    /// last-write-wins, so calling this once per tick leaves the run's
    /// final totals in the recorder.
    pub fn record_telemetry(&self, rec: &mut dyn mobigrid_telemetry::Recorder) {
        rec.gauge_set("net.messages", self.meter.messages() as f64);
        rec.gauge_set("net.bytes", self.meter.bytes() as f64);
        rec.gauge_set("net.handoffs", self.handoffs as f64);
        rec.gauge_set("net.dropped", self.dropped as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatewayKind;

    fn two_cell_network() -> AccessNetwork {
        AccessNetwork::new(vec![
            Gateway::new(0, GatewayKind::BaseStation, Point::new(0.0, 0.0), 100.0),
            Gateway::new(1, GatewayKind::BaseStation, Point::new(300.0, 0.0), 100.0),
        ])
    }

    fn lu(node: u32, t: f64, x: f64) -> LocationUpdate {
        LocationUpdate::new(MnId::new(node), t, Point::new(x, 0.0), 0)
    }

    #[test]
    fn nearest_covering_gateway_wins() {
        let net = two_cell_network();
        assert_eq!(
            net.best_gateway(Point::new(10.0, 0.0))
                .unwrap()
                .id()
                .index(),
            0
        );
        assert_eq!(
            net.best_gateway(Point::new(290.0, 0.0))
                .unwrap()
                .id()
                .index(),
            1
        );
        assert!(net.best_gateway(Point::new(150.0, 0.0)).is_none());
    }

    #[test]
    fn transmit_counts_traffic() {
        let mut net = two_cell_network();
        net.transmit(&lu(1, 0.0, 10.0)).unwrap();
        net.transmit(&lu(2, 0.0, 20.0)).unwrap();
        net.transmit(&lu(3, 0.0, 290.0)).unwrap();
        assert_eq!(net.meter().messages(), 3);
        assert_eq!(net.meter().bytes(), 3 * LocationUpdate::WIRE_SIZE as u64);
        assert_eq!(net.meter().bytes(), 108);
    }

    #[test]
    fn out_of_coverage_drops() {
        let mut net = two_cell_network();
        let err = net.transmit(&lu(1, 0.0, 150.0)).unwrap_err();
        assert!(matches!(err, WirelessError::NoCoverage { .. }));
        assert_eq!(net.dropped(), 1);
        assert_eq!(net.meter().messages(), 0);
    }

    #[test]
    fn handoff_detection() {
        let mut net = two_cell_network();
        let mn = 7;
        net.transmit(&lu(mn, 0.0, 10.0)).unwrap();
        assert_eq!(net.handoffs(), 0);
        net.transmit(&lu(mn, 1.0, 20.0)).unwrap(); // same cell
        assert_eq!(net.handoffs(), 0);
        net.transmit(&lu(mn, 2.0, 290.0)).unwrap(); // cell change
        assert_eq!(net.handoffs(), 1);
        assert_eq!(net.association(MnId::new(mn)), Some(GatewayId::new(1)));
    }

    #[test]
    fn outages_reroute_or_drop_transmissions() {
        let mut sched = OutageSchedule::new();
        sched.add_window(GatewayId::new(0), 0.0, 10.0).unwrap();
        let mut net = two_cell_network().with_outages(sched);
        // During the outage the only covering gateway for x=10 is down.
        let err = net.transmit(&lu(1, 5.0, 10.0)).unwrap_err();
        assert!(matches!(err, WirelessError::NoCoverage { .. }));
        assert_eq!(net.dropped(), 1);
        // After the window the same transmission succeeds.
        let gw = net.transmit(&lu(1, 10.0, 10.0)).unwrap();
        assert_eq!(gw.index(), 0);
    }

    #[test]
    fn best_gateway_at_skips_down_gateways() {
        let mut sched = OutageSchedule::new();
        sched.add_window(GatewayId::new(0), 0.0, 100.0).unwrap();
        let net = two_cell_network().with_outages(sched);
        // x=10 is only covered by gateway 0, which is down.
        assert!(net.best_gateway_at(Point::new(10.0, 0.0), 50.0).is_none());
        // Time-unaware lookup still sees it.
        assert!(net.best_gateway(Point::new(10.0, 0.0)).is_some());
    }

    /// Reference implementation: the pre-index linear scan.
    fn linear_best_at(net: &AccessNetwork, p: Point, time_s: Option<f64>) -> Option<GatewayId> {
        net.gateways()
            .iter()
            .filter(|g| g.covers(p) && time_s.is_none_or(|t| !net.outages().is_down(g.id(), t)))
            .min_by(|a, b| {
                a.distance_to(p)
                    .partial_cmp(&b.distance_to(p))
                    .expect("finite distances")
            })
            .map(Gateway::id)
    }

    #[test]
    fn down_gateway_excluded_by_index_exactly_as_by_linear_scan() {
        let mut sched = OutageSchedule::new();
        sched.add_window(GatewayId::new(0), 0.0, 100.0).unwrap();
        let net = two_cell_network().with_outages(sched);
        for x in [-50.0, 0.0, 10.0, 99.0, 150.0, 250.0, 290.0, 410.0] {
            let p = Point::new(x, 0.0);
            for t in [0.0, 50.0, 100.0, 200.0] {
                assert_eq!(
                    net.best_gateway_at(p, t).map(Gateway::id),
                    linear_best_at(&net, p, Some(t)),
                    "x={x} t={t}"
                );
            }
            assert_eq!(
                net.best_gateway(p).map(Gateway::id),
                linear_best_at(&net, p, None),
                "x={x}"
            );
        }
    }

    #[test]
    fn indexed_lookup_matches_linear_scan_on_dense_deployment() {
        // 25 overlapping gateways with mixed ranges plus outage windows:
        // the indexed lookup must agree with the linear scan everywhere,
        // including coverage holes and points outside the deployment.
        let gws: Vec<Gateway> = (0..25u32)
            .map(|i| {
                let kind = if i % 3 == 0 {
                    GatewayKind::BaseStation
                } else {
                    GatewayKind::AccessPoint
                };
                let site = Point::new(f64::from(i % 5) * 80.0, f64::from(i / 5) * 80.0);
                let range = if i % 2 == 0 { 110.0 } else { 45.0 };
                Gateway::new(i, kind, site, range)
            })
            .collect();
        let mut sched = OutageSchedule::new();
        sched.add_window(GatewayId::new(3), 0.0, 50.0).unwrap();
        sched.add_window(GatewayId::new(12), 20.0, 80.0).unwrap();
        sched.add_window(GatewayId::new(24), 0.0, 1000.0).unwrap();
        let net = AccessNetwork::new(gws).with_outages(sched);

        let mut px = -60.0;
        while px < 420.0 {
            let mut py = -60.0;
            while py < 420.0 {
                let p = Point::new(px, py);
                assert_eq!(
                    net.best_gateway(p).map(Gateway::id),
                    linear_best_at(&net, p, None),
                    "p=({px}, {py})"
                );
                for t in [0.0, 25.0, 60.0, 2000.0] {
                    assert_eq!(
                        net.best_gateway_at(p, t).map(Gateway::id),
                        linear_best_at(&net, p, Some(t)),
                        "p=({px}, {py}) t={t}"
                    );
                }
                py += 13.0;
            }
            px += 13.0;
        }
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_panic() {
        let _ = AccessNetwork::new(vec![Gateway::new(
            5,
            GatewayKind::BaseStation,
            Point::ORIGIN,
            10.0,
        )]);
    }
}
