use mobigrid_campus::{RegionId, RegionKind};
use mobigrid_geo::Point;
use mobigrid_mobility::{
    MobilityEngine, MobilityKind, MobilityModel, MobilityPattern, NodeType, Trace,
};
use mobigrid_sim::SplitMix64;
use mobigrid_wireless::{MnId, RetryPolicy};

/// A mobile grid node: identity, workload metadata and its ground-truth
/// mobility generator.
///
/// The node owns its RNG state (seeded deterministically per node by the
/// workload generator, via the golden-trace-compatible
/// [`SplitMix64::from_stdrng_seed`] path) and records its ground-truth
/// trace, which the experiments compare broker beliefs against.
///
/// Inside [`MobileGridSim`](crate::MobileGridSim) the population does not
/// live as a `Vec<MobileNode>`: the builder decomposes the nodes into the
/// dense [`NodeColumns`](crate::NodeColumns) SoA store and `MobileNode`
/// survives only as the construction-time carrier (and, via
/// [`NodeView`](crate::NodeView), as the read-only facade). Stand-alone
/// drivers (interval resampling, federated ticking) still step `MobileNode`
/// directly; both paths produce bit-identical trajectories.
pub struct MobileNode {
    id: MnId,
    region: RegionId,
    region_kind: RegionKind,
    node_type: NodeType,
    declared_pattern: MobilityPattern,
    engine: MobilityEngine,
    rng: SplitMix64,
    position: Point,
    trace: Trace,
    record_trace: bool,
    home_anchor: Option<Point>,
    retry_policy: Option<RetryPolicy>,
}

/// A `MobileNode` decomposed into its per-column values, consumed by
/// `NodeColumns::from_nodes`.
pub(crate) struct NodeParts {
    pub(crate) id: MnId,
    pub(crate) region: RegionId,
    pub(crate) region_kind: RegionKind,
    pub(crate) node_type: NodeType,
    pub(crate) declared_pattern: MobilityPattern,
    pub(crate) engine: MobilityEngine,
    pub(crate) rng: SplitMix64,
    pub(crate) position: Point,
    pub(crate) trace: Trace,
    pub(crate) record_trace: bool,
    pub(crate) home_anchor: Option<Point>,
    pub(crate) retry_policy: Option<RetryPolicy>,
}

impl std::fmt::Debug for MobileNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileNode")
            .field("id", &self.id)
            .field("region", &self.region)
            .field("kind", &self.region_kind)
            .field("type", &self.node_type)
            .field("pattern", &self.declared_pattern)
            .field("position", &self.position)
            .finish()
    }
}

impl MobileNode {
    /// Creates a node. `declared_pattern` is the Table-1 workload label
    /// (what the generator intends), which the ADF's classifier tries to
    /// recover from motion alone.
    ///
    /// `model` is any concrete mobility model (or an already-built
    /// [`MobilityEngine`], or a legacy `Box<dyn MobilityModel + Send>` for
    /// out-of-tree models). `rng_seed` seeds the node's SplitMix64 stream
    /// exactly like the former per-node `StdRng::seed_from_u64(rng_seed)`
    /// did, so trajectories are unchanged from the AoS era.
    pub fn new(
        id: MnId,
        region: RegionId,
        region_kind: RegionKind,
        node_type: NodeType,
        declared_pattern: MobilityPattern,
        model: impl Into<MobilityEngine>,
        rng_seed: u64,
    ) -> Self {
        let engine = model.into();
        let position = engine.position();
        MobileNode {
            id,
            region,
            region_kind,
            node_type,
            declared_pattern,
            engine,
            rng: SplitMix64::from_stdrng_seed(rng_seed),
            position,
            trace: Trace::new(),
            record_trace: false,
            home_anchor: None,
            retry_policy: None,
        }
    }

    /// Enables ground-truth trace recording on [`MobileNode::step`].
    ///
    /// Off by default: an unbounded trace grows (and occasionally
    /// reallocates) on every tick, which both breaks the simulation's
    /// allocation-free steady state and leaks memory linearly in run length.
    /// Turn it on only for workload export or trace-replay capture.
    #[must_use]
    pub fn with_trace_recording(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Attaches the node's home-region anchor (e.g. the region centre),
    /// which the broker registers as estimator prior knowledge.
    #[must_use]
    pub fn with_home_anchor(mut self, anchor: Point) -> Self {
        self.home_anchor = Some(anchor);
        self
    }

    /// The home-region anchor, when set by the workload generator.
    #[must_use]
    pub fn home_anchor(&self) -> Option<Point> {
        self.home_anchor
    }

    /// Gives the node a bounded retry policy for location updates the
    /// channel drops: the simulation re-sends after an exponential backoff
    /// with deterministic jitter, up to the policy's retry cap.
    ///
    /// Without a policy (the default) a dropped update is simply lost, as
    /// in the pre-fault-injection model.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self
    }

    /// The node's retry policy, when one was attached.
    #[must_use]
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry_policy
    }

    /// The node's identity.
    #[must_use]
    pub fn id(&self) -> MnId {
        self.id
    }

    /// The node's home region (where Table 1 placed it).
    #[must_use]
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Whether the home region is a road or a building.
    #[must_use]
    pub fn region_kind(&self) -> RegionKind {
        self.region_kind
    }

    /// Human-carried or vehicle-mounted.
    #[must_use]
    pub fn node_type(&self) -> NodeType {
        self.node_type
    }

    /// The workload's intended mobility pattern for this node.
    #[must_use]
    pub fn declared_pattern(&self) -> MobilityPattern {
        self.declared_pattern
    }

    /// Which mobility-engine variant drives this node.
    #[must_use]
    pub fn mobility_kind(&self) -> MobilityKind {
        self.engine.kind()
    }

    /// Current ground-truth position.
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// The recorded ground-truth trace (empty unless
    /// [`MobileNode::with_trace_recording`] was requested).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Advances the node by `dt` seconds to simulation time `time_s`,
    /// returning the new position. Records the trace point only when trace
    /// recording is enabled.
    pub fn step(&mut self, time_s: f64, dt: f64) -> Point {
        self.position = self.engine.step(dt, &mut self.rng);
        if self.record_trace {
            self.trace.record(time_s, self.position);
        }
        self.position
    }

    /// Decomposes the node into its column values (builder → SoA handoff).
    pub(crate) fn into_parts(self) -> NodeParts {
        NodeParts {
            id: self.id,
            region: self.region,
            region_kind: self.region_kind,
            node_type: self.node_type,
            declared_pattern: self.declared_pattern,
            engine: self.engine,
            rng: self.rng,
            position: self.position,
            trace: self.trace,
            record_trace: self.record_trace,
            home_anchor: self.home_anchor,
            retry_policy: self.retry_policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_campus::RegionId;
    use mobigrid_geo::Rect;
    use mobigrid_mobility::{RandomWalk, StopModel};

    fn parked_node() -> MobileNode {
        MobileNode::new(
            MnId::new(3),
            RegionId::from_index(0),
            RegionKind::Building,
            NodeType::Human,
            MobilityPattern::Stop,
            StopModel::new(Point::new(7.0, 8.0)),
            1,
        )
    }

    #[test]
    fn metadata_round_trips() {
        let n = parked_node();
        assert_eq!(n.id(), MnId::new(3));
        assert_eq!(n.region().index(), 0);
        assert_eq!(n.region_kind(), RegionKind::Building);
        assert_eq!(n.node_type(), NodeType::Human);
        assert_eq!(n.declared_pattern(), MobilityPattern::Stop);
        assert_eq!(n.position(), Point::new(7.0, 8.0));
        assert_eq!(n.mobility_kind(), MobilityKind::Stop);
    }

    #[test]
    fn stepping_records_the_trace_only_when_enabled() {
        let mut silent = parked_node();
        let mut recording = parked_node().with_trace_recording();
        for t in 1..=5 {
            silent.step(t as f64, 1.0);
            recording.step(t as f64, 1.0);
        }
        assert_eq!(silent.trace().len(), 0);
        assert_eq!(recording.trace().len(), 5);
        assert_eq!(recording.trace().total_distance(), 0.0);
    }

    /// The seed-compat contract at the node level: a node seeded with
    /// `rng_seed` walks the exact trajectory of the legacy AoS node that
    /// held `StdRng::seed_from_u64(rng_seed)` and a boxed model.
    #[test]
    fn trajectory_matches_legacy_boxed_stdrng_driver() {
        use rand::{rngs::StdRng, SeedableRng};

        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 40.0)).unwrap();
        let start = Point::new(20.0, 20.0);
        let mut node = MobileNode::new(
            MnId::new(0),
            RegionId::from_index(0),
            RegionKind::Building,
            NodeType::Human,
            MobilityPattern::Random,
            RandomWalk::new(bounds, start, 1.2),
            99,
        );
        // The legacy driver, reproduced inline: boxed dyn model + StdRng.
        let mut model: Box<dyn MobilityModel + Send> =
            Box::new(RandomWalk::new(bounds, start, 1.2));
        let mut rng = StdRng::seed_from_u64(99);
        for t in 1..=200 {
            let got = node.step(t as f64, 1.0);
            let want = model.step(1.0, &mut rng);
            assert_eq!(got, want, "tick {t}");
        }
    }
}
