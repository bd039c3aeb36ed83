//! Dense columnar (struct-of-arrays) storage for the node population.
//!
//! The simulation's hot state does not live as a `Vec<MobileNode>`: the
//! builder decomposes the population into [`NodeColumns`] — one dense,
//! node-index-addressed column per field — so the tick kernels become
//! cache-linear slice sweeps instead of pointer-chasing walks over an
//! array of structs. The same SHARD_SIZE=64 shard geometry that governs
//! the parallel phases carves each column into disjoint chunks, which is
//! what lets the movement kernel run shard-parallel through
//! `ShardPool::for_each` with zero per-tick allocations.
//!
//! Column layout (node index `i` addresses every column):
//!
//! ```text
//!        hot movement kernel                cold / metadata
//!  ┌──────────────────────────────┐  ┌────────────────────────────┐
//!  engines[i]       MobilityEngine    regions[i]        RegionId
//!  rng[i]           SplitMix64 (u64)  region_kinds[i]   RegionKind
//!  positions[i]     Point             node_types[i]     NodeType
//!                                     patterns[i]       MobilityPattern
//!                                     mobility_kinds[i] MobilityKind
//!                                     home_anchors[i]   Option<Point>
//!
//!  engines[i] is 24 B: a parked node's StopModel inline, every larger
//!  model boxed.
//!
//!        sparse side table (ascending node id, set nodes only)
//!  retry_policies   (MnId, RetryPolicy)
//! ```
//!
//! The remaining per-node state lives in sibling dense columns owned by
//! their phases: classification history,
//! cluster id and DTH in the adaptive policy's dense per-node table
//! (`AdaptiveDistanceFilter`), staleness counters in each broker's dense
//! slots, and retry/backoff state plus wire sequence numbers in the
//! simulation's own `Vec`s — all indexed by the same dense node id.
//!
//! # Facade invariants
//!
//! [`MobileNode`] remains the public construction carrier and
//! [`NodeView`] the read-only facade over one column row. Decomposing a
//! population and reading it back through views is lossless for every
//! field, and `advance` produces bit-identical trajectories to stepping
//! the original `MobileNode`s (same engines, same SplitMix64 streams,
//! same order) — the equivalence proptest in
//! `crates/experiments/tests/soa_equivalence.rs` pins both.

use mobigrid_campus::{RegionId, RegionKind};
use mobigrid_geo::Point;
use mobigrid_mobility::{
    MobilityEngine, MobilityKind, MobilityModel, MobilityPattern, NodeType, Quiescence,
};
use mobigrid_sim::par::select;
use mobigrid_sim::SplitMix64;
use mobigrid_wireless::{MnId, RetryPolicy};

use crate::MobileNode;

/// The node population as dense parallel columns, indexed by node id.
///
/// Built once by the simulation builder from a `Vec<MobileNode>` (whose
/// ids must be the dense range `0..n`, validated there); thereafter the
/// tick kernels sweep the columns in shard-sized slices.
pub struct NodeColumns {
    /// Mobility generators, enum-dispatched (no vtable on the hot path).
    engines: Vec<MobilityEngine>,
    /// Per-node SplitMix64 RNG state (one `u64` each), inline in a column.
    rng: Vec<SplitMix64>,
    /// Current ground-truth positions.
    positions: Vec<Point>,
    /// Home regions.
    regions: Vec<RegionId>,
    /// Home-region kinds (road / building), shared read-only with the
    /// sharded apply/measure phase.
    region_kinds: Vec<RegionKind>,
    /// Human-carried or vehicle-mounted.
    node_types: Vec<NodeType>,
    /// Declared (workload-intended) mobility patterns.
    patterns: Vec<MobilityPattern>,
    /// Engine variant discriminants, cached densely for kernels that only
    /// need to branch on the kind.
    mobility_kinds: Vec<MobilityKind>,
    /// Estimator prior anchors, when the workload set them.
    home_anchors: Vec<Option<Point>>,
    /// The nodes' own retry policies, by ascending node id: a sparse side
    /// table, as no workload attaches one and only the drop path reads it.
    retry_policies: Vec<(MnId, RetryPolicy)>,
}

/// One shard of the movement kernel: disjoint mutable slices of every
/// column the kernel touches, all covering the same node-index range.
pub struct MovementShard<'a> {
    engines: &'a mut [MobilityEngine],
    rng: &'a mut [SplitMix64],
    positions: &'a mut [Point],
}

impl MovementShard<'_> {
    /// Advances every node in the shard by `dt` seconds, writing the new
    /// position both into the position column and into `obs` (the tick's
    /// `(node, position)` observation slice, same indexing). `base` is the
    /// shard's first node index. `_time_s`, the tick's simulation time, is
    /// not read: it stays in the signature for the benchmark harness,
    /// which times this kernel directly.
    ///
    /// Exactly [`MobileNode::step`] per node, in the same node order: step
    /// the engine with the node's own RNG stream.
    pub fn advance(self, base: usize, _time_s: f64, dt: f64, obs: &mut [(MnId, Point)]) {
        debug_assert_eq!(self.engines.len(), obs.len());
        for (k, (engine, rng)) in self.engines.iter_mut().zip(self.rng.iter_mut()).enumerate() {
            let pos = engine.step(dt, rng);
            self.positions[k] = pos;
            obs[k] = (MnId::new((base + k) as u32), pos);
        }
    }

    /// Sparse-driver variant of [`MovementShard::advance`]: nodes flagged
    /// `asleep` are skipped entirely — their position and observation slots
    /// already hold the correct (bit-unchanged) values from the tick they
    /// fell asleep. Every node that *does* step is then probed for
    /// quiescence; provably quiescent nodes are reported in `newly_asleep`
    /// as `(node_id, quiescent_ticks)` with `u64::MAX` meaning "for ever".
    ///
    /// The caller files the reported nodes into its wake wheel *in shard
    /// order*, keeping the schedule history — and therefore the drain
    /// order — independent of thread count. The caller also skips a shard
    /// whose every node is asleep without building its view (debug builds
    /// check that no such shard gets here).
    pub fn advance_sparse(
        self,
        base: usize,
        dt: f64,
        obs: &mut [(MnId, Point)],
        asleep: &[bool],
    ) -> Vec<(u32, u64)> {
        debug_assert_eq!(self.engines.len(), obs.len());
        debug_assert_eq!(self.engines.len(), asleep.len());
        debug_assert!(
            !asleep.iter().all(|&a| a),
            "an all-asleep shard is skipped before its view is built"
        );
        let mut newly_asleep = Vec::new();
        for (k, (engine, rng)) in self.engines.iter_mut().zip(self.rng.iter_mut()).enumerate() {
            if asleep[k] {
                continue;
            }
            let pos = engine.step(dt, rng);
            self.positions[k] = pos;
            let ticks = match engine.quiescence(dt) {
                Quiescence::Active => None,
                Quiescence::Until(ticks) => Some(ticks),
                Quiescence::Forever => Some(u64::MAX),
            };
            if let Some(ticks) = ticks {
                // At most the rest of the shard falls asleep: the list
                // allocates once, not once per doubling.
                newly_asleep.reserve(asleep.len() - k);
                newly_asleep.push(((base + k) as u32, ticks));
            }
            obs[k] = (MnId::new((base + k) as u32), pos);
        }
        newly_asleep
    }
}

impl NodeColumns {
    /// Decomposes a node population into columns. The caller guarantees
    /// dense ids `0..n` in order (the simulation builder validates this).
    #[must_use]
    pub fn from_nodes(nodes: Vec<MobileNode>) -> Self {
        let n = nodes.len();
        let mut cols = NodeColumns {
            engines: Vec::with_capacity(n),
            rng: Vec::with_capacity(n),
            positions: Vec::with_capacity(n),
            regions: Vec::with_capacity(n),
            region_kinds: Vec::with_capacity(n),
            node_types: Vec::with_capacity(n),
            patterns: Vec::with_capacity(n),
            mobility_kinds: Vec::with_capacity(n),
            home_anchors: Vec::with_capacity(n),
            retry_policies: Vec::new(),
        };
        for node in nodes {
            let parts = node.into_parts();
            debug_assert_eq!(
                parts.id.index(),
                cols.engines.len(),
                "node ids must be dense and in order"
            );
            cols.mobility_kinds.push(parts.engine.kind());
            cols.engines.push(parts.engine);
            cols.rng.push(parts.rng);
            cols.positions.push(parts.position);
            cols.regions.push(parts.region);
            cols.region_kinds.push(parts.region_kind);
            cols.node_types.push(parts.node_type);
            cols.patterns.push(parts.declared_pattern);
            cols.home_anchors.push(parts.home_anchor);
            if let Some(policy) = parts.retry_policy {
                cols.retry_policies.push((parts.id, policy));
            }
        }
        cols
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The dense position column (ground truth after the last `advance`).
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The dense home-region-kind column.
    #[must_use]
    pub fn region_kinds(&self) -> &[RegionKind] {
        &self.region_kinds
    }

    /// The dense engine-discriminant column.
    #[must_use]
    pub fn mobility_kinds(&self) -> &[MobilityKind] {
        &self.mobility_kinds
    }

    /// The retry policies attached to nodes, by ascending node id (nodes
    /// without one are absent).
    #[must_use]
    pub fn retry_policies(&self) -> &[(MnId, RetryPolicy)] {
        &self.retry_policies
    }

    /// Node `index`'s own retry policy, when attached.
    #[must_use]
    pub fn retry_policy(&self, index: usize) -> Option<RetryPolicy> {
        let found = self
            .retry_policies
            .binary_search_by_key(&index, |(id, _)| id.index());
        found.ok().map(|at| self.retry_policies[at].1)
    }

    /// The per-node home anchors (dense, `None` where unset).
    #[must_use]
    pub fn home_anchors(&self) -> &[Option<Point>] {
        &self.home_anchors
    }

    /// A read-only facade over node `index`'s row across all columns.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    #[must_use]
    pub fn view(&self, index: usize) -> NodeView<'_> {
        assert!(index < self.len(), "node index {index} out of range");
        NodeView { cols: self, index }
    }

    /// Replays `ticks` positional-no-op steps on node `index`'s engine —
    /// the sparse driver's wake-up bookkeeping (see
    /// [`MobilityEngine::replay_quiescent`]). Positions and RNG streams
    /// are untouched, exactly as the skipped dense steps would have left
    /// them.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn replay_quiescent(&mut self, index: usize, ticks: u64, dt: f64) {
        self.engines[index].replay_quiescent(ticks, dt);
    }

    /// Carves the movement columns into `shard_size`-node shards for the
    /// parallel movement kernel. Shard geometry depends only on the
    /// population size, never the thread count.
    pub fn movement_shards(
        &mut self,
        shard_size: usize,
    ) -> impl ExactSizeIterator<Item = MovementShard<'_>> {
        let shards = self.len().div_ceil(shard_size);
        self.movement_shards_at(shard_size, 0..shards)
    }

    /// Like [`NodeColumns::movement_shards`], but only the shards whose
    /// indices `shards` lists, in ascending order; the shards between them
    /// cost nothing. The sparse driver moves only the shards that hold an
    /// awake node.
    ///
    /// # Panics
    ///
    /// Panics when `shards` does not ascend or names a shard past the
    /// population.
    pub fn movement_shards_at<I>(
        &mut self,
        shard_size: usize,
        shards: I,
    ) -> impl ExactSizeIterator<Item = MovementShard<'_>>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator,
    {
        let columns = self
            .engines
            .chunks_mut(shard_size)
            .zip(self.rng.chunks_mut(shard_size))
            .zip(self.positions.chunks_mut(shard_size));
        select(columns, shards).map(|(_, ((engines, rng), positions))| MovementShard {
            engines,
            rng,
            positions,
        })
    }
}

impl std::fmt::Debug for NodeColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeColumns")
            .field("len", &self.len())
            .finish()
    }
}

/// A read-only view of one node's row across the columns — the thin facade
/// that replaces handing out `&MobileNode`.
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    cols: &'a NodeColumns,
    index: usize,
}

impl NodeView<'_> {
    /// The node's identity.
    #[must_use]
    pub fn id(&self) -> MnId {
        MnId::new(self.index as u32)
    }

    /// The node's home region.
    #[must_use]
    pub fn region(&self) -> RegionId {
        self.cols.regions[self.index]
    }

    /// Whether the home region is a road or a building.
    #[must_use]
    pub fn region_kind(&self) -> RegionKind {
        self.cols.region_kinds[self.index]
    }

    /// Human-carried or vehicle-mounted.
    #[must_use]
    pub fn node_type(&self) -> NodeType {
        self.cols.node_types[self.index]
    }

    /// The workload's intended mobility pattern.
    #[must_use]
    pub fn declared_pattern(&self) -> MobilityPattern {
        self.cols.patterns[self.index]
    }

    /// Which mobility-engine variant drives this node.
    #[must_use]
    pub fn mobility_kind(&self) -> MobilityKind {
        self.cols.mobility_kinds[self.index]
    }

    /// Current ground-truth position.
    #[must_use]
    pub fn position(&self) -> Point {
        self.cols.positions[self.index]
    }

    /// The home-region anchor, when set.
    #[must_use]
    pub fn home_anchor(&self) -> Option<Point> {
        self.cols.home_anchors[self.index]
    }

    /// The node's retry policy, when attached.
    #[must_use]
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.cols.retry_policy(self.index)
    }
}

impl std::fmt::Debug for NodeView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeView")
            .field("id", &self.id())
            .field("region", &self.region())
            .field("kind", &self.region_kind())
            .field("type", &self.node_type())
            .field("pattern", &self.declared_pattern())
            .field("position", &self.position())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_geo::Rect;
    use mobigrid_mobility::{RandomWalk, StopModel};

    fn mixed_population(n: usize) -> Vec<MobileNode> {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 30.0)).unwrap();
        (0..n)
            .map(|i| {
                let start = Point::new(5.0 + i as f64, 5.0);
                if i % 2 == 0 {
                    MobileNode::new(
                        MnId::new(i as u32),
                        RegionId::from_index(0),
                        RegionKind::Building,
                        NodeType::Human,
                        MobilityPattern::Stop,
                        StopModel::new(start),
                        i as u64,
                    )
                } else {
                    MobileNode::new(
                        MnId::new(i as u32),
                        RegionId::from_index(1),
                        RegionKind::Road,
                        NodeType::Vehicle,
                        MobilityPattern::Random,
                        RandomWalk::new(bounds, start, 1.0),
                        i as u64,
                    )
                    .with_home_anchor(start)
                }
            })
            .collect()
    }

    #[test]
    fn decomposition_is_lossless_through_views() {
        let nodes = mixed_population(7);
        let expect: Vec<_> = nodes
            .iter()
            .map(|n| {
                (
                    n.id(),
                    n.region(),
                    n.region_kind(),
                    n.node_type(),
                    n.declared_pattern(),
                    n.position(),
                    n.home_anchor(),
                )
            })
            .collect();
        let cols = NodeColumns::from_nodes(nodes);
        assert_eq!(cols.len(), 7);
        for (i, want) in expect.iter().enumerate() {
            let v = cols.view(i);
            let got = (
                v.id(),
                v.region(),
                v.region_kind(),
                v.node_type(),
                v.declared_pattern(),
                v.position(),
                v.home_anchor(),
            );
            assert_eq!(&got, want, "node {i}");
        }
    }

    /// Columnar advance is bit-identical to stepping the original
    /// `MobileNode`s in node order — the facade invariant the pipeline's
    /// golden traces rest on.
    #[test]
    fn advance_matches_aos_stepping() {
        let mut aos = mixed_population(11);
        let mut cols = NodeColumns::from_nodes(mixed_population(11));
        let mut obs = vec![(MnId::new(0), Point::ORIGIN); 11];
        for t in 1..=50 {
            let time_s = t as f64;
            // Bases for shard_size=4 over 11 nodes: 0, 4, 8.
            let shards: Vec<_> = cols.movement_shards(4).collect();
            for (s, shard) in shards.into_iter().enumerate() {
                let base = s * 4;
                let end = (base + 4).min(11);
                shard.advance(base, time_s, 1.0, &mut obs[base..end]);
            }
            for (i, node) in aos.iter_mut().enumerate() {
                let want = node.step(1.0);
                assert_eq!(obs[i], (MnId::new(i as u32), want), "tick {t} node {i}");
                assert_eq!(cols.positions()[i], want);
            }
        }
    }

    #[test]
    fn mobility_kind_column_matches_engines() {
        let cols = NodeColumns::from_nodes(mixed_population(6));
        for i in 0..6 {
            let expect = if i % 2 == 0 {
                MobilityKind::Stop
            } else {
                MobilityKind::RandomWalk
            };
            assert_eq!(cols.mobility_kinds()[i], expect);
            assert_eq!(cols.view(i).mobility_kind(), expect);
        }
    }

    #[test]
    fn retry_policies_sit_in_a_side_table_by_node_id() {
        let policy = |max_retries| RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        };
        let nodes = mixed_population(9)
            .into_iter()
            .enumerate()
            .map(|(i, n)| match i {
                2 | 3 | 7 => n.with_retry_policy(policy(i as u32)),
                _ => n,
            })
            .collect();
        let cols = NodeColumns::from_nodes(nodes);
        let ids: Vec<usize> = cols
            .retry_policies()
            .iter()
            .map(|(id, _)| id.index())
            .collect();
        assert_eq!(ids, [2, 3, 7]);
        for i in 0..9 {
            let want = matches!(i, 2 | 3 | 7).then(|| policy(i as u32));
            assert_eq!(cols.retry_policy(i), want, "node {i}");
            assert_eq!(cols.view(i).retry_policy(), want, "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn view_bounds_are_checked() {
        let cols = NodeColumns::from_nodes(mixed_population(2));
        let _ = cols.view(2);
    }
}
