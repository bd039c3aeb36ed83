use std::collections::BTreeMap;

use mobigrid_cluster::OnlineBsas;
use mobigrid_geo::Point;
use mobigrid_mobility::MobilityPattern;
use mobigrid_sim::stats::Welford;
use mobigrid_wireless::MnId;

use crate::pipeline::SHARD_SIZE;
use crate::{AdfConfig, Decision, DistanceFilter, FilterReference, MobilityClassifier, MotionStep};

/// A snapshot of the per-node filter state behind one decision, exposed
/// for the flight recorder: which mobility class and cluster were in
/// force, which DTH was compared against, and the displacement the filter
/// measured on its most recent observation.
///
/// Every field is optional — policies report what they actually track
/// (the ideal pass-through policy tracks nothing and returns no probe at
/// all).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FilterProbe {
    /// The node's mobility classification, when the policy classifies.
    pub pattern: Option<MobilityPattern>,
    /// The velocity cluster the node was assigned, when the policy
    /// clusters (stopped nodes are excluded from clustering).
    pub cluster: Option<usize>,
    /// The distance threshold in force, in metres.
    pub dth: Option<f64>,
    /// The displacement measured against the filter's reference on the
    /// most recent observation, in metres.
    pub displacement: Option<f64>,
}

/// A location-update filtering policy: the component that sits between the
/// wireless gateways and the grid broker and decides, each tick, which
/// nodes' location updates are forwarded.
///
/// Implementations are driven with whole ticks (all nodes' observations at
/// one instant) because the adaptive policy clusters *across* nodes.
pub trait FilterPolicy {
    /// Processes one tick of observations, writing one decision per
    /// observation (same order) into `decisions`.
    ///
    /// `decisions` is a caller-provided scratch buffer: implementations
    /// must clear it and then fill it, never read stale contents. Borrowing
    /// the buffer instead of returning a fresh `Vec` keeps the simulation's
    /// steady-state tick path allocation-free — the caller hands the same
    /// buffer back every tick and its capacity is reused.
    fn process_tick(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        decisions: &mut Vec<Decision>,
    );

    /// Like [`FilterPolicy::process_tick`], with a per-observation sleep
    /// hint from the sparse tick driver.
    ///
    /// `asleep[i]` is `true` when the driver proved observation `i` is a
    /// bit-identical repeat of the previous tick's observation `i`, node
    /// id included (the node is quiescent and the movement kernel skipped
    /// it this tick). Policies may exploit the hint to take a cheaper
    /// path, but the contract is strict: decisions and every piece of
    /// internal state must end up bit-identical to a plain
    /// [`FilterPolicy::process_tick`] call — the dense/sparse differential
    /// suite enforces this. The default ignores the hint.
    fn process_tick_sparse(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        asleep: &[bool],
        decisions: &mut Vec<Decision>,
    ) {
        let _ = asleep;
        self.process_tick(time_s, observations, decisions);
    }

    /// Convenience wrapper around [`FilterPolicy::process_tick`] that
    /// returns the decisions as a fresh `Vec` — for tests and one-shot
    /// callers that don't manage a scratch buffer.
    fn decide_tick(&mut self, time_s: f64, observations: &[(MnId, Point)]) -> Vec<Decision> {
        let mut decisions = Vec::with_capacity(observations.len());
        self.process_tick(time_s, observations, &mut decisions);
        decisions
    }

    /// A short human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Cumulative node blocks the policy absorbed whole on sleep-hinted
    /// ticks, at one clock write per block instead of one update per node
    /// (the ADF's block doze clock). `0`, the default, for policies
    /// without one.
    fn dozed_blocks(&self) -> u64 {
        0
    }

    /// The filter state behind the node's most recent decision, for the
    /// flight recorder. `None` (the default) means the policy tracks no
    /// per-node state worth recording.
    fn probe(&self, node: MnId) -> Option<FilterProbe> {
        let _ = node;
        None
    }
}

impl<P: FilterPolicy + ?Sized> FilterPolicy for Box<P> {
    fn process_tick(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        decisions: &mut Vec<Decision>,
    ) {
        (**self).process_tick(time_s, observations, decisions);
    }

    fn process_tick_sparse(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        asleep: &[bool],
        decisions: &mut Vec<Decision>,
    ) {
        (**self).process_tick_sparse(time_s, observations, asleep, decisions);
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn dozed_blocks(&self) -> u64 {
        (**self).dozed_blocks()
    }

    fn probe(&self, node: MnId) -> Option<FilterProbe> {
        (**self).probe(node)
    }
}

/// The "ideal LU" baseline: every observation is transmitted.
///
/// This is the paper's comparison point — roughly 135 LUs/second for the
/// 140-node campus workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealPolicy;

impl IdealPolicy {
    /// Creates the pass-through policy.
    #[must_use]
    pub fn new() -> Self {
        IdealPolicy
    }
}

impl FilterPolicy for IdealPolicy {
    fn process_tick(
        &mut self,
        _time_s: f64,
        observations: &[(MnId, Point)],
        decisions: &mut Vec<Decision>,
    ) {
        decisions.clear();
        decisions.resize(observations.len(), Decision::Sent);
    }

    fn name(&self) -> &str {
        "ideal"
    }
}

/// The non-adaptive baseline (general DF): one global DTH sized from the
/// average velocity of *all* nodes.
///
/// The paper's critique (§3.2.2): a single threshold is too large for slow
/// indoor nodes and too small for vehicles, so it filters poorly at both
/// ends. Reproduced here for the ADF-vs-DF ablation.
#[derive(Debug, Clone)]
pub struct GeneralDistanceFilter {
    factor: f64,
    warmup_ticks: u64,
    reference: FilterReference,
    tick: u64,
    speeds: Welford,
    last_positions: BTreeMap<MnId, (f64, Point)>,
    filters: BTreeMap<MnId, DistanceFilter>,
}

impl GeneralDistanceFilter {
    /// Creates the baseline with DTH = `factor` × global average velocity,
    /// activating after `warmup_ticks` observation ticks, using the paper's
    /// previous-observation distance semantics.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is negative or non-finite.
    #[must_use]
    pub fn new(factor: f64, warmup_ticks: u64) -> Self {
        Self::with_reference(factor, warmup_ticks, FilterReference::PreviousObservation)
    }

    /// Creates the baseline with explicit distance semantics.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is negative or non-finite.
    #[must_use]
    pub fn with_reference(factor: f64, warmup_ticks: u64, reference: FilterReference) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "DTH factor must be non-negative"
        );
        GeneralDistanceFilter {
            factor,
            warmup_ticks,
            reference,
            tick: 0,
            speeds: Welford::new(),
            last_positions: BTreeMap::new(),
            filters: BTreeMap::new(),
        }
    }

    /// The current global DTH in metres (zero during warmup).
    #[must_use]
    pub fn global_dth(&self) -> f64 {
        if self.tick < self.warmup_ticks {
            0.0
        } else {
            self.factor * self.speeds.mean()
        }
    }
}

impl FilterPolicy for GeneralDistanceFilter {
    fn process_tick(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        decisions: &mut Vec<Decision>,
    ) {
        self.tick += 1;
        // Update the global velocity statistic from per-node displacements.
        for (node, pos) in observations {
            if let Some((t0, p0)) = self.last_positions.get(node) {
                let dt = time_s - t0;
                if dt > 0.0 {
                    self.speeds.push(p0.distance_to(*pos) / dt);
                }
            }
            self.last_positions.insert(*node, (time_s, *pos));
        }
        let dth = self.global_dth();
        let reference = self.reference;
        decisions.clear();
        decisions.extend(observations.iter().map(|(node, pos)| {
            let f = self
                .filters
                .entry(*node)
                .or_insert_with(|| DistanceFilter::with_reference(0.0, reference));
            f.set_dth(dth);
            f.observe(*pos)
        }));
    }

    fn name(&self) -> &str {
        "general-df"
    }

    fn probe(&self, node: MnId) -> Option<FilterProbe> {
        self.filters.get(&node).map(|f| FilterProbe {
            pattern: None,
            cluster: None,
            dth: Some(f.dth()),
            displacement: f.last_displacement(),
        })
    }
}

struct AdfNodeState {
    classifier: MobilityClassifier,
    filter: DistanceFilter,
    pattern: MobilityPattern,
    cluster: Option<usize>,
}

impl AdfNodeState {
    fn new(cfg: &AdfConfig) -> Self {
        AdfNodeState {
            classifier: MobilityClassifier::new(cfg),
            // DTH 0 until the initial clustering: pass everything through,
            // matching the paper's "similar to the ideal LU at initial".
            filter: DistanceFilter::with_reference(0.0, cfg.reference),
            pattern: MobilityPattern::Stop,
            cluster: None,
        }
    }

    /// Step (3) for one node: the classifier observes `pos`. While the
    /// window is still filling, each new motion step pushes the window's
    /// mean speed into the global statistic `speeds`.
    fn observe_motion(
        &mut self,
        speeds: &mut Welford,
        time_s: f64,
        pos: Point,
    ) -> Option<MotionStep> {
        let before = self.classifier.sample_count();
        let step = self.classifier.observe(time_s, pos);
        if self.classifier.sample_count() > before {
            speeds.push(self.classifier.mean_speed());
        }
        step
    }

    /// The per-node ADF kernel of a non-reclustering tick: steps (3)–(5)
    /// fused, the filter reusing the step the classifier derived.
    fn observe(&mut self, speeds: &mut Welford, time_s: f64, pos: Point) -> Decision {
        let step = self.observe_motion(speeds, time_s, pos);
        self.filter.observe_after(pos, step)
    }
}

/// The doze clock of one [`SHARD_SIZE`]-node block of consecutive node
/// ids: the sleep-hinted ticks the whole block has spent at the
/// zero-motion fixpoint without its nodes' [`AdfNodeState`]s being
/// touched.
///
/// A dozing block is absorbed by one clock write per call (`last` takes
/// the call's tick) and [`DozeBlock::wake`] later applies every absorbed
/// call to all its nodes in one step. Ticks are policy ticks, stamped as
/// `u32` (the sparse path runs only below `u32::MAX` ticks). Between
/// calls every dozing block has absorbed the previous call or was armed
/// by it, so within a call `last` tells a block this call already
/// absorbed from one it has not.
#[derive(Clone, Copy)]
struct DozeBlock {
    /// Policy tick of the arming call; `u32::MAX` while awake.
    armed_at: u32,
    /// Policy tick of the last call that absorbed (or armed) the block.
    last: u32,
}

impl DozeBlock {
    const AWAKE: DozeBlock = DozeBlock {
        armed_at: u32::MAX,
        last: 0,
    };

    fn dozing(&self) -> bool {
        self.armed_at != u32::MAX
    }

    /// Catches the block's nodes, `states`, up on the calls absorbed
    /// after the arming one and wakes the block. `last_time` is the time
    /// of the last absorbed call.
    fn wake(&mut self, states: &mut [Option<AdfNodeState>], last_time: f64) {
        let pending = self.last - self.armed_at;
        // Arming proved every node of the block present.
        for state in states.iter_mut().flatten() {
            state.classifier.catch_up_stationary(pending, last_time);
            state.filter.catch_up_filtered(pending);
        }
        *self = DozeBlock::AWAKE;
    }
}

/// Dense per-node state table indexed by [`MnId::index`].
///
/// Node ids in this codebase are dense (`0..population`), so a flat `Vec`
/// replaces the pointer-chasing `BTreeMap` the hot observe loop used to
/// traverse twice per node per tick. Unobserved slots hold `None`; memory
/// is proportional to the largest observed id, not the id space. Every
/// iterator below walks slots in ascending-id order — exactly the order
/// `BTreeMap` iteration used — so classification, BSAS feature order and
/// Welford pushes are bit-identical to the map-based implementation.
#[derive(Default)]
struct AdfNodeTable {
    slots: Vec<Option<AdfNodeState>>,
}

impl AdfNodeTable {
    fn get(&self, node: MnId) -> Option<&AdfNodeState> {
        self.slots.get(node.index()).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, node: MnId) -> Option<&mut AdfNodeState> {
        self.slots.get_mut(node.index()).and_then(Option::as_mut)
    }

    /// Makes room for `nodes` slots at once, so a table that learns its
    /// population from one tick's observations is one exact-size block.
    fn reserve(&mut self, nodes: usize) {
        self.slots
            .reserve_exact(nodes.saturating_sub(self.slots.len()));
    }

    /// The node's state, created from `cfg` on first sight.
    fn get_or_insert(&mut self, node: MnId, cfg: &AdfConfig) -> &mut AdfNodeState {
        let index = node.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        self.slots[index].get_or_insert_with(|| AdfNodeState::new(cfg))
    }

    /// Present states in ascending-id order.
    fn values_mut(&mut self) -> impl Iterator<Item = &mut AdfNodeState> {
        self.slots.iter_mut().flatten()
    }

    /// `(id, state)` pairs in ascending-id order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (MnId, &AdfNodeState)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (MnId::new(i as u32), s)))
    }
}

/// The Adaptive Distance Filter (§3.2): classify → cluster → per-cluster
/// DTH → filter.
///
/// Until the initial clustering (after [`AdfConfig::warmup_ticks`]) every
/// update passes through — which is why the paper's Figure 4 shows the ADF
/// overlapping the ideal curve for the first seconds. Classification and
/// clustering repeat every [`AdfConfig::recluster_interval`] ticks because
/// "a MN's mobility pattern can be changed".
///
/// # Examples
///
/// ```
/// use mobigrid_adf::{AdaptiveDistanceFilter, AdfConfig, FilterPolicy};
/// use mobigrid_geo::Point;
/// use mobigrid_wireless::MnId;
///
/// let mut adf = AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap();
/// let walker = MnId::new(0);
/// for t in 0..20 {
///     let obs = [(walker, Point::new(1.5 * t as f64, 0.0))];
///     adf.decide_tick(t as f64, &obs);
/// }
/// // After warmup the walker has a positive, velocity-proportional DTH.
/// assert!(adf.probe(walker).and_then(|p| p.dth).unwrap() > 0.0);
/// ```
pub struct AdaptiveDistanceFilter {
    config: AdfConfig,
    tick: u64,
    clustered_once: bool,
    /// The velocity clusterer, cleared and refilled at every reclustering
    /// so its centroid buffers are reused.
    bsas: OnlineBsas,
    global_speeds: Welford,
    nodes: AdfNodeTable,
    cluster_count: usize,
    /// One doze clock per [`SHARD_SIZE`] slots of `nodes`; sized by the
    /// sparse path.
    blocks: Vec<DozeBlock>,
    /// Cumulative blocks absorbed whole by their doze clock.
    block_ticks: u64,
    /// `time_s` of the previous tick.
    last_time: f64,
}

impl AdaptiveDistanceFilter {
    /// Creates the filter from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the validation message for inconsistent configurations.
    pub fn new(config: AdfConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(AdaptiveDistanceFilter {
            config,
            tick: 0,
            clustered_once: false,
            bsas: OnlineBsas::new(config.alpha),
            global_speeds: Welford::new(),
            nodes: AdfNodeTable::default(),
            cluster_count: 0,
            blocks: Vec::new(),
            block_ticks: 0,
            last_time: 0.0,
        })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AdfConfig {
        &self.config
    }

    /// Number of clusters formed at the last reclustering.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// The last classification of `node`, if it has been observed.
    #[must_use]
    pub fn pattern_of(&self, node: MnId) -> Option<MobilityPattern> {
        self.nodes.get(node).map(|s| s.pattern)
    }

    /// The cluster `node` was assigned at the last reclustering (`None` for
    /// stopped nodes, which the paper excludes from clustering).
    #[must_use]
    pub fn cluster_of(&self, node: MnId) -> Option<usize> {
        self.nodes.get(node).and_then(|s| s.cluster)
    }

    /// Whether tick number `tick` runs steps (1)/(2)/(6): the initial
    /// clustering after warmup, then every `recluster_interval` ticks.
    fn recluster_due(&self, tick: u64) -> bool {
        if self.clustered_once {
            tick.is_multiple_of(self.config.recluster_interval)
        } else {
            tick >= self.config.warmup_ticks
        }
    }

    /// One tick of steps (3)–(6), shared by the dense and the sparse entry
    /// points. `asleep` is the sparse driver's sleep hint, either empty or
    /// one flag per observation.
    ///
    /// On a reclustering tick the cross-node recluster sits between the
    /// per-node observe and filter steps, so the tick takes two passes.
    /// Every other tick takes one fused pass, the per-node ADF kernel.
    /// Fusing is bit-exact: a node's classifier and filter share no state,
    /// and the only cross-node state, the global speed Welford, is written
    /// in the same ascending observation order either way and is read only
    /// at reclustering.
    ///
    /// Dozing blocks (see [`AdaptiveDistanceFilter::doze_tick`]) are caught
    /// up before anything else reads their nodes' state: here, before a
    /// reclustering or a dense tick, and in `doze_tick` otherwise.
    fn run_tick(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        asleep: &[bool],
        decisions: &mut Vec<Decision>,
    ) {
        self.tick += 1;
        decisions.clear();
        // Doze stamps are `u32` ticks: past that range every tick is dense.
        let asleep = if self.tick < u64::from(u32::MAX) {
            asleep
        } else {
            &[]
        };
        self.nodes.reserve(observations.len());
        let recluster = self.recluster_due(self.tick);
        if recluster || asleep.is_empty() {
            self.wake_all();
        }

        if recluster {
            // Step (3): acquire locations; update per-node motion history.
            for (node, pos) in observations {
                let state = self.nodes.get_or_insert(*node, &self.config);
                state.observe_motion(&mut self.global_speeds, time_s, *pos);
            }
            // Steps (1)/(2)/(6): classify, cluster, size the DTHs.
            self.recluster();
            // Steps (4)/(5): distance-filter each observation.
            for (node, pos) in observations {
                let state = self.nodes.get_or_insert(*node, &self.config);
                decisions.push(state.filter.observe(*pos));
            }
        } else if asleep.is_empty() {
            let (nodes, speeds, config) = (&mut self.nodes, &mut self.global_speeds, &self.config);
            for (node, pos) in observations {
                let state = nodes.get_or_insert(*node, config);
                decisions.push(state.observe(speeds, time_s, *pos));
            }
        } else {
            self.doze_tick(time_s, observations, asleep, decisions);
        }
        self.last_time = time_s;
    }

    /// A sleep-hinted, non-reclustering tick.
    ///
    /// Every hinted node at the zero-motion fixpoint (window full of exact
    /// zeros, position bit-frozen, decision `Filtered`) takes the
    /// classifier's and the filter's stationary fast paths; every other
    /// node takes the per-node kernel, as on a dense tick. Observations go in
    /// [`SHARD_SIZE`]-slot chunks, and a chunk whose 64 slots each hold
    /// their own node (slot index = node index) and each take the fast
    /// path *arms* its block's doze clock ([`DozeBlock`]).
    ///
    /// While its block dozes, a node's [`AdfNodeState`] is not touched. A
    /// later call whose chunk is all hinted and whose time advances
    /// *absorbs* the block with one clock write and yields 64 `Filtered`:
    /// by the hint's contract each slot repeats the previous call's, which
    /// the block absorbed or armed at its node's frozen position, so each
    /// node would take the fast path again. Only debug builds re-prove
    /// that per node. An absorbed call would only have bumped each node's
    /// classifier zero run, re-stamped its last observation's time and
    /// counted one more filtered update, and nothing else, so the wake
    /// applies all of them in one step. Pattern, cluster and DTH change
    /// only at reclustering, and the filter's last displacement is already
    /// the `0.0` of the arming call, so [`FilterPolicy::probe`] reads a
    /// dozing node correctly as it is.
    ///
    /// A dozing block wakes, all 64 nodes at once, when the per-node path
    /// meets one of its nodes: its chunk is not absorbed whole, or the
    /// node turns up in another chunk (or a second time). A call that ends
    /// without absorbing it wakes it too, as does
    /// [`AdaptiveDistanceFilter::wake_all`]. The per-node path re-proves
    /// every gate itself.
    fn doze_tick(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        asleep: &[bool],
        decisions: &mut Vec<Decision>,
    ) {
        // One block per chunk of nodes seen before this tick: only those
        // can arm.
        let block_count = self.nodes.slots.len().div_ceil(SHARD_SIZE);
        if self.blocks.len() < block_count {
            self.blocks.resize(block_count, DozeBlock::AWAKE);
        }
        // `run_tick` keeps the sparse path below `u32::MAX` ticks.
        let now = self.tick as u32;
        let prev_time = self.last_time;
        // The classifier's own same-time guard, against the time every
        // dozing block last absorbed.
        let stalled = time_s - prev_time <= 0.0;
        // Split borrows: the loop keeps its tables in locals.
        let AdaptiveDistanceFilter {
            config,
            global_speeds: speeds,
            nodes,
            blocks,
            block_ticks,
            ..
        } = self;
        for (b, (chunk, hints)) in observations
            .chunks(SHARD_SIZE)
            .zip(asleep.chunks(SHARD_SIZE))
            .enumerate()
        {
            let base = b * SHARD_SIZE;
            if !stalled
                && chunk.len() == SHARD_SIZE
                && blocks.get(b).is_some_and(DozeBlock::dozing)
                // One branch-free pass over the 64 hints.
                && hints.iter().fold(true, |all, &h| all & h)
            {
                debug_assert!(
                    blocks[b].last == now - 1
                        && chunk.iter().enumerate().all(|(k, (node, pos))| {
                            node.index() == base + k
                                && nodes
                                    .get(*node)
                                    .is_some_and(|s| s.filter.suppresses_repeat(*pos))
                        }),
                    "a hinted dozing block repeats the previous call's observations"
                );
                blocks[b].last = now;
                *block_ticks += 1;
                decisions.extend(std::iter::repeat_n(Decision::Filtered, SHARD_SIZE));
                continue;
            }
            // Own-slot nodes of this chunk that took the fast path.
            let mut own = 0usize;
            for (k, ((node, pos), &hinted)) in chunk.iter().zip(hints).enumerate() {
                let index = node.index();
                // The node's block wakes whole before the node is touched.
                let home = index / SHARD_SIZE;
                if let Some(block) = blocks.get_mut(home).filter(|block| block.dozing()) {
                    // The time of the call the block last absorbed.
                    let last_time = if block.last == now { time_s } else { prev_time };
                    let start = home * SHARD_SIZE;
                    block.wake(&mut nodes.slots[start..start + SHARD_SIZE], last_time);
                }
                if hinted {
                    if let Some(state) = nodes.get_mut(*node) {
                        if state.filter.suppresses_repeat(*pos)
                            && state.classifier.observe_stationary(time_s, *pos)
                        {
                            let decision = state.filter.observe_stationary(*pos);
                            debug_assert_eq!(decision, Some(Decision::Filtered));
                            own += usize::from(index == base + k);
                            decisions.push(Decision::Filtered);
                            continue;
                        }
                    }
                }
                let state = nodes.get_or_insert(*node, config);
                decisions.push(state.observe(speeds, time_s, *pos));
            }
            if own == SHARD_SIZE {
                blocks[b] = DozeBlock {
                    armed_at: now,
                    last: now,
                };
            }
        }
        self.wake_where(|block| block.last != now);
    }

    /// Wakes every dozing block; each last absorbed the previous call.
    fn wake_all(&mut self) {
        self.wake_where(|_| true);
    }

    /// Wakes every dozing block for which `stale` holds. Each last
    /// absorbed the previous call, whose time is `self.last_time`.
    fn wake_where(&mut self, stale: impl Fn(&DozeBlock) -> bool) {
        for (b, block) in self.blocks.iter_mut().enumerate() {
            if block.dozing() && stale(block) {
                let base = b * SHARD_SIZE;
                block.wake(
                    &mut self.nodes.slots[base..base + SHARD_SIZE],
                    self.last_time,
                );
            }
        }
    }

    /// Reclassifies every node and rebuilds the velocity clusters,
    /// re-deriving each node's DTH (steps (1), (2) and (6) of the ADF
    /// process).
    ///
    /// The moving nodes join the clusters in ascending-id order on their
    /// mean speed; once all have joined, each takes its cluster's final
    /// centroid as its DTH base. The clusterer's buffers are reused, so a
    /// reclustering allocates only when it forms more clusters than any
    /// before it.
    fn recluster(&mut self) {
        let AdaptiveDistanceFilter {
            config,
            bsas,
            nodes,
            ..
        } = self;
        // Classify, and cluster the moving nodes on their mean velocity.
        bsas.clear();
        for state in nodes.values_mut() {
            state.pattern = state.classifier.classify(config);
            state.cluster = (state.pattern != MobilityPattern::Stop)
                .then(|| bsas.push_scalar(state.classifier.mean_speed()));
        }
        self.cluster_count = bsas.cluster_count();

        // Stopped nodes are excluded from clustering; any positive DTH
        // suppresses their (zero-displacement) updates. Size it from the
        // global average so a node that starts moving again behaves like
        // the general DF until the next reclustering.
        let fallback_dth = config.dth_factor * self.global_speeds.mean();
        for state in nodes.values_mut() {
            let dth = match state.cluster {
                Some(cluster) => config.dth_factor * bsas.centroid(cluster)[0],
                None => fallback_dth.max(f64::MIN_POSITIVE),
            };
            state.filter.set_dth(dth);
        }
        self.clustered_once = true;
    }
}

impl FilterPolicy for AdaptiveDistanceFilter {
    fn process_tick(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        decisions: &mut Vec<Decision>,
    ) {
        self.run_tick(time_s, observations, &[], decisions);
    }

    /// Lets hinted nodes at the zero-motion fixpoint doze: once a node's
    /// classifier window is all exact zeros and its filter suppresses the
    /// frozen position, each further hinted tick at the same bits costs a
    /// stamp write, and the node's state catches up on all of them in
    /// one step when it next wakes. A block of 64 dozing nodes observed
    /// in their own slots and all hinted costs one clock write. The
    /// per-node path re-proves every gate, so a wrong hint there is
    /// harmless; the block path trusts the hint (debug builds check it).
    /// Reclustering ticks ignore the hint.
    fn process_tick_sparse(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        asleep: &[bool],
        decisions: &mut Vec<Decision>,
    ) {
        let hint = if asleep.len() == observations.len() {
            asleep
        } else {
            &[]
        };
        self.run_tick(time_s, observations, hint, decisions);
    }

    fn name(&self) -> &str {
        "adf"
    }

    fn dozed_blocks(&self) -> u64 {
        self.block_ticks
    }

    fn probe(&self, node: MnId) -> Option<FilterProbe> {
        self.nodes.get(node).map(|s| FilterProbe {
            pattern: Some(s.pattern),
            cluster: s.cluster,
            dth: Some(s.filter.dth()),
            displacement: s.filter.last_displacement(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::same_bits;

    /// The sleep-hinted entry point must be bit-identical to the dense
    /// one across warmup, window saturation and reclustering ticks — even
    /// when the hint is (wrongly) set for a moving node, because with no
    /// whole 64-node block every node takes the per-node path, whose
    /// gates re-prove their own soundness.
    #[test]
    fn process_tick_sparse_is_bit_identical_to_process_tick() {
        let cfg = AdfConfig::new(1.0);
        let mut dense = AdaptiveDistanceFilter::new(cfg).expect("valid config");
        let mut sparse = AdaptiveDistanceFilter::new(cfg).expect("valid config");
        let nodes: Vec<MnId> = (0..6).map(MnId::new).collect();
        // Nodes 0-3 parked, 4-5 walking; the hint covers the parked nodes
        // plus (deliberately) walking node 4.
        let asleep = [true, true, true, true, true, false];
        let mut dense_out = Vec::new();
        let mut sparse_out = Vec::new();
        for t in 0..100u32 {
            let time_s = f64::from(t);
            let obs: Vec<(MnId, Point)> = nodes
                .iter()
                .enumerate()
                .map(|(i, id)| {
                    let pos = if i < 4 {
                        Point::new(i as f64 * 7.0, 3.0)
                    } else {
                        Point::new(f64::from(t) * (i as f64 - 3.0), 0.0)
                    };
                    (*id, pos)
                })
                .collect();
            dense.process_tick(time_s, &obs, &mut dense_out);
            sparse.process_tick_sparse(time_s, &obs, &asleep, &mut sparse_out);
            assert_eq!(dense_out, sparse_out, "decisions diverged at tick {t}");
            for id in &nodes {
                let (d, s) = (dense.probe(*id), sparse.probe(*id));
                assert_eq!(
                    d.and_then(|p| p.dth).map(f64::to_bits),
                    s.and_then(|p| p.dth).map(f64::to_bits),
                    "DTH diverged at tick {t} for {id:?}"
                );
                assert_eq!(
                    d.as_ref().map(|p| (p.pattern, p.cluster)),
                    s.as_ref().map(|p| (p.pattern, p.cluster)),
                    "probe diverged at tick {t} for {id:?}"
                );
                assert_eq!(
                    d.and_then(|p| p.displacement).map(f64::to_bits),
                    s.and_then(|p| p.displacement).map(f64::to_bits),
                    "displacement diverged at tick {t} for {id:?}"
                );
            }
        }
    }

    /// Every doze catch-up restores exactly the state the eager path
    /// would have built, counters included (which no public accessor
    /// shows): after sleeps of every length, woken by a node moving, by a
    /// reclustering, by a dense call, by being left out of a tick, by a
    /// node shifting slot and by a node observed twice in one. Block 0's
    /// parked nodes share it with a walker, so they never doze and take
    /// the eager fast path instead.
    #[test]
    fn doze_wake_restores_the_eager_state() {
        fn assert_same_state(doze: &AdaptiveDistanceFilter, eager: &AdaptiveDistanceFilter) {
            assert_eq!(doze.global_speeds, eager.global_speeds);
            assert_eq!(doze.nodes.slots.len(), eager.nodes.slots.len());
            for ((i, d), (j, e)) in doze.nodes.iter().zip(eager.nodes.iter()) {
                assert_eq!(i, j);
                assert_eq!(d.classifier, e.classifier, "classifier of node {i:?}");
                assert_eq!(d.filter, e.filter, "filter of node {i:?}");
                assert_eq!((d.pattern, d.cluster), (e.pattern, e.cluster));
            }
        }
        // Nodes 0-5 in block 0 (node 0 walks, so block 0 never dozes),
        // parked nodes after them through two whole blocks.
        // Tick 115 repeats tick 114's time.
        const NODES: u32 = 3 * SHARD_SIZE as u32;
        let cfg = AdfConfig {
            recluster_interval: 40,
            ..AdfConfig::new(1.0)
        };
        let mut doze = AdaptiveDistanceFilter::new(cfg).expect("valid config");
        let mut eager = AdaptiveDistanceFilter::new(cfg).expect("valid config");
        let (mut d_out, mut e_out) = (Vec::new(), Vec::new());
        let mut prev: Vec<(MnId, Point)> = Vec::new();
        let mut max_dozing = 0;
        let mut woke_from_block = false;
        for t in 1..=200u32 {
            let time_s = f64::from(t - u32::from(t == 115));
            // Node 0 walks; node k in 1..=5 parks, except that it steps
            // once every 23k ticks; node 5 is left out of every 50th tick
            // and node 4 observed twice in every 60th. Node 100 (a whole
            // block's) steps once, on tick 77; node 150 is observed twice
            // in every 45th tick. Block 1 is left out of ticks 133-136,
            // so block 2 fills its slots, and node 70 of ticks 161-164,
            // so the rest of block 1 shifts a slot.
            let obs: Vec<(MnId, Point)> = (0..NODES)
                .filter(|&k| k != 5 || t % 50 != 0)
                .filter(|&k| !(64..128).contains(&k) || !(133..=136).contains(&t))
                .filter(|&k| k != 70 || !(161..=164).contains(&t))
                .chain((t % 60 == 0).then_some(4))
                .chain((t % 45 == 0).then_some(150))
                .map(|k| {
                    let x = match k {
                        0 => time_s * 1.5,
                        1..=5 => f64::from(k) * 10.0 + f64::from(t / (23 * k)),
                        100 => 1000.0 + f64::from(u32::from(t >= 77)),
                        _ => f64::from(k) * 10.0,
                    };
                    (MnId::new(k), Point::new(x, 2.0))
                })
                .collect();
            // Block 0 is hinted for every parked node, moving or not (its
            // per-node path re-proves each gate); the whole blocks only
            // where the slot repeats the previous call's, as the hint's
            // contract demands of a block path.
            let hint: Vec<bool> = obs
                .iter()
                .enumerate()
                .map(|(i, &(id, pos))| {
                    if id.index() < SHARD_SIZE {
                        id.raw() != 0
                    } else {
                        prev.get(i)
                            .is_some_and(|&(pid, ppos)| pid == id && same_bits(ppos, pos))
                    }
                })
                .collect();
            eager.process_tick(time_s, &obs, &mut e_out);
            if t % 37 == 0 {
                doze.process_tick(time_s, &obs, &mut d_out);
            } else {
                let dozing = doze.blocks.get(1).is_some_and(DozeBlock::dozing);
                doze.process_tick_sparse(time_s, &obs, &hint, &mut d_out);
                // Node 100 steps out of its dozing block and wakes it.
                woke_from_block |= t == 77 && dozing && !doze.blocks[1].dozing();
            }
            assert_eq!(d_out, e_out, "decisions diverged at tick {t}");
            let dozing = doze.blocks.iter().filter(|b| b.dozing()).count();
            max_dozing = max_dozing.max(dozing);
            if t % 10 == 0 || t == 77 {
                // A wake at an arbitrary point catches up whatever the
                // sleeps and the block clocks have deferred so far.
                doze.wake_all();
                assert_same_state(&doze, &eager);
            }
            prev = obs;
        }
        assert_eq!(max_dozing, 2, "both all-parked blocks dozed at once");
        assert!(doze.dozed_blocks() > 100, "the block clocks never ran");
        assert!(
            woke_from_block,
            "node 100 stepping out did not wake its block"
        );
    }

    /// The per-node state of the filter kernel and of the broker's Brown
    /// estimator must not grow: at 20,000 nodes every word is 160 kB, and
    /// the estimator's memoised plan is paid for by the smoothers' compact
    /// representation, not by extra bytes. The records a sleeping node
    /// touches each sparse tick — its block's doze clock and its brokers'
    /// hot slots — are budgeted tighter still, as are the per-shard sums every
    /// evaluated shard of every tick writes and copies. Each
    /// broker's cold slot keeps its estimator behind one pointer: an
    /// inline estimator would put Brown's bytes in every slot of both
    /// brokers. These are inline sizes only: the heap each node holds (its
    /// classifier's window ring and its estimator box) is pinned by the
    /// bench crate's `footprint` test.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn per_node_footprint_does_not_grow() {
        use crate::broker::{ColdSlot, HotSlot};
        use crate::pipeline::ShardSums;
        use mobigrid_forecast::BrownPositionEstimator;
        use std::mem::size_of;
        let sizes = [
            ("MobilityClassifier", size_of::<MobilityClassifier>(), 64),
            ("DistanceFilter", size_of::<DistanceFilter>(), 96),
            ("AdfNodeState", size_of::<AdfNodeState>(), 184),
            (
                "BrownPositionEstimator",
                size_of::<BrownPositionEstimator>(),
                248,
            ),
            ("DozeBlock", size_of::<DozeBlock>(), 8),
            ("HotSlot", size_of::<HotSlot>(), 40),
            ("ColdSlot", size_of::<ColdSlot>(), 72),
            ("ShardSums", size_of::<ShardSums>(), 216),
        ];
        for (name, size, budget) in sizes {
            assert!(
                size <= budget,
                "{name} grew to {size} B (budget {budget} B)"
            );
        }
    }

    fn obs(specs: &[(u32, f64, f64)]) -> Vec<(MnId, Point)> {
        specs
            .iter()
            .map(|(id, x, y)| (MnId::new(*id), Point::new(*x, *y)))
            .collect()
    }

    #[test]
    fn ideal_policy_sends_everything() {
        let mut p = IdealPolicy::new();
        let decisions = p.decide_tick(0.0, &obs(&[(0, 0.0, 0.0), (1, 5.0, 5.0)]));
        assert!(decisions.iter().all(|d| d.is_sent()));
        assert_eq!(p.name(), "ideal");
    }

    #[test]
    fn general_df_warms_up_then_filters() {
        let mut p = GeneralDistanceFilter::new(1.0, 3);
        // One slow node (1 m/s), one fast (9 m/s): global mean 5 m/s.
        for t in 0..10u64 {
            let t_f = t as f64;
            let decisions = p.decide_tick(t_f, &obs(&[(0, t_f, 0.0), (1, 9.0 * t_f, 100.0)]));
            if t == 0 {
                assert!(decisions.iter().all(|d| d.is_sent()));
            }
        }
        let dth = p.global_dth();
        assert!((dth - 5.0).abs() < 0.5, "global dth = {dth}");
        // The slow node is over-filtered: its DTH (5 m) exceeds its speed.
        let dth = |id: u32| p.probe(MnId::new(id)).and_then(|probe| probe.dth);
        assert_eq!(dth(0), dth(1));
    }

    #[test]
    fn adf_passes_everything_before_initial_clustering() {
        let cfg = AdfConfig {
            warmup_ticks: 5,
            ..AdfConfig::new(1.0)
        };
        let mut p = AdaptiveDistanceFilter::new(cfg).unwrap();
        for t in 0..4u64 {
            let t_f = t as f64;
            let decisions = p.decide_tick(t_f, &obs(&[(0, 1.0 * t_f, 0.0)]));
            assert!(decisions[0].is_sent(), "tick {t} filtered during warmup");
        }
    }

    #[test]
    fn adf_assigns_per_cluster_thresholds() {
        let mut p = AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap();
        // Two walkers at ~1 m/s and two vehicles at ~8 m/s.
        for t in 0..20u64 {
            let t_f = t as f64;
            p.decide_tick(
                t_f,
                &obs(&[
                    (0, 1.0 * t_f, 0.0),
                    (1, 1.1 * t_f, 10.0),
                    (2, 8.0 * t_f, 20.0),
                    (3, 8.2 * t_f, 30.0),
                ]),
            );
        }
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.cluster_of(MnId::new(0)), p.cluster_of(MnId::new(1)));
        assert_ne!(p.cluster_of(MnId::new(0)), p.cluster_of(MnId::new(2)));
        let dth = |id: u32| p.probe(MnId::new(id)).and_then(|probe| probe.dth);
        let walker_dth = dth(0).unwrap();
        let vehicle_dth = dth(2).unwrap();
        assert!(
            vehicle_dth > 4.0 * walker_dth,
            "walker {walker_dth} vehicle {vehicle_dth}"
        );
    }

    #[test]
    fn adf_suppresses_stationary_nodes_after_clustering() {
        let mut p = AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap();
        let mut sent_after_warmup = 0;
        for t in 0..30u64 {
            let t_f = t as f64;
            // One mover keeps the global average positive; one node parked.
            let decisions = p.decide_tick(t_f, &obs(&[(0, 2.0 * t_f, 0.0), (1, 50.0, 50.0)]));
            if t >= 6 && decisions[1].is_sent() {
                sent_after_warmup += 1;
            }
        }
        assert_eq!(p.pattern_of(MnId::new(1)), Some(MobilityPattern::Stop));
        assert_eq!(sent_after_warmup, 0, "parked node kept transmitting");
    }

    #[test]
    fn adf_filters_more_with_larger_factor() {
        let run = |factor: f64| {
            let mut p = AdaptiveDistanceFilter::new(AdfConfig::new(factor)).unwrap();
            let mut sent = 0u32;
            for t in 0..120u64 {
                let t_f = t as f64;
                // A walker moving at 1 m/s with slight speed wobble.
                let x = t_f + 0.3 * (t_f * 0.7).sin();
                for d in p.decide_tick(t_f, &obs(&[(0, x, 0.0)])) {
                    if d.is_sent() {
                        sent += 1;
                    }
                }
            }
            sent
        };
        let s075 = run(0.75);
        let s100 = run(1.0);
        let s125 = run(1.25);
        assert!(s075 >= s100, "0.75av sent {s075} < 1.0av sent {s100}");
        assert!(s100 >= s125, "1.0av sent {s100} < 1.25av sent {s125}");
        assert!(s125 < 120);
    }

    #[test]
    fn adf_reclusters_when_behaviour_changes() {
        let cfg = AdfConfig {
            recluster_interval: 10,
            ..AdfConfig::new(1.0)
        };
        let mut p = AdaptiveDistanceFilter::new(cfg).unwrap();
        // Walk for 30 ticks...
        for t in 0..30u64 {
            let t_f = t as f64;
            p.decide_tick(t_f, &obs(&[(0, 1.5 * t_f, 0.0)]));
        }
        assert_eq!(p.pattern_of(MnId::new(0)), Some(MobilityPattern::Linear));
        // ...then stop for 30 ticks: the periodic reclustering must notice.
        for t in 30..60u64 {
            p.decide_tick(t as f64, &obs(&[(0, 1.5 * 29.0, 0.0)]));
        }
        assert_eq!(p.pattern_of(MnId::new(0)), Some(MobilityPattern::Stop));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = AdfConfig::new(1.0);
        cfg.alpha = -1.0;
        assert!(AdaptiveDistanceFilter::new(cfg).is_err());
    }

    #[test]
    fn probe_reports_per_policy_state() {
        let node = MnId::new(0);
        // The ideal policy tracks nothing.
        assert_eq!(IdealPolicy::new().probe(node), None);

        // The general DF exposes DTH and displacement but never classifies.
        let mut gdf = GeneralDistanceFilter::new(1.0, 2);
        assert_eq!(gdf.probe(node), None, "unknown node has no probe");
        for t in 0..6u64 {
            let t_f = t as f64;
            gdf.decide_tick(t_f, &obs(&[(0, 2.0 * t_f, 0.0)]));
        }
        let probe = gdf.probe(node).unwrap();
        assert_eq!(probe.pattern, None);
        assert_eq!(probe.cluster, None);
        assert!(probe.dth.unwrap() > 0.0);
        assert!((probe.displacement.unwrap() - 2.0).abs() < 1e-9);

        // The ADF exposes the full classification/cluster state.
        let mut adf = AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap();
        for t in 0..20u64 {
            let t_f = t as f64;
            adf.decide_tick(t_f, &obs(&[(0, 1.5 * t_f, 0.0), (1, 50.0, 50.0)]));
        }
        let probe = adf.probe(node).unwrap();
        assert_eq!(probe.pattern, Some(MobilityPattern::Linear));
        assert!(probe.cluster.is_some());
        assert!(probe.dth.unwrap() > 0.0);
        assert!((probe.displacement.unwrap() - 1.5).abs() < 1e-9);
        let parked = adf.probe(MnId::new(1)).unwrap();
        assert_eq!(parked.pattern, Some(MobilityPattern::Stop));
        assert_eq!(parked.cluster, None, "stopped nodes are not clustered");

        // Boxed policies forward the probe.
        let boxed: Box<dyn FilterPolicy> = Box::new(adf);
        assert_eq!(
            boxed.probe(node).unwrap().pattern,
            Some(MobilityPattern::Linear)
        );
    }
}
