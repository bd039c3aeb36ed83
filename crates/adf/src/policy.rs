use std::collections::BTreeMap;

use mobigrid_cluster::OnlineBsas;
use mobigrid_geo::Point;
use mobigrid_mobility::MobilityPattern;
use mobigrid_sim::stats::Welford;
use mobigrid_wireless::MnId;

use crate::filter::{assert_valid_dth, same_bits};
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

/// Observations per block of a sleep-hinted tick ([`SleepBlock`]): the
/// sparse tick driver's shard size, so each block is one shard.
pub const SLEEP_BLOCK: usize = SHARD_SIZE;

/// One [`SLEEP_BLOCK`]-observation block of a sleep-hinted tick (see
/// [`FilterPolicy::process_tick_sparse`]): block `b` covers observations
/// `b * SLEEP_BLOCK` up to the next block or the end. The driver keeps
/// `asleep` as its nodes fall asleep and wake, and the policy writes
/// `sends`, so neither re-counts a block per tick. A policy may trust
/// `asleep` without reading the hints: a count that differs from the
/// block's set hints is a logic error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SleepBlock {
    /// The block's observations whose sleep hint is set.
    pub asleep: u32,
    /// The block's `Sent` decisions this tick.
    pub sends: u32,
}

impl SleepBlock {
    /// Writes each block's `sends` from `decisions`, one per observation.
    pub(crate) fn count_sends(blocks: &mut [SleepBlock], decisions: &[Decision]) {
        for (block, chunk) in blocks.iter_mut().zip(decisions.chunks(SLEEP_BLOCK)) {
            block.sends = chunk.iter().map(|d| u32::from(d.is_sent())).sum();
        }
    }
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

    /// Like [`FilterPolicy::process_tick`], with the sparse tick driver's
    /// sleep hints in and each block's send count out.
    ///
    /// `asleep[i]` is `true` when the driver proved observation `i` is a
    /// bit-identical repeat of the previous tick's observation `i`, node
    /// id included (the node is quiescent and the movement kernel skipped
    /// it this tick). `blocks` holds one [`SleepBlock`] per
    /// [`SLEEP_BLOCK`] observations, the last block possibly shorter.
    /// Each block's `asleep` counts its set hints, so a block whose every
    /// observation repeats is told by its count alone. The policy writes
    /// every block's `sends`, the block's `Sent` decisions; the driver
    /// sums them for the tick and keeps them as its shard counts, so it
    /// reads no decision.
    ///
    /// `decisions` is the column the previous call left, handed back as
    /// it was, or cut short (emptied, say). The policy leaves one decision
    /// per observation in it, and may keep an entry where its own state
    /// proves the previous call's decision there is this call's: the ADF
    /// keeps a dozing block's 64 `Filtered` and writes `Filtered` into
    /// any slot past the column's end, so a parked block costs no store.
    ///
    /// It is a logic error to hand in an `asleep` count that differs from
    /// its block's set hints, or a column with an entry changed since the
    /// previous call. The decisions and the policy's state are then
    /// unspecified, but memory-safe; the ADF's debug builds check both
    /// and panic.
    ///
    /// Policies may exploit the hints to take a cheaper path, but the
    /// contract is strict: decisions and every piece of internal state
    /// must end up bit-identical to a plain [`FilterPolicy::process_tick`]
    /// call — the dense/sparse differential suite enforces this. The
    /// default ignores the hints and counts each block's sends from the
    /// decisions.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `blocks` does not hold one block
    /// per [`SLEEP_BLOCK`] observations.
    fn process_tick_sparse(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        asleep: &[bool],
        blocks: &mut [SleepBlock],
        decisions: &mut Vec<Decision>,
    ) {
        let _ = asleep;
        self.process_tick(time_s, observations, decisions);
        SleepBlock::count_sends(blocks, decisions);
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
        blocks: &mut [SleepBlock],
        decisions: &mut Vec<Decision>,
    ) {
        (**self).process_tick_sparse(time_s, observations, asleep, blocks, decisions);
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

#[derive(Clone)]
struct AdfNodeState {
    classifier: MobilityClassifier,
    filter: DistanceFilter,
    pattern: MobilityPattern,
    cluster: Option<usize>,
}

impl AdfNodeState {
    /// The state of a node seen for the first time, before its first
    /// observation: what a resting node is built from, by the calls it
    /// rested through.
    #[cfg(test)]
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

    /// Applies `pending` deferred stationary calls, the last at
    /// `last_time`: what a dozing block's wake does to each of its nodes.
    fn catch_up(&mut self, pending: u32, last_time: f64) {
        self.classifier.catch_up_stationary(pending, last_time);
        self.filter.catch_up_filtered(pending);
    }

    /// The per-node ADF kernel of a non-reclustering tick: steps (3)–(5)
    /// fused, the filter reusing the step the classifier derived.
    fn observe(&mut self, speeds: &mut Welford, time_s: f64, pos: Point) -> Decision {
        let step = self.observe_motion(speeds, time_s, pos);
        self.filter.observe_after(pos, step)
    }

    /// The doze's per-node fast path: the classifier's and the filter's
    /// stationary paths, when the node sits at the zero-motion fixpoint
    /// and its filter suppresses the repeat. `false`, with nothing
    /// changed, otherwise.
    fn observe_stationary(&mut self, time_s: f64, pos: Point) -> bool {
        if !(self.filter.suppresses_repeat(pos) && self.classifier.observe_stationary(time_s, pos))
        {
            return false;
        }
        let decision = self.filter.observe_stationary(pos);
        debug_assert_eq!(decision, Some(Decision::Filtered));
        true
    }
}

/// A node's ADF state until its first motion, 48 B in place of the 184 B
/// of an [`AdfNodeState`]: what that state holds of a node whose every
/// observation sat at one finite position, bit for bit.
///
/// Every sample such a node's classifier took is the empty one, so its
/// zero run tells the whole window (see [`MobilityClassifier::at_rest`]);
/// its filter sent its first observation, measured `+0.0` on every later
/// one and counted each (see [`DistanceFilter::at_rest`]); its pattern is
/// Stop and its cluster none; and its DTH is `0.0` until a reclustering
/// sees it, then the one the latest reclustering gave every stopped node,
/// which the table keeps once for all of them. [`RestingNode::build`]
/// makes the [`AdfNodeState`] the same calls would have made. The node
/// is built at the first observation it cannot hold: a position not
/// bit-equal to its own (a step between `−0.0` and `+0.0` derives an
/// empty sample yet moves the filter's anchor) or not finite, or a time
/// step that is not a number.
#[derive(Clone, Copy)]
struct RestingNode {
    /// Where the node has sat since its first observation.
    position: Point,
    /// The time of the classifier's last observation.
    time_s: f64,
    /// Observations the filter sent.
    sent: u64,
    /// Observations the filter suppressed.
    filtered: u64,
    /// The classifier's trailing zero run.
    zero_run: u32,
    /// Whether a reclustering has seen the node.
    reclustered: bool,
}

impl RestingNode {
    /// Whether an observation at `position` keeps the node at rest.
    fn holds(&self, position: Point) -> bool {
        same_bits(self.position, position) && position.x.is_finite() && position.y.is_finite()
    }

    /// The node's DTH, given the one the latest reclustering gave every
    /// stopped node.
    fn dth(&self, stop_dth: f64) -> f64 {
        if self.reclustered {
            stop_dth
        } else {
            0.0
        }
    }

    /// [`AdfNodeState::observe_motion`] at rest; `false`, with nothing
    /// changed, when the observation would build the node.
    fn observe_motion(
        &mut self,
        cfg: &AdfConfig,
        speeds: &mut Welford,
        time_s: f64,
        position: Point,
    ) -> bool {
        if !self.holds(position) {
            return false;
        }
        let dt = time_s - self.time_s;
        if dt <= 0.0 {
            // The classifier ignores a same-time or out-of-order repeat.
            return true;
        }
        if dt.is_nan() {
            // A step over a time that is not a number has a speed that is
            // not one either.
            return false;
        }
        // An empty sample. While the window fills, it grows the window,
        // whose mean is then `+0.0`.
        if (self.zero_run as usize) < cfg.classifier_window {
            speeds.push(0.0);
        }
        self.zero_run = self.zero_run.saturating_add(1);
        self.time_s = time_s;
        true
    }

    /// The filter's [`DistanceFilter::observe`] at rest; `None`, with
    /// nothing changed, when the observation would build the node.
    fn filter(&mut self, stop_dth: f64, position: Point) -> Option<Decision> {
        if !self.holds(position) {
            return None;
        }
        // The first observation has no anchor and is sent; each later one
        // measures `+0.0`.
        if self.sent == 0 || 0.0 >= self.dth(stop_dth) {
            self.sent += 1;
            Some(Decision::Sent)
        } else {
            self.filtered += 1;
            Some(Decision::Filtered)
        }
    }

    /// [`DistanceFilter::suppresses_repeat`] at rest.
    fn suppresses_repeat(&self, cfg: &AdfConfig, stop_dth: f64, position: Point) -> bool {
        cfg.reference == FilterReference::PreviousObservation
            && self.sent > 0
            && self.holds(position)
            && self.dth(stop_dth) > 0.0
    }

    /// [`AdfNodeState::observe_stationary`] at rest: the gates of
    /// [`DistanceFilter::suppresses_repeat`] and
    /// [`MobilityClassifier::observe_stationary`], then their writes.
    fn observe_stationary(
        &mut self,
        cfg: &AdfConfig,
        stop_dth: f64,
        time_s: f64,
        position: Point,
    ) -> bool {
        let window_full = self.zero_run as usize >= cfg.classifier_window;
        if !self.suppresses_repeat(cfg, stop_dth, position)
            || !window_full
            || time_s - self.time_s <= 0.0
        {
            return false;
        }
        self.zero_run = self.zero_run.saturating_add(1);
        self.time_s = time_s;
        self.filtered += 1;
        true
    }

    /// [`AdfNodeState::catch_up`] at rest.
    fn catch_up(&mut self, pending: u32, last_time: f64) {
        self.zero_run = self.zero_run.saturating_add(pending);
        self.time_s = last_time;
        self.filtered += u64::from(pending);
    }

    /// The state the eager path would hold for this node.
    fn build(&self, cfg: &AdfConfig, stop_dth: f64) -> AdfNodeState {
        AdfNodeState {
            classifier: MobilityClassifier::at_rest(cfg, self.time_s, self.position, self.zero_run),
            filter: DistanceFilter::at_rest(
                self.dth(stop_dth),
                cfg.reference,
                self.position,
                self.sent,
                self.filtered,
            ),
            pattern: MobilityPattern::Stop,
            cluster: None,
        }
    }

    /// What [`FilterPolicy::probe`] reads of the node.
    fn probe(&self, stop_dth: f64) -> FilterProbe {
        FilterProbe {
            pattern: Some(MobilityPattern::Stop),
            cluster: None,
            dth: Some(self.dth(stop_dth)),
            displacement: (self.sent.saturating_add(self.filtered) > 1).then_some(0.0),
        }
    }
}

/// One node's slot of the [`AdfNodeTable`].
#[derive(Clone, Copy, Default)]
enum NodeSlot {
    /// A node never observed.
    #[default]
    Vacant,
    /// A node that has not moved yet.
    Resting(RestingNode),
    /// A node that has moved: the index of its state in the table's
    /// built states.
    Built(u32),
}

/// A node's state as the table holds it.
enum NodeRef<'a> {
    Resting(&'a RestingNode),
    Built(&'a AdfNodeState),
}

/// The doze clock of one [`SHARD_SIZE`]-node block of consecutive node
/// ids: the sleep-hinted ticks the whole block has spent at the
/// zero-motion fixpoint without its nodes' states being touched.
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

    /// Catches the block's nodes, slots `start..start + SHARD_SIZE` of
    /// `nodes`, up on the calls absorbed after the arming one and wakes
    /// the block. `last_time` is the time of the last absorbed call.
    fn wake(&mut self, nodes: &mut AdfNodeTable, start: usize, last_time: f64) {
        let pending = self.last - self.armed_at;
        // Arming proved every node of the block present.
        nodes.catch_up(start..start + SHARD_SIZE, pending, last_time);
        *self = DozeBlock::AWAKE;
    }
}

/// Dense per-node state table indexed by [`MnId::index`].
///
/// Node ids in this codebase are dense (`0..population`), so a flat `Vec`
/// replaces the pointer-chasing `BTreeMap` the hot observe loop used to
/// traverse twice per node per tick. Unobserved slots are vacant; memory
/// is proportional to the largest observed id, not the id space. A node
/// rests in its slot ([`RestingNode`]) until its first motion, which
/// builds its [`AdfNodeState`] in a second, dense column, in the order
/// the nodes first moved. Every iterator below walks slots in
/// ascending-id order — exactly the order `BTreeMap` iteration used — so
/// classification, BSAS feature order and Welford pushes are
/// bit-identical to the map-based implementation.
#[derive(Default)]
struct AdfNodeTable {
    slots: Vec<NodeSlot>,
    /// The states of the nodes that have moved.
    built: Vec<AdfNodeState>,
    /// The DTH the latest reclustering gave every stopped node, which a
    /// resting node it saw holds.
    stop_dth: f64,
    /// Build every node at first sight from this configuration, as
    /// before nodes rested: the eager twin the resting form is tested
    /// against.
    #[cfg(test)]
    eager: Option<AdfConfig>,
}

impl AdfNodeTable {
    fn get(&self, node: MnId) -> Option<NodeRef<'_>> {
        match self.slots.get(node.index())? {
            NodeSlot::Vacant => None,
            NodeSlot::Resting(rest) => Some(NodeRef::Resting(rest)),
            NodeSlot::Built(i) => Some(NodeRef::Built(&self.built[*i as usize])),
        }
    }

    /// Makes room for `nodes` slots at once, so a table that learns its
    /// population from one tick's observations is one exact-size block.
    fn reserve(&mut self, nodes: usize) {
        self.slots
            .reserve_exact(nodes.saturating_sub(self.slots.len()));
    }

    /// The built state of the node in slot `index`, building it from its
    /// resting form first: its first motion.
    fn built(&mut self, index: usize, cfg: &AdfConfig) -> &mut AdfNodeState {
        let i = match self.slots[index] {
            NodeSlot::Built(i) => i as usize,
            NodeSlot::Resting(rest) => {
                let i = self.built.len();
                if i == self.built.capacity() {
                    // Grow by doubling, but never past the population.
                    let resting = self.slots.len() - i;
                    self.built.reserve_exact(i.max(4).min(resting));
                }
                self.built.push(rest.build(cfg, self.stop_dth));
                self.slots[index] = NodeSlot::Built(i as u32);
                i
            }
            NodeSlot::Vacant => unreachable!("a node is built after its first observation"),
        };
        &mut self.built[i]
    }

    /// Fills the vacant slot `index` with its node at its first
    /// observation, which the classifier only anchors on.
    fn first_sight(&mut self, index: usize, time_s: f64, pos: Point) {
        #[cfg(test)]
        if let Some(cfg) = &self.eager {
            let mut state = AdfNodeState::new(cfg);
            state.classifier.observe(time_s, pos);
            self.slots[index] = NodeSlot::Built(self.built.len() as u32);
            self.built.push(state);
            return;
        }
        self.slots[index] = NodeSlot::Resting(RestingNode {
            position: pos,
            time_s,
            sent: 0,
            filtered: 0,
            zero_run: 0,
            reclustered: false,
        });
    }

    /// Step (3) for one observation: [`AdfNodeState::observe_motion`].
    /// A node's first observation fills its slot, which the table grows
    /// to.
    fn observe_motion(
        &mut self,
        cfg: &AdfConfig,
        speeds: &mut Welford,
        node: MnId,
        time_s: f64,
        pos: Point,
    ) {
        let index = node.index();
        if index >= self.slots.len() {
            self.slots.resize(index + 1, NodeSlot::Vacant);
        }
        match &mut self.slots[index] {
            NodeSlot::Vacant => return self.first_sight(index, time_s, pos),
            NodeSlot::Resting(rest) => {
                if rest.observe_motion(cfg, speeds, time_s, pos) {
                    return;
                }
            }
            NodeSlot::Built(_) => {}
        }
        self.built(index, cfg).observe_motion(speeds, time_s, pos);
    }

    /// Steps (4)/(5) for one observation of a node already observed
    /// this tick: the filter's [`DistanceFilter::observe`].
    fn filter(&mut self, cfg: &AdfConfig, node: MnId, pos: Point) -> Decision {
        let index = node.index();
        if let NodeSlot::Resting(rest) = &mut self.slots[index] {
            if let Some(decision) = rest.filter(self.stop_dth, pos) {
                return decision;
            }
        }
        self.built(index, cfg).filter.observe(pos)
    }

    /// The per-node ADF kernel, [`AdfNodeState::observe`], for one
    /// observation.
    fn observe(
        &mut self,
        cfg: &AdfConfig,
        speeds: &mut Welford,
        node: MnId,
        time_s: f64,
        pos: Point,
    ) -> Decision {
        // A moving node's slot is read once.
        if let Some(NodeSlot::Built(i)) = self.slots.get(node.index()) {
            return self.built[*i as usize].observe(speeds, time_s, pos);
        }
        // Unfused, a node this observation builds measures the step again:
        // `observe_after` is bit-identical to `observe`.
        self.observe_motion(cfg, speeds, node, time_s, pos);
        self.filter(cfg, node, pos)
    }

    /// The doze's per-node fast path, [`AdfNodeState::observe_stationary`],
    /// for an observed node; `false` for any other.
    fn observe_stationary(&mut self, cfg: &AdfConfig, node: MnId, time_s: f64, pos: Point) -> bool {
        match self.slots.get_mut(node.index()) {
            Some(NodeSlot::Resting(rest)) => {
                rest.observe_stationary(cfg, self.stop_dth, time_s, pos)
            }
            Some(NodeSlot::Built(i)) => self.built[*i as usize].observe_stationary(time_s, pos),
            _ => false,
        }
    }

    /// Whether `node`'s filter would suppress a repeat at `pos`
    /// ([`DistanceFilter::suppresses_repeat`]).
    fn suppresses_repeat(&self, cfg: &AdfConfig, node: MnId, pos: Point) -> bool {
        match self.get(node) {
            Some(NodeRef::Resting(rest)) => rest.suppresses_repeat(cfg, self.stop_dth, pos),
            Some(NodeRef::Built(state)) => state.filter.suppresses_repeat(pos),
            None => false,
        }
    }

    /// [`AdfNodeState::catch_up`] for every node of `slots`.
    fn catch_up(&mut self, slots: std::ops::Range<usize>, pending: u32, last_time: f64) {
        for slot in &mut self.slots[slots] {
            match slot {
                NodeSlot::Vacant => {}
                NodeSlot::Resting(rest) => rest.catch_up(pending, last_time),
                NodeSlot::Built(i) => self.built[*i as usize].catch_up(pending, last_time),
            }
        }
    }

    /// `node`'s state as the eager path would hold it, if it has been
    /// observed.
    fn state(&self, node: MnId, cfg: &AdfConfig) -> Option<AdfNodeState> {
        Some(match self.get(node)? {
            NodeRef::Resting(rest) => rest.build(cfg, self.stop_dth),
            NodeRef::Built(state) => state.clone(),
        })
    }

    /// `(id, state)` pairs in ascending-id order, as the eager path would
    /// hold them.
    #[cfg(test)]
    fn iter<'a>(&'a self, cfg: &'a AdfConfig) -> impl Iterator<Item = (MnId, AdfNodeState)> + 'a {
        (0..self.slots.len()).filter_map(move |i| {
            let node = MnId::new(i as u32);
            self.state(node, cfg).map(|state| (node, state))
        })
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
        self.probe(node)?.pattern
    }

    /// The cluster `node` was assigned at the last reclustering (`None` for
    /// stopped nodes, which the paper excludes from clustering).
    #[must_use]
    pub fn cluster_of(&self, node: MnId) -> Option<usize> {
        self.probe(node)?.cluster
    }

    /// Copies of `node`'s classifier and distance filter as the eager
    /// path would hold them, if it has been observed: when its block
    /// dozes, the copies take the calls the block deferred, as its wake
    /// would, and the ADF itself is left dozing. Every call ends with
    /// each dozing block having absorbed it, so the deferred calls end at
    /// the last call's time.
    #[must_use]
    pub fn node_state(&self, node: MnId) -> Option<(MobilityClassifier, DistanceFilter)> {
        let mut state = self.nodes.state(node, &self.config)?;
        if let Some(block) = self.blocks.get(node.index() / SHARD_SIZE) {
            if block.dozing() {
                state.catch_up(block.last - block.armed_at, self.last_time);
            }
        }
        Some((state.classifier, state.filter))
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
    /// one flag per observation; `sleep` is empty on a dense call and
    /// holds the sparse call's blocks otherwise, whose sends every path
    /// writes.
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
        sleep: &mut [SleepBlock],
        decisions: &mut Vec<Decision>,
    ) {
        self.tick += 1;
        // Doze stamps are `u32` ticks: past that range every tick is dense.
        let asleep = if self.tick < u64::from(u32::MAX) {
            asleep
        } else {
            &[]
        };
        self.nodes.reserve(observations.len());
        let recluster = self.recluster_due(self.tick);
        if !recluster && !asleep.is_empty() {
            self.doze_tick(time_s, observations, asleep, sleep, decisions);
        } else {
            self.wake_all();
            decisions.clear();
            let (nodes, speeds, config) = (&mut self.nodes, &mut self.global_speeds, &self.config);
            if recluster {
                // Step (3): acquire locations; update per-node motion history.
                for (node, pos) in observations {
                    nodes.observe_motion(config, speeds, *node, time_s, *pos);
                }
                // Steps (1)/(2)/(6): classify, cluster, size the DTHs.
                self.recluster();
                // Steps (4)/(5): distance-filter each observation.
                for (node, pos) in observations {
                    decisions.push(self.nodes.filter(&self.config, *node, *pos));
                }
            } else {
                for (node, pos) in observations {
                    decisions.push(nodes.observe(config, speeds, *node, time_s, *pos));
                }
            }
            SleepBlock::count_sends(sleep, decisions);
        }
        self.last_time = time_s;
    }

    /// A sleep-hinted, non-reclustering tick.
    ///
    /// Every hinted node at the zero-motion fixpoint (window full of exact
    /// zeros, position bit-frozen, decision `Filtered`) takes the
    /// classifier's and the filter's stationary fast paths; every other
    /// node takes the per-node kernel, as on a dense tick. Observations go in
    /// [`SHARD_SIZE`]-slot chunks, one per [`SleepBlock`], and a chunk
    /// whose 64 slots each hold their own node (slot index = node index)
    /// and each take the fast path *arms* its block's doze clock
    /// ([`DozeBlock`]). Each chunk's sends go to its sleep block.
    ///
    /// While its block dozes, a node's state, resting or built, is not
    /// touched. A later call whose chunk is all hinted, as its sleep block's
    /// count tells, and whose time advances *absorbs* the block with one
    /// clock write and no send, and leaves the block's 64 decisions as
    /// the call that absorbed or armed it wrote them, `Filtered`:
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
        sleep: &mut [SleepBlock],
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
        // The column holds the previous call's decisions, which an
        // absorbed block keeps: the call that absorbed or armed it wrote
        // 64 `Filtered` there.
        decisions.resize(observations.len(), Decision::Filtered);
        for (b, sleep) in sleep.iter_mut().enumerate() {
            let base = b * SHARD_SIZE;
            if !stalled
                && sleep.asleep as usize == SHARD_SIZE
                && blocks.get(b).is_some_and(DozeBlock::dozing)
            {
                debug_assert!(
                    blocks[b].last == now - 1
                        && asleep[base..base + SHARD_SIZE].iter().all(|&h| h)
                        && (observations[base..base + SHARD_SIZE].iter().enumerate()).all(
                            |(k, (node, pos))| {
                                node.index() == base + k
                                    && nodes.suppresses_repeat(config, *node, *pos)
                            }
                        ),
                    "a hinted dozing block repeats the previous call's observations"
                );
                debug_assert!(
                    decisions[base..base + SHARD_SIZE]
                        .iter()
                        .all(|d| *d == Decision::Filtered),
                    "an absorbed block's decisions are the previous call's"
                );
                blocks[b].last = now;
                *block_ticks += 1;
                sleep.sends = 0;
                continue;
            }
            let slots = base..observations.len().min(base + SHARD_SIZE);
            let (hints, out) = (&asleep[slots.clone()], &mut decisions[slots.clone()]);
            // Own-slot nodes of this chunk that took the fast path.
            let (mut own, mut sends) = (0usize, 0u32);
            let chunk = observations[slots].iter().zip(hints).zip(out);
            for (k, (((node, pos), &hinted), out)) in chunk.enumerate() {
                let index = node.index();
                // The node's block wakes whole before the node is touched.
                let home = index / SHARD_SIZE;
                if let Some(block) = blocks.get_mut(home).filter(|block| block.dozing()) {
                    // The time of the call the block last absorbed.
                    let last_time = if block.last == now { time_s } else { prev_time };
                    block.wake(nodes, home * SHARD_SIZE, last_time);
                }
                if hinted && nodes.observe_stationary(config, *node, time_s, *pos) {
                    own += usize::from(index == base + k);
                    *out = Decision::Filtered;
                    continue;
                }
                *out = nodes.observe(config, speeds, *node, time_s, *pos);
                sends += u32::from(out.is_sent());
            }
            sleep.sends = sends;
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
                block.wake(&mut self.nodes, b * SHARD_SIZE, self.last_time);
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
    /// before it. A resting node classifies as Stop and only notes that a
    /// reclustering saw it: the table holds the stopped nodes' DTH once.
    fn recluster(&mut self) {
        let AdaptiveDistanceFilter {
            config,
            bsas,
            nodes,
            ..
        } = self;
        // Classify, and cluster the moving nodes on their mean velocity.
        bsas.clear();
        let mut resting = false;
        for slot in &mut nodes.slots {
            match slot {
                NodeSlot::Vacant => {}
                NodeSlot::Resting(rest) => {
                    rest.reclustered = true;
                    resting = true;
                }
                NodeSlot::Built(i) => {
                    let state = &mut nodes.built[*i as usize];
                    state.pattern = state.classifier.classify(config);
                    state.cluster = (state.pattern != MobilityPattern::Stop)
                        .then(|| bsas.push_scalar(state.classifier.mean_speed()));
                }
            }
        }
        self.cluster_count = bsas.cluster_count();

        // Stopped nodes are excluded from clustering; any positive DTH
        // suppresses their (zero-displacement) updates. Size it from the
        // global average so a node that starts moving again behaves like
        // the general DF until the next reclustering.
        let stop_dth = (config.dth_factor * self.global_speeds.mean()).max(f64::MIN_POSITIVE);
        if resting {
            assert_valid_dth(stop_dth);
        }
        nodes.stop_dth = stop_dth;
        for state in &mut nodes.built {
            let dth = match state.cluster {
                Some(cluster) => config.dth_factor * bsas.centroid(cluster)[0],
                None => stop_dth,
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
        self.run_tick(time_s, observations, &[], &mut [], decisions);
    }

    /// Lets hinted nodes at the zero-motion fixpoint doze: once a node's
    /// classifier window is all exact zeros and its filter suppresses the
    /// frozen position, each further hinted tick at the same bits costs a
    /// stamp write, and the node's state catches up on all of them in
    /// one step when it next wakes. A block of 64 dozing nodes observed
    /// in their own slots and all hinted costs one clock write. The
    /// per-node path re-proves every gate, so a wrong hint there is
    /// harmless; the block path trusts its sleep block's count (debug
    /// builds check each hint). An absorbed block's sends are none;
    /// every other block's are counted as its decisions are made.
    /// Reclustering ticks ignore the hints.
    ///
    /// # Panics
    ///
    /// Panics when `blocks` does not hold one block per [`SLEEP_BLOCK`]
    /// observations.
    fn process_tick_sparse(
        &mut self,
        time_s: f64,
        observations: &[(MnId, Point)],
        asleep: &[bool],
        blocks: &mut [SleepBlock],
        decisions: &mut Vec<Decision>,
    ) {
        assert_eq!(
            blocks.len(),
            observations.len().div_ceil(SLEEP_BLOCK),
            "one sleep block per {SLEEP_BLOCK} observations"
        );
        let hint = if asleep.len() == observations.len() {
            asleep
        } else {
            &[]
        };
        self.run_tick(time_s, observations, hint, blocks, decisions);
    }

    fn name(&self) -> &str {
        "adf"
    }

    fn dozed_blocks(&self) -> u64 {
        self.block_ticks
    }

    fn probe(&self, node: MnId) -> Option<FilterProbe> {
        Some(match self.nodes.get(node)? {
            NodeRef::Resting(rest) => rest.probe(self.nodes.stop_dth),
            NodeRef::Built(s) => FilterProbe {
                pattern: Some(s.pattern),
                cluster: s.cluster,
                dth: Some(s.filter.dth()),
                displacement: s.filter.last_displacement(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sleep-hinted call with the blocks of `hint`, checking each
    /// block's sends against its decisions.
    fn sparse_tick(
        adf: &mut AdaptiveDistanceFilter,
        time_s: f64,
        obs: &[(MnId, Point)],
        hint: &[bool],
        decisions: &mut Vec<Decision>,
    ) {
        let asleep = |hints: &[bool]| hints.iter().filter(|&&h| h).count() as u32;
        let mut blocks: Vec<SleepBlock> = (hint.chunks(SLEEP_BLOCK))
            .map(|hints| SleepBlock {
                asleep: asleep(hints),
                sends: 0,
            })
            .collect();
        adf.process_tick_sparse(time_s, obs, hint, &mut blocks, decisions);
        for (block, chunk) in blocks.iter().zip(decisions.chunks(SLEEP_BLOCK)) {
            let sends = chunk.iter().filter(|d| d.is_sent()).count();
            assert_eq!(block.sends as usize, sends, "a block's sends");
        }
    }

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
            sparse_tick(&mut sparse, time_s, &obs, &asleep, &mut sparse_out);
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
            let (d_nodes, e_nodes) = (
                doze.nodes.iter(&doze.config),
                eager.nodes.iter(&eager.config),
            );
            for ((i, d), (j, e)) in d_nodes.zip(e_nodes) {
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
                sparse_tick(&mut doze, time_s, &obs, &hint, &mut d_out);
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

    /// Everything a reader sees of `node` by bits: the classifier and
    /// filter [`AdaptiveDistanceFilter::node_state`] returns, and the
    /// probe.
    fn node_view(
        adf: &AdaptiveDistanceFilter,
        node: MnId,
    ) -> Option<impl PartialEq + std::fmt::Debug> {
        let (classifier, filter) = adf.node_state(node)?;
        let probe = adf.probe(node)?;
        let last = classifier
            .last_observation()
            .map(|(t, p)| [t.to_bits(), p.x.to_bits(), p.y.to_bits()]);
        Some((
            last,
            classifier.sample_count(),
            classifier.mean_speed().to_bits(),
            classifier.classify(&adf.config),
            // Debug prints each float's sign of zero.
            format!("{filter:?}"),
            classifier,
            probe.pattern,
            probe.cluster,
            probe.dth.map(f64::to_bits),
            probe.displacement.map(f64::to_bits),
        ))
    }

    /// A small deterministic generator for [`a_resting_slot_matches_its_eager_twin`].
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn chance(&mut self, one_in: u64) -> bool {
            self.below(one_in) == 0
        }
    }

    /// Where node plan `plan` is at tick `t`: at its start until `moves`,
    /// then, by `kind`, one step that flips a signed zero, one subnormal
    /// step, or a walk of `walk` ticks after which it stops again.
    fn plan_position(plan: (Point, u32, u64, u32), t: u32) -> Point {
        let (start, moves, kind, walk) = plan;
        if t < moves {
            return start;
        }
        match kind {
            0 => Point::new(-start.x, start.y),
            1 => Point::new(start.x + 5e-324, start.y),
            _ => Point::new(
                start.x + 1.3 * f64::from((t - moves).min(walk)),
                start.y - 0.25,
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A resting slot against an eager [`AdfNodeState`] twin, built at
        /// first sight: the same calls reach both ADFs, and after every
        /// call their decisions, global speeds and every node's state
        /// (through `node_state`) and probe are bit-equal.
        ///
        /// One whole block of nodes rests from tick 1 through a calm
        /// stretch (warm-up at DTH 0, the first reclusterings, the block
        /// dozing on truthful hints), then each first moves at a random
        /// tick or never: by a step between `+0.0` and `−0.0`, a subnormal
        /// step, or a walk after which it stops. Two more nodes are first
        /// seen at a random tick, before or after a reclustering. The
        /// chaotic stretch leaves nodes out, repeats them, stalls the
        /// time, drops hints and makes some calls dense.
        #[test]
        fn a_resting_slot_matches_its_eager_twin(
            seed in proptest::prelude::any::<u64>(),
            warmup_ticks in 0u64..8,
            recluster_interval in 3u64..20,
            classifier_window in 2usize..8,
        ) {
            let cfg = AdfConfig {
                warmup_ticks,
                recluster_interval,
                classifier_window,
                ..AdfConfig::new(1.0)
            };
            let mut rest = AdaptiveDistanceFilter::new(cfg).expect("valid config");
            let mut eager = AdaptiveDistanceFilter::new(cfg).expect("valid config");
            eager.nodes.eager = Some(cfg);
            let mut rng = Stream(seed | 1);
            let starts = [Point::new(0.0, -0.0), Point::new(-0.0, 0.0), Point::new(3.0, -7.5)];
            let calm = (warmup_ticks + recluster_interval) as u32 + 2 * classifier_window as u32 + 6;
            let ticks = calm + 80;
            let nodes = SHARD_SIZE + 2;
            // Per node: start, first-motion tick, kind of motion, walk
            // length; and the tick it is first seen.
            let plans: Vec<(Point, u32, u64, u32)> = (0..nodes)
                .map(|i| {
                    let start = starts[rng.below(3) as usize];
                    let moves = if i < SHARD_SIZE {
                        calm + rng.below(120) as u32
                    } else {
                        1 + rng.below(u64::from(ticks)) as u32
                    };
                    (start, moves, rng.below(4), rng.below(12) as u32)
                })
                .collect();
            let enters: Vec<u32> = (0..nodes)
                .map(|i| if i < SHARD_SIZE { 1 } else { 1 + rng.below(u64::from(calm) + 30) as u32 })
                .collect();
            let (mut r_out, mut e_out) = (Vec::new(), Vec::new());
            let mut prev: Vec<(MnId, Point)> = Vec::new();
            let mut time_s = 0.0;
            for t in 1..=ticks {
                let chaos = t > calm;
                time_s += [1.0, 1.0, 1.0, 2.5, 0.5, 0.0][rng.below(if chaos { 6 } else { 3 }) as usize];
                let mut obs = Vec::with_capacity(nodes + 1);
                for i in 0..nodes {
                    if enters[i] > t || (chaos && rng.chance(30)) {
                        continue;
                    }
                    let entry = (MnId::new(i as u32), plan_position(plans[i], t));
                    obs.push(entry);
                    if chaos && rng.chance(40) {
                        obs.push(entry);
                    }
                }
                // Truthful hints, some dropped: a slot repeats the previous
                // call's, node id included, bit for bit.
                let hint: Vec<bool> = obs
                    .iter()
                    .enumerate()
                    .map(|(k, &(id, p))| {
                        prev.get(k).is_some_and(|&(pid, pp)| pid == id && same_bits(pp, p))
                            && !(chaos && rng.chance(25))
                    })
                    .collect();
                if chaos && rng.chance(6) {
                    rest.process_tick(time_s, &obs, &mut r_out);
                    eager.process_tick(time_s, &obs, &mut e_out);
                } else {
                    sparse_tick(&mut rest, time_s, &obs, &hint, &mut r_out);
                    sparse_tick(&mut eager, time_s, &obs, &hint, &mut e_out);
                }
                proptest::prop_assert_eq!(&r_out, &e_out, "decisions at tick {}", t);
                proptest::prop_assert!(rest.global_speeds == eager.global_speeds, "speeds at tick {}", t);
                for i in 0..nodes {
                    let node = MnId::new(i as u32);
                    proptest::prop_assert_eq!(node_view(&rest, node), node_view(&eager, node), "node {} at tick {}", i, t);
                }
                prev = obs;
            }
            // The stream rested, dozed and moved.
            proptest::prop_assert!(rest.dozed_blocks() > 0, "the resting block never dozed");
            proptest::prop_assert!(!rest.nodes.built.is_empty(), "no node moved");
            let resting = rest.nodes.slots.iter().filter(|s| matches!(s, NodeSlot::Resting(_))).count();
            proptest::prop_assert!(resting > 0, "no node rested to the end");
        }
    }

    /// The per-node state of the filter kernel and of the broker's Brown
    /// estimator must not grow: at 20,000 nodes every word is 160 kB, and
    /// the estimator's memoised plan is paid for by the smoothers' compact
    /// representation, not by extra bytes. The records a sleeping node
    /// touches each sparse tick — its block's doze clock and its brokers'
    /// hot slots — are budgeted tighter still, as are the per-shard sums every
    /// evaluated shard of every tick writes and copies. Each
    /// broker's cold slot keeps its estimator behind one pointer, or the
    /// 12-B count of a resting node's receipts in its place: an inline
    /// estimator would put Brown's bytes in every slot of both brokers. A
    /// node's mobility engine holds a parked node's model inline and every
    /// larger one boxed, so the engine column carries no padding for the
    /// largest model. These are inline sizes only: the heap each node
    /// holds (its classifier's window ring, its estimator box and a moving
    /// node's boxed model) is pinned by the bench crate's `footprint` test.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn per_node_footprint_does_not_grow() {
        use crate::broker::{ColdSlot, HotSlot};
        use crate::pipeline::ShardSums;
        use mobigrid_forecast::BrownPositionEstimator;
        use mobigrid_mobility::MobilityEngine;
        use std::mem::size_of;
        let sizes = [
            ("MobilityClassifier", size_of::<MobilityClassifier>(), 64),
            ("DistanceFilter", size_of::<DistanceFilter>(), 96),
            ("AdfNodeState", size_of::<AdfNodeState>(), 184),
            ("NodeSlot", size_of::<NodeSlot>(), 48),
            (
                "BrownPositionEstimator",
                size_of::<BrownPositionEstimator>(),
                248,
            ),
            ("DozeBlock", size_of::<DozeBlock>(), 8),
            ("HotSlot", size_of::<HotSlot>(), 32),
            ("ColdSlot", size_of::<ColdSlot>(), 80),
            ("MobilityEngine", size_of::<MobilityEngine>(), 24),
            ("ShardSums", size_of::<ShardSums>(), 176),
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
