use mobigrid_campus::RegionKind;
use mobigrid_geo::Point;
use mobigrid_mobility::MobilityPattern;
use mobigrid_sim::par::{select, ShardPool};
use mobigrid_sim::stats::Rmse;
use mobigrid_sim::WakeWheel;
use mobigrid_telemetry::{
    ApplyOutcome, BlockReport, BucketSpec, EventKind, HistogramDelta, LinkFate, MobilityClass,
    MonitorSet, MonitorShard, NodeBlock, NodeFate, NoopRecorder, Phase, Recorder, TickVitals,
    Violation,
};
use mobigrid_wireless::{
    event_noise, AccessNetwork, DropCause, FaultChannel, IngestRecord, LinkEvent, LocationUpdate,
    MnId, RetryPolicy, SALT_RETRY_JITTER,
};

use crate::broker::{ApplyInfo, BrokerDelta, BrokerShard};
use crate::runtime::{FaultSpec, RuntimeOptions, SimError, TickDriver};
use crate::{
    Decision, EstimatorKind, FilterPolicy, GridBroker, MobileNode, NodeColumns, NodeView,
    RegionTally,
};

/// Nodes per shard in the parallel tick phases.
///
/// Shard geometry is a pure function of the population size — never of the
/// thread count — so per-shard partial results and the shard-ordered
/// reduction below are bit-identical whether a tick runs on one thread or
/// many. Threads only decide *where* a shard executes.
pub(crate) const SHARD_SIZE: usize = 64;

/// The node indices of shard `shard` of a `nodes`-node population (the
/// last shard may be shorter).
fn shard_range(nodes: usize, shard: usize) -> std::ops::Range<usize> {
    let start = shard * SHARD_SIZE;
    start..nodes.min(start + SHARD_SIZE)
}

/// Sparse driver only: a shard's replay memo is served only while it is
/// younger than this many ticks; after that the shard is evaluated in
/// full again and its memo captured anew. Bounds how long any estimation
/// drift could go unobserved if a memo invariant were ever violated.
const STALENESS_REFRESH: u64 = 32;

/// Upper bound on the invariant violations [`MobileGridSim`] retains in
/// memory (the recorder additionally sees every one as an event). A
/// healthy run keeps zero; the cap only stops a systemically broken run
/// from growing the log without bound.
const VIOLATION_LOG_CAP: usize = 1024;

/// The fixed log-spaced bucket boundaries both per-node location-error
/// histograms (`sim.err_with_le`, `sim.err_without_le`) are recorded
/// over: 20 buckets from 0.125 m doubling up to ~65 km, plus underflow
/// and overflow. Fixed boundaries are what make per-shard
/// [`HistogramDelta`]s exactly mergeable in shard order.
#[must_use]
pub fn error_bucket_spec() -> BucketSpec {
    BucketSpec::log_spaced(0.125, 2.0, 20)
}

/// Everything the experiments need from one simulation tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickStats {
    /// Simulation time at the end of the tick, in seconds.
    pub time_s: f64,
    /// Location updates transmitted this tick (the Figure-4 series).
    /// Counts every frame that reached the air, including retransmissions
    /// and frames the fault channel then lost.
    pub sent: u32,
    /// Location updates observed (transmitted + filtered) this tick.
    pub observed: u32,
    /// Retransmissions among this tick's sends (attempt number > 0).
    pub retries: u32,
    /// Transmitted updates that failed to arrive this tick: dropped in
    /// flight, corrupted, or deferred to a later tick.
    pub lost: u32,
    /// Deferred updates that finally arrived this tick.
    pub late: u32,
    /// Nodes the with-LE broker currently marks stale (one or more
    /// consecutive losses since their last accepted update).
    pub stale_nodes: u32,
    /// Per-region-kind tallies for this tick (Figure 6).
    pub region: RegionTally,
    /// RMSE of the broker *with* the location estimator (Figure 7).
    pub rmse_with_le: f64,
    /// RMSE of the broker *without* the estimator (Figure 7).
    pub rmse_without_le: f64,
    /// Road-only RMSE with the estimator (Figure 9).
    pub road_rmse_with_le: f64,
    /// Road-only RMSE without the estimator (Figure 8).
    pub road_rmse_without_le: f64,
    /// Building-only RMSE with the estimator (Figure 9).
    pub building_rmse_with_le: f64,
    /// Building-only RMSE without the estimator (Figure 8).
    pub building_rmse_without_le: f64,
}

/// Tick length in seconds: the paper samples every node once a second.
const DT: f64 = 1.0;

/// Builder for [`MobileGridSim`] over a caller-supplied population.
///
/// # Examples
///
/// See [`MobileGridSim`].
#[derive(Default)]
pub struct SimBuilder {
    nodes: Vec<MobileNode>,
    policy: Option<Box<dyn FilterPolicy + Send>>,
    estimator: EstimatorKind,
    network: Option<AccessNetwork>,
    runtime: RuntimeOptions,
}

impl SimBuilder {
    /// Starts an empty builder (1 s ticks, the paper's estimator — see
    /// [`EstimatorKind::default`] — and default [`RuntimeOptions`]).
    #[must_use]
    pub fn new() -> Self {
        SimBuilder::default()
    }

    /// Sets the node population. Node ids must be the dense range `0..n`.
    #[must_use]
    pub fn nodes(mut self, nodes: Vec<MobileNode>) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the filter policy under test.
    #[must_use]
    pub fn policy(mut self, policy: impl FilterPolicy + Send + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Sets the "with LE" broker's estimator (the "without LE" broker always
    /// runs [`EstimatorKind::WithoutLe`]).
    #[must_use]
    pub fn estimator(mut self, kind: EstimatorKind) -> Self {
        self.estimator = kind;
        self
    }

    /// Attaches an access network for traffic accounting. Updates sent from
    /// outside any gateway's coverage are counted as dropped and do not
    /// reach the brokers.
    #[must_use]
    pub fn network(mut self, network: AccessNetwork) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the execution options: thread budget, tick driver, fault plan
    /// and default retry policy (see [`RuntimeOptions`]). They pass through
    /// [`RuntimeOptions::validate`] at build time, so `threads: 0` or
    /// out-of-range fault rates are rejected. A fault plan needs
    /// [`SimBuilder::network`] to inject into.
    #[must_use]
    pub fn runtime(mut self, runtime: RuntimeOptions) -> Self {
        self.runtime = runtime;
        self
    }

    /// Assembles the simulation.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`]: missing policy, empty/non-dense node
    /// population, invalid estimator parameters, invalid
    /// [`RuntimeOptions`] (zero thread budgets, fault rates outside
    /// `[0, 1]`, bad retry policies), or a fault plan without a network.
    pub fn build(self) -> Result<MobileGridSim, SimError> {
        self.runtime.validate()?;
        let policy = self
            .policy
            .ok_or_else(|| SimError::Config("a filter policy is required".to_string()))?;
        if self.nodes.is_empty() {
            return Err(SimError::Config(
                "at least one node is required".to_string(),
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id().index() != i {
                return Err(SimError::Config(format!(
                    "node ids must be dense 0..n: found {} at position {i}",
                    n.id()
                )));
            }
        }
        let mut broker_le = GridBroker::new(self.estimator).map_err(SimError::Config)?;
        let mut broker_raw = GridBroker::new(EstimatorKind::WithoutLe).map_err(SimError::Config)?;
        broker_le.ensure_nodes(self.nodes.len());
        broker_raw.ensure_nodes(self.nodes.len());
        let channel = match &self.runtime.faults {
            Some(FaultSpec { plan, seed }) => {
                if self.network.is_none() {
                    return Err(SimError::Config(
                        "fault injection requires an access network".to_string(),
                    ));
                }
                Some(FaultChannel::new(plan.clone(), *seed)?)
            }
            None => None,
        };
        // Dense ids were validated above: decompose the population into the
        // columnar SoA store the tick kernels sweep.
        let cols = NodeColumns::from_nodes(self.nodes);
        for (i, anchor) in cols.home_anchors().iter().enumerate() {
            if let Some(anchor) = anchor {
                broker_le.set_home_anchor(MnId::new(i as u32), *anchor);
                broker_raw.set_home_anchor(MnId::new(i as u32), *anchor);
            }
        }
        // `runtime.validate` checked the default retry policy.
        for policy in cols.retry_policies().iter().flatten() {
            policy.validate()?;
        }
        let seqs = vec![0u32; cols.len()];
        let retry = vec![RetryState::IDLE; cols.len()];
        let scratch = TickScratch::new(cols.len());
        let sparse = match self.runtime.driver {
            TickDriver::Dense => None,
            TickDriver::Sparse => Some(Box::new(SparseState::new(cols.len()))),
        };
        Ok(MobileGridSim {
            cols,
            policy,
            broker_le,
            broker_raw,
            network: self.network,
            channel,
            default_retry: self.runtime.retry,
            retry,
            tick: 0,
            seqs,
            cumulative: RegionTally::new(),
            pool: ShardPool::new(self.runtime.threads),
            prev_stale: 0,
            scratch,
            monitors: MonitorSet::standard(),
            violations: Vec::new(),
            sparse,
            #[cfg(test)]
            fault: None,
        })
    }
}

/// Reusable per-tick buffers owned by [`MobileGridSim`] — the simulation's
/// tick arena.
///
/// Every buffer is sized for the (fixed) node population at build time and
/// reused on every [`MobileGridSim::step`], so the steady-state tick path
/// performs no heap allocations (see `DESIGN.md`, "Tick memory model").
/// `observations`, `link` and `sent_seq` are fixed-length and overwritten
/// in place; `decisions`, `late_lus` and `outs` are cleared and refilled,
/// reusing their high-water capacity.
struct TickScratch {
    /// This tick's `(node, ground-truth position)` pairs, node order.
    /// Written by phase 1 through disjoint per-shard slices.
    observations: Vec<(MnId, Point)>,
    /// One filter decision per observation, written by the policy.
    decisions: Vec<Decision>,
    /// Per-node network outcome when an access network is attached.
    link: Vec<LinkOutcome>,
    /// Sequence number each node transmitted with this tick (valid only
    /// where `link` records a transmission; phase 2b owns `seqs` when a
    /// network is attached and hands the used value to phase 3 here).
    sent_seq: Vec<u32>,
    /// Deferred frames that came due this tick, drained from the channel.
    late_lus: Vec<LocationUpdate>,
    /// This tick's shards that get an apply job, ascending: every shard
    /// under the dense driver, every shard but the memo hits under the
    /// sparse one. `apply_shards` keys each job's output by them.
    jobs: Vec<usize>,
    /// Per-job sums of the fused apply/measure phase, in the order of
    /// `jobs`.
    outs: Vec<ShardSums>,
    /// Per-shard flight-recorder scratch of the apply/measure phase: sized
    /// on the first recorded tick, and touched only on recorded ticks.
    recording: Vec<ShardRecording>,
    /// Per-node apply fate for the invariant monitors. Phase 3 writes each
    /// node's from its `NodeOp` and link outcome ([`NodeOp::fate`]).
    fates: Vec<NodeFate>,
    /// Per-node with-LE staleness counters after the apply phase, for the
    /// staleness-consistency monitor. Phase 3 writes each node's from the
    /// `ApplyInfo` of its one apply call.
    staleness: Vec<u32>,
    /// Per-node flag: a deferred frame for this node arrived late and was
    /// accepted earlier in the tick (resets the staleness baseline).
    late_accepted: Vec<bool>,
    /// Per-shard findings of the per-node invariant monitors, which each
    /// shard's apply pass checks on its own chunk; cleared and refilled
    /// every tick, so a healthy tick allocates nothing.
    checks: Vec<BlockReport>,
}

impl TickScratch {
    fn new(nodes: usize) -> Self {
        TickScratch {
            observations: vec![(MnId::new(0), Point::ORIGIN); nodes],
            decisions: Vec::with_capacity(nodes),
            link: vec![LinkOutcome::Idle; nodes],
            sent_seq: vec![0u32; nodes],
            late_lus: Vec::new(),
            jobs: Vec::with_capacity(mobigrid_sim::par::shard_count(nodes, SHARD_SIZE)),
            outs: Vec::with_capacity(mobigrid_sim::par::shard_count(nodes, SHARD_SIZE)),
            recording: Vec::new(),
            fates: vec![NodeFate::Idle; nodes],
            staleness: vec![0u32; nodes],
            late_accepted: vec![false; nodes],
            checks: vec![BlockReport::default(); mobigrid_sim::par::shard_count(nodes, SHARD_SIZE)],
        }
    }
}

/// Per-node outcome of the network phase, handed from the sequential
/// routing phase (2b) to the sharded apply/measure phase (3+4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkOutcome {
    /// Nothing was transmitted for this node this tick.
    Idle,
    /// The update reached the broker this tick.
    Delivered {
        /// The channel delivered a second copy alongside the original.
        duplicate: bool,
    },
    /// The update did not reach the broker this tick. `transmitted` is
    /// true when the frame reached the air (lost or deferred in flight)
    /// and false when the node was out of coverage.
    Lost { transmitted: bool },
}

/// How one node's tick reaches the brokers — the single mapping from a
/// filter decision (no network) or a routing outcome (network attached)
/// to broker ops, shared by the apply phase and the op-stream tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeOp {
    /// Suppressed, idle, or out of coverage (the frame never reached the
    /// air): the brokers estimate.
    Filtered,
    /// A sent or delivered update, applied twice when the channel
    /// delivered a byte-identical second copy.
    Update { duplicate: bool },
    /// A transmitted frame that never arrived: the brokers degrade.
    Lost,
}

impl NodeOp {
    #[inline]
    fn of(decision: Decision, link: Option<LinkOutcome>) -> NodeOp {
        match (link, decision) {
            (None, Decision::Sent) => NodeOp::Update { duplicate: false },
            (Some(LinkOutcome::Delivered { duplicate }), _) => NodeOp::Update { duplicate },
            (Some(LinkOutcome::Lost { transmitted: true }), _) => NodeOp::Lost,
            (None, Decision::Filtered)
            | (Some(LinkOutcome::Idle | LinkOutcome::Lost { transmitted: false }), _) => {
                NodeOp::Filtered
            }
        }
    }

    /// The invariant monitors' view of this op. Only the filtered op
    /// needs the link outcome: it is out of coverage when the node's frame
    /// never reached the air, and idle otherwise.
    #[inline]
    fn fate(self, link: Option<LinkOutcome>) -> NodeFate {
        match self {
            NodeOp::Update { .. } => NodeFate::Accepted,
            NodeOp::Lost => NodeFate::LostInFlight,
            NodeOp::Filtered if link == Some(LinkOutcome::Lost { transmitted: false }) => {
                NodeFate::NoCoverage
            }
            NodeOp::Filtered => NodeFate::Idle,
        }
    }

    /// The op as the broker record for `node` at `time_s`; `seq` is the
    /// transmitted sequence number (read only by an update).
    #[inline]
    fn record(self, node: MnId, position: Point, time_s: f64, seq: u32) -> IngestRecord {
        match self {
            NodeOp::Filtered => IngestRecord::Filtered { node, time_s },
            NodeOp::Update { .. } => {
                IngestRecord::Update(LocationUpdate::new(node, time_s, position, seq))
            }
            NodeOp::Lost => IngestRecord::Lost { node, time_s },
        }
    }
}

/// Per-node retransmission state driven by the node's [`RetryPolicy`].
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Failed attempts in the current loss streak (0 = healthy).
    attempt: u32,
    /// Tick at which the next retransmission fires (`u64::MAX` = none).
    due_tick: u64,
}

impl RetryState {
    const IDLE: RetryState = RetryState {
        attempt: 0,
        due_tick: u64::MAX,
    };
}

/// All state the sparse ([`TickDriver::Sparse`]) driver adds on top of the
/// dense tick path: the mobility wake wheel, the per-node sleep columns,
/// the per-shard replay memos and the wake accounting surfaced through
/// [`MobileGridSim::wake_stats`].
struct SparseState {
    /// Mobility wake wheel: nodes asleep with a finite quiescence horizon
    /// (`Quiescence::Until`) are due here; `Forever` sleepers never are.
    mobility: WakeWheel,
    /// Per-node: movement is skipped while set (position provably frozen).
    asleep: Vec<bool>,
    /// Tick on which the node fell asleep (valid while `asleep`).
    slept_at: Vec<u64>,
    /// Number of nodes currently asleep.
    asleep_count: usize,
    /// Per-shard replay memo: the sums of the shard's last full
    /// evaluation, kept only when every node of the shard took a filtered
    /// op with an idle fate and static estimators on both brokers (see
    /// `MobileGridSim::serve_memo_hits`).
    memo: Vec<Option<Memo>>,
    /// Per-shard counts behind the memo's O(1) proof.
    counts: Vec<ShardCounts>,
    /// Scratch: this tick's drained mobility wakes (reused).
    woken: Vec<u32>,
    /// Scratch: per-shard newly-asleep lists from the movement kernel,
    /// one per shard of `moving`.
    newly_asleep: Vec<Vec<(u32, u64)>>,
    /// Scratch: this tick's shards holding an awake node, ascending; only
    /// these reach the movement kernel.
    moving: Vec<usize>,
    /// Scratch: this tick's memo hits, ascending (see
    /// `MobileGridSim::serve_memo_hits`).
    hits: Vec<usize>,
    /// Cumulative mobility wakes fired.
    wake_mobility: u64,
    /// Cumulative nodes of shards a memo expiry sent to a full evaluation.
    wake_refresh: u64,
    /// Cumulative node-ticks of skipped movement.
    slept_node_ticks: u64,
    /// Cumulative node-ticks served from a shard's memo.
    replayed_node_ticks: u64,
    /// Cumulative shard-ticks served whole from the replay memo.
    replayed_shard_ticks: u64,
    /// Largest observed gap (ticks) between full evaluations of any shard.
    max_eval_gap: u64,
}

/// A shard's replay memo: the sums of the full evaluation that captured
/// it, and that evaluation's tick.
#[derive(Clone, Copy)]
struct Memo {
    at: u64,
    sums: ShardSums,
}

impl SparseState {
    fn new(nodes: usize) -> Self {
        let shards = mobigrid_sim::par::shard_count(nodes, SHARD_SIZE);
        SparseState {
            // Mobility sleeps are open-ended — a fixed horizon with
            // overflow spill is the classic trade.
            mobility: WakeWheel::new(1024),
            asleep: vec![false; nodes],
            slept_at: vec![0; nodes],
            asleep_count: 0,
            memo: vec![None; shards],
            counts: vec![ShardCounts::default(); shards],
            woken: Vec::new(),
            newly_asleep: Vec::new(),
            moving: Vec::with_capacity(shards),
            hits: Vec::with_capacity(shards),
            wake_mobility: 0,
            wake_refresh: 0,
            slept_node_ticks: 0,
            replayed_node_ticks: 0,
            replayed_shard_ticks: 0,
            max_eval_gap: 0,
        }
    }

    /// The nodes of the `nodes`-node population's shards that hold a
    /// memo.
    fn memo_nodes(&self, nodes: usize) -> usize {
        let memo_shards = self.memo.iter().enumerate().filter(|(_, m)| m.is_some());
        memo_shards
            .map(|(shard, _)| shard_range(nodes, shard).len())
            .sum()
    }

    /// Clears `shard`'s memo, which then can no longer be served, and
    /// counts the gap to the evaluation that replaces it this tick.
    fn clear_memo(&mut self, shard: usize, tick: u64) {
        if let Some(memo) = self.memo[shard].take() {
            self.max_eval_gap = self.max_eval_gap.max(tick - memo.at);
        }
    }

    /// The apply phase's post-pass: files this tick's new sleepers, in
    /// shard order, so the wheel's schedule history, and therefore every
    /// future drain order, stays a pure function of the simulation, never
    /// of thread scheduling.
    fn file_sleepers(&mut self, tick: u64) {
        for list in &self.newly_asleep {
            for &(node, ticks) in list {
                let i = node as usize;
                self.asleep[i] = true;
                self.slept_at[i] = tick;
                self.asleep_count += 1;
                self.counts[i / SHARD_SIZE].asleep += 1;
                if ticks != u64::MAX {
                    self.mobility.schedule(node, tick + ticks + 1);
                }
            }
        }
    }
}

/// The sparse driver's per-shard counts of the events that can break a
/// quiet shard, each kept where its event happens. With a memo, a shard
/// whose counts read all asleep and nothing else is a memo hit, proved
/// without reading a node (see `MobileGridSim::serve_memo_hits`).
#[derive(Debug, Clone, Copy, Default)]
struct ShardCounts {
    /// Nodes whose movement the kernel skips this tick: a mobility wake
    /// takes one off before movement, and a new sleeper is added only
    /// after the apply phase, so during a tick a node counts only when its
    /// observation repeats the previous tick's.
    asleep: u32,
    /// `Sent` filter decisions this tick, written by the filter-split
    /// loop.
    filter_sends: u32,
    /// Nodes with a frame on the air this tick (first sends and due
    /// retries), written by the routing phase; zero without a network.
    link_active: u32,
}

impl ShardCounts {
    /// Whether every node of this `len`-node shard is asleep: no node of
    /// it moves this tick.
    fn parked(&self, len: usize) -> bool {
        self.asleep as usize == len
    }

    /// Whether this `len`-node shard is quiet: every node asleep, no
    /// filter send and no frame on the air. With a memo younger than
    /// [`STALENESS_REFRESH`] ticks that makes the shard a memo hit (see
    /// `MobileGridSim::serve_memo_hits`).
    fn quiet(&self, len: usize) -> bool {
        self.parked(len) && self.filter_sends == 0 && self.link_active == 0
    }
}

/// A snapshot of the sparse driver's wake accounting (see
/// [`MobileGridSim::wake_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeStats {
    /// Mobility wakes fired so far (nodes woken from a finite sleep).
    pub mobility_wakes: u64,
    /// Staleness-refresh wakes so far: the nodes whose full evaluation a
    /// memo expiry forced, a quiet shard's length each time its memo
    /// reached the staleness-refresh window (32 ticks).
    pub refresh_wakes: u64,
    /// Nodes currently asleep (movement skipped).
    pub asleep: usize,
    /// Cumulative node-ticks of skipped movement.
    pub slept_node_ticks: u64,
    /// Cumulative node-ticks served from a shard's replay memo: the nodes
    /// of every memo hit.
    pub replayed_node_ticks: u64,
    /// Cumulative shard-ticks whose apply/measure phase was served whole
    /// from the shard's replay memo: the sums of the shard's last full
    /// evaluation, in which every node took a filtered op with an idle
    /// fate and static estimators. Recorded ticks never take the memo
    /// path.
    pub replayed_shard_ticks: u64,
    /// Cumulative node blocks the filter policy absorbed whole, at one
    /// clock write each ([`FilterPolicy::dozed_blocks`]).
    pub dozed_blocks: u64,
    /// Nodes with a pending mobility wake, plus the nodes of the shards
    /// that hold a replay memo (each due a full evaluation when its memo
    /// expires).
    pub wheel_occupancy: usize,
    /// Largest gap (ticks) between full broker evaluations of any shard,
    /// measured from a memo's capture tick — bounded by the
    /// staleness-refresh window (32 ticks).
    pub max_eval_gap: u64,
}

/// The full evaluation pipeline: nodes → filter policy → (optional) access
/// network → twin brokers (with and without the location estimator).
///
/// Each [`MobileGridSim::step`] advances every node one tick, filters the
/// resulting location updates, feeds both brokers identically, and measures
/// each broker's location error against ground truth — producing exactly the
/// quantities plotted in the paper's Figures 4–9.
///
/// # Examples
///
/// ```
/// use mobigrid_adf::{IdealPolicy, MobileNode, SimBuilder};
/// use mobigrid_campus::{RegionId, RegionKind};
/// use mobigrid_geo::Point;
/// use mobigrid_mobility::{MobilityPattern, NodeType, StopModel};
/// use mobigrid_wireless::MnId;
///
/// let node = MobileNode::new(
///     MnId::new(0),
///     RegionId::from_index(0),
///     RegionKind::Building,
///     NodeType::Human,
///     MobilityPattern::Stop,
///     StopModel::new(Point::new(1.0, 1.0)),
///     0,
/// );
/// let mut sim = SimBuilder::new()
///     .nodes(vec![node])
///     .policy(IdealPolicy::new())
///     .build()
///     .unwrap();
/// let stats = sim.step();
/// assert_eq!(stats.sent, 1);
/// assert_eq!(stats.rmse_without_le, 0.0); // ideal policy: no error
/// ```
pub struct MobileGridSim {
    /// The node population as a dense columnar store: movement state,
    /// metadata and the region-kind column the parallel phases slice.
    cols: NodeColumns,
    policy: Box<dyn FilterPolicy + Send>,
    broker_le: GridBroker,
    broker_raw: GridBroker,
    network: Option<AccessNetwork>,
    channel: Option<FaultChannel>,
    /// The retry policy of every node that does not carry its own
    /// (`RuntimeOptions::retry`).
    default_retry: Option<RetryPolicy>,
    retry: Vec<RetryState>,
    tick: u64,
    seqs: Vec<u32>,
    cumulative: RegionTally,
    pool: ShardPool,
    /// Stale-node count at the end of the previous tick, for the
    /// telemetry staleness-transition event.
    prev_stale: u32,
    scratch: TickScratch,
    /// The online invariant battery, run at the end of every tick —
    /// recording or not — over the tick's conservation-law vitals.
    monitors: MonitorSet,
    /// Violations the monitors have found so far, capped at
    /// [`VIOLATION_LOG_CAP`] (an enabled recorder sees every one as an
    /// `invariant_violation` event regardless).
    violations: Vec<Violation>,
    /// Sparse-driver state (`None` under [`TickDriver::Dense`]).
    sparse: Option<Box<SparseState>>,
    /// The monitors' fault hook (see `MonitorFault`).
    #[cfg(test)]
    fault: Option<MonitorFault>,
}

impl std::fmt::Debug for MobileGridSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileGridSim")
            .field("nodes", &self.cols.len())
            .field("policy", &self.policy.name())
            .field("tick", &self.tick)
            .field("threads", &self.pool.threads())
            .finish()
    }
}

/// Everything one shard of the fused apply/measure phase needs: disjoint
/// mutable slices of the per-node state plus read-only slices of this tick's
/// inputs, all covering the same `[base, base + len)` node-index range.
struct ShardJob<'a> {
    tick: u64,
    kinds: &'a [RegionKind],
    observations: &'a [(MnId, Point)],
    decisions: &'a [Decision],
    /// Per-node network outcomes, present when a network is attached (the
    /// routing phase then owns the sequence counters).
    link: Option<&'a [LinkOutcome]>,
    /// Sequence numbers each node transmitted with. With a network the
    /// routing phase wrote them (valid where `link` records a
    /// transmission); without one this shard owns `seqs` and writes the
    /// used value back here for the seq-monotonicity monitor.
    sent_seqs: &'a mut [u32],
    seqs: &'a mut [u32],
    le: BrokerShard<'a>,
    raw: BrokerShard<'a>,
    /// Where each node's with-LE staleness counter after its apply goes.
    staleness: &'a mut [u32],
    /// Where each node's apply fate for the invariant monitors goes.
    fates: &'a mut [NodeFate],
    /// Sparse driver: this shard's replay memo, which the per-node loop
    /// captures or clears; `None` under the dense driver.
    memo: Option<&'a mut Option<Memo>>,
    /// The shard's flight-recorder scratch, present only on a recorded
    /// tick.
    rec: Option<&'a mut ShardRecording>,
    /// The shard's share of the per-node invariant monitors.
    check: ShardCheck<'a>,
}

/// One shard's share of the per-node invariant monitors: the late flags
/// the transmit phase left, the shard's view of the strict monitors'
/// baselines and the shard's reusable report.
struct ShardCheck<'a> {
    late_accepted: &'a [bool],
    baselines: MonitorShard<'a>,
    report: &'a mut BlockReport,
    /// The test-only fault hook.
    #[cfg(test)]
    fault: Option<MonitorFault>,
}

impl ShardCheck<'_> {
    /// Checks the per-node invariants (seq monotonicity, staleness
    /// consistency) over one shard's columns, the shard's first node
    /// being `base`: columns the apply pass has just written or, on a
    /// memo hit, proved current. Every node is checked; a quiet shard
    /// costs the kernel's one branch-free scan. `base` places the
    /// test-only fault.
    #[cfg_attr(not(test), allow(unused_variables))]
    fn run(
        &mut self,
        tick: u64,
        base: usize,
        fates: &[NodeFate],
        sent_seqs: &mut [u32],
        staleness: &mut [u32],
    ) {
        self.report.clear();
        #[cfg(test)]
        let fault = self.fault.filter(|f| f.tick == tick);
        #[cfg(test)]
        if let Some(f) = fault {
            f.shift(base, staleness, sent_seqs, MonitorFault::OFFSET);
        }
        let block = NodeBlock {
            tick,
            fates,
            wire_seqs: sent_seqs,
            staleness,
            late_accepted: self.late_accepted,
        };
        self.baselines.check(block, self.report);
        #[cfg(test)]
        if let Some(f) = fault {
            let undo = MonitorFault::OFFSET.wrapping_neg();
            f.shift(base, staleness, sent_seqs, undo);
        }
    }
}

/// A test-only fault for the per-node monitors: on `tick`, the shard pass
/// hands the monitors one node's staleness counter and another's sent seq
/// off by [`MonitorFault::OFFSET`], and restores both afterwards.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct MonitorFault {
    tick: u64,
    staleness_node: usize,
    seq_node: usize,
}

#[cfg(test)]
impl MonitorFault {
    const OFFSET: u32 = 7;

    /// Adds `by` (wrapping) to the named nodes' entries of a shard's
    /// columns, the shard's first node being `base`.
    fn shift(self, base: usize, staleness: &mut [u32], sent_seqs: &mut [u32], by: u32) {
        for (node, column) in [(self.staleness_node, staleness), (self.seq_node, sent_seqs)] {
            if let Some(v) = node.checked_sub(base).and_then(|k| column.get_mut(k)) {
                *v = v.wrapping_add(by);
            }
        }
    }
}

/// One node's flight-recorder sample from the apply/measure phase: the
/// with-LE broker's apply verdict plus both brokers' location errors.
/// Collected per shard only while a recorder is enabled, and drained in
/// shard order into `lu_apply`/`lu_error` events so the emission order is
/// independent of the thread count.
struct FlightSample {
    node: u32,
    apply: ApplyInfo,
    err_le: f64,
    err_raw: f64,
}

/// One shard's sums: `sent`, the stale count, the tally and the broker
/// deltas are exact (`u32`/`u64`) under any merge order; the RMSE
/// partials are reduced in shard order so the floating-point sums are
/// bit-identical across thread counts. This is also what a shard's replay
/// memo keeps.
#[derive(Clone, Copy, Default, PartialEq)]
pub(crate) struct ShardSums {
    sent: u32,
    stale: u32,
    tally: RegionTally,
    all_le: Rmse,
    all_raw: Rmse,
    road_le: Rmse,
    road_raw: Rmse,
    bld_le: Rmse,
    bld_raw: Rmse,
    le_delta: BrokerDelta,
    raw_delta: BrokerDelta,
}

impl ShardSums {
    /// Counts one node's apply: whether its op was `sent`, its with-LE
    /// staleness counter after the apply, and both brokers' location
    /// errors.
    #[inline]
    fn measure(&mut self, kind: RegionKind, sent: bool, staleness: u32, err_le: f64, err_raw: f64) {
        self.sent += u32::from(sent);
        self.tally.record(kind, sent);
        self.stale += u32::from(staleness > 0);
        self.all_le.push(err_le);
        self.all_raw.push(err_raw);
        let (le, raw) = match kind {
            RegionKind::Road => (&mut self.road_le, &mut self.road_raw),
            RegionKind::Building => (&mut self.bld_le, &mut self.bld_raw),
        };
        le.push(err_le);
        raw.push(err_raw);
    }

    /// Folds `other` into these sums; called in shard order.
    fn merge(&mut self, other: &ShardSums) {
        self.sent += other.sent;
        self.stale += other.stale;
        self.tally.merge(&other.tally);
        self.all_le.merge(&other.all_le);
        self.all_raw.merge(&other.all_raw);
        self.road_le.merge(&other.road_le);
        self.road_raw.merge(&other.road_raw);
        self.bld_le.merge(&other.bld_le);
        self.bld_raw.merge(&other.bld_raw);
        self.le_delta.merge(&other.le_delta);
        self.raw_delta.merge(&other.raw_delta);
    }
}

/// The tick's update flow, as the filter phase splits it and the transmit
/// phase routes it (see [`TickStats`] for `retries`, `lost` and `late`).
#[derive(Clone, Copy, Default)]
struct Flow {
    /// `Sent` filter decisions.
    filter_sent: u32,
    suppressed: u32,
    /// Frames on the air: first sends and retries; none without a network.
    on_air: u64,
    retries: u32,
    lost: u32,
    late: u32,
    /// Updates that reached the brokers, a duplicated frame counted once;
    /// without a network, every sent update.
    delivered: u32,
    deferred: u32,
    no_coverage: u32,
}

/// One shard's flight-recorder scratch, reused across recorded ticks and
/// drained in shard order, so the emitted events and the merged histograms
/// are identical at any thread count.
struct ShardRecording {
    /// Per-node location-error histograms over [`error_bucket_spec`]
    /// buckets. Like the RMSE partials they are merged in shard order —
    /// and because a [`HistogramDelta`] merge is pure integer adds plus
    /// f64 min/max, the merged result is bit-identical under *any* order.
    err_le: HistogramDelta,
    err_raw: HistogramDelta,
    /// Per-node flight-recorder samples.
    flight: Vec<FlightSample>,
}

impl ShardRecording {
    fn new() -> Self {
        ShardRecording {
            err_le: HistogramDelta::new(error_bucket_spec()),
            err_raw: HistogramDelta::new(error_bucket_spec()),
            flight: Vec::new(),
        }
    }

    /// Empties the scratch for a new tick, keeping the flight buffer's
    /// capacity.
    fn clear(&mut self) {
        self.err_le = HistogramDelta::new(error_bucket_spec());
        self.err_raw = HistogramDelta::new(error_bucket_spec());
        self.flight.clear();
    }

    /// Records one node's apply verdict and location errors.
    fn push(&mut self, node: u32, apply: ApplyInfo, err_le: f64, err_raw: f64) {
        self.err_le.record(err_le);
        self.err_raw.record(err_raw);
        self.flight.push(FlightSample {
            node,
            apply,
            err_le,
            err_raw,
        });
    }
}

impl MobileGridSim {
    /// The node population's columnar store.
    #[must_use]
    pub fn columns(&self) -> &NodeColumns {
        &self.cols
    }

    /// Number of nodes in the population.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.cols.len()
    }

    /// A read-only facade over node `index` (dense ids: `index` is the
    /// node's [`MnId`] value).
    ///
    /// # Panics
    ///
    /// Panics when `index >= node_count()`.
    #[must_use]
    pub fn node(&self, index: usize) -> NodeView<'_> {
        self.cols.view(index)
    }

    /// The filter policy under test.
    #[must_use]
    pub fn policy(&self) -> &(dyn FilterPolicy + Send) {
        self.policy.as_ref()
    }

    /// The broker running the location estimator.
    #[must_use]
    pub fn broker_with_le(&self) -> &GridBroker {
        &self.broker_le
    }

    /// The broker without estimation (last-received only).
    #[must_use]
    pub fn broker_without_le(&self) -> &GridBroker {
        &self.broker_raw
    }

    /// The access network, when attached.
    #[must_use]
    pub fn network(&self) -> Option<&AccessNetwork> {
        self.network.as_ref()
    }

    /// The fault-injection channel, when [`RuntimeOptions::faults`] set
    /// one.
    #[must_use]
    pub fn fault_channel(&self) -> Option<&FaultChannel> {
        self.channel.as_ref()
    }

    /// Cumulative per-kind tallies since the start of the run.
    #[must_use]
    pub fn cumulative_tally(&self) -> RegionTally {
        self.cumulative
    }

    /// The worker-thread budget for the parallel tick phases.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Which per-tick execution strategy this simulation runs.
    #[must_use]
    pub fn driver(&self) -> TickDriver {
        if self.sparse.is_some() {
            TickDriver::Sparse
        } else {
            TickDriver::Dense
        }
    }

    /// Cumulative sparse-driver wake accounting, or `None` under the dense
    /// driver. The counters grow monotonically over the run; the gauges
    /// (`asleep`, `wheel_occupancy`) are snapshots of the current tick.
    #[must_use]
    pub fn wake_stats(&self) -> Option<WakeStats> {
        self.sparse.as_deref().map(|sp| WakeStats {
            mobility_wakes: sp.wake_mobility,
            refresh_wakes: sp.wake_refresh,
            asleep: sp.asleep_count,
            slept_node_ticks: sp.slept_node_ticks,
            replayed_node_ticks: sp.replayed_node_ticks,
            replayed_shard_ticks: sp.replayed_shard_ticks,
            dozed_blocks: self.policy.dozed_blocks(),
            wheel_occupancy: sp.mobility.occupancy() + sp.memo_nodes(self.cols.len()),
            max_eval_gap: sp.max_eval_gap,
        })
    }

    /// Invariant violations the online monitor battery has found so far.
    ///
    /// The four-law battery ([`MonitorSet::standard`]) runs at the end of
    /// **every** tick, recorded or not: filter conservation, channel
    /// conservation (including in-flight continuity), per-node wire-seq
    /// monotonicity, and staleness consistency. A healthy run keeps this
    /// empty; tests and CI assert exactly that. Retention is capped at
    /// 1024 entries so a systemically broken run cannot grow the log
    /// without bound (an enabled recorder still sees every violation as
    /// an `invariant_violation` event).
    #[must_use]
    pub fn invariant_violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Executes one tick and returns its statistics.
    ///
    /// The tick runs in four phases: ground-truth advancement and the fused
    /// deliver/estimate/measure phase run shard-parallel over fixed
    /// `SHARD_SIZE`-node slices; filtering and network routing stay
    /// sequential, as the ADF clusters across the whole population and the
    /// access network is one shared resource with ordered accounting. Fault
    /// fates are pure hashes of the event identity, never of scheduling,
    /// and every per-shard partial is reduced in shard order, so the
    /// returned [`TickStats`] stream is bit-identical for every thread count.
    ///
    /// Every phase works in the reusable tick-scratch buffers, so in
    /// steady state (with a single worker thread, under either driver) a
    /// tick performs **zero heap allocations** — pinned by the
    /// counting-allocator tests in `crates/bench/tests/zero_alloc.rs`.
    /// With more threads the only allocations are the executor's
    /// transient spawn scaffolding.
    pub fn step(&mut self) -> TickStats {
        self.step_recorded(&mut NoopRecorder)
    }

    /// Executes one tick like [`MobileGridSim::step`], streaming telemetry
    /// into `rec`.
    ///
    /// With the default [`NoopRecorder`] this is exactly [`step`]
    /// (`MobileGridSim::step` simply delegates here): every emission site
    /// is either a no-op virtual call or gated on [`Recorder::enabled`],
    /// so the tick path stays allocation-free and the golden traces stay
    /// bit-exact. With an enabled recorder each tick emits the **causal
    /// flight-recorder chain** — every location update carries the stable
    /// identity `(node, seq)` where `seq` is the tick it was generated
    /// on, linking its lifecycle events:
    ///
    /// - `lu_generated` — the ground-truth observation (position);
    /// - `lu_classified` — the policy's view, when it classifies
    ///   (mobility class, velocity cluster or `-1`, DTH in force);
    /// - `lu_decision` — sent or suppressed, with the measured
    ///   displacement against the DTH;
    /// - `lu_channel` — one per frame on the air (first sends, retries
    ///   and late arrivals), with wire seq, attempt and fate (delivered,
    ///   duplicate, deferred with its due tick, arrived-late, dropped by
    ///   cause);
    /// - `lu_apply` — the with-LE broker's verdict (accepted, duplicate,
    ///   stale, estimated, degraded) with the node's staleness counter
    ///   and trust-blend weight;
    /// - `lu_error` — both brokers' location error against ground truth.
    ///
    /// Alongside the chain each tick emits **spans** for the four phases,
    /// `staleness` transition and `invariant_violation` events,
    /// **counters** mirroring [`TickStats`] plus the flow-conservation
    /// quantities (`sim.filter_sent`, `sim.suppressed`, `sim.delivered`,
    /// `sim.deferred`, `sim.no_coverage`, `sim.invariant_violations`),
    /// **gauges** for the instantaneous values, and the two per-node
    /// location-error **histograms** over the fixed [`error_bucket_spec`]
    /// buckets. Everything is accumulated per shard and merged in shard
    /// order, so recorded telemetry is bit-identical at every thread
    /// count.
    ///
    /// The online invariant monitors run whether or not a recorder is
    /// attached; see [`MobileGridSim::invariant_violations`].
    ///
    /// [`step`]: MobileGridSim::step
    pub fn step_recorded(&mut self, rec: &mut dyn Recorder) -> TickStats {
        let recording = rec.enabled();
        self.tick += 1;
        rec.tick_start(self.tick);
        let time_s = self.tick as f64 * DT;
        let observed = self.scratch.observations.len() as u32;

        self.observe(time_s);
        rec.span(Phase::Observe, u64::from(observed));
        let mut flow = self.filter(time_s, recording, rec);
        rec.span(Phase::Filter, self.scratch.decisions.len() as u64);
        self.transmit(time_s, &mut flow, recording, rec);
        rec.span(Phase::Transmit, flow.on_air);
        let sums = self.apply_and_measure(time_s, recording, rec);
        rec.span(Phase::Estimate, u64::from(observed));
        if recording {
            self.record_tick(time_s, flow, &sums, rec);
        }
        self.prev_stale = sums.stale;
        self.check_monitors(flow, sums.stale, recording, rec);

        TickStats {
            time_s,
            sent: sums.sent,
            observed,
            retries: flow.retries,
            lost: flow.lost,
            late: flow.late,
            stale_nodes: sums.stale,
            region: sums.tally,
            rmse_with_le: sums.all_le.value(),
            rmse_without_le: sums.all_raw.value(),
            road_rmse_with_le: sums.road_le.value(),
            road_rmse_without_le: sums.road_raw.value(),
            building_rmse_with_le: sums.bld_le.value(),
            building_rmse_without_le: sums.bld_raw.value(),
        }
    }

    /// Phase 1, observe: advances ground truth with the columnar movement
    /// kernel, shard-parallel, each shard sweeping disjoint slices of the
    /// engine / RNG / position columns and writing its observations into a
    /// disjoint slice of the flat buffer. Each node owns its RNG state, so
    /// per-node trajectories are independent of scheduling.
    ///
    /// Sparse driver: due mobility wakes fire first (replaying each woken
    /// node's skipped no-op ticks), the kernel then skips still-asleep
    /// nodes — their position and observation slots are provably
    /// bit-unchanged — and newly quiescent nodes are filed into the wake
    /// wheel in shard order after the apply phase. A shard whose counts
    /// read every node asleep is skipped before its view is built: it
    /// gets no kernel call and no newly-asleep list.
    fn observe(&mut self, time_s: f64) {
        let observations = &mut self.scratch.observations;
        match self.sparse.as_deref_mut() {
            None => self.pool.for_each(
                self.cols
                    .movement_shards(SHARD_SIZE)
                    .zip(observations.chunks_mut(SHARD_SIZE)),
                |i, (shard, obs)| shard.advance(i * SHARD_SIZE, time_s, DT, obs),
            ),
            Some(sp) => {
                sp.woken.clear();
                sp.woken.extend_from_slice(sp.mobility.advance(self.tick));
                for &node in &sp.woken {
                    let i = node as usize;
                    debug_assert!(sp.asleep[i], "a wake fired for an awake node");
                    let skipped = self.tick - sp.slept_at[i] - 1;
                    if skipped > 0 {
                        self.cols.replay_quiescent(i, skipped, DT);
                    }
                    sp.asleep[i] = false;
                    sp.counts[i / SHARD_SIZE].asleep -= 1;
                }
                sp.asleep_count -= sp.woken.len();
                sp.wake_mobility += sp.woken.len() as u64;
                sp.slept_node_ticks += sp.asleep_count as u64;

                let nodes = self.cols.len();
                sp.moving.clear();
                for (shard, counts) in sp.counts.iter().enumerate() {
                    if !counts.parked(shard_range(nodes, shard).len()) {
                        sp.moving.push(shard);
                    }
                }
                let asleep = &sp.asleep;
                let slices = select(
                    observations.chunks_mut(SHARD_SIZE),
                    sp.moving.iter().copied(),
                )
                .map(move |(shard, obs)| {
                    let range = shard_range(nodes, shard);
                    (range.start, obs, &asleep[range])
                });
                let shards = self
                    .cols
                    .movement_shards_at(SHARD_SIZE, sp.moving.iter().copied())
                    .zip(slices);
                self.pool.run_into(
                    shards,
                    &mut sp.newly_asleep,
                    |_, (shard, (base, obs, asleep))| shard.advance_sparse(base, DT, obs, asleep),
                );
                // New sleepers moved this tick: they are filed after the
                // apply phase, so until then `asleep` marks exactly the
                // nodes whose observation repeats the previous tick's.
            }
        }
    }

    /// Phase 2, filter — sequential: the ADF clusters across all nodes. The
    /// sparse driver passes its sleep mask so the policy can take its own
    /// (bit-identical) replay path for frozen nodes. Returns the split of
    /// the decisions, which the filter-conservation monitor needs every
    /// tick; the sparse driver also keeps each shard's part of it.
    fn filter(&mut self, time_s: f64, recording: bool, rec: &mut dyn Recorder) -> Flow {
        let scratch = &mut self.scratch;
        match self.sparse.as_deref() {
            None => {
                self.policy
                    .process_tick(time_s, &scratch.observations, &mut scratch.decisions);
            }
            Some(sp) => self.policy.process_tick_sparse(
                time_s,
                &scratch.observations,
                &sp.asleep,
                &mut scratch.decisions,
            ),
        }
        debug_assert_eq!(scratch.decisions.len(), scratch.observations.len());
        let mut sent = 0u32;
        let mut shard_sends = self.sparse.as_deref_mut().map(|sp| sp.counts.iter_mut());
        for chunk in scratch.decisions.chunks(SHARD_SIZE) {
            let shard_sent = chunk.iter().map(|d| u32::from(d.is_sent())).sum::<u32>();
            sent += shard_sent;
            if let Some(counts) = shard_sends.as_mut().and_then(Iterator::next) {
                counts.filter_sends = shard_sent;
            }
        }
        let suppressed = scratch.decisions.len() as u32 - sent;
        if recording {
            // An update's flight-recorder identity is (node, generation
            // tick): stable across retries and deferrals, unlike the wire
            // seq, which advances once per frame on the air.
            let gen_seq = self.tick as u32;
            for ((id, pos), decision) in scratch.observations.iter().zip(&scratch.decisions) {
                rec.event(EventKind::LuGenerated {
                    node: id.raw(),
                    seq: gen_seq,
                    x: pos.x,
                    y: pos.y,
                });
                let probe = self.policy.probe(*id);
                if let Some(p) = probe {
                    if let Some(pattern) = p.pattern {
                        rec.event(EventKind::LuClassified {
                            node: id.raw(),
                            seq: gen_seq,
                            class: match pattern {
                                MobilityPattern::Stop => MobilityClass::Stop,
                                MobilityPattern::Random => MobilityClass::Random,
                                MobilityPattern::Linear => MobilityClass::Linear,
                            },
                            cluster: p.cluster.map_or(-1, |c| c as i32),
                            dth: p.dth.unwrap_or(f64::NAN),
                        });
                    }
                }
                let (displacement, dth) = probe.map_or((f64::NAN, f64::NAN), |p| {
                    (
                        p.displacement.unwrap_or(f64::NAN),
                        p.dth.unwrap_or(f64::NAN),
                    )
                });
                rec.event(EventKind::LuDecision {
                    node: id.raw(),
                    seq: gen_seq,
                    sent: decision.is_sent(),
                    displacement,
                    dth,
                });
            }
        }
        Flow {
            filter_sent: sent,
            suppressed,
            ..Flow::default()
        }
    }

    /// Phase 2b, transmit: routes transmitted updates through the access
    /// network (and the fault channel, when one is attached), in node
    /// order. When a network is present this phase owns the sequence
    /// counters: it advances them and records the used value in `sent_seq`
    /// so phase 3 can rebuild the identical update. Retry-due nodes
    /// retransmit here even when the filter said nothing new. Without a
    /// network nothing is on the air, and every sent update reaches the
    /// brokers directly.
    fn transmit(&mut self, time_s: f64, flow: &mut Flow, recording: bool, rec: &mut dyn Recorder) {
        self.scratch.late_accepted.fill(false);
        flow.late = self.drain_late(recording, rec);
        let Some(net) = self.network.as_mut() else {
            flow.delivered = flow.filter_sent;
            return;
        };
        let gen_seq = self.tick as u32;
        let scratch = &mut self.scratch;
        let mut shard_counts = self.sparse.as_deref_mut().map(|sp| &mut sp.counts[..]);
        if let Some(counts) = shard_counts.as_deref_mut() {
            counts.iter_mut().for_each(|c| c.link_active = 0);
        }
        for (i, (((id, pos), decision), out)) in scratch
            .observations
            .iter()
            .zip(&scratch.decisions)
            .zip(scratch.link.iter_mut())
            .enumerate()
        {
            let state = &mut self.retry[i];
            let retry_due = state.due_tick <= self.tick;
            if !(matches!(decision, Decision::Sent) || retry_due) {
                *out = LinkOutcome::Idle;
                continue;
            }
            if let Some(counts) = shard_counts.as_deref_mut() {
                counts[i / SHARD_SIZE].link_active += 1;
            }
            let attempt = state.attempt;
            let seq = self.seqs[i];
            self.seqs[i] = seq.wrapping_add(1);
            scratch.sent_seq[i] = seq;
            flow.retries += u32::from(attempt > 0);
            let lu = LocationUpdate::new(*id, time_s, *pos, seq);
            let event = match self.channel.as_mut() {
                Some(ch) => ch.transmit(net, &lu, attempt, self.tick),
                None => match net.transmit(&lu) {
                    Ok(gateway) => LinkEvent::Delivered {
                        gateway,
                        duplicate: false,
                    },
                    Err(_) => LinkEvent::Dropped {
                        cause: DropCause::NoCoverage,
                    },
                },
            };
            flow.on_air += 1;
            // Only a frame lost in flight schedules a retransmission.
            *state = RetryState::IDLE;
            let (fate, due_tick, outcome) = match event {
                LinkEvent::Delivered { duplicate, .. } => {
                    flow.delivered += 1;
                    let fate = match duplicate {
                        false => LinkFate::Delivered,
                        true => LinkFate::DeliveredDuplicate,
                    };
                    (fate, 0, LinkOutcome::Delivered { duplicate })
                }
                LinkEvent::Deferred { due_tick, .. } => {
                    // In flight: it will arrive on its own, so the sender
                    // does not retransmit, but the broker misses it this
                    // tick.
                    flow.deferred += 1;
                    flow.lost += 1;
                    let outcome = LinkOutcome::Lost { transmitted: true };
                    (LinkFate::Deferred, due_tick, outcome)
                }
                LinkEvent::Dropped {
                    cause: DropCause::NoCoverage,
                } => {
                    flow.no_coverage += 1;
                    let outcome = LinkOutcome::Lost { transmitted: false };
                    (LinkFate::DroppedNoCoverage, 0, outcome)
                }
                LinkEvent::Dropped { cause } => {
                    flow.lost += 1;
                    // The node's own policy wins over the default.
                    let policy = self.cols.retry_policies()[i].or(self.default_retry);
                    let retry = policy.filter(|p| attempt < p.max_retries);
                    if let Some(policy) = retry {
                        let next = attempt + 1;
                        let noise = event_noise(
                            self.channel.as_ref().map_or(0, FaultChannel::seed),
                            id.raw(),
                            seq,
                            next,
                            SALT_RETRY_JITTER,
                        );
                        *state = RetryState {
                            attempt: next,
                            due_tick: self.tick + policy.backoff_ticks(next, noise),
                        };
                    }
                    let fate = match cause {
                        DropCause::Corrupted => LinkFate::DroppedCorrupted,
                        _ => LinkFate::DroppedFault,
                    };
                    (fate, 0, LinkOutcome::Lost { transmitted: true })
                }
            };
            *out = outcome;
            if recording {
                rec.event(EventKind::LuChannel {
                    node: id.raw(),
                    seq: gen_seq,
                    wire_seq: seq,
                    attempt,
                    fate,
                    due_tick,
                });
            }
        }
    }

    /// Delivers the fault channel's deferred frames that came due this
    /// tick to both brokers, before anything sent this tick, so their
    /// (older) timestamps stay in order. Returns how many arrived; none
    /// without a channel.
    fn drain_late(&mut self, recording: bool, rec: &mut dyn Recorder) -> u32 {
        let Some(ch) = self.channel.as_mut() else {
            return 0;
        };
        let scratch = &mut self.scratch;
        scratch.late_lus.clear();
        ch.drain_due(self.tick, &mut scratch.late_lus);
        for lu in &scratch.late_lus {
            let op = IngestRecord::Update(*lu);
            let info = self.broker_le.apply(&op).expect("an update is a broker op");
            self.broker_raw.apply(&op);
            // A late arrival touches the node's estimator (or at least its
            // dedup state): its shard's memo is no longer safe to serve.
            if let Some(sp) = self.sparse.as_deref_mut() {
                sp.clear_memo(lu.node.index() / SHARD_SIZE, self.tick);
            }
            if info.outcome == ApplyOutcome::Accepted {
                // Resets the node's staleness baseline before the apply
                // phase runs — the staleness monitor needs to know.
                scratch.late_accepted[lu.node.index()] = true;
            }
            if recording {
                // A deferred frame keeps its generation-tick identity:
                // recover it from the timestamp.
                let seq = (lu.time_s / DT).round() as u32;
                rec.event(EventKind::LuChannel {
                    node: lu.node.raw(),
                    seq,
                    wire_seq: lu.seq,
                    attempt: 0,
                    fate: LinkFate::ArrivedLate,
                    due_tick: self.tick,
                });
                rec.event(EventKind::LuApply {
                    node: lu.node.raw(),
                    seq,
                    outcome: info.outcome,
                    staleness: info.staleness,
                    blend: info.blend,
                });
            }
        }
        scratch.late_lus.len() as u32
    }

    /// Phases 3+4 fused, shard-parallel, apply and measure: applies each
    /// decision to both brokers and measures location error against ground
    /// truth — the paper's RMSE over all n nodes at time t — from the
    /// freshly updated dense slots. Each driver's pass builds its job list
    /// lazily from per-shard slices; results land in the reused `outs`
    /// buffer in job order, and a recorded tick's samples in the shards'
    /// reused `recording` scratch. Returns the shard-ordered reduction of
    /// the shards' sums, whose broker deltas are already merged into the
    /// brokers.
    fn apply_and_measure(
        &mut self,
        time_s: f64,
        recording: bool,
        rec: &mut dyn Recorder,
    ) -> ShardSums {
        let recorded_shards = if recording {
            let scratch = &mut self.scratch;
            let shards = mobigrid_sim::par::shard_count(scratch.observations.len(), SHARD_SIZE);
            scratch.recording.resize_with(shards, ShardRecording::new);
            scratch.recording.iter_mut().for_each(ShardRecording::clear);
            shards
        } else {
            0
        };
        let sums = self.apply_shards(time_s, recorded_shards);
        self.broker_le.apply_delta(&sums.le_delta);
        self.broker_raw.apply_delta(&sums.raw_delta);
        // Drain the shards' flight samples in shard order, so the
        // apply/error event stream is identical at any thread count (the
        // recording slice is empty on an unrecorded tick).
        let gen_seq = self.tick as u32;
        for s in self.scratch.recording[..recorded_shards]
            .iter()
            .flat_map(|r| &r.flight)
        {
            rec.event(EventKind::LuApply {
                node: s.node,
                seq: gen_seq,
                outcome: s.apply.outcome,
                staleness: s.apply.staleness,
                blend: s.apply.blend,
            });
            rec.event(EventKind::LuError {
                node: s.node,
                seq: gen_seq,
                err_le: s.err_le,
                err_raw: s.err_raw,
            });
        }
        self.cumulative.merge(&sums.tally);
        sums
    }

    /// The apply pass over every shard: under the sparse driver the memo
    /// hits are served first ([`MobileGridSim::serve_memo_hits`]); every
    /// other shard — every shard under the dense driver — gets a job,
    /// carrying its real shard index, and takes the per-node loop of
    /// `run_shard`. Returns the reduction of the hits' memo sums and the
    /// jobs' sums in whole-population shard order: exact for the integer
    /// tallies and counters, and a fixed floating-point summation order
    /// for the RMSE partials.
    fn apply_shards(&mut self, time_s: f64, recorded_shards: usize) -> ShardSums {
        let tick = self.tick;
        let nodes = self.cols.len();
        self.scratch.jobs.clear();
        if self.sparse.is_some() {
            self.serve_memo_hits(time_s, recorded_shards > 0);
        } else {
            let shards = mobigrid_sim::par::shard_count(nodes, SHARD_SIZE);
            self.scratch.jobs.extend(0..shards);
        }
        let scratch = &mut self.scratch;
        let link: Option<&[LinkOutcome]> = self.network.is_some().then_some(&scratch.link);
        #[cfg(test)]
        let fault = self.fault;
        let job_shards = &scratch.jobs;
        let at = || job_shards.iter().copied();
        let views = self
            .broker_le
            .shard_views_at(SHARD_SIZE, at())
            .zip(self.broker_raw.shard_views_at(SHARD_SIZE, at()))
            .zip(select(self.monitors.shard_views(nodes, SHARD_SIZE), at()));
        let columns = scratch
            .sent_seq
            .chunks_mut(SHARD_SIZE)
            .zip(self.seqs.chunks_mut(SHARD_SIZE))
            .zip(scratch.staleness.chunks_mut(SHARD_SIZE))
            .zip(scratch.fates.chunks_mut(SHARD_SIZE))
            .zip(scratch.checks.iter_mut());
        let mut memos = (self.sparse.as_deref_mut())
            .map(|sp| select(sp.memo.iter_mut(), at()).map(|(_, memo)| memo));
        let mut rec_slots = scratch.recording[..recorded_shards].iter_mut();
        let (kinds, observations) = (self.cols.region_kinds(), &scratch.observations);
        let (decisions, late_accepted) = (&scratch.decisions, &scratch.late_accepted);
        let jobs = select(columns, at()).zip(views).map(
            move |(
                (shard, ((((sent_seqs, seqs), staleness), fates), report)),
                ((le, raw), (_, baselines)),
            )| {
                let range = shard_range(nodes, shard);
                ShardJob {
                    tick,
                    kinds: &kinds[range.clone()],
                    observations: &observations[range.clone()],
                    decisions: &decisions[range.clone()],
                    link: link.map(|link| &link[range.clone()]),
                    sent_seqs,
                    seqs,
                    le,
                    raw,
                    staleness,
                    fates,
                    memo: memos
                        .as_mut()
                        .map(|m| m.next().expect("a memo slot per job")),
                    // A recorded tick gives every shard a job in order;
                    // None on an unrecorded tick.
                    rec: rec_slots.next(),
                    check: ShardCheck {
                        late_accepted: &late_accepted[range],
                        baselines,
                        report,
                        #[cfg(test)]
                        fault,
                    },
                }
            },
        );
        self.pool.run_into(jobs, &mut scratch.outs, |_, job| {
            Self::run_shard(time_s, job)
        });

        let memo = self.sparse.as_deref().map(|sp| &sp.memo[..]);
        let mut sums = ShardSums::default();
        let mut outs = scratch.outs.iter();
        let mut jobs = scratch.jobs.iter().peekable();
        for shard in 0..mobigrid_sim::par::shard_count(nodes, SHARD_SIZE) {
            sums.merge(if jobs.next_if_eq(&&shard).is_some() {
                outs.next().expect("one output per job")
            } else {
                memo.and_then(|memo| memo[shard].as_ref())
                    .map(|memo| &memo.sums)
                    .expect("a memo hit keeps its memo")
            });
        }
        if let Some(sp) = self.sparse.as_deref_mut() {
            sp.file_sleepers(tick);
        }
        sums
    }

    /// The sparse driver's memo pre-pass. Each shard's [`ShardCounts`]
    /// decide, before any view of it is built, whether it is a **memo
    /// hit**: not a recorded tick (which needs every node's flight
    /// sample), a memo younger than [`STALENESS_REFRESH`] ticks, and the
    /// shard quiet ([`ShardCounts::quiet`]). A hit shard takes no job. Its
    /// sums are its memo's, bit for bit; both brokers' replay clocks for
    /// it take the new time in one write each
    /// ([`GridBroker::restamp_shard`]); and the monitor kernel checks its
    /// existing columns, so the monitors still see every node. All of it
    /// runs on the calling thread. Every other shard goes on
    /// `TickScratch::jobs`, and its job's per-node loop captures or clears
    /// its memo. A quiet shard whose memo has reached the window is one of
    /// them: the expiry forces its full evaluation, and its nodes count as
    /// refresh wakes.
    ///
    /// *Why a hit is exact:* only the per-node loop writes a memo, and
    /// only when every node of the shard took a filtered op with an idle
    /// fate and both brokers' estimators were static, so each of those
    /// applies stored an estimate that is the same at any query time (or,
    /// for a node never heard from, nothing). Every tick evaluates or hits
    /// every shard, and an evaluation rewrites the memo, so every tick
    /// since the capture was a hit. Until the shard is next evaluated, a
    /// hit requires four things: every node is asleep, so its observation
    /// repeats the evaluated one; no filter send; no frame on the air; and
    /// no late frame, since one clears the memo. So every node's apply
    /// would store the same estimate, push the same two errors, add the
    /// same tally entry, and leave its staleness counter and the estimate
    /// counts as they were on the capture tick: the memo's sums, and the
    /// per-node columns the pass owns already hold what the loop would
    /// write. The clock restamps exactly the stored estimates, because in
    /// a memo shard every record is one: a node with a record has a last
    /// receipt, so its filtered apply stored an estimate. Debug builds
    /// re-prove every hit from the brokers' records (`prove_memo_hit`).
    fn serve_memo_hits(&mut self, time_s: f64, recording: bool) {
        let tick = self.tick;
        let nodes = self.cols.len();
        let sp = self.sparse.as_deref_mut().expect("the sparse driver");
        let scratch = &mut self.scratch;
        #[cfg(test)]
        let fault = self.fault;
        // A recorded tick needs every node's flight sample and histogram
        // entries, so it evaluates every shard (which still keeps each
        // memo up to date).
        sp.hits.clear();
        for (shard, (memo, counts)) in sp.memo.iter().zip(&sp.counts).enumerate() {
            let len = shard_range(nodes, shard).len();
            // Ticks since the shard's last full evaluation: a shard with
            // no memo had one on the tick before, or lost its memo to a
            // late frame, which counted its gap (`SparseState::clear_memo`).
            let gap = memo.as_ref().map_or(1, |memo| tick - memo.at);
            let quiet = !recording && memo.is_some() && counts.quiet(len);
            if quiet && gap < STALENESS_REFRESH {
                sp.hits.push(shard);
            } else {
                if quiet {
                    // Its memo has expired: the expiry forces the
                    // evaluation.
                    sp.wake_refresh += len as u64;
                }
                sp.max_eval_gap = sp.max_eval_gap.max(gap);
                scratch.jobs.push(shard);
            }
        }
        let hit_views = select(
            self.monitors.shard_views(nodes, SHARD_SIZE),
            sp.hits.iter().copied(),
        );
        for (shard, baselines) in hit_views {
            let range = shard_range(nodes, shard);
            #[cfg(debug_assertions)]
            prove_memo_hit(
                sp,
                scratch,
                self.network.is_some().then_some(&scratch.link),
                self.cols.region_kinds(),
                (&self.broker_le, &self.broker_raw),
                shard,
            );
            self.broker_le.restamp_shard(SHARD_SIZE, shard, time_s);
            self.broker_raw.restamp_shard(SHARD_SIZE, shard, time_s);
            ShardCheck {
                late_accepted: &scratch.late_accepted[range.clone()],
                baselines,
                report: &mut scratch.checks[shard],
                #[cfg(test)]
                fault,
            }
            .run(
                tick,
                range.start,
                &scratch.fates[range.clone()],
                &mut scratch.sent_seq[range.clone()],
                &mut scratch.staleness[range.clone()],
            );
            sp.replayed_node_ticks += range.len() as u64;
        }
        sp.replayed_shard_ticks += sp.hits.len() as u64;
    }

    /// Tick telemetry, on a recorded tick: the merged location-error
    /// histograms, the counters mirroring [`TickStats`] plus the
    /// flow-conservation quantities, the gauges, the network's and the
    /// channel's own telemetry, and the staleness transition event.
    fn record_tick(&self, time_s: f64, flow: Flow, sums: &ShardSums, rec: &mut dyn Recorder) {
        let mut err_le = HistogramDelta::new(error_bucket_spec());
        let mut err_raw = HistogramDelta::new(error_bucket_spec());
        for r in &self.scratch.recording {
            err_le.merge(&r.err_le);
            err_raw.merge(&r.err_raw);
        }
        rec.histogram_merge("sim.err_with_le", &err_le);
        rec.histogram_merge("sim.err_without_le", &err_raw);

        let tally = &sums.tally;
        rec.counter_add("sim.ticks", 1);
        rec.counter_add("sim.observed", self.scratch.observations.len() as u64);
        rec.counter_add("sim.sent", u64::from(sums.sent));
        rec.counter_add("sim.retries", u64::from(flow.retries));
        rec.counter_add("sim.lost", u64::from(flow.lost));
        rec.counter_add("sim.late", u64::from(flow.late));
        rec.counter_add("sim.filter_sent", u64::from(flow.filter_sent));
        rec.counter_add("sim.suppressed", u64::from(flow.suppressed));
        rec.counter_add("sim.delivered", u64::from(flow.delivered));
        rec.counter_add("sim.deferred", u64::from(flow.deferred));
        rec.counter_add("sim.no_coverage", u64::from(flow.no_coverage));
        rec.counter_add("sim.road.sent", tally.road.sent);
        rec.counter_add("sim.road.observed", tally.road.observed);
        rec.counter_add("sim.building.sent", tally.building.sent);
        rec.counter_add("sim.building.observed", tally.building.observed);

        rec.gauge_set("sim.time_s", time_s);
        rec.gauge_set("sim.stale_nodes", f64::from(sums.stale));
        rec.gauge_set("sim.rmse_with_le", sums.all_le.value());
        rec.gauge_set("sim.rmse_without_le", sums.all_raw.value());
        rec.gauge_set("sim.road.rmse_with_le", sums.road_le.value());
        rec.gauge_set("sim.road.rmse_without_le", sums.road_raw.value());
        rec.gauge_set("sim.building.rmse_with_le", sums.bld_le.value());
        rec.gauge_set("sim.building.rmse_without_le", sums.bld_raw.value());

        let (le, raw) = (self.broker_le.counters(), self.broker_raw.counters());
        for (name, count) in [
            ("broker.le.received", le.received),
            ("broker.le.estimated", le.estimated),
            ("broker.le.lost", le.lost),
            ("broker.le.rejected", le.rejected),
            ("broker.raw.received", raw.received),
            ("broker.raw.estimated", raw.estimated),
            ("broker.raw.lost", raw.lost),
            ("broker.raw.rejected", raw.rejected),
        ] {
            rec.gauge_set(name, count as f64);
        }
        if let Some(net) = &self.network {
            net.record_telemetry(rec);
        }
        if let Some(ch) = &self.channel {
            ch.record_telemetry(rec);
        }
        if sums.stale != self.prev_stale {
            rec.event(EventKind::StalenessTransition {
                stale_nodes: sums.stale,
                previous: self.prev_stale,
            });
        }
    }

    /// The online invariant monitors — every tick, recording or not. The
    /// per-node laws already ran inside the shard pass
    /// ([`ShardCheck::run`]), each shard on its own chunk of the
    /// columns the apply phase wrote: every node gets exactly one apply
    /// call there, its `ApplyInfo` carries the with-LE staleness counter
    /// after the call, and nothing after it (the counter deltas included)
    /// touches staleness. What is left here is sequential and scalar:
    /// filter and channel conservation, and the apply pass's stale count
    /// against the sum of the shards' kernel counts.
    /// [`MonitorSet::finish_tick`] merges the violations in monitor
    /// order: filter, channel, every shard's seq violations in shard
    /// order, the stale-count violation, then every shard's staleness
    /// violations in shard order — the order of a whole-population check.
    fn check_monitors(&mut self, flow: Flow, stale: u32, recording: bool, rec: &mut dyn Recorder) {
        let scratch = &self.scratch;
        debug_assert!(
            scratch
                .staleness
                .iter()
                .enumerate()
                .all(|(i, s)| *s == self.broker_le.staleness(MnId::new(i as u32))),
            "phase-3 staleness disagrees with the broker"
        );
        let vitals = TickVitals {
            tick: self.tick,
            generated: scratch.observations.len() as u64,
            filter_sent: u64::from(flow.filter_sent),
            suppressed: u64::from(flow.suppressed),
            // Without a network a sent update reaches the broker
            // directly: one "frame" per send, all delivered.
            on_air: if self.network.is_some() {
                flow.on_air
            } else {
                u64::from(flow.filter_sent)
            },
            delivered: u64::from(flow.delivered),
            lost: u64::from(flow.lost),
            no_coverage: u64::from(flow.no_coverage),
            deferred: u64::from(flow.deferred),
            arrived_late: u64::from(flow.late),
            in_flight: self.channel.as_ref().map_or(0, |ch| ch.in_flight() as u64),
            stale_nodes: stale,
            ..TickVitals::default()
        };
        let found = self.monitors.finish_tick(&vitals, &scratch.checks);
        if !found.is_empty() {
            if recording {
                rec.counter_add("sim.invariant_violations", found.len() as u64);
                for v in found {
                    rec.event(EventKind::InvariantViolation {
                        monitor: v.monitor,
                        node: v.node.unwrap_or(u32::MAX),
                        expected: v.expected,
                        actual: v.actual,
                    });
                }
            }
            let room = VIOLATION_LOG_CAP.saturating_sub(self.violations.len());
            self.violations.extend(found.iter().take(room).copied());
        }
    }

    /// Applies one shard's decisions to both broker shards and accumulates
    /// the shard's tally and RMSE partials (plus, on a recorded tick, each
    /// node's flight sample and location-error histogram entries). Under
    /// the sparse driver it also captures the shard's replay memo, or
    /// clears it (see `MobileGridSim::serve_memo_hits`).
    fn run_shard(time_s: f64, mut job: ShardJob<'_>) -> ShardSums {
        let mut sums = ShardSums::default();
        // Sparse driver: whether every node so far took a filtered op
        // with an idle fate and static estimators on both brokers, the
        // condition for keeping this tick's sums as the shard's memo.
        let mut memo_ok = job.memo.is_some();
        for (i, (id, pos)) in job.observations.iter().enumerate() {
            let kind = job.kinds[i];
            let link = job.link.map(|link| link[i]);
            let node_op = NodeOp::of(job.decisions[i], link);
            let fate = node_op.fate(link);
            job.fates[i] = fate;
            // The pure filtered/idle path: nothing reaches the broker,
            // both slots just estimate.
            let idle_path = node_op == NodeOp::Filtered;
            let seq = match (job.link, node_op) {
                // No network: this phase owns the sequence counters, and
                // writes the used value back for the seq-monotonicity
                // monitor.
                (None, NodeOp::Update { .. }) => {
                    let seq = job.seqs[i];
                    job.seqs[i] = seq.wrapping_add(1);
                    job.sent_seqs[i] = seq;
                    seq
                }
                // With one, the routing phase already used and recorded it.
                _ => job.sent_seqs[i],
            };
            let op = node_op.record(*id, *pos, time_s, seq);
            // Node ids are dense, so the shard's `i`-th slot is `id`'s.
            debug_assert_eq!(id.index(), job.le.base() + i);
            let apply = job.le.apply_at(i, &op).expect("a node op is a broker op");
            job.raw.apply_at(i, &op).expect("a node op is a broker op");
            if node_op == (NodeOp::Update { duplicate: true }) {
                // The second copy is byte-identical; the broker rejects it
                // and counts the rejection.
                job.le.apply_at(i, &op);
                job.raw.apply_at(i, &op);
            }
            // Measure against ground truth via direct dense-slot reads.
            let err = |b: &BrokerShard<'_>| b.position_at(i).map_or(0.0, |p| p.distance_to(*pos));
            let (err_le, err_raw) = (err(&job.le), err(&job.raw));
            job.staleness[i] = apply.staleness;
            sums.measure(kind, !idle_path, apply.staleness, err_le, err_raw);
            if let Some(rec) = &mut job.rec {
                rec.push(id.raw(), apply, err_le, err_raw);
            }
            memo_ok = memo_ok
                && idle_path
                && fate == NodeFate::Idle
                && job.le.estimator_is_static(*id)
                && job.raw.estimator_is_static(*id);
        }
        job.check.run(
            job.tick,
            job.le.base(),
            job.fates,
            job.sent_seqs,
            job.staleness,
        );
        sums.le_delta = job.le.into_delta();
        sums.raw_delta = job.raw.into_delta();
        if let Some(memo) = job.memo {
            *memo = memo_ok.then_some(Memo { at: job.tick, sums });
        }
        sums
    }

    /// Runs `ticks` steps, collecting every tick's statistics.
    pub fn run(&mut self, ticks: u64) -> Vec<TickStats> {
        (0..ticks).map(|_| self.step()).collect()
    }

    /// Executes one tick like [`MobileGridSim::step`] and appends the
    /// tick's **broker operation stream** to `ops` — exactly the
    /// [`IngestRecord`]s both brokers applied, in order, terminated by an
    /// [`IngestRecord::TickEnd`] marker.
    ///
    /// Replaying the stream in order against a fresh broker running the
    /// same estimator with this sim's home anchors registered (or feeding
    /// it to the `mobigrid-broker-serve` ingest front-end) reproduces this
    /// sim's `broker_le` state **bit for bit** — compare with
    /// [`GridBroker::state_digest`]. The ordering contract that makes the
    /// sequential replay exact:
    ///
    /// 1. late (deferred) frames delivered this tick come first, in drain
    ///    order — they reach the brokers in phase 2b before any per-node
    ///    apply;
    /// 2. one record per node in node order (two for a channel
    ///    duplicate), derived by the same mapping the apply phase
    ///    applies — [`IngestRecord::Update`] for a sent or delivered
    ///    frame, [`IngestRecord::Lost`] for a transmitted-but-lost frame,
    ///    and [`IngestRecord::Filtered`] for everything the broker
    ///    estimates through (suppressed, idle, or out-of-coverage). The
    ///    shard-parallel apply phase touches disjoint per-node slots and
    ///    merges counter deltas in shard order, so the node-order
    ///    sequential replay is state-identical. A sparse memo hit is
    ///    bit-identical to applying `Filtered` to each of its nodes
    ///    (pinned by the dense/sparse equivalence suite and the tap-parity
    ///    test), so its nodes also map to `Filtered`;
    /// 3. the `TickEnd` marker.
    pub fn step_tapped(&mut self, ops: &mut Vec<IngestRecord>) -> TickStats {
        self.step_tapped_recorded(&mut NoopRecorder, ops)
    }

    /// Executes one tick like [`MobileGridSim::step_tapped`], streaming
    /// telemetry into `rec` (see [`MobileGridSim::step_recorded`] for what
    /// an enabled recorder captures). This is how a load generator records
    /// the *client-side* flight-recorder chain for the very op stream it
    /// ships to a broker service — the server's own trace then stitches
    /// against it by the shared `(node, seq)` identity.
    pub fn step_tapped_recorded(
        &mut self,
        rec: &mut dyn Recorder,
        ops: &mut Vec<IngestRecord>,
    ) -> TickStats {
        let stats = self.step_recorded(rec);
        let time_s = self.tick as f64 * DT;
        let scratch = &self.scratch;
        // Phase 2b applied these before anything else this tick. The
        // buffer still holds exactly this tick's drain (it is cleared at
        // the start of the next one, and stays empty without a channel).
        ops.extend(scratch.late_lus.iter().map(|lu| IngestRecord::Update(*lu)));
        // Both sequence paths leave the used value in `sent_seq`.
        let link = self.network.is_some().then_some(&scratch.link[..]);
        for (i, ((id, pos), decision)) in scratch
            .observations
            .iter()
            .zip(&scratch.decisions)
            .enumerate()
        {
            let node_op = NodeOp::of(*decision, link.map(|link| link[i]));
            let op = node_op.record(*id, *pos, time_s, scratch.sent_seq[i]);
            ops.push(op);
            if node_op == (NodeOp::Update { duplicate: true }) {
                ops.push(op);
            }
        }
        ops.push(IngestRecord::TickEnd {
            tick: self.tick,
            time_s,
        });
        stats
    }

    /// Runs `ticks` steps like [`MobileGridSim::run`], streaming telemetry
    /// into `rec` (see [`MobileGridSim::step_recorded`]).
    pub fn run_recorded(&mut self, ticks: u64, rec: &mut dyn Recorder) -> Vec<TickStats> {
        (0..ticks).map(|_| self.step_recorded(rec)).collect()
    }
}

/// Debug builds: re-proves node by node what the counts proved for memo
/// hit `shard` (see `MobileGridSim::serve_memo_hits`): every node's fate
/// is idle, the shard's fate and staleness columns are current, and the
/// shard's sums recomputed from both brokers' records against this tick's
/// observations (the six RMSE partials, the tally, the stale count and the
/// estimate counts) equal the memo's bit for bit.
#[cfg(debug_assertions)]
fn prove_memo_hit(
    sp: &SparseState,
    scratch: &TickScratch,
    link: Option<&[LinkOutcome]>,
    kinds: &[RegionKind],
    (le, raw): (&GridBroker, &GridBroker),
    shard: usize,
) {
    let mut sums = ShardSums::default();
    for i in shard_range(scratch.observations.len(), shard) {
        let (id, pos) = scratch.observations[i];
        let link = link.map(|link| link[i]);
        debug_assert!(
            NodeOp::of(scratch.decisions[i], link).fate(link) == NodeFate::Idle
                && scratch.fates[i] == NodeFate::Idle,
            "a memo shard's fates are all idle"
        );
        let staleness = le.staleness(id);
        debug_assert_eq!(
            scratch.staleness[i], staleness,
            "a memo shard's staleness column is current"
        );
        let (rec_le, rec_raw) = (le.location(id), raw.location(id));
        let err = |r: Option<crate::LocationRecord>| r.map_or(0.0, |r| r.position.distance_to(pos));
        sums.measure(kinds[i], false, staleness, err(rec_le), err(rec_raw));
        sums.le_delta.estimated += u64::from(rec_le.is_some());
        sums.raw_delta.estimated += u64::from(rec_raw.is_some());
    }
    let memo = sp.memo[shard].as_ref().expect("a memo hit keeps its memo");
    debug_assert!(
        sums == memo.sums,
        "shard {shard}'s memo no longer matches its nodes"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveDistanceFilter, AdfConfig, IdealPolicy};
    use mobigrid_campus::RegionId;
    use mobigrid_geo::{Point, Polyline};
    use mobigrid_mobility::{LoopMode, MobilityPattern, NodeType, PathFollower, StopModel};
    use mobigrid_telemetry::MonitorKind;
    use mobigrid_wireless::{FaultPlan, MnId};

    /// Default execution options plus the given fault plan.
    fn faulty(plan: FaultPlan, seed: u64) -> RuntimeOptions {
        RuntimeOptions {
            faults: Some(FaultSpec { plan, seed }),
            ..RuntimeOptions::default()
        }
    }

    fn walker(id: u32, speed: f64) -> MobileNode {
        let y = f64::from(id) * 50.0;
        let path = Polyline::new(vec![Point::new(0.0, y), Point::new(1000.0, y)]).unwrap();
        MobileNode::new(
            MnId::new(id),
            RegionId::from_index(6), // a road
            RegionKind::Road,
            NodeType::Human,
            MobilityPattern::Linear,
            PathFollower::new(path, speed, LoopMode::PingPong),
            u64::from(id),
        )
    }

    fn parked(id: u32) -> MobileNode {
        MobileNode::new(
            MnId::new(id),
            RegionId::from_index(0),
            RegionKind::Building,
            NodeType::Human,
            MobilityPattern::Stop,
            StopModel::new(Point::new(500.0, 500.0)),
            u64::from(id),
        )
    }

    #[test]
    fn ideal_policy_sends_every_node_every_tick() {
        let mut sim = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), parked(1)])
            .policy(IdealPolicy::new())
            .build()
            .unwrap();
        for _ in 0..10 {
            let s = sim.step();
            assert_eq!(s.sent, 2);
            assert_eq!(s.observed, 2);
            // Broker is always current: zero error.
            assert_eq!(s.rmse_without_le, 0.0);
            assert_eq!(s.rmse_with_le, 0.0);
        }
        assert_eq!(sim.cumulative_tally().total_sent(), 20);
    }

    #[test]
    fn sparse_driver_matches_dense_bit_for_bit() {
        let build = |driver: TickDriver| {
            SimBuilder::new()
                .nodes(vec![
                    walker(0, 1.5),
                    parked(1),
                    walker(2, 8.0),
                    parked(3),
                    parked(4),
                ])
                .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.25)).unwrap())
                .runtime(RuntimeOptions {
                    driver,
                    ..RuntimeOptions::default()
                })
                .build()
                .unwrap()
        };
        let mut dense = build(TickDriver::Dense);
        let mut sparse = build(TickDriver::Sparse);
        for t in 0..400 {
            let d = dense.step();
            let s = sparse.step();
            assert_eq!(d, s, "TickStats diverged at tick {t}");
            for i in 0..dense.node_count() {
                let (dp, sp) = (dense.node(i).position(), sparse.node(i).position());
                assert_eq!(
                    (dp.x.to_bits(), dp.y.to_bits()),
                    (sp.x.to_bits(), sp.y.to_bits()),
                    "node {i} position diverged at tick {t}"
                );
            }
        }
        assert!(dense.wake_stats().is_none());
        let wake = sparse.wake_stats().expect("sparse run reports wake stats");
        assert_eq!(wake.asleep, 3, "the three parked nodes sleep");
        assert!(wake.slept_node_ticks > 0);
        // The parked nodes share their one shard with the walkers, so it is
        // evaluated in full every tick: only a whole quiet shard replays.
        assert_eq!(wake.replayed_node_ticks, 0);
        assert!(
            wake.max_eval_gap <= STALENESS_REFRESH + 1,
            "eval gap {} exceeds the staleness window",
            wake.max_eval_gap
        );
    }

    /// Satellite regression for the unbounded-idle hazard: a
    /// zero-velocity node whose classifier settles on the RMS
    /// zero-fixpoint still gets staleness-refresh wakes under the sparse
    /// driver, so no node's estimation error can grow unobserved beyond
    /// the staleness window — `max_eval_gap` is the direct witness. The
    /// ticks are plain: a recorded tick evaluates every shard in full, so
    /// under recording no memo ever ages to the window.
    #[test]
    fn zero_velocity_nodes_still_get_staleness_refresh_wakes() {
        use mobigrid_geo::Rect;
        use mobigrid_mobility::RandomWalk;

        // Parked stops plus a zero-max-speed walker: quiescent forever by
        // two different routes, neither ever trips the distance filter.
        let frozen = || {
            let room = Rect::centered(Point::new(100.0, 100.0), 20.0, 20.0);
            MobileNode::new(
                MnId::new(3),
                RegionId::from_index(0),
                RegionKind::Building,
                NodeType::Human,
                MobilityPattern::Random,
                RandomWalk::new(room, room.center(), 0.0),
                3,
            )
        };
        let window = STALENESS_REFRESH;
        let mut sim = SimBuilder::new()
            .nodes(vec![parked(0), parked(1), parked(2), frozen()])
            .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.25)).unwrap())
            .runtime(RuntimeOptions {
                driver: TickDriver::Sparse,
                ..RuntimeOptions::default()
            })
            .build()
            .unwrap();
        for _ in 0..25 * window {
            sim.step();
        }
        let wake = sim.wake_stats().expect("sparse run reports wake stats");
        assert_eq!(wake.asleep, 4, "all four quiescent nodes sleep");
        assert!(wake.refresh_wakes > 0, "refresh wakes never fired");
        assert!(
            wake.max_eval_gap <= window + 1,
            "eval gap {} breached the {window}-tick staleness window",
            wake.max_eval_gap
        );
    }

    /// Filters every observation, except that every `period`-th tick it
    /// sends them all: a send from nodes that neither moved nor woke.
    struct Pulse {
        period: u64,
        tick: u64,
    }

    impl FilterPolicy for Pulse {
        fn process_tick(
            &mut self,
            _time_s: f64,
            observations: &[(MnId, Point)],
            decisions: &mut Vec<Decision>,
        ) {
            self.tick += 1;
            let decision = if self.tick.is_multiple_of(self.period) {
                Decision::Sent
            } else {
                Decision::Filtered
            };
            decisions.clear();
            decisions.resize(observations.len(), decision);
        }

        fn name(&self) -> &str {
            "pulse"
        }
    }

    #[test]
    fn memo_shards_see_sends_from_sleeping_nodes() {
        // Two whole shards of parked nodes fall quiet between pulses; a
        // pulse sends every node's unchanged position, and the memo's
        // proof must see it through its filter-send count.
        let sim = |driver| {
            SimBuilder::new()
                .nodes((0..2 * SHARD_SIZE as u32).map(parked).collect())
                .policy(Pulse {
                    period: 13,
                    tick: 0,
                })
                .runtime(RuntimeOptions {
                    driver,
                    ..RuntimeOptions::default()
                })
                .build()
                .unwrap()
        };
        let (mut dense, mut sparse) = (sim(TickDriver::Dense), sim(TickDriver::Sparse));
        for t in 1..=120 {
            assert_eq!(dense.step(), sparse.step(), "tick {t}");
            assert_eq!(
                dense.broker_with_le().state_digest(),
                sparse.broker_with_le().state_digest(),
                "tick {t}"
            );
        }
        let wake = sparse.wake_stats().expect("sparse run reports wake stats");
        assert!(wake.replayed_shard_ticks > 0, "no memo shard to break");
    }

    /// Two whole shards of parked nodes under the ADF, sparse driver.
    fn two_parked_shards() -> MobileGridSim {
        SimBuilder::new()
            .nodes((0..2 * SHARD_SIZE as u32).map(parked).collect())
            .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
            .runtime(RuntimeOptions {
                driver: TickDriver::Sparse,
                ..RuntimeOptions::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn refresh_rounds_reach_memo_shards() {
        // Two whole shards of parked nodes under plain ticks: each time a
        // shard's memo reaches the staleness window the shard re-evaluates
        // in full once, which captures its memo again, and is served from
        // it until the next expiry. The memo must not outlive the window.
        let window = STALENESS_REFRESH;
        let mut sim = two_parked_shards();
        let ticks = 25 * window;
        for _ in 0..ticks {
            sim.step();
        }
        let wake = sim.wake_stats().expect("sparse run reports wake stats");
        let rounds = ticks / window - 2;
        assert!(
            wake.refresh_wakes >= rounds * 2 * SHARD_SIZE as u64,
            "{} refresh wakes in {rounds}+ rounds",
            wake.refresh_wakes
        );
        assert!(wake.max_eval_gap <= window + 1);
        // Per round and shard: one full tick, then memo hits.
        assert!(
            wake.replayed_shard_ticks >= rounds * 2 * (window - 1),
            "{} memo shard-ticks",
            wake.replayed_shard_ticks
        );
    }

    /// The full evaluation a memo expiry forces captures the memo itself:
    /// the very next tick serves both shards from it, with no tick in
    /// between that rebuilds it.
    #[test]
    fn a_refresh_tick_captures_the_memo_it_serves_next() {
        let mut sim = two_parked_shards();
        let wake = |sim: &MobileGridSim| sim.wake_stats().expect("sparse run");
        let mut refreshed = false;
        for _ in 0..3 * STALENESS_REFRESH {
            let before = wake(&sim).refresh_wakes;
            sim.step();
            if wake(&sim).refresh_wakes > before {
                refreshed = true;
                break;
            }
        }
        assert!(refreshed, "no memo expired");
        assert_eq!(sim.scratch.jobs, [0, 1], "the expiry evaluates both shards");
        let hits = wake(&sim).replayed_shard_ticks;
        sim.step();
        assert_eq!(wake(&sim).replayed_shard_ticks, hits + 2);
        assert!(wake(&sim).max_eval_gap <= STALENESS_REFRESH);
    }

    #[test]
    fn adf_reduces_traffic_and_le_reduces_error() {
        let nodes = vec![walker(0, 1.5), walker(1, 1.6), walker(2, 8.0), parked(3)];
        let mut sim = SimBuilder::new()
            .nodes(nodes)
            .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.25)).unwrap())
            .build()
            .unwrap();
        let stats = sim.run(300);

        let total_sent: u64 = stats.iter().map(|s| u64::from(s.sent)).sum();
        let total_obs: u64 = stats.iter().map(|s| u64::from(s.observed)).sum();
        assert!(total_sent < total_obs, "no reduction at all");
        assert!(
            (total_sent as f64) < 0.9 * total_obs as f64,
            "reduction too weak: {total_sent}/{total_obs}"
        );

        // Post-warmup, LE error should beat the stale-last-position error
        // on average (the walkers move predictably).
        let tail = &stats[30..];
        let mean_le: f64 = tail.iter().map(|s| s.rmse_with_le).sum::<f64>() / tail.len() as f64;
        let mean_raw: f64 = tail.iter().map(|s| s.rmse_without_le).sum::<f64>() / tail.len() as f64;
        assert!(
            mean_le < mean_raw,
            "LE did not help: with={mean_le} without={mean_raw}"
        );
    }

    #[test]
    fn accounting_conserves_observations() {
        let mut sim = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), parked(1), walker(2, 5.0)])
            .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
            .build()
            .unwrap();
        let stats = sim.run(100);
        for s in &stats {
            assert_eq!(
                s.region.total_observed(),
                u64::from(s.observed),
                "per-kind tallies must cover every observation"
            );
        }
        let tally = sim.cumulative_tally();
        assert_eq!(tally.total_observed(), 300);
        let total_sent: u64 = stats.iter().map(|s| u64::from(s.sent)).sum();
        assert_eq!(tally.total_sent(), total_sent);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        // No policy.
        assert!(SimBuilder::new().build().is_err());
        // No nodes.
        assert!(SimBuilder::new()
            .policy(IdealPolicy::new())
            .build()
            .is_err());
        // Non-dense ids.
        let err = SimBuilder::new()
            .nodes(vec![walker(5, 1.0)])
            .policy(IdealPolicy::new())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("dense"));
        // RuntimeOptions pass through validation unclamped.
        let err = SimBuilder::new()
            .nodes(vec![walker(0, 1.0)])
            .policy(IdealPolicy::new())
            .runtime(RuntimeOptions {
                threads: 0,
                ..RuntimeOptions::default()
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("threads"), "got: {err}");
    }

    #[test]
    fn network_accounting_matches_sent_updates() {
        use mobigrid_wireless::{AccessNetwork, Gateway, GatewayKind};
        let net = AccessNetwork::new(vec![Gateway::new(
            0,
            GatewayKind::BaseStation,
            Point::new(500.0, 250.0),
            10_000.0,
        )]);
        let mut sim = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), parked(1)])
            .policy(IdealPolicy::new())
            .network(net)
            .build()
            .unwrap();
        sim.run(50);
        let meter = sim.network().unwrap().meter();
        assert_eq!(meter.messages(), 100);
        assert_eq!(meter.bytes(), 100 * LocationUpdate::WIRE_SIZE as u64);
    }

    /// Satellite regression for the RMSE phase's direct dense-slot reads:
    /// a rand-free workload whose broker error is computable in closed
    /// form, pinned tick by tick. One walker at 2 m/s and one parked node
    /// under a general DF with factor 4: after the first tick the global
    /// DTH settles at `4.0 * mean(2.0, 0.0) = 4.0 m`, permanently above
    /// the walker's 2 m/tick displacement, so nothing transmits again and
    /// the raw broker error grows by exactly 2 m per tick.
    #[test]
    fn rmse_phase_matches_closed_form_on_deterministic_workload() {
        use crate::GeneralDistanceFilter;
        let mut sim = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), parked(1)])
            .policy(GeneralDistanceFilter::new(4.0, 0))
            .build()
            .unwrap();

        let first = sim.step();
        assert_eq!(first.sent, 2, "first observations always transmit");
        assert_eq!(first.rmse_without_le, 0.0);
        assert_eq!(first.rmse_with_le, 0.0);

        for tick in 2..=20u32 {
            let s = sim.step();
            assert_eq!(s.sent, 0, "tick {tick}: DTH must filter both nodes");
            // Walker error: transmitted at x=2, now at x=2*tick; parked
            // node error stays zero. Mirror the accumulator's operation
            // order exactly (square, mean over 2 nodes, root).
            let d = 2.0 * f64::from(tick - 1);
            let expected = (d * d / 2.0).sqrt();
            assert_eq!(
                s.rmse_without_le, expected,
                "tick {tick}: raw RMSE must read the last transmitted slot"
            );
            assert!(
                s.rmse_with_le.is_finite() && s.rmse_with_le >= 0.0,
                "tick {tick}: estimated RMSE must be a valid distance"
            );
        }
    }

    fn wide_net() -> mobigrid_wireless::AccessNetwork {
        use mobigrid_wireless::{AccessNetwork, Gateway, GatewayKind};
        AccessNetwork::new(vec![Gateway::new(
            0,
            GatewayKind::BaseStation,
            Point::new(500.0, 250.0),
            10_000.0,
        )])
    }

    #[test]
    fn faults_require_a_network() {
        let err = SimBuilder::new()
            .nodes(vec![walker(0, 2.0)])
            .policy(IdealPolicy::new())
            .runtime(faulty(FaultPlan::lossless(), 9))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("network"), "got: {err}");
    }

    #[test]
    fn lossless_channel_is_invisible() {
        let build = |fault: bool| {
            let b = SimBuilder::new()
                .nodes(vec![walker(0, 2.0), walker(1, 3.0), parked(2)])
                .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
                .network(wide_net());
            if fault {
                b.runtime(faulty(FaultPlan::lossless(), 1234))
            } else {
                b
            }
            .build()
            .unwrap()
        };
        let plain = build(false).run(120);
        let channeled = build(true).run(120);
        assert_eq!(plain, channeled, "a lossless channel changed the results");
        for s in &plain {
            assert_eq!((s.retries, s.lost, s.late, s.stale_nodes), (0, 0, 0, 0));
        }
    }

    #[test]
    fn drops_degrade_and_retries_fire() {
        use mobigrid_wireless::RetryPolicy;
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::lossless()
        };
        let nodes = vec![
            walker(0, 2.0).with_retry_policy(RetryPolicy::default()),
            parked(1).with_retry_policy(RetryPolicy::default()),
        ];
        let mut sim = SimBuilder::new()
            .nodes(nodes)
            .policy(IdealPolicy::new())
            .network(wide_net())
            .runtime(faulty(plan, 7))
            .build()
            .unwrap();
        let stats = sim.run(30);

        let total_sent: u64 = stats.iter().map(|s| u64::from(s.sent)).sum();
        let total_lost: u64 = stats.iter().map(|s| u64::from(s.lost)).sum();
        let total_retries: u64 = stats.iter().map(|s| u64::from(s.retries)).sum();
        // Every frame that reached the air was lost.
        assert_eq!(total_sent, total_lost);
        // The ideal policy sends every tick, so retransmissions stack on
        // top of the per-tick sends.
        assert!(total_retries > 0, "retry policy never fired");
        assert_eq!(
            sim.network().unwrap().meter().messages(),
            total_sent,
            "the meter must count every frame on the air, lost or not"
        );
        // Both nodes have been silent the whole run: permanently stale.
        assert_eq!(stats.last().unwrap().stale_nodes, 2);
        assert_eq!(sim.broker_with_le().received_count(), 0);
        assert_eq!(
            sim.broker_with_le().lost_count(),
            sim.broker_without_le().lost_count()
        );
        assert_eq!(sim.fault_channel().unwrap().stats().dropped, total_sent);
    }

    #[test]
    fn deferred_frames_arrive_late() {
        let plan = FaultPlan {
            delay_rate: 1.0,
            max_delay_ticks: 3,
            ..FaultPlan::lossless()
        };
        let mut sim = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), parked(1)])
            .policy(IdealPolicy::new())
            .network(wide_net())
            .runtime(faulty(plan, 21))
            .build()
            .unwrap();
        let stats = sim.run(40);
        let total_lost: u64 = stats.iter().map(|s| u64::from(s.lost)).sum();
        let total_late: u64 = stats.iter().map(|s| u64::from(s.late)).sum();
        assert!(total_late > 0, "no deferred frame ever came due");
        // Every loss was a deferral; all but the still-in-flight tail
        // arrived late.
        let in_flight = sim.fault_channel().unwrap().in_flight() as u64;
        assert_eq!(total_late + in_flight, total_lost);
        // Late frames carry older timestamps; the broker accepts the ones
        // still in order and rejects the rest — it never goes backwards.
        assert!(sim.broker_with_le().received_count() > 0);
    }

    /// The op-stream tap contract: replaying `step_tapped`'s records
    /// sequentially into fresh replica brokers — and through the sharded
    /// concurrent store — reproduces both live brokers (with and without
    /// the location estimator) bit for bit, every tick. Covered: both
    /// tick drivers (the sparse one's memo hits included), the
    /// no-network branch, and a faulty network that drops, delays,
    /// duplicates and corrupts frames (every apply path exercised).
    #[test]
    fn tapped_op_stream_replays_bit_identically() {
        use crate::BrokerStore;
        let plan = FaultPlan {
            drop_rate: 0.2,
            corrupt_rate: 0.1,
            delay_rate: 0.2,
            max_delay_ticks: 3,
            duplicate_rate: 0.2,
            ..FaultPlan::lossless()
        };
        // Replicas of one live broker: a sequential broker and a 4-shard
        // store, both with the sim's home anchors registered.
        let replicas = |sim: &MobileGridSim, kind: EstimatorKind| {
            let mut broker = GridBroker::new(kind).unwrap();
            broker.ensure_nodes(sim.node_count());
            let store = BrokerStore::new(kind, sim.node_count(), 4).unwrap();
            for (i, anchor) in sim.columns().home_anchors().iter().enumerate() {
                if let Some(anchor) = anchor {
                    broker.set_home_anchor(MnId::new(i as u32), *anchor);
                    store.set_home_anchor(MnId::new(i as u32), *anchor);
                }
            }
            (broker, store)
        };
        for driver in [TickDriver::Dense, TickDriver::Sparse] {
            for faulty in [false, true] {
                let case = format!("{driver:?}, faulty network: {faulty}");
                // Nodes 64..128 are a whole shard of parked nodes, which the
                // sparse driver serves from its replay memo.
                let nodes = (0..40)
                    .map(|i| walker(i, 1.0 + f64::from(i % 5)))
                    .chain((40..128).map(parked))
                    .collect();
                let mut builder = SimBuilder::new()
                    .nodes(nodes)
                    .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
                    .runtime(RuntimeOptions {
                        driver,
                        faults: faulty.then(|| FaultSpec {
                            plan: plan.clone(),
                            seed: 11,
                        }),
                        ..RuntimeOptions::default()
                    });
                if faulty {
                    builder = builder.network(wide_net());
                }
                let mut sim = builder.build().unwrap();
                let (mut le, le_store) = replicas(&sim, sim.broker_with_le().estimator_kind());
                let (mut raw, raw_store) = replicas(&sim, EstimatorKind::WithoutLe);
                let mut ops = Vec::new();
                for tick in 1..=60u64 {
                    ops.clear();
                    sim.step_tapped(&mut ops);
                    assert!(
                        matches!(ops.last(), Some(IngestRecord::TickEnd { tick: t, .. }) if *t == tick),
                        "{case}, tick {tick}: stream must end with its TickEnd marker"
                    );
                    for op in &ops {
                        le.apply(op);
                        raw.apply(op);
                    }
                    le_store.apply_batch(&ops);
                    raw_store.apply_batch(&ops);
                    let live = (
                        sim.broker_with_le().state_digest(),
                        sim.broker_without_le().state_digest(),
                    );
                    assert_eq!(
                        (le.state_digest(), raw.state_digest()),
                        live,
                        "{case}, tick {tick}: sequential replay diverged from the live brokers"
                    );
                    assert_eq!(
                        (le_store.state_digest(), raw_store.state_digest()),
                        live,
                        "{case}, tick {tick}: sharded store diverged from the live brokers"
                    );
                }
                if faulty {
                    let b = sim.broker_with_le();
                    assert!(
                        b.lost_count() > 0 && b.rejected_count() > 0,
                        "{case}: fault plan failed to exercise the lost and duplicate paths"
                    );
                }
                if driver == TickDriver::Sparse {
                    let wake = sim.wake_stats().expect("sparse run reports wake stats");
                    assert!(
                        wake.replayed_node_ticks > 0,
                        "{case}: the replay memo never served a shard"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicates_are_rejected_not_double_counted() {
        let plan = FaultPlan {
            duplicate_rate: 1.0,
            ..FaultPlan::lossless()
        };
        let mut sim = SimBuilder::new()
            .nodes(vec![walker(0, 2.0)])
            .policy(IdealPolicy::new())
            .network(wide_net())
            .runtime(faulty(plan, 3))
            .build()
            .unwrap();
        let stats = sim.run(20);
        let total_sent: u64 = stats.iter().map(|s| u64::from(s.sent)).sum();
        assert_eq!(total_sent, 20, "duplicates must not inflate sent");
        // Each tick delivered one original (accepted) and one copy
        // (rejected by the broker's dedup).
        assert_eq!(sim.broker_with_le().received_count(), 20);
        assert_eq!(sim.broker_with_le().rejected_count(), 20);
        assert_eq!(sim.fault_channel().unwrap().stats().duplicated, 20);
    }

    /// The fault stream must be as scheduling-blind as the rest of the
    /// pipeline: a faulty 150-node run produces bit-identical tick
    /// statistics on one worker thread and on four.
    #[test]
    fn thread_count_does_not_change_faulty_tick_stats() {
        use mobigrid_wireless::RetryPolicy;
        let plan = FaultPlan {
            drop_rate: 0.15,
            corrupt_rate: 0.05,
            delay_rate: 0.1,
            max_delay_ticks: 4,
            duplicate_rate: 0.05,
            flaps: Vec::new(),
        };
        let build = |threads: usize| {
            let nodes: Vec<MobileNode> = (0..150u32)
                .map(|i| {
                    let n = if i % 4 == 3 {
                        parked(i)
                    } else {
                        walker(i, 1.0 + f64::from(i % 7))
                    };
                    n.with_retry_policy(RetryPolicy::default())
                })
                .collect();
            SimBuilder::new()
                .nodes(nodes)
                .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
                .network(wide_net())
                .runtime(RuntimeOptions {
                    threads,
                    ..faulty(plan.clone(), 99)
                })
                .build()
                .unwrap()
        };
        let a = build(1).run(100);
        let b = build(4).run(100);
        assert_eq!(a, b, "thread count leaked into the fault stream");
        let faults: u64 = a
            .iter()
            .map(|s| u64::from(s.lost) + u64::from(s.late) + u64::from(s.retries))
            .sum();
        assert!(faults > 0, "the fault plan injected nothing");
    }

    /// A recorded run must mirror [`TickStats`] exactly, and the recorded
    /// telemetry — counters, histograms, events — must be bit-identical at
    /// every thread count, same as the stats themselves.
    #[test]
    fn recorded_telemetry_matches_tick_stats_and_thread_count() {
        use mobigrid_telemetry::MemoryRecorder;
        let build = |threads: usize| {
            let nodes: Vec<MobileNode> = (0..150u32)
                .map(|i| {
                    if i % 4 == 3 {
                        parked(i)
                    } else {
                        walker(i, 1.0 + f64::from(i % 7))
                    }
                })
                .collect();
            SimBuilder::new()
                .nodes(nodes)
                .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
                .network(wide_net())
                .runtime(RuntimeOptions {
                    threads,
                    ..RuntimeOptions::default()
                })
                .build()
                .unwrap()
        };
        let mut exports = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut sim = build(threads);
            let mut rec = MemoryRecorder::new();
            let stats = sim.run_recorded(60, &mut rec);
            let sent: u64 = stats.iter().map(|s| u64::from(s.sent)).sum();
            let observed: u64 = stats.iter().map(|s| u64::from(s.observed)).sum();
            assert_eq!(rec.counter("sim.ticks"), 60);
            assert_eq!(rec.counter("sim.sent"), sent);
            assert_eq!(rec.counter("sim.observed"), observed);
            assert_eq!(
                rec.counter("sim.road.sent") + rec.counter("sim.building.sent"),
                sent
            );
            let hist = rec
                .histogram("sim.err_with_le")
                .expect("histogram recorded");
            assert_eq!(hist.count(), observed, "one error sample per observation");
            assert!(
                rec.events().count() > 0,
                "filter decisions must be recorded"
            );
            exports.push(rec.to_jsonl());
        }
        assert_eq!(exports[0], exports[1], "2 threads changed the telemetry");
        assert_eq!(exports[0], exports[2], "4 threads changed the telemetry");
    }

    /// The online invariant battery must stay silent across every
    /// configuration the pipeline supports: no network, a clean network,
    /// and a faulty channel with retries, deferrals and duplicates.
    #[test]
    fn invariant_monitors_stay_clean_across_configurations() {
        use mobigrid_wireless::RetryPolicy;
        // No network.
        let mut plain = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), walker(1, 5.0), parked(2)])
            .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
            .build()
            .unwrap();
        plain.run(200);
        assert_eq!(plain.invariant_violations(), &[], "no-network run");

        // Clean network.
        let mut clean = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), parked(1)])
            .policy(IdealPolicy::new())
            .network(wide_net())
            .build()
            .unwrap();
        clean.run(200);
        assert_eq!(clean.invariant_violations(), &[], "clean-network run");

        // Every fault class at once, with retries.
        let plan = FaultPlan {
            drop_rate: 0.2,
            corrupt_rate: 0.05,
            delay_rate: 0.15,
            max_delay_ticks: 4,
            duplicate_rate: 0.1,
            flaps: Vec::new(),
        };
        let nodes: Vec<MobileNode> = (0..70u32)
            .map(|i| {
                let n = if i % 3 == 2 {
                    parked(i)
                } else {
                    walker(i, 1.0 + f64::from(i % 5))
                };
                n.with_retry_policy(RetryPolicy::default())
            })
            .collect();
        let mut faulty = SimBuilder::new()
            .nodes(nodes)
            .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
            .network(wide_net())
            .runtime(RuntimeOptions {
                threads: 2,
                ..faulty(plan, 42)
            })
            .build()
            .unwrap();
        let stats = faulty.run(150);
        let faults: u64 = stats
            .iter()
            .map(|s| u64::from(s.lost) + u64::from(s.late) + u64::from(s.retries))
            .sum();
        assert!(faults > 0, "the fault plan injected nothing");
        assert_eq!(faulty.invariant_violations(), &[], "faulty run");
    }

    /// Filters every node, except that the second shard's nodes send
    /// while `time_s` is below 6: shard 0 of a parked population captures
    /// its memo on tick 1, shard 1 on tick 6, when shard 0 is already a
    /// memo hit. Each memo ages from its own capture, so the first shard's
    /// memo expires on ticks 33, 65 and 97 and the second's on 38 and 70.
    #[test]
    fn each_memo_expires_by_its_own_age() {
        struct SendEarly;

        impl FilterPolicy for SendEarly {
            fn process_tick(
                &mut self,
                time_s: f64,
                observations: &[(MnId, Point)],
                decisions: &mut Vec<Decision>,
            ) {
                decisions.clear();
                decisions.extend((0..observations.len()).map(|i| {
                    match i >= SHARD_SIZE && time_s < 6.0 {
                        true => Decision::Sent,
                        false => Decision::Filtered,
                    }
                }));
            }

            fn name(&self) -> &str {
                "send-early"
            }
        }

        let nodes = (0..2 * SHARD_SIZE as u32).map(parked).collect();
        let mut sim = SimBuilder::new()
            .nodes(nodes)
            .policy(SendEarly)
            .runtime(RuntimeOptions {
                driver: TickDriver::Sparse,
                ..RuntimeOptions::default()
            })
            .build()
            .unwrap();
        for tick in 1..=100 {
            sim.step();
            if tick == 6 {
                let sp = sim.sparse.as_ref().expect("sparse run");
                assert_eq!((&sp.hits[..], &sim.scratch.jobs[..]), (&[0][..], &[1][..]));
            }
        }
        let wake = sim.wake_stats().expect("sparse run reports wake stats");
        assert_eq!(wake.refresh_wakes, 5 * SHARD_SIZE as u64);
        assert!(wake.max_eval_gap <= STALENESS_REFRESH + 1);
    }

    /// Sends every node outside `parked`, every tick; filters the rest.
    struct SendMovers {
        parked: std::ops::Range<usize>,
    }

    impl FilterPolicy for SendMovers {
        fn process_tick(
            &mut self,
            _time_s: f64,
            observations: &[(MnId, Point)],
            decisions: &mut Vec<Decision>,
        ) {
            decisions.clear();
            decisions.extend(
                (0..observations.len()).map(|i| match self.parked.contains(&i) {
                    true => Decision::Filtered,
                    false => Decision::Sent,
                }),
            );
        }

        fn name(&self) -> &str {
            "send-movers"
        }
    }

    /// Runs `nodes` nodes, those in `parked_ids` parked and the rest walkers
    /// that send every tick, for `T + 1` ticks under both drivers at 1 and
    /// 2 threads, with the monitor fault hook handing the monitors
    /// `staleness_node`'s staleness and `seq_node`'s sent seq off by 7 on
    /// tick `T` and putting both back after the check. The baselines keep
    /// the faulty values, so tick `T + 1` flags both nodes again. Under the
    /// sparse driver the parked shard `hit` is a memo hit on tick `T`.
    /// Every run must report exactly the violations of a whole-population
    /// check, in its order.
    fn monitors_report_in_population_order(
        nodes: u32,
        parked_ids: std::ops::Range<u32>,
        hit: usize,
        staleness_node: usize,
        seq_node: u32,
    ) {
        const T: u64 = 20;
        let off = i64::from(MonitorFault::OFFSET);
        for driver in [TickDriver::Dense, TickDriver::Sparse] {
            for threads in [1, 2] {
                let population = (0..nodes)
                    .map(|i| match parked_ids.contains(&i) {
                        true => parked(i),
                        false => walker(i, 2.0),
                    })
                    .collect();
                let mut sim = SimBuilder::new()
                    .nodes(population)
                    .policy(SendMovers {
                        parked: parked_ids.start as usize..parked_ids.end as usize,
                    })
                    .runtime(RuntimeOptions {
                        driver,
                        threads,
                        ..RuntimeOptions::default()
                    })
                    .build()
                    .unwrap();
                sim.fault = Some(MonitorFault {
                    tick: T,
                    staleness_node,
                    seq_node: seq_node as usize,
                });
                for tick in 1..=T + 1 {
                    sim.step();
                    if tick == T {
                        if let Some(sp) = &sim.sparse {
                            assert_eq!(sp.hits, [hit], "shard {hit} is the one memo hit");
                        }
                    }
                }
                // The seq node has sent once a tick: `T - 1` seqs before `T`.
                let seq = (T - 1) as i64;
                let found: Vec<_> = sim
                    .invariant_violations()
                    .iter()
                    .map(|v| (v.tick, v.monitor, v.node, v.expected, v.actual))
                    .collect();
                let (seqs, stale) = (
                    MonitorKind::SeqMonotonicity,
                    MonitorKind::StalenessConsistency,
                );
                let stale_node = Some(staleness_node as u32);
                let expected = vec![
                    (T, seqs, Some(seq_node), seq, seq + off),
                    (T, stale, None, 1, 0),
                    (T, stale, stale_node, 0, off),
                    (T + 1, seqs, Some(seq_node), seq + off + 1, seq + 1),
                    (T + 1, stale, stale_node, off, 0),
                ];
                assert_eq!(found, expected, "{driver:?} driver, {threads} threads");
            }
        }
    }

    /// The per-node monitors run inside the shard pass, memo hits
    /// included, and their violations merge in the order of a
    /// whole-population check: one parked shard falls quiet (the memo
    /// hit) before two shards of walkers that send every tick, and the
    /// fault lands in the hit shard's staleness and a walker's seq.
    #[test]
    fn shard_pass_monitors_report_in_population_order() {
        let shard = SHARD_SIZE as u32;
        monitors_report_in_population_order(3 * shard, 0..shard, 0, 5, 130);
    }

    /// The same with the memo hit last: two shards of walkers, then a
    /// ragged last shard of 40 parked nodes, which the sparse driver must
    /// prove quiet against its real length. The staleness fault lands in
    /// the ragged hit, the seq fault in the first walker shard.
    #[test]
    fn a_ragged_parked_last_shard_is_a_memo_hit_and_still_monitored() {
        let shard = SHARD_SIZE as u32;
        monitors_report_in_population_order(2 * shard + 40, 2 * shard..2 * shard + 40, 2, 150, 10);
    }

    /// A recorded tick must link every update's lifecycle through its
    /// stable `(node, generation-tick)` identity: generated → decision →
    /// channel fate → broker apply → error sample.
    #[test]
    fn flight_recorder_links_the_causal_chain() {
        use mobigrid_telemetry::MemoryRecorder;
        let mut sim = SimBuilder::new()
            .nodes(vec![walker(0, 2.0), parked(1)])
            .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
            .network(wide_net())
            .build()
            .unwrap();
        let mut rec = MemoryRecorder::with_capacity(4096, 65_536);
        sim.run_recorded(5, &mut rec);

        for node in 0..2u32 {
            for tick in 1..=5u32 {
                let mut generated = 0;
                let mut decisions = 0;
                let mut sent = false;
                let mut channel = 0;
                let mut applies = 0;
                let mut errors = 0;
                for e in rec.events() {
                    match e.kind {
                        EventKind::LuGenerated { node: n, seq, .. } if n == node && seq == tick => {
                            generated += 1;
                        }
                        EventKind::LuDecision {
                            node: n,
                            seq,
                            sent: s,
                            ..
                        } if n == node && seq == tick => {
                            decisions += 1;
                            sent = s;
                        }
                        EventKind::LuChannel { node: n, seq, .. } if n == node && seq == tick => {
                            channel += 1;
                        }
                        EventKind::LuApply { node: n, seq, .. } if n == node && seq == tick => {
                            applies += 1;
                        }
                        EventKind::LuError { node: n, seq, .. } if n == node && seq == tick => {
                            errors += 1;
                        }
                        _ => {}
                    }
                }
                assert_eq!(generated, 1, "node {node} tick {tick}: one generation");
                assert_eq!(decisions, 1, "node {node} tick {tick}: one decision");
                assert_eq!(
                    channel,
                    usize::from(sent),
                    "node {node} tick {tick}: sent updates get a channel fate"
                );
                assert_eq!(applies, 1, "node {node} tick {tick}: one broker apply");
                assert_eq!(errors, 1, "node {node} tick {tick}: one error sample");
            }
        }
        // The adaptive policy classifies, so classification events exist.
        assert!(
            rec.events()
                .any(|e| matches!(e.kind, EventKind::LuClassified { .. })),
            "ADF must emit classification events"
        );
        // Transmitted wire seqs advance by one per frame on the air.
        let mut seqs = Vec::new();
        for e in rec.events() {
            if let EventKind::LuChannel {
                node: 0, wire_seq, ..
            } = e.kind
            {
                seqs.push(wire_seq);
            }
        }
        for w in seqs.windows(2) {
            assert_eq!(w[1], w[0] + 1, "wire seqs must be gapless: {seqs:?}");
        }
    }

    /// The sharded executor must be invisible in the results: a 150-node
    /// population (three shards) produces bit-identical tick statistics on
    /// one worker thread and on four.
    #[test]
    fn thread_count_does_not_change_tick_stats() {
        let build = |threads: usize| {
            let nodes: Vec<MobileNode> = (0..150u32)
                .map(|i| {
                    if i % 4 == 3 {
                        parked(i)
                    } else {
                        walker(i, 1.0 + f64::from(i % 7))
                    }
                })
                .collect();
            SimBuilder::new()
                .nodes(nodes)
                .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).unwrap())
                .runtime(RuntimeOptions {
                    threads,
                    ..RuntimeOptions::default()
                })
                .build()
                .unwrap()
        };
        let mut serial = build(1);
        let mut parallel = build(4);
        assert_eq!(serial.threads(), 1);
        assert_eq!(parallel.threads(), 4);
        let a = serial.run(100);
        let b = parallel.run(100);
        assert_eq!(a, b, "thread count leaked into the simulation results");
    }
}
