use mobigrid_forecast::{
    AxisSmoothing, BrownPositionEstimator, DeadReckoning, HoltLinear, KalmanCv,
};
use mobigrid_geo::Point;
use mobigrid_sim::par::select;
use mobigrid_telemetry::ApplyOutcome;
use mobigrid_wireless::{IngestRecord, MnId};

/// Which location estimator the broker runs for filtered nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum EstimatorKind {
    /// No estimation: the broker keeps the last received location (the
    /// paper's "without LE" arm).
    WithoutLe,
    /// Brown's double exponential smoothing over speed and direction — the
    /// paper's estimator (§3.3).
    Brown {
        /// Smoothing factor in `(0, 1)`.
        alpha: f64,
    },
    /// Holt's linear method applied per coordinate axis (ablation).
    HoltAxes {
        /// Level smoothing factor in `(0, 1]`.
        alpha: f64,
        /// Trend smoothing factor in `(0, 1]`.
        beta: f64,
    },
    /// Dead reckoning from the last two received updates (ablation).
    DeadReckoning,
    /// A constant-velocity Kalman filter (ablation): optimal for genuinely
    /// constant-velocity motion with Gaussian noise, but extrapolates
    /// unboundedly through silences.
    KalmanCv {
        /// Process (acceleration) noise in m/s².
        accel_sigma: f64,
        /// Measurement noise in metres.
        measurement_sigma: f64,
    },
}

impl Default for EstimatorKind {
    /// The paper's estimator: Brown's double exponential smoothing with
    /// α = 0.5.
    fn default() -> Self {
        EstimatorKind::Brown { alpha: 0.5 }
    }
}

impl EstimatorKind {
    /// A fresh estimator for a node first heard from; `None` for
    /// [`EstimatorKind::WithoutLe`], whose slots hold their last receipt
    /// instead.
    fn build(self) -> Option<Box<Estimator>> {
        let estimator = match self {
            EstimatorKind::WithoutLe => return None,
            EstimatorKind::Brown { alpha } => Estimator::Brown(
                BrownPositionEstimator::new(alpha).expect("validated smoothing factor"),
            ),
            EstimatorKind::HoltAxes { alpha, beta } => {
                let make = || HoltLinear::new(alpha, beta).expect("validated smoothing factors");
                Estimator::HoltAxes(AxisSmoothing::new(make(), make(), 1.0))
            }
            EstimatorKind::DeadReckoning => Estimator::DeadReckoning(DeadReckoning::new()),
            EstimatorKind::KalmanCv {
                accel_sigma,
                measurement_sigma,
            } => Estimator::KalmanCv(
                KalmanCv::new(accel_sigma, measurement_sigma).expect("validated sigmas"),
            ),
        };
        Some(Box::new(estimator))
    }

    /// Validates the embedded parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the invalid parameter.
    pub fn validate(self) -> Result<(), String> {
        match self {
            EstimatorKind::Brown { alpha }
                if (alpha <= 0.0 || alpha >= 1.0 || !alpha.is_finite()) =>
            {
                return Err(format!("brown alpha must be in (0,1), got {alpha}"));
            }
            EstimatorKind::HoltAxes { alpha, beta } => {
                for v in [alpha, beta] {
                    if v <= 0.0 || v > 1.0 || !v.is_finite() {
                        return Err(format!("holt factors must be in (0,1], got {v}"));
                    }
                }
            }
            EstimatorKind::KalmanCv {
                accel_sigma,
                measurement_sigma,
            } => {
                for v in [accel_sigma, measurement_sigma] {
                    if v <= 0.0 || !v.is_finite() {
                        return Err(format!("kalman sigmas must be positive, got {v}"));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// One node's location estimator, for every [`EstimatorKind`] but
/// [`EstimatorKind::WithoutLe`]. A slot holds it boxed: inline, every slot
/// of both brokers would pay for the largest variant (Brown's), while the
/// without-LE broker needs no estimator at all.
enum Estimator {
    Brown(BrownPositionEstimator),
    HoltAxes(AxisSmoothing<HoltLinear>),
    DeadReckoning(DeadReckoning),
    KalmanCv(KalmanCv),
}

impl Estimator {
    fn observe(&mut self, time_s: f64, position: Point) {
        match self {
            Estimator::Brown(e) => e.observe(time_s, position),
            Estimator::HoltAxes(e) => e.observe(time_s, position),
            Estimator::DeadReckoning(e) => e.observe(time_s, position),
            Estimator::KalmanCv(e) => e.observe(time_s, position),
        }
    }
}

/// What the broker currently believes about one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationRecord {
    /// The believed position.
    pub position: Point,
    /// When the belief was formed (receipt or estimation time).
    pub time_s: f64,
    /// `true` when the position came from the location estimator rather
    /// than a received update.
    pub estimated: bool,
}

/// How many consecutive losses it takes to halve the broker's trust in
/// pure extrapolation (see [`NodeSlot::apply`]).
const STALENESS_TRUST_WINDOW: f64 = 8.0;

/// The last update actually received from a node — the dedup/ordering key
/// and the degradation anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LastRx {
    time_s: f64,
    seq: u32,
    position: Point,
}

/// What one broker apply call did, for the flight recorder: the typed
/// outcome, the node's staleness counter after the call, and the
/// trust-window blend weight used (1.0 when no degraded blending
/// happened).
///
/// Every broker operation ([`GridBroker::apply`], [`BrokerShard::apply`])
/// returns one; callers that don't record simply ignore it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplyInfo {
    /// What the broker did.
    pub outcome: ApplyOutcome,
    /// The node's consecutive-loss staleness counter after the call.
    pub staleness: u32,
    /// Trust-window weight toward pure extrapolation for a lost update
    /// (see [`IngestRecord::Lost`]); 1.0 everywhere else.
    pub blend: f64,
}

/// The hot half of a node's broker slot: what a replayed idle evaluation
/// touches (the record's timestamp) and what the per-tick reads
/// ([`GridBroker::location`], [`GridBroker::staleness`],
/// [`GridBroker::records`]) read. Kept in its own dense column, 40 B per
/// node, so a tick that replays thousands of parked nodes streams through
/// these and never through the cold half.
#[derive(Clone, Copy, Default)]
pub(crate) struct HotSlot {
    record: Option<LocationRecord>,
    /// Consecutive expected-but-lost updates since the last receipt.
    staleness: u32,
}

/// The cold half of a node's broker slot: the per-node estimator, the
/// registration anchor and the last receipt, which only a full
/// evaluation reads or writes. A node has an estimator exactly when it
/// has a receipt, unless its broker runs [`EstimatorKind::WithoutLe`],
/// which builds none.
#[derive(Default)]
pub(crate) struct ColdSlot {
    estimator: Option<Box<Estimator>>,
    home_anchor: Option<Point>,
    last_rx: Option<LastRx>,
}

impl ColdSlot {
    /// The node's believed position at `time_s`: its estimator's, or else
    /// its last receipt's (a without-LE slot); `None` for a node never
    /// heard from.
    #[inline]
    fn estimate(&mut self, time_s: f64) -> Option<Point> {
        match self.estimator.as_deref_mut() {
            Some(Estimator::Brown(e)) => e.estimate(time_s),
            Some(Estimator::HoltAxes(e)) => e.estimate(time_s),
            Some(Estimator::DeadReckoning(e)) => e.estimate(time_s),
            Some(Estimator::KalmanCv(e)) => e.estimate(time_s),
            None => self.last_rx.map(|rx| rx.position),
        }
    }

    /// Whether [`ColdSlot::estimate`] is the same for every `time_s` until
    /// the node's next receipt.
    #[inline]
    fn is_static(&self) -> bool {
        match self.estimator.as_deref() {
            Some(Estimator::Brown(e)) => e.is_static(),
            Some(Estimator::HoltAxes(e)) => e.is_static(),
            Some(Estimator::DeadReckoning(e)) => e.is_static(),
            Some(Estimator::KalmanCv(e)) => e.is_static(),
            None => true,
        }
    }

    /// Hands the registered home anchor, if any, to the estimator; of the
    /// estimators, only Brown's keeps one.
    fn share_anchor(&mut self) {
        if let (Some(Estimator::Brown(brown)), Some(anchor)) =
            (self.estimator.as_deref_mut(), self.home_anchor)
        {
            brown.set_home_anchor(anchor);
        }
    }
}

/// Everything the broker tracks for one node: a view over its hot and
/// cold halves, which live in two dense columns indexed by `MnId`.
struct NodeSlot<'a> {
    hot: &'a mut HotSlot,
    cold: &'a mut ColdSlot,
}

impl NodeSlot<'_> {
    /// The broker's one apply path: applies `op` to this slot and counts
    /// it in `counters`. The op's node id is not consulted — the caller
    /// has already picked the slot. Returns `None` for the framing
    /// markers, which touch no slot.
    ///
    /// - [`IngestRecord::Update`] stores the received position and feeds
    ///   the estimator. Exact duplicates of the last accepted update and
    ///   frames older than it (channel reorderings) are rejected before
    ///   they reach the estimator, whose observation times must be
    ///   non-decreasing.
    /// - [`IngestRecord::Filtered`] stores the estimator's position, or
    ///   the last received one when the broker runs
    ///   [`EstimatorKind::WithoutLe`]. Nothing is stored for a node never
    ///   heard from (the broker cannot invent a location).
    /// - [`IngestRecord::Lost`] bumps the staleness counter and stores a
    ///   *degraded* estimate. Unlike a filtered update — where the filter
    ///   guarantees the node is within its DTH of the last transmission —
    ///   a lost one carries no such bound, so blind extrapolation can run
    ///   away (dead reckoning and the Kalman filter extrapolate
    ///   unboundedly through silences). The stored belief is therefore
    ///   the extrapolation blended toward the last *confirmed* fix with
    ///   weight `W / (W + staleness - 1)` (`W =`
    ///   [`STALENESS_TRUST_WINDOW`]): the first loss trusts the estimator
    ///   fully, sustained silence decays smoothly back to the last thing
    ///   the node actually said.
    #[inline]
    fn apply(
        self,
        kind: EstimatorKind,
        op: &IngestRecord,
        counters: &mut BrokerDelta,
    ) -> Option<ApplyInfo> {
        let had_record = self.hot.record.is_some();
        let mut blend = 1.0;
        let outcome = match op {
            IngestRecord::Update(lu) => match self.cold.last_rx {
                Some(rx) if lu.time_s == rx.time_s && lu.seq == rx.seq => {
                    counters.rejected += 1;
                    ApplyOutcome::Duplicate
                }
                Some(rx) if lu.time_s < rx.time_s => {
                    counters.rejected += 1;
                    ApplyOutcome::Stale
                }
                _ => {
                    self.hot.record = Some(LocationRecord {
                        position: lu.position,
                        time_s: lu.time_s,
                        estimated: false,
                    });
                    if self.cold.last_rx.is_none() {
                        self.cold.estimator = kind.build();
                        self.cold.share_anchor();
                    }
                    self.cold.last_rx = Some(LastRx {
                        time_s: lu.time_s,
                        seq: lu.seq,
                        position: lu.position,
                    });
                    self.hot.staleness = 0;
                    if let Some(estimator) = &mut self.cold.estimator {
                        estimator.observe(lu.time_s, lu.position);
                    }
                    counters.received += 1;
                    ApplyOutcome::Accepted
                }
            },
            IngestRecord::Filtered { time_s, .. } | IngestRecord::Lost { time_s, .. } => {
                let lost = matches!(op, IngestRecord::Lost { .. });
                if lost {
                    self.hot.staleness = self.hot.staleness.saturating_add(1);
                    counters.lost += 1;
                }
                match self.cold.estimate(*time_s) {
                    None => ApplyOutcome::NoRecord,
                    Some(mut position) => {
                        if let (true, Some(rx)) = (lost, &self.cold.last_rx) {
                            blend = STALENESS_TRUST_WINDOW
                                / (STALENESS_TRUST_WINDOW + f64::from(self.hot.staleness - 1));
                            position = Point::new(
                                rx.position.x + (position.x - rx.position.x) * blend,
                                rx.position.y + (position.y - rx.position.y) * blend,
                            );
                        }
                        self.hot.record = Some(LocationRecord {
                            position,
                            time_s: *time_s,
                            estimated: true,
                        });
                        counters.estimated += 1;
                        if lost {
                            ApplyOutcome::Degraded
                        } else {
                            ApplyOutcome::Estimated
                        }
                    }
                }
            }
            IngestRecord::TickEnd { .. } | IngestRecord::BatchSpan { .. } => return None,
        };
        counters.fresh_records += u64::from(!had_record && self.hot.record.is_some());
        Some(ApplyInfo {
            outcome,
            staleness: self.hot.staleness,
            blend,
        })
    }
}

/// Broker lifetime counters: a [`GridBroker`]'s running totals, and the
/// changes a [`BrokerShard`] accumulates inside a parallel region, merged
/// back into the owning broker in shard order afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerDelta {
    /// Updates received.
    pub received: u64,
    /// Estimates performed.
    pub estimated: u64,
    /// Nodes that gained their first record (for a broker's totals: the
    /// nodes holding a live record).
    pub fresh_records: u64,
    /// Expected updates that never arrived (degraded estimates stored).
    pub lost: u64,
    /// Received frames rejected as duplicates or stale reorderings.
    pub rejected: u64,
}

impl BrokerDelta {
    /// Folds another delta into this one. Pure `u64` addition, so the merge
    /// is exact and associative.
    pub fn merge(&mut self, other: &BrokerDelta) {
        self.received += other.received;
        self.estimated += other.estimated;
        self.fresh_records += other.fresh_records;
        self.lost += other.lost;
        self.rejected += other.rejected;
    }
}

/// A mutable view over one contiguous shard of a [`GridBroker`]'s node
/// slots, for use inside a parallel region.
///
/// The shard owns slots for node indices `[base, base + len)` and keeps its
/// counter changes in a local [`BrokerDelta`]; the caller merges the deltas
/// back with [`GridBroker::apply_delta`] **in shard order** once every shard
/// has completed. Because shards cover disjoint index ranges, per-node state
/// never races, and because the reduction order is fixed, results do not
/// depend on how shards were scheduled across threads.
pub struct BrokerShard<'a> {
    kind: EstimatorKind,
    base: usize,
    hot: &'a mut [HotSlot],
    cold: &'a mut [ColdSlot],
    /// The shard's replay clock (see [`GridBroker::restamp_shard`]).
    clock: &'a mut Option<f64>,
    delta: BrokerDelta,
}

/// Writes a set replay `clock` into every record of its shard's `hot`
/// column and clears it — the materialise step every per-node write to a
/// shard takes first, so a write never mixes with clocked records.
#[inline]
fn materialise(clock: &mut Option<f64>, hot: &mut [HotSlot]) {
    // Only a set clock is written back, so an unclocked shard's writes
    // pay one read here.
    if let Some(time_s) = *clock {
        *clock = None;
        date_records(hot, time_s);
    }
}

/// Moves every record of `hot` to `time_s` (out of line: a shard
/// materialises at most once per tick).
#[cold]
fn date_records(hot: &mut [HotSlot], time_s: f64) {
    for record in hot.iter_mut().filter_map(|slot| slot.record.as_mut()) {
        record.time_s = time_s;
    }
}

/// A stored `record` as its shard's replay `clock` dates it.
#[inline]
fn resolve(record: Option<LocationRecord>, clock: Option<f64>) -> Option<LocationRecord> {
    match (record, clock) {
        (Some(record), Some(time_s)) => Some(LocationRecord { time_s, ..record }),
        (record, _) => record,
    }
}

impl BrokerShard<'_> {
    /// First node index covered by this shard.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of nodes covered by this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the shard covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// `node`'s index into this shard's slots.
    fn local(&self, node: MnId) -> usize {
        node.index()
            .checked_sub(self.base)
            .filter(|i| *i < self.hot.len())
            .expect("node id outside this broker shard")
    }

    /// Applies one broker op to a node in this shard, exactly as
    /// [`GridBroker::apply`] does; returns `None` for the framing
    /// markers.
    ///
    /// # Panics
    ///
    /// Panics when the op names a node outside this shard.
    #[inline]
    pub fn apply(&mut self, op: &IngestRecord) -> Option<ApplyInfo> {
        let local = self.local(op.node()?);
        self.apply_at(local, op)
    }

    /// Applies `op` to the shard's `local`-th slot, whatever node id the
    /// op names — the tick's entry point, which walks the shard by local
    /// index and so skips the id translation.
    #[inline]
    pub(crate) fn apply_at(&mut self, local: usize, op: &IngestRecord) -> Option<ApplyInfo> {
        materialise(self.clock, self.hot);
        NodeSlot {
            hot: &mut self.hot[local],
            cold: &mut self.cold[local],
        }
        .apply(self.kind, op, &mut self.delta)
    }

    /// Whether `node`'s estimate is provably *time-invariant*: bit-identical
    /// for every query time until the node's next receipt. A node with no
    /// estimator is trivially static: never heard from, every filtered
    /// update is a `NoRecord` no-op; under [`EstimatorKind::WithoutLe`],
    /// the estimate is the last receipt.
    ///
    /// This is the safety gate for [`BrokerShard::replay_filtered`].
    #[must_use]
    pub fn estimator_is_static(&self, node: MnId) -> bool {
        self.cold[self.local(node)].is_static()
    }

    /// Replays a cached [`IngestRecord::Filtered`] evaluation without
    /// consulting the estimator. When the previous evaluation stored an
    /// estimate (`stored`), the slot's record still holds it, so only its
    /// timestamp moves to `time_s`; otherwise this does nothing, as the
    /// evaluation would not.
    ///
    /// Bit-identical to [`BrokerShard::apply`] of the filtered op
    /// **provided** the slot's estimator was static
    /// ([`BrokerShard::estimator_is_static`]) and untouched (no receive /
    /// loss) since the evaluation being replayed — the sparse driver's
    /// idle-replay contract.
    pub fn replay_filtered(&mut self, node: MnId, time_s: f64, stored: bool) -> ApplyInfo {
        let local = self.local(node);
        if stored {
            self.restamp(local, time_s);
        }
        self.delta.estimated += u64::from(stored);
        ApplyInfo {
            outcome: if stored {
                ApplyOutcome::Estimated
            } else {
                ApplyOutcome::NoRecord
            },
            staleness: self.hot[local].staleness,
            blend: 1.0,
        }
    }

    /// The hot-column half of a replayed estimate: moves the stored
    /// estimate of the shard's `local`-th node to `time_s`, touching
    /// nothing else and counting nothing. The caller counts the estimate
    /// (see [`BrokerShard::replay_filtered`]). Like every per-node write it
    /// first materialises the shard's replay clock; to move every stored
    /// estimate of a shard at once, see [`GridBroker::restamp_shard`].
    #[inline]
    pub(crate) fn restamp(&mut self, local: usize, time_s: f64) {
        materialise(self.clock, self.hot);
        let record = self.hot[local]
            .record
            .as_mut()
            .expect("a replayed estimate has a record");
        debug_assert!(record.estimated, "the replayed record is an estimate");
        record.time_s = time_s;
        debug_assert_eq!(
            self.cold[local].estimate(time_s),
            self.hot[local].record.map(|r| r.position),
            "the replayed record holds the static estimate"
        );
    }

    /// The shard's current belief about a node — a direct dense-slot read,
    /// no map lookup.
    #[must_use]
    pub fn location(&self, node: MnId) -> Option<LocationRecord> {
        self.location_at(self.local(node))
    }

    /// The belief about the shard's `local`-th node.
    #[inline]
    pub(crate) fn location_at(&self, local: usize) -> Option<LocationRecord> {
        resolve(self.hot[local].record, *self.clock)
    }

    /// The believed position of the shard's `local`-th node: the clock
    /// only dates a record, so this reads the hot column alone.
    #[inline]
    pub(crate) fn position_at(&self, local: usize) -> Option<Point> {
        self.hot[local].record.map(|r| r.position)
    }

    /// Consumes the shard, yielding the counter changes it accumulated.
    #[must_use]
    pub fn into_delta(self) -> BrokerDelta {
        self.delta
    }
}

/// The grid broker's location service: a location DB plus the location
/// estimator (Figure 3's right-hand side).
///
/// Received updates are stored verbatim and fed to the per-node estimator;
/// when an update is filtered the broker asks the estimator for the node's
/// likely position and stores that instead, flagged as estimated. Every
/// change goes through [`GridBroker::apply`], one [`IngestRecord`] at a
/// time.
///
/// Per-node state lives in a dense vector indexed by [`MnId::index`] — node
/// ids are expected to be (near-)dense, as [`crate::SimBuilder`] enforces;
/// storage is proportional to the largest id seen. Sparse-id callers keep
/// working: slots are grown on demand and untouched slots hold no record.
///
/// # Examples
///
/// ```
/// use mobigrid_adf::{EstimatorKind, GridBroker};
/// use mobigrid_geo::Point;
/// use mobigrid_wireless::{IngestRecord, LocationUpdate, MnId};
///
/// let mut broker = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
/// let mn = MnId::new(1);
/// for t in 0..10 {
///     let lu = LocationUpdate::new(mn, t as f64, Point::new(2.0 * t as f64, 0.0), t);
///     broker.apply(&IngestRecord::Update(lu));
/// }
/// // The next update is filtered; the broker extrapolates the walk.
/// broker.apply(&IngestRecord::Filtered { node: mn, time_s: 10.0 });
/// let rec = broker.location(mn).unwrap();
/// assert!(rec.estimated);
/// assert!((rec.position.x - 20.0).abs() < 1.0);
/// ```
pub struct GridBroker {
    kind: EstimatorKind,
    /// Per-node hot halves (record, staleness), indexed by `MnId`.
    hot: Vec<HotSlot>,
    /// Per-node cold halves (estimator, anchor, last receipt), same index.
    cold: Vec<ColdSlot>,
    /// One replay clock per view shard (see [`GridBroker::restamp_shard`]).
    /// [`GridBroker::shard_views_iter`] allocates them, so a broker that
    /// never takes views has none.
    clocks: Vec<Option<f64>>,
    /// The view shard size the clocks cover (0 before the first view).
    clock_span: usize,
    /// Lifetime counters; `fresh_records` is the live-record count.
    counters: BrokerDelta,
}

impl std::fmt::Debug for GridBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridBroker")
            .field("kind", &self.kind)
            .field("counters", &self.counters)
            .finish()
    }
}

impl GridBroker {
    /// Creates a broker with the given estimator.
    ///
    /// # Errors
    ///
    /// Returns the estimator's parameter-validation message.
    pub fn new(kind: EstimatorKind) -> Result<Self, String> {
        kind.validate()?;
        Ok(GridBroker {
            kind,
            hot: Vec::new(),
            cold: Vec::new(),
            clocks: Vec::new(),
            clock_span: 0,
            counters: BrokerDelta::default(),
        })
    }

    /// Pre-sizes the dense slot storage for node indices `0..n`. Growing is
    /// otherwise on demand; pre-sizing lets [`GridBroker::shard_views_iter`]
    /// cover the whole population.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.hot.len() < n {
            self.hot.resize(n, HotSlot::default());
            self.cold.resize_with(n, ColdSlot::default);
        }
    }

    /// Registers where `node` lives (its home region's centre) as prior
    /// knowledge for the location estimator. In a mobile grid the broker
    /// holds this from node registration; estimators that maintain a
    /// long-horizon anchor shrink toward it while a node's own history is
    /// thin.
    pub fn set_home_anchor(&mut self, node: MnId, anchor: Point) {
        self.ensure_nodes(node.index() + 1);
        let slot = &mut self.cold[node.index()];
        slot.home_anchor = Some(anchor);
        slot.share_anchor();
    }

    /// The estimator this broker runs.
    #[must_use]
    pub fn estimator_kind(&self) -> EstimatorKind {
        self.kind
    }

    /// Applies one broker op — a received update, a filtered update, or
    /// an update that was sent but never arrived — to its node's slot and
    /// the lifetime counters, growing the slots to cover the node.
    /// Returns what the broker did, or `None` for the framing markers
    /// ([`IngestRecord::TickEnd`], [`IngestRecord::BatchSpan`]), which
    /// change nothing.
    ///
    /// Exact duplicates of the last accepted update and frames older than
    /// it (channel reorderings) are rejected and counted in
    /// [`GridBroker::rejected_count`]. A filtered update for a node never
    /// heard from stores nothing (the broker cannot invent a location); a
    /// lost one only bumps the node's staleness counter then.
    pub fn apply(&mut self, op: &IngestRecord) -> Option<ApplyInfo> {
        let index = op.node()?.index();
        self.ensure_nodes(index + 1);
        self.apply_at(index, op)
    }

    /// Applies `op` to slot `index`, whatever node id the op names — the
    /// sharded store's entry point, which rebases ids to shard-local
    /// slots.
    pub(crate) fn apply_at(&mut self, index: usize, op: &IngestRecord) -> Option<ApplyInfo> {
        if self.clock_of(index).is_some() {
            let shard = index / self.clock_span;
            let start = shard * self.clock_span;
            let end = self.hot.len().min(start + self.clock_span);
            materialise(&mut self.clocks[shard], &mut self.hot[start..end]);
        }
        NodeSlot {
            hot: &mut self.hot[index],
            cold: &mut self.cold[index],
        }
        .apply(self.kind, op, &mut self.counters)
    }

    /// Consecutive losses since `node`'s last accepted update (zero for a
    /// healthy or unknown node).
    #[must_use]
    pub fn staleness(&self, node: MnId) -> u32 {
        self.hot.get(node.index()).map_or(0, |s| s.staleness)
    }

    /// The broker's current belief about `node`.
    #[must_use]
    pub fn location(&self, node: MnId) -> Option<LocationRecord> {
        let index = node.index();
        resolve(self.hot.get(index)?.record, self.clock_of(index))
    }

    /// The replay clock of the view shard holding slot `index`, if set.
    #[inline]
    fn clock_of(&self, index: usize) -> Option<f64> {
        if self.clock_span == 0 {
            return None;
        }
        self.clocks.get(index / self.clock_span).copied().flatten()
    }

    /// Splits the broker's slots into contiguous shards of `shard_size`
    /// nodes for a parallel region, lazily, so a caller zipping broker
    /// shards into larger per-shard jobs allocates nothing here once the
    /// shards' replay clocks exist (the first call, and a call with a new
    /// `shard_size`, which materialises the old ones, sizes them). Call
    /// [`GridBroker::ensure_nodes`] first so the shards cover the whole
    /// population; merge each shard's [`BrokerDelta`] back with
    /// [`GridBroker::apply_delta`] in shard order.
    ///
    /// # Panics
    ///
    /// Panics when `shard_size` is zero.
    pub fn shard_views_iter(
        &mut self,
        shard_size: usize,
    ) -> impl ExactSizeIterator<Item = BrokerShard<'_>> {
        let shards = self.hot.len().div_ceil(shard_size.max(1));
        self.shard_views_at(shard_size, 0..shards)
    }

    /// Like [`GridBroker::shard_views_iter`], but only the views of
    /// `shards`, given in ascending order; the shards between them cost
    /// nothing. The sparse tick hands its shard pass the views of the
    /// shards its memo does not serve.
    ///
    /// # Panics
    ///
    /// Panics when `shard_size` is zero, or when `shards` does not ascend
    /// or names a shard past the slots.
    pub fn shard_views_at<I>(
        &mut self,
        shard_size: usize,
        shards: I,
    ) -> impl ExactSizeIterator<Item = BrokerShard<'_>>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator,
    {
        self.size_clocks(shard_size);
        let kind = self.kind;
        let slots = self
            .hot
            .chunks_mut(shard_size)
            .zip(self.cold.chunks_mut(shard_size))
            .zip(self.clocks.iter_mut());
        select(slots, shards).map(move |(shard, ((hot, cold), clock))| BrokerShard {
            kind,
            base: shard * shard_size,
            hot,
            cold,
            clock,
            delta: BrokerDelta::default(),
        })
    }

    /// Sizes the replay clocks for views of `shard_size` nodes: one per
    /// view shard, all unset, after materialising any clock of an earlier
    /// view size.
    fn size_clocks(&mut self, shard_size: usize) {
        assert!(shard_size > 0, "shard size must be positive");
        if self.clock_span != shard_size {
            if self.clock_span > 0 {
                for (clock, hot) in self
                    .clocks
                    .iter_mut()
                    .zip(self.hot.chunks_mut(self.clock_span))
                {
                    materialise(clock, hot);
                }
            }
            self.clocks.clear();
            self.clock_span = shard_size;
        }
        self.clocks
            .resize(self.hot.len().div_ceil(shard_size), None);
    }

    /// Moves every record view shard `shard` (of `shard_size` nodes)
    /// holds to `time_s` with one write: sets the shard's replay clock,
    /// which every reader resolves and the next per-node write
    /// materialises. The sparse driver's memo hit calls it instead of
    /// [`BrokerShard::restamp`] per stored estimate, without taking a
    /// view.
    ///
    /// The caller guarantees that every record the shard holds is a stored
    /// estimate of a static estimator, so restamping each is exact — in a
    /// memo shard every node with a record replays a stored estimate, since
    /// a node with a record has a last receipt, so a filtered apply with a
    /// static estimate stores one. Debug builds check it record by record.
    ///
    /// # Panics
    ///
    /// Panics when `shard_size` is zero or `shard` is past the slots.
    pub(crate) fn restamp_shard(&mut self, shard_size: usize, shard: usize, time_s: f64) {
        self.size_clocks(shard_size);
        #[cfg(debug_assertions)]
        {
            let start = shard * shard_size;
            let end = self.hot.len().min(start + shard_size);
            for (hot, cold) in self.hot[start..end].iter().zip(&mut self.cold[start..end]) {
                if let Some(record) = hot.record {
                    debug_assert!(record.estimated, "a restamped record is an estimate");
                    debug_assert!(
                        cold.last_rx.is_some(),
                        "a node with a record has a last receipt"
                    );
                    debug_assert!(cold.is_static(), "a restamped estimate is static");
                    debug_assert_eq!(
                        cold.estimate(time_s),
                        Some(record.position),
                        "the restamped record holds the static estimate"
                    );
                }
            }
        }
        self.clocks[shard] = Some(time_s);
    }

    /// Merges a shard's counter changes back into the broker.
    pub fn apply_delta(&mut self, delta: &BrokerDelta) {
        self.counters.merge(delta);
    }

    /// The lifetime counters (`fresh_records` counts the nodes holding a
    /// live record).
    #[must_use]
    pub(crate) fn counters(&self) -> &BrokerDelta {
        &self.counters
    }

    /// Number of nodes with a record in the location DB.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.counters.fresh_records as usize
    }

    /// Updates received.
    #[must_use]
    pub fn received_count(&self) -> u64 {
        self.counters.received
    }

    /// Estimates performed.
    #[must_use]
    pub fn estimated_count(&self) -> u64 {
        self.counters.estimated
    }

    /// Expected updates that never arrived (lost to the channel).
    #[must_use]
    pub fn lost_count(&self) -> u64 {
        self.counters.lost
    }

    /// Received frames rejected as duplicates or stale reorderings.
    #[must_use]
    pub fn rejected_count(&self) -> u64 {
        self.counters.rejected
    }

    /// Iterates every node the broker holds a belief for, in node order,
    /// yielding `(node, record, staleness)` — the read surface the serve
    /// crate's census and staleness queries are built on.
    pub fn records(&self) -> impl Iterator<Item = (MnId, LocationRecord, u32)> + '_ {
        self.hot.iter().enumerate().filter_map(|(i, slot)| {
            resolve(slot.record, self.clock_of(i))
                .map(|record| (MnId::new(i as u32), record, slot.staleness))
        })
    }

    /// An order-sensitive FNV-1a digest of the broker's observable state:
    /// every live record's exact bits (position, time, estimated flag),
    /// every node's staleness counter, and the lifetime counters.
    ///
    /// Two brokers that applied the same operation stream bit-identically
    /// digest identically; any divergence — a single ULP of position, one
    /// extra rejection — changes the digest. This is what the serve
    /// crate's golden-parity tests compare. The sharded
    /// [`BrokerStore`](crate::BrokerStore) folds the same records in
    /// global node order and the summed counters via [`StateDigest`], so
    /// the two are directly comparable.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut digest = StateDigest::new();
        for (node, record, staleness) in self.records() {
            digest.record(u64::from(node.raw()), &record, staleness);
        }
        digest.counters(&self.counters);
        digest.finish()
    }
}

/// Incremental FNV-1a fold over broker observable state — the shared
/// digest kernel behind [`GridBroker::state_digest`]. Feed every live
/// record in global node order via [`StateDigest::record`], then the
/// summed lifetime counters via [`StateDigest::counters`]; two state
/// holders that fold the same sequence produce the same digest, whether
/// the state lives in one broker or is sharded across many.
#[derive(Debug, Clone)]
pub struct StateDigest {
    h: u64,
}

impl Default for StateDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl StateDigest {
    /// Starts a digest at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        StateDigest {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, v: u64) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for b in v.to_le_bytes() {
            self.h = (self.h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Folds one node's live record and staleness counter. Call in global
    /// node order.
    pub fn record(&mut self, node: u64, record: &LocationRecord, staleness: u32) {
        self.fold(node);
        self.fold(record.position.x.to_bits());
        self.fold(record.position.y.to_bits());
        self.fold(record.time_s.to_bits());
        self.fold(u64::from(record.estimated));
        self.fold(u64::from(staleness));
    }

    /// Folds the lifetime counters (summed across shards when the state is
    /// sharded). Call once, after every record.
    pub fn counters(&mut self, counters: &BrokerDelta) {
        self.fold(counters.fresh_records);
        self.fold(counters.received);
        self.fold(counters.estimated);
        self.fold(counters.lost);
        self.fold(counters.rejected);
    }

    /// The digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_wireless::LocationUpdate;

    fn lu(node: u32, t: f64, x: f64, y: f64) -> IngestRecord {
        IngestRecord::Update(LocationUpdate::new(MnId::new(node), t, Point::new(x, y), 0))
    }

    fn filtered(node: u32, time_s: f64) -> IngestRecord {
        IngestRecord::Filtered {
            node: MnId::new(node),
            time_s,
        }
    }

    fn lost(node: u32, time_s: f64) -> IngestRecord {
        IngestRecord::Lost {
            node: MnId::new(node),
            time_s,
        }
    }

    #[test]
    fn without_le_keeps_last_received() {
        let mut b = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        b.apply(&lu(1, 0.0, 5.0, 5.0));
        b.apply(&filtered(1, 10.0));
        let rec = b.location(MnId::new(1)).unwrap();
        // "Estimate" equals the stale last position.
        assert_eq!(rec.position, Point::new(5.0, 5.0));
        assert!(rec.estimated);
    }

    #[test]
    fn brown_extrapolates_straight_walks() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        for t in 0..20 {
            b.apply(&lu(1, t as f64, 1.5 * t as f64, 0.0));
        }
        b.apply(&filtered(1, 22.0));
        let rec = b.location(MnId::new(1)).unwrap();
        assert!(rec.estimated);
        assert!(
            (rec.position.x - 33.0).abs() < 1.0,
            "x = {}",
            rec.position.x
        );
    }

    #[test]
    fn received_overrides_previous_estimate() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.apply(&lu(1, 0.0, 0.0, 0.0));
        b.apply(&lu(1, 1.0, 1.0, 0.0));
        b.apply(&filtered(1, 2.0));
        assert!(b.location(MnId::new(1)).unwrap().estimated);
        b.apply(&lu(1, 3.0, 3.0, 0.0));
        let rec = b.location(MnId::new(1)).unwrap();
        assert!(!rec.estimated);
        assert_eq!(rec.position, Point::new(3.0, 0.0));
    }

    #[test]
    fn unknown_node_filtered_is_noop() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.apply(&filtered(9, 1.0));
        assert_eq!(b.location(MnId::new(9)), None);
        assert_eq!(b.estimated_count(), 0);
    }

    #[test]
    fn counters_track_activity() {
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        b.apply(&lu(1, 0.0, 0.0, 0.0));
        b.apply(&lu(2, 0.0, 1.0, 1.0));
        b.apply(&filtered(1, 1.0));
        assert_eq!(b.received_count(), 2);
        assert_eq!(b.estimated_count(), 1);
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn invalid_estimator_parameters_rejected() {
        assert!(GridBroker::new(EstimatorKind::Brown { alpha: 1.5 }).is_err());
        assert!(GridBroker::new(EstimatorKind::HoltAxes {
            alpha: 0.5,
            beta: 0.0
        })
        .is_err());
        assert!(GridBroker::new(EstimatorKind::WithoutLe).is_ok());
    }

    #[test]
    fn holt_axes_estimator_tracks_diagonals() {
        let mut b = GridBroker::new(EstimatorKind::HoltAxes {
            alpha: 0.7,
            beta: 0.3,
        })
        .unwrap();
        for t in 0..30 {
            b.apply(&lu(1, t as f64, t as f64, 2.0 * t as f64));
        }
        b.apply(&filtered(1, 31.0));
        let rec = b.location(MnId::new(1)).unwrap();
        assert!((rec.position.x - 31.0).abs() < 1.0);
        assert!((rec.position.y - 62.0).abs() < 2.0);
    }

    #[test]
    fn anchor_set_before_first_update_reaches_estimator() {
        // The anchor is registered before any update arrives; the slot must
        // hand it to the estimator it lazily builds on first receive.
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.set_home_anchor(MnId::new(0), Point::new(7.0, 7.0));
        b.apply(&lu(0, 0.0, 1.0, 1.0));
        assert_eq!(b.node_count(), 1);
        assert!(b.location(MnId::new(0)).is_some());
    }

    #[test]
    fn shard_views_partition_the_population() {
        let mut b = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        b.ensure_nodes(10);
        let shards = b.shard_views_iter(4).collect::<Vec<_>>();
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards.iter().map(BrokerShard::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert_eq!(
            shards.iter().map(BrokerShard::base).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
    }

    #[test]
    fn shard_updates_match_sequential_updates() {
        let mut seq = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        let mut sharded = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        sharded.ensure_nodes(6);

        for t in 0..5 {
            for node in 0..6u32 {
                seq.apply(&lu(node, t as f64, f64::from(node) + t as f64, 0.0));
            }
        }
        seq.apply(&filtered(2, 5.0));

        {
            let mut shards = sharded.shard_views_iter(4).collect::<Vec<_>>();
            for t in 0..5 {
                for node in 0..6u32 {
                    let shard = &mut shards[node as usize / 4];
                    shard.apply(&lu(node, t as f64, f64::from(node) + t as f64, 0.0));
                }
            }
            shards[0].apply(&filtered(2, 5.0));
            let deltas: Vec<BrokerDelta> =
                shards.into_iter().map(BrokerShard::into_delta).collect();
            for d in &deltas {
                sharded.apply_delta(d);
            }
        }

        assert_eq!(seq.received_count(), sharded.received_count());
        assert_eq!(seq.estimated_count(), sharded.estimated_count());
        assert_eq!(seq.node_count(), sharded.node_count());
        for node in 0..6u32 {
            assert_eq!(
                seq.location(MnId::new(node)),
                sharded.location(MnId::new(node))
            );
        }
    }

    #[test]
    fn duplicate_frames_are_rejected() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        let update = lu(1, 1.0, 2.0, 3.0);
        b.apply(&update);
        b.apply(&update); // channel duplicate: same time, same seq
        assert_eq!(b.received_count(), 1);
        assert_eq!(b.rejected_count(), 1);
        assert!(!b.location(MnId::new(1)).unwrap().estimated);
    }

    #[test]
    fn stale_frames_are_rejected() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.apply(&lu(1, 5.0, 10.0, 0.0));
        // A delayed frame from t=2 arrives after the t=5 one: dropped, and
        // the stored belief keeps the newer position.
        b.apply(&lu(1, 2.0, 4.0, 0.0));
        assert_eq!(b.received_count(), 1);
        assert_eq!(b.rejected_count(), 1);
        assert_eq!(
            b.location(MnId::new(1)).unwrap().position,
            Point::new(10.0, 0.0)
        );
    }

    #[test]
    fn lost_updates_degrade_toward_last_receipt() {
        // A node walking +2 m/s goes silent; the degraded estimate must sit
        // between the last confirmed fix and the raw extrapolation, and move
        // toward the fix as staleness grows.
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        b.apply(&lu(1, 0.0, 0.0, 0.0));
        b.apply(&lu(1, 1.0, 2.0, 0.0));
        let last_rx_x = 2.0;

        b.apply(&lost(1, 2.0));
        let first = b.location(MnId::new(1)).unwrap();
        assert!(first.estimated);
        // staleness = 1 → trust = 1.0 → pure extrapolation (x = 4).
        assert!(
            (first.position.x - 4.0).abs() < 1e-9,
            "x = {}",
            first.position.x
        );
        assert_eq!(b.staleness(MnId::new(1)), 1);

        for k in 2..=10u32 {
            b.apply(&lost(1, 1.0 + f64::from(k)));
        }
        let later = b.location(MnId::new(1)).unwrap();
        let raw_x = 2.0 + 2.0 * 10.0; // dead reckoning at t=11
        assert_eq!(b.staleness(MnId::new(1)), 10);
        assert!(later.position.x > last_rx_x && later.position.x < raw_x);
        // trust = 8/(8+9): well under half the raw extrapolated offset.
        let expected_x = last_rx_x + (raw_x - last_rx_x) * (8.0 / 17.0);
        assert!(
            (later.position.x - expected_x).abs() < 1e-9,
            "x = {}",
            later.position.x
        );
        assert_eq!(b.lost_count(), 10);
    }

    #[test]
    fn receive_resets_staleness() {
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        b.apply(&lu(1, 0.0, 0.0, 0.0));
        b.apply(&lost(1, 1.0));
        b.apply(&lost(1, 2.0));
        assert_eq!(b.staleness(MnId::new(1)), 2);
        b.apply(&lu(1, 3.0, 6.0, 0.0));
        assert_eq!(b.staleness(MnId::new(1)), 0);
        assert!(!b.location(MnId::new(1)).unwrap().estimated);
    }

    #[test]
    fn lost_on_unknown_node_only_tracks_staleness() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.apply(&lost(4, 1.0));
        assert_eq!(b.location(MnId::new(4)), None);
        assert_eq!(b.lost_count(), 1);
        assert_eq!(b.estimated_count(), 0);
        assert_eq!(b.staleness(MnId::new(4)), 1);
    }

    #[test]
    fn shard_lost_matches_sequential() {
        let mut seq = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        let mut sharded = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        sharded.ensure_nodes(4);

        for t in 0..3 {
            for node in 0..4u32 {
                seq.apply(&lu(node, t as f64, f64::from(node) * t as f64, 0.0));
            }
        }
        seq.apply(&lost(1, 3.0));
        seq.apply(&lost(1, 4.0));
        seq.apply(&lost(3, 3.0));

        {
            let mut shards = sharded.shard_views_iter(2).collect::<Vec<_>>();
            for t in 0..3 {
                for node in 0..4u32 {
                    let shard = &mut shards[node as usize / 2];
                    shard.apply(&lu(node, t as f64, f64::from(node) * t as f64, 0.0));
                }
            }
            assert_eq!(shards[0].apply(&lost(1, 3.0)).unwrap().staleness, 1);
            assert_eq!(shards[0].apply(&lost(1, 4.0)).unwrap().staleness, 2);
            assert_eq!(shards[1].apply(&lost(3, 3.0)).unwrap().staleness, 1);
            let deltas: Vec<BrokerDelta> =
                shards.into_iter().map(BrokerShard::into_delta).collect();
            for d in &deltas {
                sharded.apply_delta(d);
            }
        }

        assert_eq!(seq.lost_count(), sharded.lost_count());
        assert_eq!(seq.estimated_count(), sharded.estimated_count());
        for node in 0..4u32 {
            assert_eq!(
                seq.location(MnId::new(node)),
                sharded.location(MnId::new(node))
            );
            assert_eq!(
                seq.staleness(MnId::new(node)),
                sharded.staleness(MnId::new(node))
            );
        }
    }

    #[test]
    fn apply_info_reports_outcome_staleness_and_blend() {
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        fn check(info: Option<ApplyInfo>, outcome: ApplyOutcome, staleness: u32) -> ApplyInfo {
            let info = info.expect("a broker op reports an ApplyInfo");
            assert_eq!(info.outcome, outcome);
            assert_eq!(info.staleness, staleness);
            info
        }
        // Unknown node: nothing to estimate from.
        check(b.apply(&filtered(1, 0.0)), ApplyOutcome::NoRecord, 0);
        check(b.apply(&lu(1, 0.0, 0.0, 0.0)), ApplyOutcome::Accepted, 0);
        check(b.apply(&lu(1, 1.0, 2.0, 0.0)), ApplyOutcome::Accepted, 0);
        // Duplicate and stale frames keep staleness untouched.
        check(b.apply(&lu(1, 1.0, 2.0, 0.0)), ApplyOutcome::Duplicate, 0);
        check(b.apply(&lu(1, 0.5, 1.0, 0.0)), ApplyOutcome::Stale, 0);
        // Suppressed tick: estimated, still not stale, no blending.
        let info = check(b.apply(&filtered(1, 2.0)), ApplyOutcome::Estimated, 0);
        assert_eq!(info.blend, 1.0);
        // First loss: degraded with full trust in extrapolation.
        let info = check(b.apply(&lost(1, 3.0)), ApplyOutcome::Degraded, 1);
        assert!((info.blend - 1.0).abs() < 1e-12);
        // Second loss: trust shrinks to W/(W+1) = 8/9.
        let info = check(b.apply(&lost(1, 4.0)), ApplyOutcome::Degraded, 2);
        assert!(
            (info.blend - 8.0 / 9.0).abs() < 1e-12,
            "blend {}",
            info.blend
        );
        // A receive resets staleness.
        check(b.apply(&lu(1, 5.0, 10.0, 0.0)), ApplyOutcome::Accepted, 0);
        // Loss on a never-heard-from node: staleness only, nothing stored.
        check(b.apply(&lost(7, 5.0)), ApplyOutcome::NoRecord, 1);

        // Framing markers touch nothing.
        let tick_end = IngestRecord::TickEnd {
            tick: 1,
            time_s: 5.0,
        };
        let before = b.state_digest();
        assert_eq!(b.apply(&tick_end), None);
        assert_eq!(b.state_digest(), before);

        // Shard views report the same ApplyInfo shape.
        let mut sb = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        sb.ensure_nodes(2);
        let mut shards = sb.shard_views_iter(2).collect::<Vec<_>>();
        check(
            shards[0].apply(&lu(0, 0.0, 0.0, 0.0)),
            ApplyOutcome::Accepted,
            0,
        );
        check(
            shards[0].apply(&lu(0, 1.0, 1.0, 0.0)),
            ApplyOutcome::Accepted,
            0,
        );
        check(shards[0].apply(&lost(0, 2.0)), ApplyOutcome::Degraded, 1);
        check(
            shards[0].apply(&filtered(1, 2.0)),
            ApplyOutcome::NoRecord,
            0,
        );
    }

    #[test]
    fn replay_filtered_matches_apply_for_static_estimators() {
        // A node that never moves: Brown's direction smoother never warms,
        // so the estimator stays static and each filtered op stores
        // the same position. The replay must be indistinguishable.
        let mk = || GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        let (mut live, mut replayed) = (mk(), mk());
        for b in [&mut live, &mut replayed] {
            b.ensure_nodes(2);
            b.apply(&lu(0, 0.0, 5.0, 5.0));
            b.apply(&lu(0, 1.0, 5.0, 5.0));
            // A loss leaves a staleness the replays must report unchanged.
            b.apply(&lost(0, 1.5));
        }
        let node = MnId::new(0);
        let apply = |b: &mut GridBroker, f: &mut dyn FnMut(&mut BrokerShard<'_>)| {
            let mut shards = b.shard_views_iter(2).collect::<Vec<_>>();
            f(&mut shards[0]);
            let d: Vec<BrokerDelta> = shards.into_iter().map(BrokerShard::into_delta).collect();
            for delta in &d {
                b.apply_delta(delta);
            }
        };

        // Both sides evaluate t = 2 in full; that is the cache point.
        let mut captured = None;
        for b in [&mut live, &mut replayed] {
            apply(b, &mut |s| {
                assert!(s.estimator_is_static(node));
                let info = s.apply(&filtered(0, 2.0)).unwrap();
                assert_eq!(info.outcome, ApplyOutcome::Estimated);
                captured = s.location(node);
            });
        }
        let captured = captured.expect("an estimate was stored");
        assert!(captured.estimated && captured.time_s == 2.0);

        // Then the live side keeps evaluating while the other replays:
        // a time-only restamp of the record the full evaluation left.
        for t in [3.0, 4.0, 7.5] {
            let mut live_info = None;
            apply(&mut live, &mut |s| {
                live_info = s.apply(&filtered(0, t));
            });
            let mut replay_info = None;
            apply(&mut replayed, &mut |s| {
                replay_info = Some(s.replay_filtered(node, t, true));
            });
            assert_eq!(replay_info, live_info);
            assert_eq!(replay_info.map(|i| i.staleness), Some(1));
            let rec = replayed.location(node).expect("record kept");
            assert_eq!(rec.position, captured.position, "only the time moves");
            assert_eq!(rec.time_s, t);
            assert_eq!(live.location(node), Some(rec));
        }
        assert_eq!(live.estimated_count(), replayed.estimated_count());
        assert_eq!(live.node_count(), replayed.node_count());
        assert_eq!(live.state_digest(), replayed.state_digest());

        // A never-heard-from node: static (no estimator), and replaying
        // its NoRecord evaluation changes nothing.
        let ghost = MnId::new(1);
        let mut r = replayed.shard_views_iter(2).collect::<Vec<_>>();
        assert!(r[0].estimator_is_static(ghost));
        let info = r[0].replay_filtered(ghost, 5.0, false);
        assert_eq!(info.outcome, ApplyOutcome::NoRecord);
        let dr: Vec<BrokerDelta> = r.into_iter().map(BrokerShard::into_delta).collect();
        assert_eq!(dr[0], BrokerDelta::default());
    }

    #[test]
    fn moving_node_estimator_is_not_static() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.ensure_nodes(1);
        for t in 0..10 {
            b.apply(&lu(0, f64::from(t), 2.0 * f64::from(t), 0.0));
        }
        let shards = b.shard_views_iter(1).collect::<Vec<_>>();
        assert!(!shards[0].estimator_is_static(MnId::new(0)));
    }

    /// Runs `f` on the `k`-th of `b`'s views of `span` nodes, then merges
    /// every view's delta back in shard order.
    fn with_shard<R>(
        b: &mut GridBroker,
        span: usize,
        k: usize,
        f: impl FnOnce(&mut BrokerShard<'_>) -> R,
    ) -> R {
        let mut shards = b.shard_views_iter(span).collect::<Vec<_>>();
        let r = f(&mut shards[k]);
        let deltas: Vec<BrokerDelta> = shards.into_iter().map(BrokerShard::into_delta).collect();
        for d in &deltas {
            b.apply_delta(d);
        }
        r
    }

    /// Whether restamping the shard's `local`-th record (if any) at
    /// `time_s` is exact: it is the static estimate its estimator gives at
    /// `time_s`.
    fn restampable(s: &mut BrokerShard<'_>, local: usize, time_s: f64) -> bool {
        match s.location_at(local) {
            None => true,
            Some(record) => {
                let cold = &mut s.cold[local];
                record.estimated
                    && cold.is_static()
                    && cold.estimate(time_s) == Some(record.position)
            }
        }
    }

    proptest::proptest! {
        /// A broker whose memo-style restamps set a shard's replay clock
        /// reads exactly like a twin that restamps each stored estimate:
        /// the same locations, through the broker and through views, the
        /// same records and the same digest, through updates, filtered
        /// and lost applies and single-node idle replays into clocked
        /// shards, late broker-level applies, and one change of view span.
        #[test]
        fn replay_clock_reads_like_per_node_restamps(
            steps in proptest::collection::vec((0u8..11, 0u32..10, 0u8..4), 1..80),
            switch_at in 0usize..80,
        ) {
            const NODES: u32 = 10;
            let mk = || {
                let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
                b.ensure_nodes(NODES as usize);
                b
            };
            let (mut clocked, mut twin) = (mk(), mk());
            let mut span = 4;
            for (step, &(op, node, moved)) in steps.iter().enumerate() {
                let t = step as f64 + 1.0;
                if step == switch_at {
                    span = 3;
                }
                let (k, local) = (node as usize / span, node as usize % span);
                // Three in four updates report the node's fixed spot, so
                // its estimator often turns static.
                let x = f64::from(node) + if moved == 0 { t } else { 0.0 };
                let op = match op {
                    0..=3 => {
                        let whole = |s: &mut BrokerShard<'_>| (0..s.len()).all(|l| restampable(s, l, t));
                        if with_shard(&mut twin, span, k, whole) {
                            clocked.restamp_shard(span, k, t);
                            with_shard(&mut twin, span, k, |s| {
                                for l in 0..s.len() {
                                    if s.location_at(l).is_some() {
                                        s.restamp(l, t);
                                    }
                                }
                            });
                        }
                        None
                    }
                    4 => Some(lu(node, t, x, 0.0)),
                    5..=7 => Some(filtered(node, t)),
                    8 => Some(lost(node, t)),
                    9 => {
                        // One node's idle replay: a per-node restamp.
                        let id = MnId::new(node);
                        if with_shard(&mut twin, span, k, |s| restampable(s, local, t)) {
                            let stored = twin.location(id).is_some();
                            let a = with_shard(&mut clocked, span, k, |s| s.replay_filtered(id, t, stored));
                            let b = with_shard(&mut twin, span, k, |s| s.replay_filtered(id, t, stored));
                            proptest::prop_assert_eq!(a, b);
                        }
                        None
                    }
                    _ => {
                        // A late frame, applied broker-level into a
                        // possibly clocked shard; older than the node's
                        // last receipt, it is rejected as stale.
                        let late = lu(node, t - 1.5, x, 0.0);
                        clocked.apply(&late);
                        twin.apply(&late);
                        None
                    }
                };
                if let Some(op) = op {
                    let a = with_shard(&mut clocked, span, k, |s| s.apply(&op));
                    let b = with_shard(&mut twin, span, k, |s| s.apply(&op));
                    proptest::prop_assert_eq!(a, b);
                }
                for i in 0..NODES {
                    let id = MnId::new(i);
                    proptest::prop_assert_eq!(clocked.location(id), twin.location(id));
                    let j = i as usize / span;
                    let view = with_shard(&mut clocked, span, j, |s| s.location(id));
                    proptest::prop_assert_eq!(view, twin.location(id));
                }
                proptest::prop_assert_eq!(
                    clocked.records().collect::<Vec<_>>(),
                    twin.records().collect::<Vec<_>>()
                );
                proptest::prop_assert_eq!(clocked.state_digest(), twin.state_digest());
            }
        }
    }

    /// Views of chosen shards are the views the full split hands out for
    /// them: the same base, slots and replay clock.
    #[test]
    fn chosen_shard_views_match_the_full_split() {
        let mut b = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        b.ensure_nodes(14);
        for i in 0..14 {
            b.apply(&lu(i, 1.0, f64::from(i), 0.0));
            b.apply(&filtered(i, 1.5));
        }
        b.restamp_shard(4, 3, 2.0);
        let full: Vec<_> = b
            .shard_views_iter(4)
            .map(|s| (s.base(), s.len(), s.location_at(0)))
            .collect();
        let chosen: Vec<_> = b
            .shard_views_at(4, [1, 3])
            .map(|s| (s.base(), s.len(), s.location_at(0)))
            .collect();
        assert_eq!(chosen, [full[1], full[3]]);
        assert_eq!(
            chosen[1].2.map(|r| r.time_s),
            Some(2.0),
            "shard 3 is clocked"
        );
    }

    #[test]
    #[should_panic(expected = "outside this broker shard")]
    fn shard_rejects_foreign_node() {
        let mut b = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        b.ensure_nodes(8);
        let mut shards = b.shard_views_iter(4).collect::<Vec<_>>();
        shards[0].apply(&lu(6, 0.0, 0.0, 0.0));
    }
}
