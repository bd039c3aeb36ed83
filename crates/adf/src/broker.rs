use mobigrid_forecast::{
    AxisSmoothing, BrownPositionEstimator, DeadReckoning, HoltLinear, LastKnown, PositionEstimator,
};
use mobigrid_geo::Point;
use mobigrid_telemetry::ApplyOutcome;
use mobigrid_wireless::{LocationUpdate, MnId};

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

impl EstimatorKind {
    fn build(self) -> Box<dyn PositionEstimator + Send + Sync> {
        match self {
            EstimatorKind::WithoutLe => Box::new(LastKnown::new()),
            EstimatorKind::Brown { alpha } => {
                Box::new(BrownPositionEstimator::new(alpha).expect("validated smoothing factor"))
            }
            EstimatorKind::HoltAxes { alpha, beta } => {
                let make = || HoltLinear::new(alpha, beta).expect("validated smoothing factors");
                Box::new(AxisSmoothing::new(make(), make(), 1.0))
            }
            EstimatorKind::DeadReckoning => Box::new(DeadReckoning::new()),
            EstimatorKind::KalmanCv {
                accel_sigma,
                measurement_sigma,
            } => Box::new(
                mobigrid_forecast::KalmanCv::new(accel_sigma, measurement_sigma)
                    .expect("validated sigmas"),
            ),
        }
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
/// pure extrapolation (see [`NodeSlot::note_lost`]).
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
/// Every apply entry point ([`GridBroker::receive`] /
/// [`GridBroker::note_filtered`] / [`GridBroker::note_lost`] and their
/// shard twins) returns one; callers that don't record simply ignore it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplyInfo {
    /// What the broker did.
    pub outcome: ApplyOutcome,
    /// The node's consecutive-loss staleness counter after the call.
    pub staleness: u32,
    /// Trust-window weight toward pure extrapolation (see
    /// [`GridBroker::note_lost`]); 1.0 everywhere else.
    pub blend: f64,
}

/// What [`NodeSlot::receive`] did with an incoming update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RxOutcome {
    /// Stored and fed to the estimator; `fresh` marks the node's first
    /// record.
    Accepted { fresh: bool },
    /// An exact copy of the last accepted update (a channel duplicate) —
    /// ignored, protecting the estimator's monotone-time contract.
    Duplicate,
    /// Older than the last accepted update (a reordered late frame) —
    /// ignored.
    Stale,
}

/// Everything the broker tracks for one node, stored densely by `MnId`
/// index: the current belief, the per-node estimator, the registration
/// anchor, plus the fault-tolerance state (last receipt and staleness).
#[derive(Default)]
struct NodeSlot {
    record: Option<LocationRecord>,
    estimator: Option<Box<dyn PositionEstimator + Send + Sync>>,
    home_anchor: Option<Point>,
    last_rx: Option<LastRx>,
    /// Consecutive expected-but-lost updates since the last receipt.
    staleness: u32,
}

impl NodeSlot {
    /// Ingests a received update, rejecting channel duplicates and
    /// reordered stale frames before they can reach the estimator (whose
    /// observation times must be non-decreasing).
    fn receive(&mut self, kind: EstimatorKind, lu: &LocationUpdate) -> RxOutcome {
        if let Some(rx) = &self.last_rx {
            if lu.time_s == rx.time_s && lu.seq == rx.seq {
                return RxOutcome::Duplicate;
            }
            if lu.time_s < rx.time_s {
                return RxOutcome::Stale;
            }
        }
        let fresh = self.record.is_none();
        self.record = Some(LocationRecord {
            position: lu.position,
            time_s: lu.time_s,
            estimated: false,
        });
        self.last_rx = Some(LastRx {
            time_s: lu.time_s,
            seq: lu.seq,
            position: lu.position,
        });
        self.staleness = 0;
        let anchor = self.home_anchor;
        self.estimator
            .get_or_insert_with(|| {
                let mut est = kind.build();
                if let Some(a) = anchor {
                    est.set_home_anchor(a);
                }
                est
            })
            .observe(lu.time_s, lu.position);
        RxOutcome::Accepted { fresh }
    }

    /// Stores an estimate for a filtered update. Returns
    /// `(estimate_stored, first_record)`.
    fn note_filtered(&mut self, time_s: f64) -> (bool, bool) {
        let Some(est) = &mut self.estimator else {
            return (false, false);
        };
        let Some(position) = est.estimate(time_s) else {
            return (false, false);
        };
        let fresh = self.record.is_none();
        self.record = Some(LocationRecord {
            position,
            time_s,
            estimated: true,
        });
        (true, fresh)
    }

    /// Stores a *degraded* estimate for an update the broker expected but
    /// never received (dropped, corrupted or still in flight).
    ///
    /// Unlike a filtered update — where the filter guarantees the node is
    /// within its DTH of the last transmission — a lost update carries no
    /// such bound, so blind extrapolation can run away (dead reckoning and
    /// the Kalman filter extrapolate unboundedly through silences). The
    /// slot therefore widens its trust window as staleness grows: the
    /// stored belief is the estimator's extrapolation blended toward the
    /// last *confirmed* fix with weight `W / (W + staleness - 1)`
    /// (`W =` [`STALENESS_TRUST_WINDOW`]). The first loss trusts the
    /// estimator fully; sustained silence decays smoothly back to the last
    /// thing the node actually said.
    /// Returns `(estimate_stored, first_record, blend)` where `blend` is
    /// the trust weight applied toward pure extrapolation (1.0 when no
    /// blending happened — no confirmed fix to blend toward, or nothing
    /// stored at all).
    fn note_lost(&mut self, time_s: f64) -> (bool, bool, f64) {
        self.staleness = self.staleness.saturating_add(1);
        let Some(est) = &mut self.estimator else {
            return (false, false, 1.0);
        };
        let Some(extrapolated) = est.estimate(time_s) else {
            return (false, false, 1.0);
        };
        let (position, blend) = match &self.last_rx {
            Some(rx) => {
                let trust = STALENESS_TRUST_WINDOW
                    / (STALENESS_TRUST_WINDOW + f64::from(self.staleness - 1));
                (
                    Point::new(
                        rx.position.x + (extrapolated.x - rx.position.x) * trust,
                        rx.position.y + (extrapolated.y - rx.position.y) * trust,
                    ),
                    trust,
                )
            }
            None => (extrapolated, 1.0),
        };
        let fresh = self.record.is_none();
        self.record = Some(LocationRecord {
            position,
            time_s,
            estimated: true,
        });
        (true, fresh, blend)
    }
}

/// Counter changes accumulated by a [`BrokerShard`], merged back into the
/// owning [`GridBroker`] in shard order after a parallel region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerDelta {
    /// Updates received.
    pub received: u64,
    /// Estimates performed.
    pub estimated: u64,
    /// Nodes that gained their first record.
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
    slots: &'a mut [NodeSlot],
    delta: BrokerDelta,
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
        self.slots.len()
    }

    /// Whether the shard covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot_mut(&mut self, node: MnId) -> &mut NodeSlot {
        let local = node
            .index()
            .checked_sub(self.base)
            .filter(|i| *i < self.slots.len())
            .expect("node id outside this broker shard");
        &mut self.slots[local]
    }

    /// Ingests a received location update for a node in this shard.
    /// Duplicate and stale frames are counted as rejected, not received.
    pub fn receive(&mut self, lu: &LocationUpdate) -> ApplyInfo {
        let kind = self.kind;
        let (rx, staleness) = {
            let slot = self.slot_mut(lu.node);
            let rx = slot.receive(kind, lu);
            (rx, slot.staleness)
        };
        let outcome = match rx {
            RxOutcome::Accepted { fresh } => {
                self.delta.received += 1;
                self.delta.fresh_records += u64::from(fresh);
                ApplyOutcome::Accepted
            }
            RxOutcome::Duplicate => {
                self.delta.rejected += 1;
                ApplyOutcome::Duplicate
            }
            RxOutcome::Stale => {
                self.delta.rejected += 1;
                ApplyOutcome::Stale
            }
        };
        ApplyInfo {
            outcome,
            staleness,
            blend: 1.0,
        }
    }

    /// Notes a filtered update for a node in this shard: estimates and
    /// stores its position, as [`GridBroker::note_filtered`] does.
    pub fn note_filtered(&mut self, node: MnId, time_s: f64) -> ApplyInfo {
        let slot = self.slot_mut(node);
        let (estimated, fresh) = slot.note_filtered(time_s);
        let staleness = slot.staleness;
        self.delta.estimated += u64::from(estimated);
        self.delta.fresh_records += u64::from(fresh);
        ApplyInfo {
            outcome: if estimated {
                ApplyOutcome::Estimated
            } else {
                ApplyOutcome::NoRecord
            },
            staleness,
            blend: 1.0,
        }
    }

    /// Notes an update that was sent but never arrived: stores a degraded
    /// estimate, as [`GridBroker::note_lost`] does.
    pub fn note_lost(&mut self, node: MnId, time_s: f64) -> ApplyInfo {
        let slot = self.slot_mut(node);
        let (estimated, fresh, blend) = slot.note_lost(time_s);
        let staleness = slot.staleness;
        self.delta.lost += 1;
        self.delta.estimated += u64::from(estimated);
        self.delta.fresh_records += u64::from(fresh);
        ApplyInfo {
            outcome: if estimated {
                ApplyOutcome::Degraded
            } else {
                ApplyOutcome::NoRecord
            },
            staleness,
            blend,
        }
    }

    /// Whether `node`'s estimator is provably *time-invariant*: its
    /// [`PositionEstimator::estimate`] returns bit-identical results for
    /// every query time until the next `observe`/`reset`. A node with no
    /// estimator yet is trivially static (every `note_filtered` is a
    /// `NoRecord` no-op until a receive builds one).
    ///
    /// This is the safety gate for [`BrokerShard::replay_filtered`].
    #[must_use]
    pub fn estimator_is_static(&self, node: MnId) -> bool {
        let local = node
            .index()
            .checked_sub(self.base)
            .filter(|i| *i < self.slots.len())
            .expect("node id outside this broker shard");
        self.slots[local]
            .estimator
            .as_ref()
            .is_none_or(|e| e.is_static())
    }

    /// Replays a cached filtered-update evaluation without consulting the
    /// estimator: stores `stored` (the estimate a previous
    /// [`BrokerShard::note_filtered`] produced) at the new `time_s`, or
    /// does nothing when the previous evaluation produced no estimate.
    ///
    /// Bit-identical to `note_filtered` **provided** the slot's estimator
    /// was static ([`BrokerShard::estimator_is_static`]) and untouched
    /// (no receive / loss) since `stored` was captured — the sparse
    /// driver's idle-replay contract.
    pub fn replay_filtered(&mut self, node: MnId, time_s: f64, stored: Option<Point>) -> ApplyInfo {
        let slot = self.slot_mut(node);
        let (estimated, fresh) = match stored {
            Some(position) => {
                let fresh = slot.record.is_none();
                slot.record = Some(LocationRecord {
                    position,
                    time_s,
                    estimated: true,
                });
                (true, fresh)
            }
            None => (false, false),
        };
        let staleness = slot.staleness;
        self.delta.estimated += u64::from(estimated);
        self.delta.fresh_records += u64::from(fresh);
        ApplyInfo {
            outcome: if estimated {
                ApplyOutcome::Estimated
            } else {
                ApplyOutcome::NoRecord
            },
            staleness,
            blend: 1.0,
        }
    }

    /// Number of nodes in this shard currently marked stale (at least one
    /// consecutive loss since their last receipt).
    #[must_use]
    pub fn stale_count(&self) -> u32 {
        let mut n = 0u32;
        for slot in self.slots.iter() {
            n += u32::from(slot.staleness > 0);
        }
        n
    }

    /// The shard's current belief about a node — a direct dense-slot read,
    /// no map lookup.
    #[must_use]
    pub fn location(&self, node: MnId) -> Option<&LocationRecord> {
        let local = node
            .index()
            .checked_sub(self.base)
            .filter(|i| *i < self.slots.len())
            .expect("node id outside this broker shard");
        self.slots[local].record.as_ref()
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
/// likely position and stores that instead, flagged as estimated.
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
/// use mobigrid_wireless::{LocationUpdate, MnId};
///
/// let mut broker = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
/// let mn = MnId::new(1);
/// for t in 0..10 {
///     let lu = LocationUpdate::new(mn, t as f64, Point::new(2.0 * t as f64, 0.0), t);
///     broker.receive(&lu);
/// }
/// // The next two updates are filtered; the broker extrapolates the walk.
/// broker.note_filtered(mn, 10.0);
/// let rec = broker.location(mn).unwrap();
/// assert!(rec.estimated);
/// assert!((rec.position.x - 20.0).abs() < 1.0);
/// ```
pub struct GridBroker {
    kind: EstimatorKind,
    slots: Vec<NodeSlot>,
    live_records: usize,
    received: u64,
    estimated: u64,
    lost: u64,
    rejected: u64,
}

impl std::fmt::Debug for GridBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridBroker")
            .field("kind", &self.kind)
            .field("nodes", &self.live_records)
            .field("received", &self.received)
            .field("estimated", &self.estimated)
            .field("lost", &self.lost)
            .field("rejected", &self.rejected)
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
            slots: Vec::new(),
            live_records: 0,
            received: 0,
            estimated: 0,
            lost: 0,
            rejected: 0,
        })
    }

    /// Pre-sizes the dense slot storage for node indices `0..n`. Growing is
    /// otherwise on demand; pre-sizing lets [`GridBroker::shard_views`]
    /// cover the whole population.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, NodeSlot::default);
        }
    }

    /// Registers where `node` lives (its home region's centre) as prior
    /// knowledge for the location estimator. In a mobile grid the broker
    /// holds this from node registration; estimators that maintain a
    /// long-horizon anchor shrink toward it while a node's own history is
    /// thin.
    pub fn set_home_anchor(&mut self, node: MnId, anchor: Point) {
        self.ensure_nodes(node.index() + 1);
        let slot = &mut self.slots[node.index()];
        slot.home_anchor = Some(anchor);
        if let Some(est) = &mut slot.estimator {
            est.set_home_anchor(anchor);
        }
    }

    /// The estimator this broker runs.
    #[must_use]
    pub fn estimator_kind(&self) -> EstimatorKind {
        self.kind
    }

    /// Ingests a received location update. Exact duplicates of the last
    /// accepted update and frames older than it (channel reorderings) are
    /// rejected and counted in [`GridBroker::rejected_count`].
    pub fn receive(&mut self, lu: &LocationUpdate) -> ApplyInfo {
        self.ensure_nodes(lu.node.index() + 1);
        let kind = self.kind;
        let slot = &mut self.slots[lu.node.index()];
        let rx = slot.receive(kind, lu);
        let staleness = slot.staleness;
        let outcome = match rx {
            RxOutcome::Accepted { fresh } => {
                self.received += 1;
                self.live_records += usize::from(fresh);
                ApplyOutcome::Accepted
            }
            RxOutcome::Duplicate => {
                self.rejected += 1;
                ApplyOutcome::Duplicate
            }
            RxOutcome::Stale => {
                self.rejected += 1;
                ApplyOutcome::Stale
            }
        };
        ApplyInfo {
            outcome,
            staleness,
            blend: 1.0,
        }
    }

    /// Notes that `node`'s update at `time_s` was filtered: estimates its
    /// position and stores the estimate.
    ///
    /// A node never heard from has no record and no estimator; the call is
    /// a no-op then (the broker cannot invent a location).
    pub fn note_filtered(&mut self, node: MnId, time_s: f64) -> ApplyInfo {
        let Some(slot) = self.slots.get_mut(node.index()) else {
            return ApplyInfo {
                outcome: ApplyOutcome::NoRecord,
                staleness: 0,
                blend: 1.0,
            };
        };
        let (estimated, fresh) = slot.note_filtered(time_s);
        let staleness = slot.staleness;
        self.estimated += u64::from(estimated);
        self.live_records += usize::from(fresh);
        ApplyInfo {
            outcome: if estimated {
                ApplyOutcome::Estimated
            } else {
                ApplyOutcome::NoRecord
            },
            staleness,
            blend: 1.0,
        }
    }

    /// Notes that `node`'s update at `time_s` was sent but never arrived
    /// (dropped, corrupted or delayed past this tick): stores a degraded
    /// estimate whose trust in extrapolation shrinks with consecutive
    /// losses, and bumps the node's staleness counter.
    ///
    /// A node never heard from has no estimator; only the staleness
    /// bookkeeping happens then.
    pub fn note_lost(&mut self, node: MnId, time_s: f64) -> ApplyInfo {
        self.ensure_nodes(node.index() + 1);
        let slot = &mut self.slots[node.index()];
        let (estimated, fresh, blend) = slot.note_lost(time_s);
        let staleness = slot.staleness;
        self.lost += 1;
        self.estimated += u64::from(estimated);
        self.live_records += usize::from(fresh);
        ApplyInfo {
            outcome: if estimated {
                ApplyOutcome::Degraded
            } else {
                ApplyOutcome::NoRecord
            },
            staleness,
            blend,
        }
    }

    /// Consecutive losses since `node`'s last accepted update (zero for a
    /// healthy or unknown node).
    #[must_use]
    pub fn staleness(&self, node: MnId) -> u32 {
        self.slots.get(node.index()).map_or(0, |s| s.staleness)
    }

    /// The broker's current belief about `node`.
    #[must_use]
    pub fn location(&self, node: MnId) -> Option<LocationRecord> {
        self.slots.get(node.index()).and_then(|s| s.record)
    }

    /// Splits the broker's slots into contiguous shards of `shard_size`
    /// nodes for a parallel region. Call [`GridBroker::ensure_nodes`] first
    /// so the shards cover the whole population; merge each shard's
    /// [`BrokerDelta`] back with [`GridBroker::apply_delta`] in shard order.
    ///
    /// # Panics
    ///
    /// Panics when `shard_size` is zero.
    pub fn shard_views(&mut self, shard_size: usize) -> Vec<BrokerShard<'_>> {
        self.shard_views_iter(shard_size).collect()
    }

    /// Iterator form of [`GridBroker::shard_views`]: yields the shards
    /// lazily without collecting them into a `Vec`, so a caller zipping
    /// broker shards into larger per-shard jobs allocates nothing here.
    ///
    /// # Panics
    ///
    /// Panics when `shard_size` is zero.
    pub fn shard_views_iter(
        &mut self,
        shard_size: usize,
    ) -> impl ExactSizeIterator<Item = BrokerShard<'_>> {
        assert!(shard_size > 0, "shard size must be positive");
        let kind = self.kind;
        self.slots
            .chunks_mut(shard_size)
            .enumerate()
            .map(move |(i, slots)| BrokerShard {
                kind,
                base: i * shard_size,
                slots,
                delta: BrokerDelta::default(),
            })
    }

    /// Merges a shard's counter changes back into the broker.
    pub fn apply_delta(&mut self, delta: &BrokerDelta) {
        self.received += delta.received;
        self.estimated += delta.estimated;
        self.live_records += delta.fresh_records as usize;
        self.lost += delta.lost;
        self.rejected += delta.rejected;
    }

    /// Number of nodes with a record in the location DB.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live_records
    }

    /// Updates received.
    #[must_use]
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// Estimates performed.
    #[must_use]
    pub fn estimated_count(&self) -> u64 {
        self.estimated
    }

    /// Expected updates that never arrived (lost to the channel).
    #[must_use]
    pub fn lost_count(&self) -> u64 {
        self.lost
    }

    /// Received frames rejected as duplicates or stale reorderings.
    #[must_use]
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Total slot capacity (node indices `0..capacity` are addressable
    /// without growth). Distinct from [`GridBroker::node_count`], which
    /// counts nodes holding a live record.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterates every node the broker holds a belief for, in node order,
    /// yielding `(node, record, staleness)` — the read surface the serve
    /// crate's census and staleness queries are built on.
    pub fn records(&self) -> impl Iterator<Item = (MnId, LocationRecord, u32)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.record
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
    /// [`BrokerStore`](crate::BrokerStore) computes the identical digest
    /// over its shards via [`StateDigest`], so the two are directly
    /// comparable.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut digest = StateDigest::new();
        for (node, record, staleness) in self.records() {
            digest.record(u64::from(node.raw()), &record, staleness);
        }
        digest.counters(
            self.live_records as u64,
            self.received,
            self.estimated,
            self.lost,
            self.rejected,
        );
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
    pub fn counters(&mut self, live: u64, received: u64, estimated: u64, lost: u64, rejected: u64) {
        self.fold(live);
        self.fold(received);
        self.fold(estimated);
        self.fold(lost);
        self.fold(rejected);
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

    fn lu(node: u32, t: f64, x: f64, y: f64) -> LocationUpdate {
        LocationUpdate::new(MnId::new(node), t, Point::new(x, y), 0)
    }

    #[test]
    fn without_le_keeps_last_received() {
        let mut b = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        b.receive(&lu(1, 0.0, 5.0, 5.0));
        b.note_filtered(MnId::new(1), 10.0);
        let rec = b.location(MnId::new(1)).unwrap();
        // "Estimate" equals the stale last position.
        assert_eq!(rec.position, Point::new(5.0, 5.0));
        assert!(rec.estimated);
    }

    #[test]
    fn brown_extrapolates_straight_walks() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        for t in 0..20 {
            b.receive(&lu(1, t as f64, 1.5 * t as f64, 0.0));
        }
        b.note_filtered(MnId::new(1), 22.0);
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
        b.receive(&lu(1, 0.0, 0.0, 0.0));
        b.receive(&lu(1, 1.0, 1.0, 0.0));
        b.note_filtered(MnId::new(1), 2.0);
        assert!(b.location(MnId::new(1)).unwrap().estimated);
        b.receive(&lu(1, 3.0, 3.0, 0.0));
        let rec = b.location(MnId::new(1)).unwrap();
        assert!(!rec.estimated);
        assert_eq!(rec.position, Point::new(3.0, 0.0));
    }

    #[test]
    fn unknown_node_filtered_is_noop() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.note_filtered(MnId::new(9), 1.0);
        assert_eq!(b.location(MnId::new(9)), None);
        assert_eq!(b.estimated_count(), 0);
    }

    #[test]
    fn counters_track_activity() {
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        b.receive(&lu(1, 0.0, 0.0, 0.0));
        b.receive(&lu(2, 0.0, 1.0, 1.0));
        b.note_filtered(MnId::new(1), 1.0);
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
            b.receive(&lu(1, t as f64, t as f64, 2.0 * t as f64));
        }
        b.note_filtered(MnId::new(1), 31.0);
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
        b.receive(&lu(0, 0.0, 1.0, 1.0));
        assert_eq!(b.node_count(), 1);
        assert!(b.location(MnId::new(0)).is_some());
    }

    #[test]
    fn shard_views_partition_the_population() {
        let mut b = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        b.ensure_nodes(10);
        let shards = b.shard_views(4);
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
                seq.receive(&lu(node, t as f64, f64::from(node) + t as f64, 0.0));
            }
        }
        seq.note_filtered(MnId::new(2), 5.0);

        {
            let mut shards = sharded.shard_views(4);
            for t in 0..5 {
                for node in 0..6u32 {
                    let shard = &mut shards[node as usize / 4];
                    shard.receive(&lu(node, t as f64, f64::from(node) + t as f64, 0.0));
                }
            }
            shards[0].note_filtered(MnId::new(2), 5.0);
            let deltas: Vec<BrokerDelta> = shards.into_iter().map(BrokerShard::into_delta).collect();
            for d in &deltas {
                sharded.apply_delta(d);
            }
        }

        assert_eq!(seq.received_count(), sharded.received_count());
        assert_eq!(seq.estimated_count(), sharded.estimated_count());
        assert_eq!(seq.node_count(), sharded.node_count());
        for node in 0..6u32 {
            assert_eq!(seq.location(MnId::new(node)), sharded.location(MnId::new(node)));
        }
    }

    #[test]
    fn duplicate_frames_are_rejected() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        let update = lu(1, 1.0, 2.0, 3.0);
        b.receive(&update);
        b.receive(&update); // channel duplicate: same time, same seq
        assert_eq!(b.received_count(), 1);
        assert_eq!(b.rejected_count(), 1);
        assert!(!b.location(MnId::new(1)).unwrap().estimated);
    }

    #[test]
    fn stale_frames_are_rejected() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.receive(&lu(1, 5.0, 10.0, 0.0));
        // A delayed frame from t=2 arrives after the t=5 one: dropped, and
        // the stored belief keeps the newer position.
        b.receive(&lu(1, 2.0, 4.0, 0.0));
        assert_eq!(b.received_count(), 1);
        assert_eq!(b.rejected_count(), 1);
        assert_eq!(b.location(MnId::new(1)).unwrap().position, Point::new(10.0, 0.0));
    }

    #[test]
    fn lost_updates_degrade_toward_last_receipt() {
        // A node walking +2 m/s goes silent; the degraded estimate must sit
        // between the last confirmed fix and the raw extrapolation, and move
        // toward the fix as staleness grows.
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        b.receive(&lu(1, 0.0, 0.0, 0.0));
        b.receive(&lu(1, 1.0, 2.0, 0.0));
        let last_rx_x = 2.0;

        b.note_lost(MnId::new(1), 2.0);
        let first = b.location(MnId::new(1)).unwrap();
        assert!(first.estimated);
        // staleness = 1 → trust = 1.0 → pure extrapolation (x = 4).
        assert!((first.position.x - 4.0).abs() < 1e-9, "x = {}", first.position.x);
        assert_eq!(b.staleness(MnId::new(1)), 1);

        for k in 2..=10u32 {
            b.note_lost(MnId::new(1), 1.0 + f64::from(k));
        }
        let later = b.location(MnId::new(1)).unwrap();
        let raw_x = 2.0 + 2.0 * 10.0; // dead reckoning at t=11
        assert_eq!(b.staleness(MnId::new(1)), 10);
        assert!(later.position.x > last_rx_x && later.position.x < raw_x);
        // trust = 8/(8+9): well under half the raw extrapolated offset.
        let expected_x = last_rx_x + (raw_x - last_rx_x) * (8.0 / 17.0);
        assert!((later.position.x - expected_x).abs() < 1e-9, "x = {}", later.position.x);
        assert_eq!(b.lost_count(), 10);
    }

    #[test]
    fn receive_resets_staleness() {
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        b.receive(&lu(1, 0.0, 0.0, 0.0));
        b.note_lost(MnId::new(1), 1.0);
        b.note_lost(MnId::new(1), 2.0);
        assert_eq!(b.staleness(MnId::new(1)), 2);
        b.receive(&lu(1, 3.0, 6.0, 0.0));
        assert_eq!(b.staleness(MnId::new(1)), 0);
        assert!(!b.location(MnId::new(1)).unwrap().estimated);
    }

    #[test]
    fn note_lost_on_unknown_node_only_tracks_staleness() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.note_lost(MnId::new(4), 1.0);
        assert_eq!(b.location(MnId::new(4)), None);
        assert_eq!(b.lost_count(), 1);
        assert_eq!(b.estimated_count(), 0);
        assert_eq!(b.staleness(MnId::new(4)), 1);
    }

    #[test]
    fn shard_note_lost_matches_sequential() {
        let mut seq = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        let mut sharded = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        sharded.ensure_nodes(4);

        for t in 0..3 {
            for node in 0..4u32 {
                seq.receive(&lu(node, t as f64, f64::from(node) * t as f64, 0.0));
            }
        }
        seq.note_lost(MnId::new(1), 3.0);
        seq.note_lost(MnId::new(1), 4.0);
        seq.note_lost(MnId::new(3), 3.0);

        {
            let mut shards = sharded.shard_views(2);
            for t in 0..3 {
                for node in 0..4u32 {
                    let shard = &mut shards[node as usize / 2];
                    shard.receive(&lu(node, t as f64, f64::from(node) * t as f64, 0.0));
                }
            }
            shards[0].note_lost(MnId::new(1), 3.0);
            shards[0].note_lost(MnId::new(1), 4.0);
            shards[1].note_lost(MnId::new(3), 3.0);
            assert_eq!(shards[0].stale_count(), 1);
            assert_eq!(shards[1].stale_count(), 1);
            let deltas: Vec<BrokerDelta> = shards.into_iter().map(BrokerShard::into_delta).collect();
            for d in &deltas {
                sharded.apply_delta(d);
            }
        }

        assert_eq!(seq.lost_count(), sharded.lost_count());
        assert_eq!(seq.estimated_count(), sharded.estimated_count());
        for node in 0..4u32 {
            assert_eq!(seq.location(MnId::new(node)), sharded.location(MnId::new(node)));
            assert_eq!(seq.staleness(MnId::new(node)), sharded.staleness(MnId::new(node)));
        }
    }

    #[test]
    fn apply_info_reports_outcome_staleness_and_blend() {
        let mut b = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        // Unknown node: nothing to estimate from.
        let info = b.note_filtered(MnId::new(1), 0.0);
        assert_eq!(info.outcome, ApplyOutcome::NoRecord);
        fn check(info: ApplyInfo, outcome: ApplyOutcome, staleness: u32) {
            assert_eq!(info.outcome, outcome);
            assert_eq!(info.staleness, staleness);
        }
        check(b.receive(&lu(1, 0.0, 0.0, 0.0)), ApplyOutcome::Accepted, 0);
        check(b.receive(&lu(1, 1.0, 2.0, 0.0)), ApplyOutcome::Accepted, 0);
        // Duplicate and stale frames keep staleness untouched.
        check(b.receive(&lu(1, 1.0, 2.0, 0.0)), ApplyOutcome::Duplicate, 0);
        check(b.receive(&lu(1, 0.5, 1.0, 0.0)), ApplyOutcome::Stale, 0);
        // Suppressed tick: estimated, still not stale, no blending.
        let info = b.note_filtered(MnId::new(1), 2.0);
        check(info, ApplyOutcome::Estimated, 0);
        assert_eq!(info.blend, 1.0);
        // First loss: degraded with full trust in extrapolation.
        let info = b.note_lost(MnId::new(1), 3.0);
        check(info, ApplyOutcome::Degraded, 1);
        assert!((info.blend - 1.0).abs() < 1e-12);
        // Second loss: trust shrinks to W/(W+1) = 8/9.
        let info = b.note_lost(MnId::new(1), 4.0);
        check(info, ApplyOutcome::Degraded, 2);
        assert!((info.blend - 8.0 / 9.0).abs() < 1e-12, "blend {}", info.blend);
        // A receive resets staleness.
        check(b.receive(&lu(1, 5.0, 10.0, 0.0)), ApplyOutcome::Accepted, 0);
        // Loss on a never-heard-from node: staleness only, nothing stored.
        check(b.note_lost(MnId::new(7), 5.0), ApplyOutcome::NoRecord, 1);

        // Shard views report the same ApplyInfo shape.
        let mut sb = GridBroker::new(EstimatorKind::DeadReckoning).unwrap();
        sb.ensure_nodes(2);
        let mut shards = sb.shard_views(2);
        check(shards[0].receive(&lu(0, 0.0, 0.0, 0.0)), ApplyOutcome::Accepted, 0);
        check(shards[0].receive(&lu(0, 1.0, 1.0, 0.0)), ApplyOutcome::Accepted, 0);
        check(shards[0].note_lost(MnId::new(0), 2.0), ApplyOutcome::Degraded, 1);
        check(shards[0].note_filtered(MnId::new(1), 2.0), ApplyOutcome::NoRecord, 0);
    }

    #[test]
    fn replay_filtered_matches_note_filtered_for_static_estimators() {
        // A node that never moves: Brown's direction smoother never warms,
        // so the estimator stays static and note_filtered keeps producing
        // the same position. The replay must be indistinguishable.
        let mk = || GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        let (mut live, mut replayed) = (mk(), mk());
        for b in [&mut live, &mut replayed] {
            b.ensure_nodes(2);
            b.receive(&lu(0, 0.0, 5.0, 5.0));
            b.receive(&lu(0, 1.0, 5.0, 5.0));
        }
        let node = MnId::new(0);

        // Capture the cacheable evaluation from a full note_filtered.
        let stored = {
            let mut shards = live.shard_views(2);
            assert!(shards[0].estimator_is_static(node));
            let info = shards[0].note_filtered(node, 2.0);
            assert_eq!(info.outcome, ApplyOutcome::Estimated);
            let pos = shards[0].location(node).unwrap().position;
            let d: Vec<BrokerDelta> = shards.into_iter().map(BrokerShard::into_delta).collect();
            for delta in &d {
                live.apply_delta(delta);
            }
            Some(pos)
        };

        // Dense side: two more live evaluations. Sparse side: one live
        // (to create the cache point) then replays.
        for t in [2.0, 3.0, 4.0] {
            let mut shards = live.shard_views(2);
            if t > 2.0 {
                shards[0].note_filtered(node, t);
            }
            let mut r = replayed.shard_views(2);
            if t == 2.0 {
                r[0].note_filtered(node, t);
            } else {
                let info = r[0].replay_filtered(node, t, stored);
                assert_eq!(info.outcome, ApplyOutcome::Estimated);
                assert_eq!(info.staleness, 0);
            }
            let dl: Vec<BrokerDelta> = shards.into_iter().map(BrokerShard::into_delta).collect();
            for delta in &dl {
                live.apply_delta(delta);
            }
            let dr: Vec<BrokerDelta> = r.into_iter().map(BrokerShard::into_delta).collect();
            for delta in &dr {
                replayed.apply_delta(delta);
            }
        }
        assert_eq!(live.location(node), replayed.location(node));
        assert_eq!(live.estimated_count(), replayed.estimated_count());
        assert_eq!(live.node_count(), replayed.node_count());

        // A never-heard-from node: static (no estimator), and replaying
        // its NoRecord evaluation changes nothing.
        let ghost = MnId::new(1);
        let mut r = replayed.shard_views(2);
        assert!(r[0].estimator_is_static(ghost));
        let info = r[0].replay_filtered(ghost, 5.0, None);
        assert_eq!(info.outcome, ApplyOutcome::NoRecord);
        let dr: Vec<BrokerDelta> = r.into_iter().map(BrokerShard::into_delta).collect();
        assert_eq!(dr[0], BrokerDelta::default());
    }

    #[test]
    fn moving_node_estimator_is_not_static() {
        let mut b = GridBroker::new(EstimatorKind::Brown { alpha: 0.5 }).unwrap();
        b.ensure_nodes(1);
        for t in 0..10 {
            b.receive(&lu(0, f64::from(t), 2.0 * f64::from(t), 0.0));
        }
        let shards = b.shard_views(1);
        assert!(!shards[0].estimator_is_static(MnId::new(0)));
    }

    #[test]
    #[should_panic(expected = "outside this broker shard")]
    fn shard_rejects_foreign_node() {
        let mut b = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        b.ensure_nodes(8);
        let mut shards = b.shard_views(4);
        shards[0].receive(&lu(6, 0.0, 0.0, 0.0));
    }
}
