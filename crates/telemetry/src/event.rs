//! Structured events, per-phase spans and the bounded ring they live in.
//!
//! The flight-recorder events give every generated location update a
//! stable `(node, seq)` identity — `seq` is the tick the update was
//! generated on — and record its whole lifecycle as linked events:
//! [`EventKind::LuGenerated`] → [`EventKind::LuClassified`] →
//! [`EventKind::LuDecision`] → [`EventKind::LuChannel`] (one per
//! transmission attempt) → [`EventKind::LuApply`] →
//! [`EventKind::LuError`]. The trace CLI in `mobigrid-experiments`
//! reconstructs per-update causal chains from the exported stream.

use crate::clock::Stamp;

/// The pipeline phase a timing span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Ground-truth advancement (phase 1).
    Observe,
    /// Filter-policy evaluation (phase 2).
    Filter,
    /// Network routing and fault-channel traversal (phase 2b).
    Transmit,
    /// Broker apply / estimate / measure (phases 3+4).
    Estimate,
    /// Broker-service ingest: decoding and applying one LU batch
    /// (`mobigrid-broker-serve`).
    Ingest,
    /// Broker-service query: parsing and answering one RPC request
    /// (`mobigrid-broker-serve`).
    Query,
    /// Broker-service self-profiling: decoding one ingest frame's records
    /// (`mobigrid-broker-serve`, `--profile`).
    Decode,
    /// Broker-service self-profiling: CRC-verifying one frame's LU
    /// records (`mobigrid-broker-serve`, `--profile`).
    Crc,
    /// Broker-service self-profiling: applying one decoded batch to the
    /// sharded store (`mobigrid-broker-serve`, `--profile`).
    Apply,
    /// Broker-service self-profiling: folding the shard digests for one
    /// digest query (`mobigrid-broker-serve`, `--profile`).
    Digest,
}

impl Phase {
    /// The phase's stable lowercase name, as used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Observe => "observe",
            Phase::Filter => "filter",
            Phase::Transmit => "transmit",
            Phase::Estimate => "estimate",
            Phase::Ingest => "ingest",
            Phase::Query => "query",
            Phase::Decode => "decode",
            Phase::Crc => "crc",
            Phase::Apply => "apply",
            Phase::Digest => "digest",
        }
    }
}

/// What the link did to one transmitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Delivered to the brokers this tick.
    Delivered,
    /// Delivered along with a duplicate copy.
    DeliveredDuplicate,
    /// Deferred in flight; it will arrive on a later tick.
    Deferred,
    /// A previously deferred frame arrived this tick.
    ArrivedLate,
    /// Never reached the air: no gateway covered the sender.
    DroppedNoCoverage,
    /// Lost in flight by the fault channel.
    DroppedFault,
    /// Arrived but failed its checksum and was discarded.
    DroppedCorrupted,
}

impl LinkFate {
    /// The fate's stable snake_case name, as used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LinkFate::Delivered => "delivered",
            LinkFate::DeliveredDuplicate => "delivered_duplicate",
            LinkFate::Deferred => "deferred",
            LinkFate::ArrivedLate => "arrived_late",
            LinkFate::DroppedNoCoverage => "dropped_no_coverage",
            LinkFate::DroppedFault => "dropped_fault",
            LinkFate::DroppedCorrupted => "dropped_corrupted",
        }
    }

    /// Parses the exporter name back (see [`LinkFate::name`]).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "delivered" => Some(LinkFate::Delivered),
            "delivered_duplicate" => Some(LinkFate::DeliveredDuplicate),
            "deferred" => Some(LinkFate::Deferred),
            "arrived_late" => Some(LinkFate::ArrivedLate),
            "dropped_no_coverage" => Some(LinkFate::DroppedNoCoverage),
            "dropped_fault" => Some(LinkFate::DroppedFault),
            "dropped_corrupted" => Some(LinkFate::DroppedCorrupted),
            _ => None,
        }
    }
}

/// The mobility class the ADF assigned a node — the paper's SS / RMS /
/// LMS taxonomy, mirrored here so classification events carry a fixed-size
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityClass {
    /// Stationary State (SS).
    Stop,
    /// Random Movement State (RMS).
    Random,
    /// Linear Movement State (LMS).
    Linear,
}

impl MobilityClass {
    /// The class's stable snake_case name, as used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MobilityClass::Stop => "stop",
            MobilityClass::Random => "random",
            MobilityClass::Linear => "linear",
        }
    }

    /// Parses the exporter name back (see [`MobilityClass::name`]).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "stop" => Some(MobilityClass::Stop),
            "random" => Some(MobilityClass::Random),
            "linear" => Some(MobilityClass::Linear),
            _ => None,
        }
    }
}

/// What the broker did when one location update (or its absence) reached
/// the apply phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// A received update was stored and fed to the estimator.
    Accepted,
    /// A received frame was an exact copy of the last accepted one
    /// (channel duplicate) and was rejected.
    Duplicate,
    /// A received frame was older than the last accepted one (a reordered
    /// late frame) and was rejected.
    Stale,
    /// A suppressed update: the broker stored the estimator's position.
    Estimated,
    /// An expected-but-lost update: the broker stored a degraded estimate
    /// blended toward the last confirmed fix.
    Degraded,
    /// The broker had nothing to apply (node never heard from, or no
    /// estimate available).
    NoRecord,
}

impl ApplyOutcome {
    /// The outcome's stable snake_case name, as used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ApplyOutcome::Accepted => "accepted",
            ApplyOutcome::Duplicate => "duplicate",
            ApplyOutcome::Stale => "stale",
            ApplyOutcome::Estimated => "estimated",
            ApplyOutcome::Degraded => "degraded",
            ApplyOutcome::NoRecord => "no_record",
        }
    }

    /// Parses the exporter name back (see [`ApplyOutcome::name`]).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "accepted" => Some(ApplyOutcome::Accepted),
            "duplicate" => Some(ApplyOutcome::Duplicate),
            "stale" => Some(ApplyOutcome::Stale),
            "estimated" => Some(ApplyOutcome::Estimated),
            "degraded" => Some(ApplyOutcome::Degraded),
            "no_record" => Some(ApplyOutcome::NoRecord),
            _ => None,
        }
    }
}

/// One structured event. All variants are `Copy` and fixed-size so the
/// ring never touches the heap after construction.
///
/// The `Lu*` variants share the flight-recorder identity `(node, seq)`:
/// `node` is the dense node index and `seq` is the tick the location
/// update was *generated* on (each node generates exactly one observation
/// per tick, so the generation tick identifies the update without
/// perturbing the wire sequence numbers the fault channel hashes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A node's ground-truth observation was generated this tick.
    LuGenerated {
        /// The node's dense index.
        node: u32,
        /// The flight-recorder sequence (generation tick).
        seq: u32,
        /// Ground-truth x in metres.
        x: f64,
        /// Ground-truth y in metres.
        y: f64,
    },
    /// The classification/cluster state in force when the update was
    /// filtered (only policies that classify emit this).
    LuClassified {
        /// The node's dense index.
        node: u32,
        /// The flight-recorder sequence (generation tick).
        seq: u32,
        /// The node's mobility class (SS / RMS / LMS).
        class: MobilityClass,
        /// The velocity cluster the node was assigned (`-1` = none, e.g.
        /// a stopped node excluded from clustering).
        cluster: i32,
        /// The distance threshold in force, in metres.
        dth: f64,
    },
    /// The filter policy decided whether one node's observation transmits.
    LuDecision {
        /// The node's dense index.
        node: u32,
        /// The flight-recorder sequence (generation tick).
        seq: u32,
        /// True when the update was sent, false when suppressed.
        sent: bool,
        /// Displacement against the filter's reference in metres (NaN —
        /// exported as `null` — when the policy exposes none, e.g. a
        /// node's first observation).
        displacement: f64,
        /// The distance threshold compared against, in metres (NaN when
        /// the policy has none).
        dth: f64,
    },
    /// The access network / fault channel resolved one transmission
    /// attempt's fate.
    LuChannel {
        /// The sending node's dense index.
        node: u32,
        /// The flight-recorder sequence (generation tick; for
        /// [`LinkFate::ArrivedLate`] this is the tick the frame was
        /// originally generated, not the arrival tick).
        seq: u32,
        /// The wire sequence number the frame carried.
        wire_seq: u32,
        /// The attempt number (0 = first transmission, >0 = retry).
        attempt: u32,
        /// What happened to the frame.
        fate: LinkFate,
        /// For [`LinkFate::Deferred`], the tick the frame will arrive;
        /// for [`LinkFate::ArrivedLate`], the arrival tick; 0 otherwise.
        due_tick: u64,
    },
    /// The broker (with-LE arm) applied this node's tick: a received
    /// update, an estimate for a suppressed one, or a degraded estimate
    /// for a lost one.
    LuApply {
        /// The node's dense index.
        node: u32,
        /// The flight-recorder sequence (generation tick of the applied
        /// update; for a late frame this is older than the current tick).
        seq: u32,
        /// What the broker did.
        outcome: ApplyOutcome,
        /// Consecutive-loss staleness counter after the apply.
        staleness: u32,
        /// Trust-window blend weight toward pure extrapolation (1.0 when
        /// no blending happened).
        blend: f64,
    },
    /// The estimation-error sample for this node at this tick.
    LuError {
        /// The node's dense index.
        node: u32,
        /// The flight-recorder sequence (generation tick).
        seq: u32,
        /// Broker-with-LE error against ground truth, in metres.
        err_le: f64,
        /// Broker-without-LE error against ground truth, in metres.
        err_raw: f64,
    },
    /// An online invariant monitor detected a conservation-law violation.
    InvariantViolation {
        /// The monitor that fired (see `monitor::MonitorKind::name`).
        monitor: crate::monitor::MonitorKind,
        /// The offending node's dense index, or `u32::MAX` for a
        /// population-wide violation.
        node: u32,
        /// The value the invariant required.
        expected: i64,
        /// The value actually observed.
        actual: i64,
    },
    /// The with-LE broker's stale-node count changed.
    StalenessTransition {
        /// Stale nodes after this tick.
        stale_nodes: u32,
        /// Stale nodes after the previous tick.
        previous: u32,
    },
    /// The broker service ingested one wire batch (emitted once per frame
    /// carrying a `BatchSpan` stamp, so the trace stitcher can attribute
    /// wire latency and server apply latency to the client's tick).
    IngestBatch {
        /// The client tick the batch was generated on (the stamp's tick).
        batch_tick: u64,
        /// The client's batch sequence number (monotonic per connection).
        batch_seq: u64,
        /// Records the server applied from this batch.
        records: u32,
        /// Client-send → server-receive wall-clock latency in µs (NaN —
        /// exported as `null` — when the stamp carried no send time).
        wire_us: f64,
        /// Server-side decode+apply time for the batch, in µs.
        apply_us: f64,
    },
}

/// An [`EventKind`] plus the logical stamp it was recorded at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When the event was recorded (logical time).
    pub stamp: Stamp,
    /// What happened.
    pub kind: EventKind,
}

/// One per-phase timing span: which phase ran, at which logical stamp,
/// over how many items. Spans are sampled from the monotonic tick clock —
/// never from wall time — so a recorded trace is replay-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// When the span was recorded (logical time).
    pub stamp: Stamp,
    /// The phase that ran.
    pub phase: Phase,
    /// Items the phase processed (nodes, frames, shards — phase-specific).
    pub items: u64,
}

/// A bounded ring buffer that keeps the most recent `capacity` items and
/// counts how many older ones it overwrote.
///
/// # Examples
///
/// ```
/// use mobigrid_telemetry::EventRing;
///
/// let mut ring: EventRing<u32> = EventRing::new(2);
/// ring.push(1);
/// ring.push(2);
/// ring.push(3);
/// assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventRing<T> {
    buf: Vec<T>,
    capacity: usize,
    start: usize,
    dropped: u64,
}

impl<T> EventRing<T> {
    /// An empty ring holding at most `capacity` items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            start: 0,
            dropped: 0,
        }
    }

    /// Appends an item, overwriting (and counting) the oldest one when
    /// full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.start] = item;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.start..].iter().chain(&self.buf[..self.start])
    }

    /// Items currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_items_in_order() {
        let mut ring: EventRing<u32> = EventRing::new(3);
        for v in 0..7 {
            ring.push(v);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn ring_below_capacity_preserves_everything() {
        let mut ring: EventRing<u32> = EventRing::new(8);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_counts_drops_across_multiple_full_wraps() {
        let mut ring: EventRing<u32> = EventRing::new(4);
        // 3 full wraps plus a partial one: 4 retained, the rest dropped.
        for v in 0..19 {
            ring.push(v);
        }
        assert_eq!(ring.dropped(), 15);
        assert_eq!(ring.len(), 4);
        assert_eq!(
            ring.iter().copied().collect::<Vec<_>>(),
            vec![15, 16, 17, 18]
        );
        // Dropped keeps counting monotonically on further wraps.
        for v in 19..27 {
            ring.push(v);
        }
        assert_eq!(ring.dropped(), 23);
        assert_eq!(
            ring.iter().copied().collect::<Vec<_>>(),
            vec![23, 24, 25, 26]
        );
    }

    #[test]
    fn ring_capacity_zero_clamps_to_one() {
        let mut ring: EventRing<u32> = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        assert!(ring.is_empty());
        ring.push(10);
        assert_eq!(ring.dropped(), 0);
        ring.push(11);
        ring.push(12);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![12]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn ring_iterates_oldest_first_at_every_overflow_offset() {
        // After overflow the ring's physical start rotates; iteration must
        // stay oldest-first no matter where the seam lands.
        for extra in 0..10u32 {
            let mut ring: EventRing<u32> = EventRing::new(3);
            let total = 3 + extra;
            for v in 0..total {
                ring.push(v);
            }
            let got: Vec<u32> = ring.iter().copied().collect();
            let want: Vec<u32> = (total - 3..total).collect();
            assert_eq!(got, want, "after {total} pushes");
            assert_eq!(ring.dropped(), u64::from(extra));
        }
    }
}
