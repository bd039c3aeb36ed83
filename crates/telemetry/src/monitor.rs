//! Online invariant monitors: conservation laws checked every tick.
//!
//! The pipeline assembles a [`TickVitals`] snapshot at the end of every
//! tick and runs a [`MonitorSet`] over it — with *any* recorder, including
//! the no-op one, because the monitors observe the simulation without
//! feeding back into it. Violations are surfaced as typed
//! [`Violation`] errors (collected by the simulation, assertable in tests
//! and CI) and, when a recorder is enabled, as
//! [`EventKind::InvariantViolation`](crate::EventKind::InvariantViolation)
//! events in the exported stream.
//!
//! The standard set checks four laws:
//!
//! 1. **Filter conservation** — every generated observation is either
//!    sent or suppressed: `generated == filter_sent + suppressed`.
//! 2. **Channel conservation** — every frame on the air is accounted
//!    for: `on_air == delivered + lost + no_coverage`, and the in-flight
//!    queue evolves exactly by `deferred - arrived_late`.
//! 3. **Seq monotonicity** — each node's wire sequence numbers advance by
//!    exactly one per transmission.
//! 4. **Staleness consistency** — each node's consecutive-loss counter
//!    matches the last-accepted-tick model: reset on acceptance,
//!    incremented on a loss, untouched otherwise; and the population
//!    stale count equals the number of nodes with positive staleness.
//!
//! Monitors keep per-node state across ticks. [`MonitorSet::standard`]
//! starts *strict* (sequence numbers and staleness are known to start at
//! zero); [`MonitorSet::resuming`] starts *lazy* (the first sighting of
//! each node establishes its baseline) — that is what the offline
//! `trace --check` replay uses, because a bounded event ring may have
//! dropped the head of the stream.

use std::fmt;

/// Which invariant monitor fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorKind {
    /// `generated == filter_sent + suppressed`.
    FilterConservation,
    /// `on_air == delivered + lost + no_coverage` plus in-flight
    /// continuity.
    ChannelConservation,
    /// Per-node wire sequence numbers advance by one per transmission.
    SeqMonotonicity,
    /// Per-node staleness counters match the loss/acceptance history.
    StalenessConsistency,
}

impl MonitorKind {
    /// The monitor's stable snake_case name, as used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MonitorKind::FilterConservation => "filter_conservation",
            MonitorKind::ChannelConservation => "channel_conservation",
            MonitorKind::SeqMonotonicity => "seq_monotonicity",
            MonitorKind::StalenessConsistency => "staleness_consistency",
        }
    }

    /// Parses the exporter name back (see [`MonitorKind::name`]).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "filter_conservation" => Some(MonitorKind::FilterConservation),
            "channel_conservation" => Some(MonitorKind::ChannelConservation),
            "seq_monotonicity" => Some(MonitorKind::SeqMonotonicity),
            "staleness_consistency" => Some(MonitorKind::StalenessConsistency),
            _ => None,
        }
    }
}

/// One detected invariant violation — a typed error for tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The monitor that fired.
    pub monitor: MonitorKind,
    /// The tick the violation was detected on.
    pub tick: u64,
    /// The offending node, when the invariant is per-node.
    pub node: Option<u32>,
    /// The value the invariant required.
    pub expected: i64,
    /// The value actually observed.
    pub actual: i64,
    /// A short fixed description of the broken relation.
    pub detail: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] tick {}", self.monitor.name(), self.tick)?;
        if let Some(node) = self.node {
            write!(f, " node {node}")?;
        }
        write!(
            f,
            ": {} (expected {}, got {})",
            self.detail, self.expected, self.actual
        )
    }
}

impl std::error::Error for Violation {}

/// What happened to one node's location update this tick, as seen by the
/// apply phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeFate {
    /// Nothing transmitted (suppressed, or no observation).
    #[default]
    Idle,
    /// Transmitted and delivered to the broker this tick.
    Accepted,
    /// Transmitted but lost in flight (dropped, corrupted or deferred).
    LostInFlight,
    /// Transmission attempted with no gateway coverage — never on the air
    /// as far as the broker is concerned.
    NoCoverage,
}

/// One tick's conservation-law inputs.
///
/// Aggregate fields are always meaningful. The per-node slices may be
/// empty (e.g. when a trace replay cannot reconstruct them); monitors
/// skip their per-node checks then. When non-empty they must all have the
/// population length, indexed by dense node id — except `wire_seqs`,
/// which may be empty on its own when transmitted sequence numbers are
/// unknown (a no-network trace export).
#[derive(Debug, Clone, Copy, Default)]
pub struct TickVitals<'a> {
    /// The tick these vitals describe.
    pub tick: u64,
    /// Observations generated this tick.
    pub generated: u64,
    /// Filter decisions that said "send".
    pub filter_sent: u64,
    /// Filter decisions that said "suppress".
    pub suppressed: u64,
    /// Frames that entered the network phase (first sends and retries,
    /// including out-of-coverage attempts).
    pub on_air: u64,
    /// Frames delivered to the broker this tick.
    pub delivered: u64,
    /// Frames transmitted but not delivered this tick (dropped, corrupted
    /// or deferred).
    pub lost: u64,
    /// Transmission attempts outside any gateway's coverage.
    pub no_coverage: u64,
    /// Frames newly deferred into the in-flight queue this tick.
    pub deferred: u64,
    /// Previously deferred frames that arrived this tick.
    pub arrived_late: u64,
    /// Frames still in the in-flight queue after this tick.
    pub in_flight: u64,
    /// Nodes the with-LE broker marks stale after this tick.
    pub stale_nodes: u32,
    /// Per-node apply fate (empty = skip per-node checks).
    pub node_fates: &'a [NodeFate],
    /// Per-node transmitted wire sequence number, valid where
    /// `node_fates` records a transmission (empty = skip the seq check).
    pub wire_seqs: &'a [u32],
    /// Per-node staleness counters after this tick.
    pub staleness: &'a [u32],
    /// Per-node flag: a late (previously deferred) frame was accepted for
    /// this node earlier in this tick, resetting its staleness.
    pub late_accepted: &'a [bool],
}

/// Checks `generated == filter_sent + suppressed`.
fn check_filter_conservation(v: &TickVitals<'_>, out: &mut Vec<Violation>) {
    let accounted = v.filter_sent + v.suppressed;
    if accounted != v.generated {
        out.push(Violation {
            monitor: MonitorKind::FilterConservation,
            tick: v.tick,
            node: None,
            expected: v.generated as i64,
            actual: accounted as i64,
            detail: "filter_sent + suppressed must equal generated",
        });
    }
}

/// Checks `on_air == delivered + lost + no_coverage` and the in-flight
/// queue's tick-to-tick continuity.
#[derive(Debug, Default)]
struct ChannelConservation {
    prev_in_flight: Option<u64>,
}

impl ChannelConservation {
    fn check_tick(&mut self, v: &TickVitals<'_>, out: &mut Vec<Violation>) {
        let accounted = v.delivered + v.lost + v.no_coverage;
        if accounted != v.on_air {
            out.push(Violation {
                monitor: MonitorKind::ChannelConservation,
                tick: v.tick,
                node: None,
                expected: v.on_air as i64,
                actual: accounted as i64,
                detail: "delivered + lost + no_coverage must equal on_air",
            });
        }
        if v.deferred > v.lost {
            out.push(Violation {
                monitor: MonitorKind::ChannelConservation,
                tick: v.tick,
                node: None,
                expected: v.lost as i64,
                actual: v.deferred as i64,
                detail: "deferred frames are a subset of lost frames",
            });
        }
        if let Some(prev) = self.prev_in_flight {
            let expected = prev as i64 + v.deferred as i64 - v.arrived_late as i64;
            if v.in_flight as i64 != expected {
                out.push(Violation {
                    monitor: MonitorKind::ChannelConservation,
                    tick: v.tick,
                    node: None,
                    expected,
                    actual: v.in_flight as i64,
                    detail: "in_flight must grow by deferred and shrink by late arrivals",
                });
            }
        }
        self.prev_in_flight = Some(v.in_flight);
    }
}

/// Checks that each node's transmitted wire sequence numbers advance by
/// exactly one per transmission (wrapping).
///
/// Strict mode (`STRICT`) knows sequence numbers start at 0 (a run
/// observed from its first tick), so every node counts as sighted and the
/// `sighted` column stays empty; lazy mode lets the first transmission seen
/// per node establish its baseline (a stream whose head may have been
/// dropped).
#[derive(Debug, Default)]
struct SeqMonotonicity {
    expected: Vec<u32>,
    /// Lazy mode only: whether the node's baseline is established.
    sighted: Vec<bool>,
}

impl SeqMonotonicity {
    /// One zipped pass over the tick's fates and wire seqs.
    fn check_tick<const STRICT: bool>(&mut self, v: &TickVitals<'_>, out: &mut Vec<Violation>) {
        let n = v.node_fates.len();
        if n == 0 || v.wire_seqs.len() != n {
            return;
        }
        if self.expected.len() < n {
            self.expected.resize(n, 0);
            if !STRICT {
                self.sighted.resize(n, false);
            }
        }
        let nodes = v
            .node_fates
            .iter()
            .zip(v.wire_seqs)
            .zip(&mut self.expected[..n])
            .enumerate();
        for (i, ((fate, &seq), expected)) in nodes {
            if *fate == NodeFate::Idle {
                continue;
            }
            let sighted = STRICT || std::mem::replace(&mut self.sighted[i], true);
            if sighted && seq != *expected {
                out.push(Violation {
                    monitor: MonitorKind::SeqMonotonicity,
                    tick: v.tick,
                    node: Some(i as u32),
                    expected: i64::from(*expected),
                    actual: i64::from(seq),
                    detail: "wire seq must advance by one per transmission",
                });
            }
            *expected = seq.wrapping_add(1);
        }
    }
}

/// Checks that per-node staleness counters match the loss/acceptance
/// model and that the population stale count agrees with them.
///
/// Strict mode (`STRICT`) knows staleness starts at 0 everywhere, so the
/// `sighted` column stays empty; lazy mode takes the first staleness value
/// seen per node as its baseline.
#[derive(Debug, Default)]
struct StalenessConsistency {
    prev: Vec<u32>,
    /// Lazy mode only: whether the node's baseline is established.
    sighted: Vec<bool>,
}

impl StalenessConsistency {
    /// One pass over the tick's staleness column, counting the stale nodes
    /// and, when the per-node slices are present, checking each node. The
    /// aggregate violation goes ahead of the tick's per-node ones.
    fn check_tick<const STRICT: bool>(&mut self, v: &TickVitals<'_>, out: &mut Vec<Violation>) {
        let n = v.staleness.len();
        if n == 0 {
            return;
        }
        let per_node = v.node_fates.len() == n && v.late_accepted.len() == n;
        if per_node && self.prev.len() < n {
            self.prev.resize(n, 0);
            if !STRICT {
                self.sighted.resize(n, false);
            }
        }
        let checked = if per_node { n } else { 0 };
        let (fates, late_accepted) = (&v.node_fates[..checked], &v.late_accepted[..checked]);
        let prev = &mut self.prev[..checked];
        let first = out.len();
        let mut stale = 0u32;
        for (i, &actual) in v.staleness.iter().enumerate() {
            stale += u32::from(actual > 0);
            if !per_node {
                continue;
            }
            let sighted = STRICT || std::mem::replace(&mut self.sighted[i], true);
            if sighted {
                // A late acceptance earlier in the tick reset the counter
                // before the apply phase ran.
                let base = if late_accepted[i] { 0 } else { prev[i] };
                let expected = match fates[i] {
                    NodeFate::Accepted => 0,
                    NodeFate::LostInFlight => base.saturating_add(1),
                    NodeFate::Idle | NodeFate::NoCoverage => base,
                };
                if actual != expected {
                    out.push(Violation {
                        monitor: MonitorKind::StalenessConsistency,
                        tick: v.tick,
                        node: Some(i as u32),
                        expected: i64::from(expected),
                        actual: i64::from(actual),
                        detail: "staleness must follow the loss/acceptance history",
                    });
                }
            }
            prev[i] = actual;
        }
        if stale != v.stale_nodes {
            out.insert(
                first,
                Violation {
                    monitor: MonitorKind::StalenessConsistency,
                    tick: v.tick,
                    node: None,
                    expected: i64::from(stale),
                    actual: i64::from(v.stale_nodes),
                    detail: "stale_nodes must count the nodes with positive staleness",
                },
            );
        }
    }
}

/// The four-law monitor battery the pipeline runs every tick.
///
/// Monitors may keep cross-tick state (previous counters, per-node
/// baselines); they push one [`Violation`] per broken relation and never
/// panic — violations are data, not aborts, so a monitor bug cannot take
/// down a release run.
#[derive(Debug)]
pub struct MonitorSet {
    /// Strict baselines ([`MonitorSet::standard`]) or lazy ones
    /// ([`MonitorSet::resuming`]).
    strict: bool,
    channel: ChannelConservation,
    seq: SeqMonotonicity,
    staleness: StalenessConsistency,
    scratch: Vec<Violation>,
}

impl MonitorSet {
    fn new(strict: bool) -> Self {
        MonitorSet {
            strict,
            channel: ChannelConservation::default(),
            seq: SeqMonotonicity::default(),
            staleness: StalenessConsistency::default(),
            scratch: Vec::new(),
        }
    }

    /// The standard battery in strict mode, for online checking from the
    /// first tick of a run.
    #[must_use]
    pub fn standard() -> Self {
        MonitorSet::new(true)
    }

    /// The standard battery in lazy-baseline mode, for replaying a stream
    /// whose head may have been truncated (the offline `trace --check`).
    #[must_use]
    pub fn resuming() -> Self {
        MonitorSet::new(false)
    }

    /// Runs every monitor over one tick's vitals and returns the
    /// violations found this tick (empty on a healthy tick), in monitor
    /// order: filter conservation, channel conservation, seq
    /// monotonicity, staleness consistency — within staleness
    /// consistency, the population stale-count violation ahead of the
    /// per-node ones. The returned slice is valid until the next call.
    ///
    /// Each per-node monitor makes one pass over its columns, and the
    /// stale count is taken in the staleness pass. The strict battery
    /// reads no `sighted` column: every node's baseline is known.
    pub fn check_tick(&mut self, vitals: &TickVitals<'_>) -> &[Violation] {
        self.scratch.clear();
        check_filter_conservation(vitals, &mut self.scratch);
        self.channel.check_tick(vitals, &mut self.scratch);
        if self.strict {
            self.seq.check_tick::<true>(vitals, &mut self.scratch);
            self.staleness.check_tick::<true>(vitals, &mut self.scratch);
        } else {
            self.seq.check_tick::<false>(vitals, &mut self.scratch);
            self.staleness
                .check_tick::<false>(vitals, &mut self.scratch);
        }
        &self.scratch
    }
}

/// The per-node monitors as plain loops — two passes for staleness, a
/// `sighted` column in either mode — kept as the oracle the one-pass
/// monitors are tested against.
#[cfg(test)]
mod reference {
    use super::{MonitorKind, NodeFate, TickVitals, Violation};

    /// Checks that each node's transmitted wire sequence numbers advance by
    /// exactly one per transmission (wrapping).
    ///
    /// Strict mode knows sequence numbers start at 0 (a run observed from its
    /// first tick); lazy mode lets the first transmission seen per node
    /// establish its baseline (a stream whose head may have been dropped).
    #[derive(Debug)]
    pub(super) struct SeqMonotonicity {
        strict: bool,
        pub(super) expected: Vec<u32>,
        pub(super) sighted: Vec<bool>,
    }

    impl SeqMonotonicity {
        pub(super) fn new(strict: bool) -> Self {
            SeqMonotonicity {
                strict,
                expected: Vec::new(),
                sighted: Vec::new(),
            }
        }

        pub(super) fn check_tick(&mut self, v: &TickVitals<'_>, out: &mut Vec<Violation>) {
            if v.node_fates.is_empty() || v.wire_seqs.len() != v.node_fates.len() {
                return;
            }
            if self.expected.len() < v.node_fates.len() {
                self.expected.resize(v.node_fates.len(), 0);
                self.sighted.resize(v.node_fates.len(), self.strict);
            }
            for (i, fate) in v.node_fates.iter().enumerate() {
                if *fate == NodeFate::Idle {
                    continue;
                }
                let seq = v.wire_seqs[i];
                if self.sighted[i] && seq != self.expected[i] {
                    out.push(Violation {
                        monitor: MonitorKind::SeqMonotonicity,
                        tick: v.tick,
                        node: Some(i as u32),
                        expected: i64::from(self.expected[i]),
                        actual: i64::from(seq),
                        detail: "wire seq must advance by one per transmission",
                    });
                }
                self.sighted[i] = true;
                self.expected[i] = seq.wrapping_add(1);
            }
        }
    }

    /// Checks that per-node staleness counters match the loss/acceptance
    /// model and that the population stale count agrees with them.
    ///
    /// Strict mode knows staleness starts at 0 everywhere; lazy mode takes
    /// the first staleness value seen per node as its baseline.
    #[derive(Debug)]
    pub(super) struct StalenessConsistency {
        strict: bool,
        pub(super) prev: Vec<u32>,
        pub(super) sighted: Vec<bool>,
    }

    impl StalenessConsistency {
        pub(super) fn new(strict: bool) -> Self {
            StalenessConsistency {
                strict,
                prev: Vec::new(),
                sighted: Vec::new(),
            }
        }

        pub(super) fn check_tick(&mut self, v: &TickVitals<'_>, out: &mut Vec<Violation>) {
            if v.staleness.is_empty() {
                return;
            }
            let stale = v.staleness.iter().filter(|s| **s > 0).count() as u32;
            if stale != v.stale_nodes {
                out.push(Violation {
                    monitor: MonitorKind::StalenessConsistency,
                    tick: v.tick,
                    node: None,
                    expected: i64::from(stale),
                    actual: i64::from(v.stale_nodes),
                    detail: "stale_nodes must count the nodes with positive staleness",
                });
            }
            if v.node_fates.len() != v.staleness.len() || v.late_accepted.len() != v.staleness.len()
            {
                return;
            }
            if self.prev.len() < v.staleness.len() {
                self.prev.resize(v.staleness.len(), 0);
                self.sighted.resize(v.staleness.len(), self.strict);
            }
            for (i, fate) in v.node_fates.iter().enumerate() {
                let actual = v.staleness[i];
                if self.sighted[i] {
                    // A late acceptance earlier in the tick reset the counter
                    // before the apply phase ran.
                    let base = if v.late_accepted[i] { 0 } else { self.prev[i] };
                    let expected = match fate {
                        NodeFate::Accepted => 0,
                        NodeFate::LostInFlight => base.saturating_add(1),
                        NodeFate::Idle | NodeFate::NoCoverage => base,
                    };
                    if actual != expected {
                        out.push(Violation {
                            monitor: MonitorKind::StalenessConsistency,
                            tick: v.tick,
                            node: Some(i as u32),
                            expected: i64::from(expected),
                            actual: i64::from(actual),
                            detail: "staleness must follow the loss/acceptance history",
                        });
                    }
                }
                self.sighted[i] = true;
                self.prev[i] = actual;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy<'a>() -> TickVitals<'a> {
        TickVitals {
            tick: 5,
            generated: 10,
            filter_sent: 4,
            suppressed: 6,
            on_air: 4,
            delivered: 3,
            lost: 1,
            no_coverage: 0,
            deferred: 1,
            arrived_late: 0,
            in_flight: 1,
            ..TickVitals::default()
        }
    }

    #[test]
    fn healthy_tick_raises_nothing() {
        let mut set = MonitorSet::standard();
        assert!(set.check_tick(&healthy()).is_empty());
    }

    #[test]
    fn filter_conservation_fires_on_unaccounted_observations() {
        let mut set = MonitorSet::standard();
        let v = TickVitals {
            suppressed: 5, // 4 + 5 != 10
            ..healthy()
        };
        let violations = set.check_tick(&v);
        assert_eq!(violations.len(), 1);
        let violation = violations[0];
        assert_eq!(violation.monitor, MonitorKind::FilterConservation);
        assert_eq!((violation.expected, violation.actual), (10, 9));
        assert_eq!(violation.tick, 5);
        let msg = violation.to_string();
        assert!(msg.contains("filter_conservation"), "{msg}");
        assert!(msg.contains("tick 5"), "{msg}");
    }

    #[test]
    fn channel_conservation_fires_on_leaked_frames() {
        let mut set = MonitorSet::standard();
        let v = TickVitals {
            delivered: 2, // 2 + 1 + 0 != 4
            ..healthy()
        };
        let violations = set.check_tick(&v);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].monitor, MonitorKind::ChannelConservation);
    }

    #[test]
    fn in_flight_continuity_is_tracked_across_ticks() {
        let mut set = MonitorSet::standard();
        assert!(set.check_tick(&healthy()).is_empty()); // in_flight = 1
        let v = TickVitals {
            tick: 6,
            deferred: 0,
            arrived_late: 0,
            lost: 1,
            in_flight: 3, // should still be 1
            ..healthy()
        };
        let violations = set.check_tick(&v);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].monitor, MonitorKind::ChannelConservation);
        assert_eq!((violations[0].expected, violations[0].actual), (1, 3));
    }

    #[test]
    fn deferred_must_not_exceed_lost() {
        let mut set = MonitorSet::standard();
        let v = TickVitals {
            deferred: 2,
            lost: 1,
            delivered: 3,
            in_flight: 2,
            ..healthy()
        };
        let violations = set.check_tick(&v);
        assert!(violations
            .iter()
            .any(|x| x.detail.contains("subset of lost")));
    }

    #[test]
    fn seq_monotonicity_accepts_the_strict_start_and_flags_gaps() {
        let mut set = MonitorSet::standard();
        let fates = [NodeFate::Accepted, NodeFate::Idle];
        let stale = [0u32, 0];
        let late = [false, false];
        let good = TickVitals {
            generated: 2,
            filter_sent: 1,
            suppressed: 1,
            on_air: 1,
            delivered: 1,
            lost: 0,
            deferred: 0,
            in_flight: 0,
            node_fates: &fates,
            wire_seqs: &[0, 0],
            staleness: &stale,
            late_accepted: &late,
            ..TickVitals::default()
        };
        assert!(set.check_tick(&good).is_empty());
        // The next transmission must carry seq 1; a replayed 0 is flagged.
        let bad = TickVitals {
            tick: 2,
            wire_seqs: &[0, 0],
            ..good
        };
        let violations = set.check_tick(&bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].monitor, MonitorKind::SeqMonotonicity);
        assert_eq!(violations[0].node, Some(0));
    }

    #[test]
    fn resuming_seq_monitor_adopts_the_first_seen_baseline() {
        let mut set = MonitorSet::resuming();
        let fates = [NodeFate::Accepted];
        let stale = [0u32];
        let late = [false];
        let mid_stream = TickVitals {
            generated: 1,
            filter_sent: 1,
            on_air: 1,
            delivered: 1,
            node_fates: &fates,
            wire_seqs: &[41], // head of the stream was dropped
            staleness: &stale,
            late_accepted: &late,
            ..TickVitals::default()
        };
        assert!(set.check_tick(&mid_stream).is_empty());
        let next = TickVitals {
            tick: 1,
            wire_seqs: &[42],
            ..mid_stream
        };
        assert!(set.check_tick(&next).is_empty());
        let broken = TickVitals {
            tick: 2,
            wire_seqs: &[44], // skipped 43
            ..mid_stream
        };
        assert_eq!(set.check_tick(&broken).len(), 1);
    }

    #[test]
    fn staleness_model_tracks_losses_accepts_and_late_resets() {
        let mut set = MonitorSet::standard();
        let fates = [NodeFate::LostInFlight];
        let late = [false];
        let tick1 = TickVitals {
            generated: 1,
            filter_sent: 1,
            on_air: 1,
            lost: 1,
            stale_nodes: 1,
            node_fates: &fates,
            wire_seqs: &[0],
            staleness: &[1],
            late_accepted: &late,
            ..TickVitals::default()
        };
        assert!(set.check_tick(&tick1).is_empty());
        // A second loss must make it 2 — a frozen counter is a violation.
        // This loss defers the frame so a late arrival exists for tick 3.
        let tick2 = TickVitals {
            tick: 1,
            wire_seqs: &[1],
            staleness: &[1],
            deferred: 1,
            in_flight: 1,
            ..tick1
        };
        let violations = set.check_tick(&tick2);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].monitor, MonitorKind::StalenessConsistency);
        assert_eq!((violations[0].expected, violations[0].actual), (2, 1));
        // The deferred frame arrives late and is accepted, resetting the
        // baseline before this tick's fresh loss bumps it back to 1.
        let tick3 = TickVitals {
            tick: 2,
            wire_seqs: &[2],
            staleness: &[1],
            arrived_late: 1,
            in_flight: 0,
            late_accepted: &[true],
            ..tick1
        };
        assert!(set.check_tick(&tick3).is_empty());
    }

    #[test]
    fn stale_count_must_match_per_node_counters() {
        let mut set = MonitorSet::standard();
        let v = TickVitals {
            generated: 2,
            suppressed: 2,
            stale_nodes: 0, // but one node is stale below
            node_fates: &[NodeFate::Idle, NodeFate::Idle],
            wire_seqs: &[0, 0],
            staleness: &[3, 0],
            late_accepted: &[false, false],
            ..TickVitals::default()
        };
        let violations = set.check_tick(&v);
        assert!(violations
            .iter()
            .any(|x| x.monitor == MonitorKind::StalenessConsistency && x.node.is_none()));
    }

    #[test]
    fn empty_slices_skip_per_node_checks() {
        let mut set = MonitorSet::standard();
        // Aggregates only — per-node monitors must not fire or panic.
        assert!(set.check_tick(&healthy()).is_empty());
    }

    /// The model a generated tick sequence is driven by: per node, the
    /// next wire seq and the staleness counter the broker would hold.
    struct Model {
        seq: Vec<u32>,
        staleness: Vec<u32>,
    }

    proptest::proptest! {
        /// The one-pass monitors, strict and lazy, report exactly what the
        /// plain reference loops report, in the same order, and keep the
        /// same baselines, over random vitals with injected seq gaps,
        /// staleness jumps, late resets and a wrong `stale_nodes`.
        #[test]
        fn one_pass_monitors_match_the_reference_loops(
            n in 1usize..24,
            ticks in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..8, 0u8..16, 0u8..16, proptest::prelude::any::<bool>()), 24),
                    0u8..8,
                    0u8..8,
                ),
                1..16,
            ),
            start in 0u32..1000,
        ) {
            for strict in [true, false] {
                let mut set = MonitorSet::new(strict);
                let mut seq_ref = reference::SeqMonotonicity::new(strict);
                let mut stale_ref = reference::StalenessConsistency::new(strict);
                // A lazy replay may join mid-stream: start from arbitrary
                // baselines.
                let base = if strict { 0 } else { start };
                let mut model = Model { seq: vec![base; n], staleness: vec![0; n] };
                // Each tick: per node `(fate, seq glitch, staleness jump,
                // late reset)` selectors, an error in `stale_nodes`, and
                // which per-node slices the vitals carry.
                for (tick, (nodes, stale_error, slices)) in ticks.iter().enumerate() {
                    let (fates, wire_seqs, staleness, late) = generate(&mut model, &nodes[..n]);
                    let true_stale = staleness.iter().filter(|s| **s > 0).count() as u32;
                    let stale_nodes = true_stale + u32::from(*stale_error == 0);
                    // Mostly full vitals; sometimes no wire seqs, or no
                    // per-node staleness inputs.
                    let empty_seqs: &[u32] = &[];
                    let empty_late: &[bool] = &[];
                    let v = TickVitals {
                        tick: tick as u64,
                        stale_nodes,
                        node_fates: &fates,
                        wire_seqs: if *slices == 0 { empty_seqs } else { &wire_seqs },
                        staleness: &staleness,
                        late_accepted: if *slices == 1 { empty_late } else { &late },
                        ..TickVitals::default()
                    };
                    let mut expected = Vec::new();
                    seq_ref.check_tick(&v, &mut expected);
                    stale_ref.check_tick(&v, &mut expected);
                    proptest::prop_assert_eq!(set.check_tick(&v), &expected[..]);
                    proptest::prop_assert_eq!(&set.seq.expected, &seq_ref.expected);
                    proptest::prop_assert_eq!(&set.staleness.prev, &stale_ref.prev);
                    if strict {
                        proptest::prop_assert!(set.seq.sighted.is_empty());
                        proptest::prop_assert!(set.staleness.sighted.is_empty());
                        proptest::prop_assert!(seq_ref.sighted.iter().all(|s| *s));
                        proptest::prop_assert!(stale_ref.sighted.iter().all(|s| *s));
                    } else {
                        proptest::prop_assert_eq!(&set.seq.sighted, &seq_ref.sighted);
                        proptest::prop_assert_eq!(&set.staleness.sighted, &stale_ref.sighted);
                    }
                }
            }
        }
    }

    /// Advances `model` by one tick of `nodes` selectors: mostly lawful
    /// fates, seqs and staleness, with the occasional seq gap, staleness
    /// jump and late reset. Returns the tick's per-node columns.
    fn generate(
        model: &mut Model,
        nodes: &[(u8, u8, u8, bool)],
    ) -> (Vec<NodeFate>, Vec<u32>, Vec<u32>, Vec<bool>) {
        let mut columns = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, &(fate, glitch, jump, late)) in nodes.iter().enumerate() {
            let fate = match fate {
                0..=3 => NodeFate::Idle,
                4 | 5 => NodeFate::Accepted,
                6 => NodeFate::LostInFlight,
                _ => NodeFate::NoCoverage,
            };
            // A late reset lands on a fifth of the nodes.
            let late = late && glitch % 5 == 0;
            let mut wire_seq = 0;
            if fate != NodeFate::Idle {
                wire_seq = model.seq[i].wrapping_add(u32::from(glitch == 0) * u32::from(jump));
                model.seq[i] = wire_seq.wrapping_add(1);
            }
            let base = if late { 0 } else { model.staleness[i] };
            let mut staleness = match fate {
                NodeFate::Accepted => 0,
                NodeFate::LostInFlight => base + 1,
                NodeFate::Idle | NodeFate::NoCoverage => base,
            };
            if jump == 0 {
                staleness += u32::from(glitch) + 1;
            }
            model.staleness[i] = staleness;
            columns.0.push(fate);
            columns.1.push(wire_seq);
            columns.2.push(staleness);
            columns.3.push(late);
        }
        columns
    }

    #[test]
    fn monitor_kind_names_round_trip() {
        for kind in [
            MonitorKind::FilterConservation,
            MonitorKind::ChannelConservation,
            MonitorKind::SeqMonotonicity,
            MonitorKind::StalenessConsistency,
        ] {
            assert_eq!(MonitorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(MonitorKind::from_name("nope"), None);
    }
}
